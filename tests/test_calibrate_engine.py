"""Smoke test of tests/calibrate_engine.py, which pytest does not collect.

Each calibration check runs once at the script's first seed and must
return a finite z and a positive bound for every entry it gates.
"""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "calibrate_engine", Path(__file__).parent / "calibrate_engine.py"
)
calibrate_engine = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate_engine)


@pytest.mark.parametrize("name", list(calibrate_engine.CHECKS))
def test_check_runs(name):
    out = calibrate_engine.CHECKS[name](900_000)
    assert out
    for entry, (z, bound) in out.items():
        assert math.isfinite(z) and math.isfinite(bound) and bound > 0, entry
