"""Correctness checks on the artifacts of one CLI operation.

Each check returns ``(problems, diagnostics, trials)``: a list of failed
conditions (empty when the operation is correct), numbers reported but
never gated on, and the Monte Carlo trials the operation completed as
read from its outputs.  The gated tolerances are those of the
acceptance suite (``tests/test_acceptance.py``); nothing is compared
byte for byte against earlier runs, because a new trial engine may
legitimately draw different random streams.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import traceback
from pathlib import Path

# (report key, target, tolerance); criteria 1-3 of the acceptance suite,
# with relative tolerances written out as absolute ones.  Criterion 3 is
# applied to the report's rates, which the shipped config calibrates to
# b1 = 4.7e-8 per atom.
PARAMS_REPORT_CRITERIA = (
    ("antinode_cooperativity_probe", 0.203, 0.007),
    ("eta_ratio", 0.47, 0.01),
    ("domega_dn_kappa", 4.5e-5, 0.2e-5),
    ("phase_per_photon_max_urad", 253.0, 8.0),
    ("shift_per_atom_f2_kappa", 39e-6, 0.15 * 39e-6),
    ("shift_per_atom_f1_kappa", -49e-6, 0.15 * 49e-6),
    ("p_raman", 5.6e-8, 0.20 * 5.6e-8),
    ("p_total_to_raman", 3.0, 0.4),
)
B1_PER_ATOM = (4.7e-8, 0.20 * 4.7e-8)

# criterion 7: scattering floor, optimum photon number, contrast loss
LIMITS_CRITERIA = (
    ("sigma2_min_db", -18.3, 0.2),
    ("contrast_loss", 0.012, 0.002),
)
P_OPT_TIMES_P_RAMAN = (0.012, 0.001)

# criterion 5: conditional spin noise at p = 6.4e5
FIG3_CRITERION = (6.4e5, -8.9, 1.0)


def _within(problems, label, value, target, tol):
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - target) <= tol):
        problems.append(f"{label} = {value!r}, expected {target} +- {tol:g}")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, text in row.items():
            try:
                row[key] = float(text)
            except (TypeError, ValueError):
                pass
    return rows


def _finite(problems, name, rows, skip=()):
    for i, row in enumerate(rows):
        for key, value in row.items():
            if key in skip:
                continue
            if not (isinstance(value, float) and math.isfinite(value)):
                problems.append(f"{name} row {i}: {key} = {value!r} is not a finite number")
                return


def _positive(problems, name, rows, keys):
    for i, row in enumerate(rows):
        for key in keys:
            if not row.get(key, 0.0) > 0.0:
                problems.append(f"{name} row {i}: {key} = {row.get(key)!r} is not > 0")
                return


def check_manifest(out_dir: Path) -> list[str]:
    """The operation wrote one manifest and every hash in it matches its file."""
    found = sorted(out_dir.glob("*_manifest.json"))
    if len(found) != 1:
        return [f"expected one manifest in the output directory, found {len(found)}"]
    manifest = json.loads(found[0].read_text())
    problems = []
    outputs = manifest.get("outputs") or {}
    if not outputs:
        problems.append("manifest lists no outputs")
    for name, digest in outputs.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"manifest lists {name}, which was not written")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} does not match its manifest hash")
    return problems


def _resolved(out_dir: Path) -> dict:
    return json.loads((out_dir / "resolved_config.json").read_text())


def check_params_report(out_dir: Path, n_trials: int):
    report = json.loads((out_dir / "params_report.json").read_text())
    problems = []
    for key, target, tol in PARAMS_REPORT_CRITERIA:
        _within(problems, key, report.get(key), target, tol)
    b1 = report["b1_per_photon"] / report["effective_atom_number"]
    _within(problems, "b1_per_photon / effective_atom_number", b1, *B1_PER_ATOM)
    return problems, {}, 0


def check_limits(out_dir: Path, n_trials: int):
    report = json.loads((out_dir / "limits.json").read_text())
    problems = []
    for key, target, tol in LIMITS_CRITERIA:
        _within(problems, key, report.get(key), target, tol)
    p_opt_p_ram = report["p_opt"] * report["inputs"]["p_raman"]
    _within(problems, "p_opt * p_raman", p_opt_p_ram, *P_OPT_TIMES_P_RAMAN)
    return problems, {}, 0


def check_fig3(out_dir: Path, n_trials: int):
    rows = _read_csv(out_dir / "fig3.csv")
    grid = _resolved(out_dir)["scenarios"]["fig3"]["photon_grid"]
    problems = []
    if len(rows) != len(grid):
        problems.append(f"fig3.csv has {len(rows)} rows for a {len(grid)}-point grid")
    _finite(problems, "fig3.csv", rows)
    _positive(problems, "fig3.csv", rows, ("sigma2", "sigma2_err"))
    p, target, tol = FIG3_CRITERION
    at_p = [r for r in rows if r.get("p") == p]
    if len(at_p) != 1:
        problems.append(f"fig3.csv has no row at p = {p:g}")
    else:
        _within(problems, f"sigma2_db at p = {p:g}", at_p[0]["sigma2_db"], target, tol)
    # Monte Carlo minus model in standard errors, per grid point: reported only
    residual_se = [
        (r["sigma2"] - r["sigma2_model"]) / r["sigma2_err"]
        for r in rows if isinstance(r.get("sigma2_err"), float) and r["sigma2_err"] > 0
    ]
    diagnostics = {"p": [r.get("p") for r in rows],
                   "sigma2_db": [r.get("sigma2_db") for r in rows],
                   "sigma2_residual_se": residual_se}
    return problems, diagnostics, len(rows) * n_trials


def check_fig2(out_dir: Path, n_trials: int):
    rows = _read_csv(out_dir / "fig2.csv")
    grid = _resolved(out_dir)["scenarios"]["fig2"]["atom_grid"]
    problems = []
    if len(rows) != len(grid):
        problems.append(f"fig2.csv has {len(rows)} rows for a {len(grid)}-point grid")
    _finite(problems, "fig2.csv", rows)
    _positive(problems, "fig2.csv", rows,
              ("y1", "y1_err", "y2", "y2_err", "meas2", "meas2_err"))
    # y2 / N0 is the double-preparation CSS check; a known engine defect
    # biases it by several percent, so it is reported, not gated on
    diagnostics = {"N0": [r.get("N0") for r in rows],
                   "y1_over_n0": [r["y1"] / r["N0"] for r in rows if r.get("N0")],
                   "y2_over_n0": [r["y2"] / r["N0"] for r in rows if r.get("N0")]}
    # one squeeze-readout and one double-prep run per grid point
    return problems, diagnostics, 2 * len(rows) * n_trials


def check_rotation(out_dir: Path, n_trials: int):
    rows = _read_csv(out_dir / "rotation.csv")
    angles = _resolved(out_dir)["scenarios"]["rotation"]["angles_deg"]
    problems = []
    if len(rows) != len(angles):
        problems.append(f"rotation.csv has {len(rows)} rows for {len(angles)} angles")
    _finite(problems, "rotation.csv", rows)
    _positive(problems, "rotation.csv", rows, ("var_alpha_err", "model"))
    residual_se = [(r["var_alpha"] - r["model"]) / r["var_alpha_err"]
                   for r in rows if isinstance(r.get("var_alpha_err"), float)
                   and r["var_alpha_err"] > 0]
    # one reference readout run plus one run per angle
    return problems, {"var_alpha_residual_se": residual_se}, (len(rows) + 1) * n_trials


def check_ramsey(out_dir: Path, n_trials: int):
    rows = _read_csv(out_dir / "ramsey.csv")
    problems = []
    if len(rows) != 2:
        problems.append(f"ramsey.csv has {len(rows)} rows, expected 2")
    _finite(problems, "ramsey.csv", rows, skip=("sequence",))
    _positive(problems, "ramsey.csv", rows, ("sigma2",))
    return problems, {"sigma2_db": [r.get("sigma2_db") for r in rows]}, len(rows) * n_trials


SCENARIO_CHECKS = {
    "params-report": check_params_report,
    "limits": check_limits,
    "fig3": check_fig3,
    "fig2": check_fig2,
    "rotation": check_rotation,
    "ramsey": check_ramsey,
}


def check_run(scenario: str, out_dir: Path, n_trials: int):
    """Manifest hashes plus the scenario's own checks on its artifacts."""
    try:
        problems = check_manifest(out_dir)
        more, diagnostics, trials = SCENARIO_CHECKS[scenario](out_dir, n_trials)
    except Exception:  # noqa: BLE001 - unreadable artifacts fail the operation
        return [f"{scenario} artifacts unreadable: {traceback.format_exc(limit=2)}"], {}, 0
    return problems + more, diagnostics, trials
