"""Rb-87 D2 line constants.

Values ship in a versioned JSON file (``data/rb87_d2.json``) sourced
from the standard published Rb-87 line-data compilation, so every
downstream number is auditable against it.  The file stores ordinary
frequencies in Hz; this module converts to angular frequencies at the
boundary and everything internal is angular (rad/s).

Excited-level offsets are energies of the 5P3/2 hyperfine levels F'=0..3
relative to F'=3, so that a laser detuning quoted "from F=2 -> F'=3"
maps directly onto per-line detunings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    speed_of_light: float               # m/s
    rb87_d2_linewidth: float            # Gamma, angular rad/s
    rb87_ground_hyperfine_splitting: float   # angular rad/s
    rb87_excited_level_offsets: dict    # F' -> angular rad/s relative to F'=3
    line_strengths: dict                # F -> {F': S_FF'}, sum_F' S_FF' = 1
    d2_oscillator_strength: float       # f = 2/3 exactly
    version: str

    def __post_init__(self):
        if (self.speed_of_light <= 0 or self.rb87_d2_linewidth <= 0
                or self.rb87_ground_hyperfine_splitting <= 0):
            raise ValueError("constants must be strictly positive")
        if abs(self.d2_oscillator_strength - 2.0 / 3.0) > 1e-12:
            raise ValueError("D2 oscillator strength must be exactly 2/3")

    def line_detunings(self, f_ground: int, detuning_f2_f3: float) -> dict:
        """Laser detuning (angular) from each dipole-allowed F -> F' line.

        `detuning_f2_f3` is the laser offset from F=2 -> F'=3 (angular);
        the result maps F' to the detuning from F -> F'.
        """
        ground = self.rb87_ground_hyperfine_splitting if f_ground == 1 else 0.0
        return {
            f_exc: detuning_f2_f3 - offset - ground
            for f_exc, offset in self.rb87_excited_level_offsets.items()
            if abs(f_exc - f_ground) <= 1
        }

    def strength(self, f_ground: int, f_excited: int) -> float:
        """Hyperfine strength factor S_FF' (0 if dipole-forbidden)."""
        return self.line_strengths.get(f_ground, {}).get(f_excited, 0.0)


def _number(value):
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def load_constants(path: str | Path | None = None) -> PhysicalConstants:
    """Load constants from JSON; defaults to the packaged Rb-87 D2 file.

    Raises ValueError naming the entry that is missing or malformed.
    """
    if path is None:
        text = (
            resources.files("qndspin").joinpath("data/rb87_d2.json").read_text()
        )
    else:
        text = Path(path).read_text()
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object")

    def entry(key, convert=_number):
        try:
            return convert(raw[key])
        except KeyError:
            raise ValueError(f"no {key!r} entry") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as err:
            raise ValueError(f"{key!r} entry is malformed: {err}") from None

    return PhysicalConstants(
        speed_of_light=entry("speed_of_light_m_s"),
        rb87_d2_linewidth=TWO_PI * entry("gamma_hz"),
        rb87_ground_hyperfine_splitting=TWO_PI * entry("ground_splitting_hz"),
        rb87_excited_level_offsets=entry("excited_level_offsets_hz", lambda d: {
            int(k): TWO_PI * _number(v) for k, v in d.items()
        }),
        line_strengths=entry("line_strengths", lambda d: {
            int(F): {int(Fp): _number(s) for Fp, s in row.items()}
            for F, row in d.items()
        }),
        d2_oscillator_strength=entry("d2_oscillator_strength"),
        version=entry("version", str),
    )


RB87 = load_constants()
