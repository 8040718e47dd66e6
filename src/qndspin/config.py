"""Run configuration: JSON schema, validation, and physics assembly.

The shipped default configuration resolves to the reference apparatus
parameters.  Interfaces use ordinary frequencies (MHz/GHz) and lab units
(mm, um, us); everything becomes angular/SI when the physics objects
are built.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema

from .cavity import CouplingSummary, EnsembleConfig, ResonatorParams, coupling_summary
from .constants import TWO_PI, PhysicalConstants, load_constants
from .measurement import NoiseSwitches, ProbeConfig
from .scattering import ScatteringRates, raman_noise_coefficient, raman_rates
from .spinstate import PreparationModel, PulseModel

_number = {"type": "number"}
_positive = {"type": "number", "exclusiveMinimum": 0}
_preparation = {
    "type": "object",
    "properties": {
        "prep_noise_factor": {"type": "number", "minimum": 1},
        "impurity_fraction": {"type": "number", "minimum": 0, "maximum": 0.2},
        "initial_contrast": {
            "type": "number", "exclusiveMinimum": 0, "maximum": 1,
        },
        "quadratic_noise_a2": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["resonator", "ensemble", "probe", "n_trials", "master_seed"],
    "properties": {
        "constants_file": {"type": ["string", "null"]},
        "resonator": {
            "type": "object",
            "required": [
                "wavelength_nm", "mirror_separation_mm", "linewidth_mhz",
                "finesse", "mode_waist_um",
            ],
            "properties": {
                "wavelength_nm": _positive,
                "mirror_separation_mm": _positive,
                "linewidth_mhz": _positive,
                "finesse": _positive,
                "mode_waist_um": _positive,
            },
            "additionalProperties": False,
        },
        "ensemble": {
            "type": "object",
            "required": ["physical_atom_number", "rms_radius_um"],
            "properties": {
                "physical_atom_number": {"type": "number", "minimum": 0},
                "rms_radius_um": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "probe": {
            "type": "object",
            "required": ["detuning_f2_f3_ghz", "photons_per_measurement"],
            "properties": {
                "detuning_f2_f3_ghz": _number,
                "compensation_detuning_f2_f3_ghz": _number,
                "photons_per_measurement": {"type": "number", "minimum": 0},
                "quantum_efficiency": {
                    "type": "number", "exclusiveMinimum": 0, "maximum": 1,
                },
                "apd_excess_factor": {"type": "number", "minimum": 1},
                "electronic_noise_b2": {"type": "number", "minimum": 0},
                "technical_noise_fraction": {"type": "number", "minimum": 0},
                "technical_correlation": {
                    "type": "number", "minimum": -1, "maximum": 1,
                },
            },
            "additionalProperties": False,
        },
        "pulses": {
            "type": "object",
            "properties": {
                "composite_pi_infidelity": {
                    "type": "number", "minimum": 0, "maximum": 0.1,
                },
                "lock_light_mu": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "preparation": _preparation,
        "contrast_model": {
            "type": "object",
            "properties": {
                "c0": _positive,
                "alpha": {"type": "number", "minimum": 0},
                "beta": {"type": "number", "minimum": 0},
                "readout_loss": {"type": "number", "minimum": 0, "maximum": 0.5},
            },
            "additionalProperties": False,
        },
        "noise": {
            "type": "object",
            "properties": {
                k: {"type": "boolean"}
                for k in ("shot", "electronic", "technical", "raman", "microwave")
            },
            "additionalProperties": False,
        },
        "scattering": {
            "type": "object",
            "properties": {
                "b1_target_per_atom": {
                    "type": ["number", "null"], "exclusiveMinimum": 0,
                },
            },
            "additionalProperties": False,
        },
        "scenarios": {
            "type": "object",
            "properties": {
                "fig2": {
                    "type": "object",
                    "properties": {
                        "atom_grid": {
                            "type": "array", "items": _positive, "minItems": 1,
                        },
                        "preparation": _preparation,
                    },
                    "additionalProperties": False,
                },
                "fig3": {
                    "type": "object",
                    "properties": {
                        "photon_grid": {
                            "type": "array", "items": _positive, "minItems": 1,
                        },
                    },
                    "additionalProperties": False,
                },
                "rotation": {
                    "type": "object",
                    "properties": {
                        "photons": _positive,
                        "angles_deg": {
                            "type": "array", "items": _number, "minItems": 1,
                        },
                    },
                    "additionalProperties": False,
                },
                "ramsey": {
                    "type": "object",
                    "properties": {
                        "precession_phase": _number,
                        "phase_noise_rms": {"type": "number", "minimum": 0},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "n_trials": {"type": "integer", "minimum": 2},
        "master_seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
    },
}


class ConfigError(ValueError):
    """Raised with the full list of schema violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _reject_constant(name: str):
    # json accepts NaN and +-Infinity, which pass every numeric bound
    raise ConfigError([f"config is not valid JSON: {name} is not a number"])


def default_config() -> dict:
    text = resources.files("qndspin").joinpath("data/default_config.json").read_text()
    return json.loads(text, parse_constant=_reject_constant)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    constants: PhysicalConstants
    resonator: ResonatorParams
    ensemble: EnsembleConfig
    couplings: CouplingSummary
    probe: ProbeConfig
    preparation: PreparationModel
    pulses: PulseModel
    rates: ScatteringRates
    n_trials: int
    master_seed: int
    output_dir: str

    @property
    def n0(self) -> float:
        return self.couplings.effective_atom_number

    @property
    def contrast_params(self) -> dict:
        return self.raw["contrast_model"]

    def scenario_options(self, name: str) -> dict:
        return self.raw["scenarios"][name]

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()


def _build(raw: dict) -> RunConfig:
    """Assemble the physics objects from a merged, schema-valid config.

    Every key is present because load_and_validate merges onto the
    shipped defaults, so values are read directly.
    """
    cf = raw["constants_file"]
    try:
        constants = load_constants(cf)
    except (OSError, ValueError) as err:
        raise ConfigError([f"constants_file {cf!r}: {err}"]) from err
    res = raw["resonator"]
    resonator = ResonatorParams(
        wavelength=res["wavelength_nm"] * 1e-9,
        mirror_separation=res["mirror_separation_mm"] * 1e-3,
        linewidth=TWO_PI * res["linewidth_mhz"] * 1e6,
        finesse=res["finesse"],
        mode_waist=res["mode_waist_um"] * 1e-6,
    )
    ens = raw["ensemble"]
    ensemble = EnsembleConfig(
        physical_atom_number=ens["physical_atom_number"],
        rms_radius=ens["rms_radius_um"] * 1e-6,
    )
    pr = raw["probe"]
    probe_detuning = TWO_PI * pr["detuning_f2_f3_ghz"] * 1e9
    comp_detuning = TWO_PI * pr["compensation_detuning_f2_f3_ghz"] * 1e9
    couplings = coupling_summary(
        resonator, ensemble, probe_detuning, comp_detuning, constants
    )

    probe = ProbeConfig(
        photons_per_measurement=pr["photons_per_measurement"],
        quantum_efficiency=pr["quantum_efficiency"],
        apd_excess_factor=pr["apd_excess_factor"],
        electronic_noise_b2=pr["electronic_noise_b2"],
        technical_noise_fraction=pr["technical_noise_fraction"],
        technical_correlation=pr["technical_correlation"],
        switches=NoiseSwitches(**raw["noise"]),
    )

    eta_geom = couplings.effective_cooperativity / constants.d2_oscillator_strength
    rates = raman_rates(probe_detuning, eta_geom, constants)
    b1_target = raw["scattering"]["b1_target_per_atom"]
    if b1_target is not None:
        rates = rates.scaled(b1_target / raman_noise_coefficient(rates, 1.0))

    return RunConfig(
        raw=raw,
        constants=constants,
        resonator=resonator,
        ensemble=ensemble,
        couplings=couplings,
        probe=probe,
        preparation=PreparationModel(**raw["preparation"]),
        pulses=PulseModel(**raw["pulses"]),
        rates=rates,
        n_trials=int(raw["n_trials"]),
        master_seed=int(raw["master_seed"]),
        output_dir=raw["output_dir"],
    )


def load_and_validate(path: str | Path | None = None,
                      overrides: dict | None = None) -> RunConfig:
    """Load a config file, merge onto the shipped defaults, validate fully.

    Raises ConfigError carrying every schema violation at once.  A
    resolved-config echo is written next to the outputs by the caller.
    """
    raw = default_config()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError([f"config file not found: {p}"])
        try:
            user = json.loads(p.read_text(), parse_constant=_reject_constant)
        except json.JSONDecodeError as err:
            raise ConfigError([f"config is not valid JSON: {err}"]) from err
        raw = _merge(raw, user)
    if overrides:
        raw = _merge(raw, overrides)

    validator = jsonschema.Draft202012Validator(SCHEMA)
    violations = [
        f"{'/'.join(str(x) for x in err.absolute_path) or '<root>'}: {err.message}"
        for err in sorted(validator.iter_errors(raw), key=str)
    ]
    if violations:
        raise ConfigError(violations)
    cf = raw["constants_file"]
    if cf is not None and not Path(cf).exists():
        raise ConfigError([f"constants_file: no such file {cf!r}"])
    try:
        return _build(raw)
    except ValueError as err:
        raise ConfigError([str(err)]) from err
    except ArithmeticError as err:  # overflow of extreme, schema-valid values
        raise ConfigError([f"values out of numerical range: {err}"]) from err
