"""Run configuration: shipped defaults, validation, and physics assembly.

The shipped default configuration (data/default_config.json) resolves to
the reference apparatus parameters, and it is also the shape every
config must have.  A user's config is merged onto it; a key is allowed
only where the defaults have one, and a value must have the JSON type of
its default: a default written without a decimal point makes an integer
setting, and a list's items take the type of its first item.  BOUNDS holds the range
of each bounded setting, NULLABLE the settings that may be null, and
PARTIAL the one block that overrides only some keys of another.
Interfaces use ordinary frequencies (MHz/GHz) and lab units
(mm, um, us); everything becomes angular/SI when the physics objects
are built.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cavity import CouplingSummary, EnsembleConfig, ResonatorParams, coupling_summary
from .constants import TWO_PI, PhysicalConstants, load_constants
from .measurement import NoiseSwitches, ProbeConfig
from .scattering import ScatteringRates, raman_noise_coefficient, raman_rates
from .spinstate import PreparationModel, PulseModel

# One entry per bounded setting, keyed by its slash path: (minimum,
# maximum or None, whether the minimum is exclusive).  The bound of a
# list setting holds for each of its items.
BOUNDS = {
    "resonator/wavelength_nm": (0, None, True),
    "resonator/mirror_separation_mm": (0, None, True),
    "resonator/linewidth_mhz": (0, None, True),
    "resonator/finesse": (0, None, True),
    "resonator/mode_waist_um": (0, None, True),
    "ensemble/physical_atom_number": (0, None, False),
    "ensemble/rms_radius_um": (0, None, False),
    "probe/photons_per_measurement": (0, None, True),
    "probe/quantum_efficiency": (0, 1, True),
    "probe/apd_excess_factor": (1, None, False),
    "probe/electronic_noise_b2": (0, None, False),
    "probe/technical_noise_fraction": (0, None, False),
    "probe/technical_correlation": (-1, 1, False),
    "pulses/composite_pi_infidelity": (0, 0.1, False),
    "pulses/lock_light_mu": (0, None, False),
    "preparation/prep_noise_factor": (1, None, False),
    "preparation/impurity_fraction": (0, 0.2, False),
    "preparation/initial_contrast": (0, 1, True),
    "preparation/quadratic_noise_a2": (0, None, False),
    "contrast_model/c0": (0, None, True),
    "contrast_model/alpha": (0, None, False),
    "contrast_model/beta": (0, None, False),
    "contrast_model/readout_loss": (0, 0.5, False),
    "scattering/b1_target_per_atom": (0, None, True),
    "scenarios/fig2/atom_grid": (0, None, True),
    "scenarios/fig3/photon_grid": (0, None, True),
    "scenarios/rotation/photons": (0, None, True),
    "scenarios/ramsey/phase_noise_rms": (0, None, False),
    "n_trials": (2, None, False),
    "master_seed": (0, None, False),
}
# settings that may also be null (the packaged constants, no b1 rescaling),
# with their type otherwise: a null default has none
NULLABLE = {"constants_file": "string", "scattering/b1_target_per_atom": "number"}
# a partial block takes the keys and bounds of the top-level block it overrides
PARTIAL = {"scenarios/fig2/preparation": "preparation"}

_TYPES = {"boolean": bool, "integer": int, "number": (int, float),
          "string": str, "array": list, "object": dict}


def _kind(default) -> str:
    """The JSON type a setting takes: the type of its shipped default."""
    # in _TYPES order, so a bool is a boolean and an int an integer
    return next(kind for kind, types in _TYPES.items() if isinstance(default, types))


def _is(value, kind: str) -> bool:
    # a boolean is not a number, and an integral float is an integer
    if isinstance(value, bool) != (kind == "boolean"):
        return False
    if kind == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[kind])


def _violations(value, default, path: tuple, key: str, defaults: dict):
    """Yield (path, message) for each way value departs from default's shape.

    key is the setting's slash path without list indices, as in BOUNDS,
    NULLABLE and PARTIAL.
    """
    if key in NULLABLE and value is None:
        return
    kind = NULLABLE.get(key) or _kind(default)
    if not _is(value, kind):
        also = " or null" if key in NULLABLE else ""
        yield path, f"{value!r} is not of type {kind!r}{also}"
    elif kind == "object":
        if key in PARTIAL:
            key = PARTIAL[key]
            default = defaults[key]
        for name in value.keys() - default.keys():
            yield path, f"unknown setting {name!r}"
        for name in value.keys() & default.keys():
            yield from _violations(value[name], default[name], path + (name,),
                                   f"{key}/{name}" if key else name, defaults)
    elif kind == "array":
        if not value:
            yield path, "[] should be non-empty"
        for i, item in enumerate(value):
            yield from _violations(item, default[0], path + (i,), key, defaults)
    elif key in BOUNDS:
        low, high, exclusive = BOUNDS[key]
        if value < low or exclusive and value == low:
            also = "or equal to " if exclusive else ""
            yield path, f"{value!r} is less than {also}the minimum of {low}"
        if high is not None and value > high:
            yield path, f"{value!r} is greater than the maximum of {high}"


class ConfigError(ValueError):
    """Raised with the full list of config violations."""

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
    """Assemble the physics objects from a merged, validated config.

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

    Raises ConfigError carrying every violation at once, one sorted
    "path: message" line each.  A
    resolved-config echo is written next to the outputs by the caller.
    """
    defaults = raw = default_config()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError([f"config file not found: {p}"])
        try:
            user = json.loads(p.read_text(), parse_constant=_reject_constant)
        except json.JSONDecodeError as err:
            raise ConfigError([f"config is not valid JSON: {err}"]) from err
        except (OSError, UnicodeDecodeError) as err:  # a directory, not UTF-8
            raise ConfigError([f"cannot read config file {p}: {err}"]) from err
        if not isinstance(user, dict):
            raise ConfigError([f"<root>: {user!r} is not of type 'object'"])
        raw = _merge(raw, user)
    if overrides:
        raw = _merge(raw, overrides)

    violations = sorted(
        f"{'/'.join(map(str, where)) or '<root>'}: {message}"
        for where, message in _violations(raw, defaults, (), "", defaults)
    )
    if violations:
        raise ConfigError(violations)
    cf = raw["constants_file"]
    if cf is not None and not Path(cf).exists():
        raise ConfigError([f"constants_file: no such file {cf!r}"])
    try:
        return _build(raw)
    except ValueError as err:
        raise ConfigError([str(err)]) from err
    except ArithmeticError as err:  # overflow of extreme, valid values
        raise ConfigError([f"values out of numerical range: {err}"]) from err
