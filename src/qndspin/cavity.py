"""Deterministic atom-resonator physics.

Couplings, dispersive mode shifts with full excited-state hyperfine
structure, transmission lineshape, and per-photon phase shifts.  All
operations are pure functions of immutable inputs.

Conventions
-----------
* Angular frequencies throughout; config/JSON boundaries use Hz.
* Mode detunings are quoted relative to the F=2 -> F'=3 transition
  (positive = blue), matching how the probe placement is specified.
* "Effective cooperativity" eta_eff includes the D2 oscillator strength
  f = 2/3; geometric ensemble averages alone are handled separately.
  A maximally coupled atom therefore has f-inclusive coupling f*eta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angular import clebsch_gordan
from .constants import RB87, TWO_PI, PhysicalConstants

CLOCK_STATES = (1, 2)

# Dispersive validity margin: every line must be many linewidths away.
MIN_DETUNING_LINEWIDTHS = 100.0


@dataclass(frozen=True)
class ResonatorParams:
    """Mirror geometry and per-wavelength mode parameters (one wavelength)."""

    wavelength: float          # m
    mirror_separation: float   # L, m
    linewidth: float           # kappa, angular rad/s
    finesse: float
    mode_waist: float          # w at the atoms, m

    def __post_init__(self):
        for name in ("wavelength", "mirror_separation", "linewidth", "finesse",
                     "mode_waist"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        f_from_kappa = math.pi * RB87.speed_of_light / (
            self.mirror_separation * self.linewidth
        )
        if abs(f_from_kappa - self.finesse) / self.finesse > 1e-2:
            raise ValueError(
                "finesse inconsistent with pi*c/(L*kappa): "
                f"{self.finesse:.4g} vs {f_from_kappa:.4g}"
            )


@dataclass(frozen=True)
class EnsembleConfig:
    """Trapped cloud geometry relevant to the coupling averages."""

    physical_atom_number: float        # N_a
    rms_radius: float                  # per-axis transverse rms, m

    def __post_init__(self):
        if self.physical_atom_number < 0 or self.rms_radius < 0:
            raise ValueError("atom number and radius must be >= 0")


def antinode_cooperativity(finesse: float, wavelength: float, waist: float) -> float:
    """Single-atom cooperativity of a maximally coupled atom, 24F/(pi k^2 w^2)."""
    if finesse <= 0 or wavelength <= 0 or waist <= 0:
        raise ValueError("finesse, wavelength and waist must be > 0")
    k = TWO_PI / wavelength
    return 24.0 * finesse / (math.pi * k**2 * waist**2)


def ensemble_coupling(ensemble: EnsembleConfig, waist: float,
                      oscillator_strength: float = 2.0 / 3.0):
    """Ensemble-averaged coupling ratios.

    For atoms uniform over the standing wave and Gaussian (per-axis rms
    sigma_r) in the transverse plane:

        <sin^2 kz> = 1/2,  <sin^4 kz> = 3/8
        <exp(-2 rho^2/w^2)>  = w^2/(w^2 + 4 sigma_r^2)
        <exp(-4 rho^2/w^2)>  = w^2/(w^2 + 8 sigma_r^2)

    Returns (eta_eff/eta0, N0/N_a).  The first includes the oscillator
    strength f; the second is purely geometric.
    """
    if waist <= 0:
        raise ValueError("waist must be > 0")
    s2, s4 = 0.5, 3.0 / 8.0
    w2 = waist**2
    r4 = w2 / (w2 + 4.0 * ensemble.rms_radius**2)
    r8 = w2 / (w2 + 8.0 * ensemble.rms_radius**2)
    eta_ratio = oscillator_strength * (s4 / s2) * (r8 / r4)
    n_ratio = (s2**2 / s4) * (r4**2 / r8)
    return eta_ratio, n_ratio


def strength_weighted_inverse_detuning(
    f_ground: int,
    detuning_f2_f3: float,
    constants: PhysicalConstants = RB87,
) -> float:
    """D_F = sum_F' r_FF' / delta_FF' over the excited hyperfine lines.

    r_FF' are line strengths for sigma+/- light from |F, m_F=0>,
    normalized to the cycling transition (sum_F' r_FF' = f = 2/3);
    delta_FF' is the laser detuning from each line in angular units.
    `detuning_f2_f3` is the laser offset from F=2 -> F'=3 (angular).

    Units: 1/(rad/s).  Raises if any line is closer than the dispersive
    validity margin.
    """
    if f_ground not in CLOCK_STATES:
        raise ValueError("clock state must have F=1 or F=2")
    gamma = constants.rb87_d2_linewidth
    total = 0.0
    for f_exc, delta in constants.line_detunings(f_ground, detuning_f2_f3).items():
        s = constants.strength(f_ground, f_exc)
        # sigma+ from m_F = 0 reaches m_F' = +1; F'=0 is never reached.
        cg2 = clebsch_gordan(f_exc, 1, 1, -1, f_ground, 0) ** 2
        if s == 0.0 or cg2 == 0.0:
            continue
        if abs(delta) < MIN_DETUNING_LINEWIDTHS * gamma:
            raise ValueError(
                f"detuning {delta / TWO_PI:.3g} Hz from F={f_ground}->F'={f_exc} "
                "is inside the dispersive validity margin"
            )
        total += 2.0 * s * cg2 / delta
    return total


def hyperfine_mode_shift(
    clock_state: int,
    detuning_f2_f3: float,
    eta_eff: float,
    kappa: float,
    constants: PhysicalConstants = RB87,
) -> float:
    """Dispersive mode shift per (effective) atom in one clock state.

    The shift is in the same units as kappa, per atom of coupling eta_eff.

    eta_eff includes the oscillator strength f (e.g. 0.47*eta0 for the
    ensemble, f*eta0 for a maximally coupled atom); the strength-weighted
    line sum supplies f internally, hence the normalization by f.
    """
    f_osc = constants.d2_oscillator_strength
    d_sum = strength_weighted_inverse_detuning(clock_state, detuning_f2_f3, constants)
    gamma = constants.rb87_d2_linewidth
    return (eta_eff / f_osc) * gamma * kappa * d_sum / 4.0


def lorentzian_transmission(detuning, kappa: float):
    """Resonator power transmission T = 1/(1 + (2 delta/kappa)^2)."""
    import numpy as np

    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    x = 2.0 * np.asarray(detuning, dtype=float) / kappa
    return 1.0 / (1.0 + x * x)


def inverse_transmission(fraction, kappa: float):
    """The detuning |delta| >= 0 at which T(delta) = fraction.

    Callers give it the sign of the slope each detection channel sits on.
    """
    import numpy as np

    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    frac = np.asarray(fraction, dtype=float)
    if np.any(frac <= 0.0) or np.any(frac > 1.0):
        raise ValueError("transmission fraction must lie in (0, 1]")
    return 0.5 * kappa * np.sqrt(1.0 / frac - 1.0)


def phase_per_photon(shift_f1: float, shift_f2: float, kappa: float) -> float:
    """Differential atomic phase per transmitted photon, 2(w2 - w1)/kappa.

    Shifts are the per-atom mode shifts (same units as kappa) for the two
    clock states at the relevant coupling: antinode coupling f*eta0 gives
    phi0, ensemble coupling eta_eff gives phi_eff.
    """
    return 2.0 * (shift_f2 - shift_f1) / kappa


def ramsey_damping_envelope(u):
    """Mean transverse spin factor after inhomogeneous probe light shifts.

    For atoms spread uniformly over the standing wave, the phase
    p*phi0*sin^2(kz) dephases the ensemble to
    J0(u) cos(u) - J1(u) sin(u) with u = p*phi0/2, evaluated as
    (1/pi) int_0^2pi cos(2u sin^2 t) sin^2 t dt by the periodic trapezoid
    rule, which converges geometrically once the nodes resolve cos(2u ...).
    """
    import numpy as np

    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u) & (u >= 0)):
        raise ValueError("u must be finite and >= 0")
    nodes = 64 + 4 * math.ceil(u.max(initial=0.0))
    s2 = np.sin(TWO_PI * np.arange(nodes) / nodes) ** 2
    return (np.cos(2.0 * u[..., None] * s2) * s2).sum(axis=-1) * (2.0 / nodes)


@dataclass(frozen=True)
class CouplingSummary:
    """Derived coupling constants for one resonator + ensemble + probe setup."""

    antinode_cooperativity: float      # eta0 (geometric, no f)
    effective_cooperativity: float     # eta_eff (includes f)
    effective_atom_number: float       # N0
    shift_per_atom_f1: float           # units of kappa, probe mode, per eff. atom
    shift_per_atom_f2: float
    shift_per_atom_f1_comp: float      # same for the compensation mode
    shift_per_atom_f2_comp: float
    domega_dn: float                   # units of kappa per effective atom of N
    delta_prime: float                 # angular rad/s
    phase_per_photon_max: float        # phi0, rad (maximally coupled atom)
    phase_per_photon_eff: float        # phi_eff = phi0 * eta_eff/eta0, rad

    def __post_init__(self):
        if not (0 < self.effective_cooperativity < self.antinode_cooperativity):
            raise ValueError("require 0 < eta_eff < eta0")
        if not (self.shift_per_atom_f1 < 0 < self.shift_per_atom_f2):
            raise ValueError("probe placement must give w1 < 0 < w2")

    @property
    def probe_signal_share(self) -> float:
        """Fraction of the measured differential shift carried by the probe mode."""
        probe = (self.shift_per_atom_f2 - self.shift_per_atom_f1) / 2.0
        return probe / self.domega_dn


def coupling_summary(
    resonator: ResonatorParams,
    ensemble: EnsembleConfig,
    probe_detuning_f2_f3: float,
    compensation_detuning_f2_f3: float,
    constants: PhysicalConstants = RB87,
) -> CouplingSummary:
    """Assemble the full deterministic coupling chain from raw parameters."""
    eta0 = antinode_cooperativity(
        resonator.finesse, resonator.wavelength, resonator.mode_waist
    )
    eta_ratio, n_ratio = ensemble_coupling(
        ensemble, resonator.mode_waist, constants.d2_oscillator_strength
    )
    eta_eff = eta_ratio * eta0
    n0 = n_ratio * ensemble.physical_atom_number

    shifts = {}
    for state in CLOCK_STATES:
        shifts[("probe", state)] = hyperfine_mode_shift(
            state, probe_detuning_f2_f3, eta_eff, 1.0, constants
        )
        shifts[("comp", state)] = hyperfine_mode_shift(
            state, compensation_detuning_f2_f3, eta_eff, 1.0, constants
        )
    # d omega/dN for N = N_2 - N_1, in units of kappa per effective atom
    domega_dn = ((shifts[("probe", 2)] - shifts[("comp", 2)])
                 - (shifts[("probe", 1)] - shifts[("comp", 1)])) / 2.0
    if domega_dn == 0.0:
        raise ValueError(
            f"probe detuning {probe_detuning_f2_f3 / TWO_PI / 1e9:.6g} GHz and "
            f"compensation detuning {compensation_detuning_f2_f3 / TWO_PI / 1e9:.6g}"
            " GHz give no differential shift d omega/dN"
        )
    # the single effective detuning of the population-difference formula
    delta_prime = eta_eff * constants.rb87_d2_linewidth / (4.0 * domega_dn)

    f_osc = constants.d2_oscillator_strength
    phi0 = phase_per_photon(
        *(
            hyperfine_mode_shift(s, probe_detuning_f2_f3, f_osc * eta0, 1.0, constants)
            for s in CLOCK_STATES
        ),
        kappa=1.0,
    )
    return CouplingSummary(
        antinode_cooperativity=eta0,
        effective_cooperativity=eta_eff,
        effective_atom_number=n0,
        shift_per_atom_f1=shifts[("probe", 1)],
        shift_per_atom_f2=shifts[("probe", 2)],
        shift_per_atom_f1_comp=shifts[("comp", 1)],
        shift_per_atom_f2_comp=shifts[("comp", 2)],
        domega_dn=domega_dn,
        delta_prime=delta_prime,
        phase_per_photon_max=phi0,
        phase_per_photon_eff=phi0 * eta_eff / eta0,
    )
