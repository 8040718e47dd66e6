"""Free-space photon scattering of the probe by clock-state atoms.

Rates are per probe photon transmitted through the resonator, for an
atom of given cooperativity.  Scattering amplitudes are summed
coherently over the excited hyperfine levels (Kramers-Heisenberg), which
matters here: the probe detuning (GHz) is large compared to the excited
hyperfine splittings (hundreds of MHz), so spin-changing channels
interfere and the naive incoherent sum badly overestimates Raman rates.

The per-transmitted-photon normalization uses the two-level relation:
an atom of cooperativity eta scattering on one line at detuning delta
scatters eta * Gamma^2 / (2 delta^2) photons per transmitted photon.
The ensemble-averaged convention (cooperativity eta_eff/f, i.e. the
geometric average without the oscillator strength, which the amplitude
weights already carry) reproduces the quoted clock-ensemble rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .angular import clebsch_gordan, wigner_6j
from .constants import RB87, PhysicalConstants

_J_GROUND = 0.5
_J_EXCITED = 1.5
_I_NUC = 1.5

GROUND_F = (1, 2)
EXCITED_F = (0, 1, 2, 3)


@dataclass(frozen=True)
class ScatteringRates:
    """Per-transmitted-photon probabilities for a clock-superposition atom."""

    p_delta_f: float           # changes F, keeps m_F = 0
    p_delta_mf: float          # keeps F, changes m_F
    p_delta_f_delta_mf: float  # changes both
    p_rayleigh_f1: float       # elastic, atom in F=1
    p_rayleigh_f2: float       # elastic, atom in F=2

    def __post_init__(self):
        for name in ("p_delta_f", "p_delta_mf", "p_delta_f_delta_mf",
                     "p_rayleigh_f1", "p_rayleigh_f2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def p_raman_total(self) -> float:
        return self.p_delta_f + self.p_delta_mf + self.p_delta_f_delta_mf

    @property
    def p_total(self) -> float:
        """P_sc: any scattering event, clock-superposition average."""
        return self.p_raman_total + 0.5 * (self.p_rayleigh_f1 + self.p_rayleigh_f2)

    def scaled(self, factor: float) -> "ScatteringRates":
        """All rates multiplied by a common factor (detuning-free rescale)."""
        return ScatteringRates(
            p_delta_f=self.p_delta_f * factor,
            p_delta_mf=self.p_delta_mf * factor,
            p_delta_f_delta_mf=self.p_delta_f_delta_mf * factor,
            p_rayleigh_f1=self.p_rayleigh_f1 * factor,
            p_rayleigh_f2=self.p_rayleigh_f2 * factor,
        )


@lru_cache(maxsize=None)
def _dipole_coeff(f: int, mf2: int, f_exc: int, mf_exc2: int) -> float:
    """Signed dipole matrix element in cycling-transition units.

    Arguments mf2, mf_exc2 are twice the magnetic quantum numbers so the
    cache key stays exact.  Square of the stretched element is 1.
    """
    mf = mf2 / 2.0
    mf_exc = mf_exc2 / 2.0
    q = mf - mf_exc
    if abs(q) > 1:
        return 0.0
    sign = (-1.0) ** round(f_exc + _J_GROUND + 1 + _I_NUC)
    red = sign * (
        (2 * f_exc + 1) * (2 * _J_GROUND + 1)
    ) ** 0.5 * wigner_6j(_J_GROUND, _J_EXCITED, 1, f_exc, f, _I_NUC)
    cg = clebsch_gordan(f_exc, mf_exc, 1, q, f, mf)
    # sqrt(2) rescales from the reduced-J normalization to cycling = 1.
    return 2.0**0.5 * red * cg


def raman_rates(
    probe_detuning_f2_f3: float,
    cooperativity: float,
    constants: PhysicalConstants = RB87,
) -> ScatteringRates:
    """Scattering probabilities per transmitted photon at given coupling.

    Linear probe polarization along the quantization axis is decomposed
    as equal sigma+/sigma- components.  For m_F = 0 initial states the
    two absorption branches feed distinguishable photon modes, so their
    rates add; within each branch the excited hyperfine paths are summed
    as amplitudes.
    """
    gamma = constants.rb87_d2_linewidth
    half_prefactor = 0.5 * cooperativity * gamma**2 / 2.0  # 1/2 per sigma branch

    totals = {"rayleigh": {1: 0.0, 2: 0.0}, "dF": 0.0, "dmF": 0.0, "dFdmF": 0.0}
    for f_init in GROUND_F:
        detunings = constants.line_detunings(f_init, probe_detuning_f2_f3)
        for q_abs in (+1, -1):
            mf_exc = q_abs  # from m_F = 0
            for f_fin in GROUND_F:
                for q_em in (-1, 0, +1):
                    mf_fin = mf_exc - q_em
                    if abs(mf_fin) > f_fin:
                        continue
                    amp = 0.0
                    for f_exc, delta in detunings.items():
                        c_abs = _dipole_coeff(f_init, 0, f_exc, 2 * mf_exc)
                        if c_abs == 0.0:
                            continue
                        c_em = _dipole_coeff(f_fin, 2 * mf_fin, f_exc, 2 * mf_exc)
                        amp += c_em * c_abs / delta
                    if amp == 0.0:
                        continue
                    # clock superposition: each F populated with weight 1/2
                    rate = 0.5 * half_prefactor * amp**2
                    if f_fin == f_init and mf_fin == 0:
                        totals["rayleigh"][f_init] += 2.0 * rate  # undo the 1/2
                    elif f_fin != f_init and mf_fin == 0:
                        totals["dF"] += rate
                    elif f_fin == f_init:
                        totals["dmF"] += rate
                    else:
                        totals["dFdmF"] += rate

    return ScatteringRates(
        p_delta_f=totals["dF"],
        p_delta_mf=totals["dmF"],
        p_delta_f_delta_mf=totals["dFdmF"],
        p_rayleigh_f1=totals["rayleigh"][1],
        p_rayleigh_f2=totals["rayleigh"][2],
    )


def raman_noise_coefficient(rates: ScatteringRates, n0: float) -> float:
    """b1: Raman contribution to 4 Var(Sz)_meas per probe photon.

    The weights are the first order in the flip fractions of the flip
    term of 2 Var(M1 - M2) (see measurement.spinflip_covariance_exact).
    """
    return (
        4.0 / 3.0 * rates.p_delta_f
        + 1.0 / 2.0 * rates.p_delta_mf
        + 1.0 / 3.0 * rates.p_delta_f_delta_mf
    ) * n0

