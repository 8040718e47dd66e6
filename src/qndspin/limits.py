"""Fundamental squeezing limits from free-space photon scattering.

An ideal Heisenberg-area-preserving measurement would reduce the
normalized spin noise as 1/(1 + N0 p phi_eff^2); Raman scattering feeds
spin-flip noise back at rate 4 P_Ram per photon.  The competition sets a
minimum normalized variance sqrt(2 P_Ram / (N0 eta_eff P_sc)) together
with the optimum photon number and the unavoidable contrast loss.
Absorption is neglected (0.6% at the largest atom number here).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class LimitInputs:
    collective_cooperativity: float    # N0 * eta_eff
    p_raman: float                     # per transmitted photon
    p_total: float                     # P_sc per transmitted photon
    phi_eff: float                     # rad per transmitted photon
    p_rayleigh_f1: float = 0.0
    p_rayleigh_f2: float = 0.0

    def __post_init__(self):
        for name in ("collective_cooperativity", "p_raman", "p_total",
                     "phi_eff", "p_rayleigh_f1", "p_rayleigh_f2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.p_total < self.p_raman:
            raise ValueError("P_sc must be >= P_Ram")


def ideal_sigma2(n0: float, p: float, phi_eff: float) -> float:
    """Noise-free measurement limit: sigma^2 = 1/(1 + N0 p phi_eff^2)."""
    if n0 < 0 or p < 0:
        raise ValueError("inputs must be >= 0")
    return 1.0 / (1.0 + n0 * p * phi_eff**2)


def integrate_sigma2(inputs: LimitInputs, p_max: float, n_points: int = 400):
    """Normalized spin noise curve sigma^2(p) from the scattering ODE.

    d sigma^2 / dp = b - a (sigma^2)^2 with a = 2 N0 eta_eff P_sc,
    b = 4 P_Ram and sigma^2(0) = 1 has the exact solution
    sigma^2 = (1 + b tau) / (1 + a tau), tau = tanh(k p) / k, k = sqrt(ab)
    (tau = p when k = 0), finite in both limits a = 0 and b = 0.
    Returns (p grid, sigma^2 values).
    """
    import numpy as np

    if p_max <= 0:
        raise ValueError("p_max must be > 0")
    a = 2.0 * inputs.collective_cooperativity * inputs.p_total
    b = 4.0 * inputs.p_raman
    k = math.sqrt(a * b)
    grid = np.linspace(0.0, p_max, n_points)
    tau = np.tanh(k * grid) / k if k > 0 else grid
    return grid, (1.0 + b * tau) / (1.0 + a * tau)


def sigma2_min(collective_cooperativity: float, raman_fraction: float) -> float:
    """Minimum normalized spin noise sqrt(2/(N0 eta_eff) * P_Ram/P_sc)."""
    if collective_cooperativity <= 0:
        raise ValueError("collective cooperativity must be > 0")
    if collective_cooperativity < 100:
        warnings.warn(
            "sigma2_min assumes N0*eta_eff >> 1; value unreliable below 100",
            stacklevel=2,
        )
    return math.sqrt(2.0 * raman_fraction / collective_cooperativity)


def optimal_photon_number(sigma2_minimum: float, p_raman: float) -> float:
    """Photon number reaching the minimum: p P_Ram = (s/8) ln(8/s)."""
    if not 0.0 < sigma2_minimum < 1.0:
        raise ValueError("sigma2_min must lie in (0, 1)")
    if p_raman <= 0:
        raise ValueError("P_Ram must be > 0")
    return (sigma2_minimum / 8.0) * math.log(8.0 / sigma2_minimum) / p_raman


def limit_contrast_and_zeta(inputs: LimitInputs):
    """Contrast loss at the optimum and the limiting squeezing parameter.

    Returns a dict with the contrast loss
    1 - C = p [(P_Ray,1 + P_Ray,2)/2 - sqrt(P_Ray,1 P_Ray,2) + P_Ram]
    at p_opt, zeta_m,min = sigma2_min / C^2, and both closed-form bounds
    sqrt((3/2) N0 eta_eff) and sqrt(N0 eta_eff / 2 * P_sc / P_Ram) for
    the inverse parameter (equal when P_sc = 3 P_Ram).
    """
    if inputs.p_raman <= 0:
        raise ValueError("P_Ram must be > 0 for the limit composition")
    s_min = sigma2_min(
        inputs.collective_cooperativity, inputs.p_raman / inputs.p_total
    )
    p_opt = optimal_photon_number(s_min, inputs.p_raman)
    r1, r2 = inputs.p_rayleigh_f1, inputs.p_rayleigh_f2
    loss = p_opt * (
        0.5 * (r1 + r2) - math.sqrt(r1 * r2) + inputs.p_raman
    )
    contrast = 1.0 - loss
    zeta_min = s_min / contrast**2
    return {
        "sigma2_min": s_min,
        "sigma2_min_db": 10.0 * math.log10(s_min),
        "p_opt": p_opt,
        "contrast_loss": loss,
        "zeta_m_min": zeta_min,
        "zeta_m_min_db": 10.0 * math.log10(zeta_min),
        "inv_zeta_bound_main": math.sqrt(
            1.5 * inputs.collective_cooperativity
        ),
        "inv_zeta_bound_scattering": math.sqrt(
            0.5 * inputs.collective_cooperativity
            * inputs.p_total / inputs.p_raman
        ),
    }


def limits_report(inputs: LimitInputs) -> dict:
    """JSON-ready summary of the fundamental limits for these inputs."""
    out = limit_contrast_and_zeta(inputs)
    return {
        "sigma2_min_db": out["sigma2_min_db"],
        "p_opt": out["p_opt"],
        "contrast_loss": out["contrast_loss"],
        "zeta_m_min_db": out["zeta_m_min_db"],
        "inv_zeta_bound_main_db": 10.0 * math.log10(out["inv_zeta_bound_main"]),
        "inputs": {
            "collective_cooperativity": inputs.collective_cooperativity,
            "p_raman": inputs.p_raman,
            "p_total": inputs.p_total,
            "phi_eff": inputs.phi_eff,
            "p_rayleigh_f1": inputs.p_rayleigh_f1,
            "p_rayleigh_f2": inputs.p_rayleigh_f2,
        },
    }
