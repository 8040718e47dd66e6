"""Gaussian (moment-level) model of the collective pseudo-spin.

The state tracks the mean spin length and the 2x2 covariance of the
(S_z, in-plane transverse) fluctuations.  With N0 ~ 1e4 this second-moment
description is essentially exact for every protocol step used here:
CSS preparation, rotations about the mean spin, measurement back-action
and conditional updates.  The mean spin stays on the equator, as the
only rotation is about its own direction.  Composite pi pulses and their
failures act on the measurement records, in measurement._flip_chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PreparationModel:
    """How close the initial state is to an ideal CSS.

    prep_noise_factor multiplies the CSS variance (linear-in-N0 technical
    noise); quadratic_noise_a2 adds a2*N0^2/4 of variance (technical noise
    scaling as N0^2, the alternative parameterization of the same data).
    impurity_fraction atoms are left in |1, +-1> and are excluded from the
    clock ensemble entirely (spin-echo cancels their signal).
    """

    prep_noise_factor: float = 1.0
    impurity_fraction: float = 0.0
    initial_contrast: float = 1.0
    quadratic_noise_a2: float = 0.0

    def __post_init__(self):
        if self.prep_noise_factor < 1.0:
            raise ValueError("prep_noise_factor must be >= 1")
        if not 0.0 <= self.impurity_fraction <= 0.2:
            raise ValueError("impurity_fraction must lie in [0, 0.2]")
        if not 0.0 < self.initial_contrast <= 1.0:
            raise ValueError("initial_contrast must lie in (0, 1]")
        if self.quadratic_noise_a2 < 0.0:
            raise ValueError("quadratic_noise_a2 must be >= 0")

    def prep_variance(self, n0: float) -> float:
        """Var(Sz) of the prepared state (spin^2 units)."""
        return (self.prep_noise_factor * n0 + self.quadratic_noise_a2 * n0**2) / 4.0


@dataclass(frozen=True)
class PulseModel:
    """Composite microwave pi pulse modeled by a flip-failure fraction."""

    composite_pi_infidelity: float   # mu
    lock_light_mu: float             # additive scattering-equivalent

    def __post_init__(self):
        if not 0.0 <= self.composite_pi_infidelity <= 0.1:
            raise ValueError("composite_pi_infidelity must lie in [0, 0.1]")
        if self.lock_light_mu < 0:
            raise ValueError("lock_light_mu must be >= 0")
        if self.mu_total > 1.0:
            raise ValueError(
                "composite-pulse mu = composite_pi_infidelity + lock_light_mu "
                f"= {self.mu_total!r} must lie in [0, 1]"
            )

    @property
    def mu_total(self) -> float:
        return self.composite_pi_infidelity + self.lock_light_mu


@dataclass(frozen=True)
class GaussianSpinState:
    """Collective spin: mean spin length plus (z, transverse) covariance.

    s0 is the maximum spin N0/2 of the clock ensemble.  var_z, var_y,
    cov_yz are the second moments of (S_z, S_perp) where S_perp is the
    in-plane direction perpendicular to the mean spin.
    """

    s0: float
    mean_length: float     # |<S>|
    var_z: float
    var_y: float
    cov_yz: float = 0.0

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValueError("s0 must be > 0")
        if self.mean_length > self.s0 * (1 + 1e-12):
            raise ValueError("|<S>| cannot exceed S0")
        if self.var_z <= 0 or self.var_y <= 0:
            raise ValueError("variances must be > 0")
        if self.var_z * self.var_y < self.cov_yz**2 * (1 - 1e-12):
            raise ValueError("covariance matrix must be positive semidefinite")

    @property
    def n0(self) -> float:
        return 2.0 * self.s0

    @property
    def contrast(self) -> float:
        return self.mean_length / self.s0


def prepare_css(n0: float, prep: PreparationModel) -> GaussianSpinState:
    """CSS on the equator (+x) with preparation noise and finite contrast."""
    if n0 <= 0:
        raise ValueError("n0 must be > 0")
    var = prep.prep_variance(n0)
    return GaussianSpinState(
        s0=n0 / 2.0,
        mean_length=prep.initial_contrast * n0 / 2.0,
        var_z=var,
        var_y=var,
        cov_yz=0.0,
    )


def rotate(state: GaussianSpinState, angle: float) -> GaussianSpinState:
    """Rigid Bloch rotation about the mean-spin direction.

    The (z, transverse) covariance rotates as a 2x2 quadratic form; the
    mean spin stays on the equator.
    """
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")

    c, s = math.cos(angle), math.sin(angle)
    # (delta_z, delta_perp) rotate into each other about the mean axis
    var_z = state.var_z * c**2 + state.var_y * s**2 + 2 * state.cov_yz * s * c
    var_y = state.var_z * s**2 + state.var_y * c**2 - 2 * state.cov_yz * s * c
    cov = (state.var_y - state.var_z) * s * c + state.cov_yz * (c**2 - s**2)
    return replace(state, var_z=var_z, var_y=var_y, cov_yz=cov)


def measurement_backaction(
    state: GaussianSpinState,
    transmitted_photons: float,
    phi_eff: float,
    n0: float,
) -> GaussianSpinState:
    """Probe-light back-action: photon shot noise broadens the phase.

    var_y grows by Var_CSS * N0 * p * phi_eff^2 (the Heisenberg-area
    partner of the measurement's information gain).  The contrast decay
    is analysis.contrast_model, applied where the contrast is read.
    """
    p = transmitted_photons
    if p < 0:
        raise ValueError("photon number must be >= 0")
    return replace(state, var_y=state.var_y + (n0 / 4.0) * n0 * p * phi_eff**2)


def condition_on_measurement(
    state: GaussianSpinState, var_meas: float
) -> GaussianSpinState:
    """Gaussian conditional update of (S_z, S_perp) given one Sz measurement."""
    if var_meas <= 0:
        raise ValueError("var_meas must be > 0")
    if math.isinf(var_meas):
        return state
    total = state.var_z + var_meas
    return replace(
        state,
        var_z=state.var_z * var_meas / total,
        var_y=state.var_y - state.cov_yz**2 / total,
        cov_yz=state.cov_yz * var_meas / total,
    )
