"""Gaussian (moment-level) model of the collective pseudo-spin.

The state tracks the mean spin length and the variances of the (S_z,
in-plane transverse) fluctuations.  With N0 ~ 1e4 this second-moment
description is essentially exact for the two steps made here, CSS
preparation and measurement back-action.  Everything after them, the
measurements, the composite pi pulses and the M_1 -> M_2 manipulation,
acts on the records' law in measurement._record_moments.
"""

from __future__ import annotations

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
    """Collective spin: mean spin length plus (z, transverse) variances.

    s0 is the maximum spin N0/2 of the clock ensemble.  var_z and var_y
    are the variances of S_z and S_perp, the in-plane direction
    perpendicular to the mean spin; the two are uncorrelated.
    """

    s0: float
    mean_length: float     # |<S>|
    var_z: float
    var_y: float

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValueError("s0 must be > 0")
        if self.mean_length > self.s0 * (1 + 1e-12):
            raise ValueError("|<S>| cannot exceed S0")
        if self.var_z <= 0 or self.var_y <= 0:
            raise ValueError("variances must be > 0")

    @property
    def n0(self) -> float:
        return 2.0 * self.s0


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
    )


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

