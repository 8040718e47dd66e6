"""Estimators and fits: trial records -> published quantities.

Variances as quadratic forms of one covariance of M1 and M1 - M2 (the
sample's, or the law a model reads), with errors by one Gaussian rule,
conditional spin noise (the Gaussian posterior and the regression
residual of the readout), squeezing parameters, the four-term
noise-budget fit, quadratic atom-number scaling fits, and the contrast
model.  The estimators take any leading axes: a scan's TrialSet gives a
report of (G,) arrays in one call, a one-point set gives scalars.

Conventions: "atom number units" means 4*Var(Sz)-style quantities
(y1 = 4 Var(M1), the CSS reference line is y = N0); squeezing is quoted
in variance dB, 10*log10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NoiseBudget
from .measurement import TrialSet


def to_db(linear) -> float:
    """10 log10 of a variance ratio."""
    arr = np.asarray(linear, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("dB conversion requires a positive ratio")
    out = 10.0 * np.log10(arr)
    return float(out) if out.ndim == 0 else out


# Each estimate is tr(w S) for its quadratic form w in (M1, D = M1 - M2) and
# S their sample covariance.  Var(D) is an entry of S, so a var_meas far
# below Var(M1) does not cancel between large entries.
_FORMS = np.array([
    [[1.0, 0.0], [0.0, 0.0]],       # var_m1
    [[1.0, -1.0], [-1.0, 1.0]],     # var_m2 = Var(M1 - D)
    [[1.0, -0.5], [-0.5, 0.0]],     # cov_m1_m2
    [[0.0, 0.0], [0.0, 0.5]],       # var_meas = Var(D)/2
    [[1.0, 0.0], [0.0, -0.5]],      # var_prep = Var(M1) - var_meas
])


@dataclass(frozen=True)
class VarianceReport:
    var_m1: float
    var_m1_se: float
    var_m2: float
    var_meas: float            # Var(M1 - M2)/2
    var_meas_se: float
    cov_m1_m2: float
    cov_m1_m2_se: float
    var_prep: float            # Var(M1) - var_meas
    var_prep_se: float
    meas_prep_cov: np.ndarray  # (..., 2, 2) Cov of the var_meas, var_prep estimates
    n_trials: int
    n_excluded_saturated: int

    def __post_init__(self):
        if np.any(self.var_meas < 0):
            raise ValueError("var_meas must be >= 0")


def variance_stats(trials: TrialSet) -> VarianceReport:
    """Variances of each point's unsaturated trials (saturated ones are counted).

    Saturated trials are zeroed about the mean, and each point's sums are
    scaled by 1/(n - 1) for its n unsaturated trials, as np.cov does.
    """
    keep = ~trials.saturated
    n = keep.sum(axis=-1)
    short = np.argwhere(n < 3)
    if len(short):
        # residual_variance's standard error divides by n - 2
        at = tuple(short[0])
        where = f" at point {', '.join(map(str, at))}" if at else ""
        raise ValueError(
            f"variance estimates need at least 3 unsaturated trials{where}; "
            f"got {n[at]} of {trials.n_trials} trials"
        )

    m1, mask = trials.m1, keep[..., None, :]
    x = np.where(mask, np.stack((m1, m1 - trials.m2), axis=-2), 0.0)
    x = np.where(mask, x - (x.sum(axis=-1) / n[..., None])[..., None], 0.0)
    s = (x @ x.swapaxes(-1, -2)) * (1.0 / (n - 1))[..., None, None]
    return covariance_stats(s, n, trials.n_trials - n)


def covariance_stats(s, n: int, n_saturated: int = 0) -> VarianceReport:
    """The report of covariances s (..., 2, 2) of (M1, D = M1 - M2) over n trials.

    s is a sample covariance, or the law the trials were drawn from.
    Errors: Cov(tr(a S), tr(b S)) = 2 tr(a S b S) / (n - 1) for Gaussian records.
    The counts n and n_saturated take the leading shape of s, as every value does.
    """
    ws = _FORMS @ s[..., None, :, :]
    var_m1, var_m2, cov, var_meas, var_prep = np.einsum("...kii->k...", ws)
    dof = np.asarray(n) - 1
    err = 2.0 * np.einsum("...aij,...bji->...ab", ws, ws) / dof[..., None, None]
    se = np.sqrt(np.einsum("...kk->k...", err))
    return VarianceReport(
        var_m1=var_m1,
        var_m1_se=se[0],
        var_m2=var_m2,
        var_meas=var_meas,
        var_meas_se=se[3],
        cov_m1_m2=cov,
        cov_m1_m2_se=se[2],
        var_prep=var_prep,
        var_prep_se=se[4],
        meas_prep_cov=err[..., 3:, 3:],
        n_trials=np.full(np.shape(var_m1), n),
        n_excluded_saturated=np.full(np.shape(var_m1), n_saturated),
    )


def conditional_variance(var_prep: float, var_meas: float, epsilon_p: float = 0.0):
    """Posterior Var(Sz) after the squeezing measurement.

    var_meas * var_prep / [(1 - eps_p)^2 (var_prep + var_meas)]; eps_p is
    the first-order spin-flip fraction (p * P_dF + mu) whose scrambling
    makes the time-averaged measurement slightly underestimate the
    end-of-measurement spin noise.
    """
    if np.any(var_prep <= 0) or np.any(var_meas <= 0):
        raise ValueError("variances must be > 0")
    if not np.all((0.0 <= epsilon_p) & (epsilon_p < 0.5)):
        raise ValueError("epsilon_p must lie in [0, 0.5)")
    return (var_meas * var_prep) / ((1 - epsilon_p) ** 2 * (var_prep + var_meas))


def residual_variance(report: VarianceReport) -> tuple[float, float]:
    """Var(M2 | M1) = min_w Var(M2 - w M1) and its chi^2 standard error.

    The readout's variance after regressing it on the squeeze measurement,
    whatever lies between them (at alpha = pi, w absorbs M2 = -S_z).
    """
    resid = report.var_m2 - report.cov_m1_m2**2 / report.var_m1
    return resid, resid * np.sqrt(2.0 / (report.n_trials - 2))


@dataclass(frozen=True)
class SqueezingReport:
    sigma2: float              # conditional variance / Var_CSS
    sigma2_db: float
    zeta_e: float
    zeta_e_db: float
    zeta_m: float
    zeta_m_db: float

    def __post_init__(self):
        if np.any(self.sigma2 <= 0):
            raise ValueError("sigma2 must be > 0")


def squeezing_parameters(
    sigma2: float,
    contrast_meas: float,
    contrast_in: float,
    var_prep: float,
    var_meas: float,
    s0: float,
) -> SqueezingReport:
    """Entanglement and metrological squeezing parameters.

    zeta_m is evaluated directly from measured variances,
    (C_in / C_meas^2) * 2 var_meas var_prep / [S0 (var_prep + var_meas)],
    a form in which the spin-flip factor eps_p cancels identically
    between the noise underestimate and the contrast underestimate.
    zeta_e = sigma2 / C uses the (eps_p-corrected) normalized variance.
    """
    if not np.all((0.0 < contrast_meas) & (contrast_meas <= contrast_in)):
        raise ValueError("require 0 < C_meas <= C_in")
    if s0 <= 0:
        raise ValueError("S0 must be > 0")
    zeta_m = (
        (contrast_in / contrast_meas**2)
        * 2.0
        * var_meas
        * var_prep
        / (s0 * (var_prep + var_meas))
    )
    zeta_e = sigma2 / contrast_meas
    return SqueezingReport(
        sigma2=sigma2,
        sigma2_db=to_db(sigma2),
        zeta_e=zeta_e,
        zeta_e_db=to_db(zeta_e),
        zeta_m=zeta_m,
        zeta_m_db=to_db(zeta_m),
    )


_SINGULAR = "singular design matrix: coefficients not identifiable"


def _weighted_lstsq(design, target, se=None, max_cond=None):
    """Weighted least squares, weights 1/se^2 (all 1 when se is None).

    Returns the solution and its covariance inv(D^T W D).  Raises if
    max_cond is given and D^T W D's condition number exceeds it.
    """
    w = np.ones(len(target)) if se is None else 1.0 / np.asarray(se) ** 2
    wd = design * w[:, None]
    gram = design.T @ wd
    if max_cond is not None and np.linalg.cond(gram) > max_cond:
        raise ValueError(_SINGULAR)
    return np.linalg.solve(gram, wd.T @ target), np.linalg.inv(gram)


_BUDGET_TERMS = ("b_minus2", "b_minus1", "b0_tech", "b0_mu", "b1")
_BUDGET_POWERS = {"b_minus2": -2, "b_minus1": -1, "b0_tech": 0, "b0_mu": 0, "b1": 1}


def fit_noise_model(
    photons,
    four_var,
    four_var_se=None,
    fixed: dict | None = None,
) -> NoiseBudget:
    """Weighted least squares for the noise-budget coefficients.

    The model is linear in the b's, so any subset may be frozen via
    `fixed` (name -> value) and the rest is solved in closed form.
    Returns the budget with per-coefficient covariance of the free ones.
    """
    p = np.asarray(photons, dtype=float)
    y = np.asarray(four_var, dtype=float)
    if np.any(p <= 0):
        raise ValueError("photon numbers must be > 0")
    fixed = dict(fixed or {})
    free = [t for t in _BUDGET_TERMS if t not in fixed]
    if len(p) < len(free) + 2 and free:
        raise ValueError("need at least 2 more points than free coefficients")

    resid = y - sum(v * p ** _BUDGET_POWERS[k] for k, v in fixed.items())
    values = dict(fixed)
    cov = None
    if free:
        design = np.column_stack([p ** _BUDGET_POWERS[t] for t in free])
        scale = np.linalg.norm(design, axis=0)
        if np.any(scale == 0):
            raise ValueError(_SINGULAR)
        # unit columns put p^-2 ... p^1 on one footing for the condition test
        sol, cov = _weighted_lstsq(design / scale, resid, four_var_se, max_cond=1e10)
        sol = sol / scale
        cov = cov / np.outer(scale, scale)
        for t, v in zip(free, sol):
            values[t] = max(float(v), 0.0)
    provenance = {t: ("fixed" if t in fixed else "fitted") for t in _BUDGET_TERMS}
    return NoiseBudget(
        b_minus2=values.get("b_minus2", 0.0),
        b_minus1=values.get("b_minus1", 0.0),
        b0_tech=values.get("b0_tech", 0.0),
        b0_mu=values.get("b0_mu", 0.0),
        b1=values.get("b1", 0.0),
        provenance=provenance,
        covariance=cov,
    )


def fit_quadratic_scaling(n0, y, y_se=None, constrain_a1: bool = False):
    """Fit y = a0 + a1 N0 + a2 N0^2 (optionally with a1 fixed to 1).

    Returns ((a0, a1, a2), (se_a0, se_a1, se_a2)).  Warns through a
    ValueError if the N0 range spans less than a factor 3 (the
    curvature is not identifiable on a narrow span).
    """
    n0 = np.asarray(n0, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(n0) < 4:
        raise ValueError("need at least 4 points")
    if n0.max() / n0.min() < 3.0:
        raise ValueError("atom-number span must cover at least a factor 3")

    if constrain_a1:
        design = np.column_stack([np.ones_like(n0), n0**2])
        target = y - n0
    else:
        design = np.column_stack([np.ones_like(n0), n0, n0**2])
        target = y
    sol, cov = _weighted_lstsq(design, target, y_se)
    se = np.sqrt(np.diag(cov))
    if constrain_a1:
        return (float(sol[0]), 1.0, float(sol[1])), (float(se[0]), 0.0, float(se[1]))
    return tuple(float(v) for v in sol), tuple(float(v) for v in se)


def contrast_model(p, c0, alpha, beta):
    """C(p) = C0 exp(-alpha p - beta p^2 / 2)."""
    return c0 * np.exp(-alpha * p - beta * p**2 / 2.0)
