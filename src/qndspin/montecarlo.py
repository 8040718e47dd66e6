"""The Monte Carlo scenarios: fig2, fig3, rotation and ramsey.

Each is fn(cfg, n_trials, seed) -> {filename: payload}, registered in
scenarios.SCENARIOS by name; run_scenario imports this module, and with
it numpy and the trial engine, on the first Monte Carlo run.  A
scenario's grid is one run_scan, read by one variance_stats call over
its leading point axis, so every column is an array.  A model column
reads the same statistics from the law each run's trials were drawn
from, with first-order detection noise added.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analysis import (
    conditional_variance,
    contrast_model,
    covariance_stats,
    fit_quadratic_scaling,
    residual_variance,
    squeezing_parameters,
    to_db,
    variance_stats,
)
from .config import RunConfig
from .measurement import SequencePlan, run_scan
from .scenarios import noise_budget_from_config
from .spinstate import measurement_backaction, prepare_css


# rows M1 and D = M1 - M2 over a record law's (a_0..a_3, S_z after M_1)
_M1_D = np.array([[0.5, 0.5, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, -0.5, 0.0]])


def _detection(cfg: RunConfig, p) -> np.ndarray:
    """run_scan's detection noise on (a_0..a_3, S_z after M_1), to first order.

    At photon number p, a scalar or one per point, each pulse gets
    (b_-1/p + b_-2/p^2)/2, each measurement b0_tech/4 with correlation
    rho between M1 and M2; a source cfg.probe switches off adds nothing.
    Returns (5, 5), or (G, 5, 5) for a (G,) p.
    """
    on, budget = cfg.probe.switches, noise_budget_from_config(cfg)
    b_minus1 = budget.b_minus1 if on.shot else 0.0
    b_minus2 = budget.b_minus2 if on.electronic else 0.0
    b0_tech = budget.b0_tech if on.technical else 0.0
    p, rho = np.asarray(p, dtype=float), cfg.probe.technical_correlation
    pulse = (b_minus1 / p + b_minus2 / p**2) / 2.0
    noise = np.zeros(p.shape + (5, 5))
    noise[..., :4, :4] = pulse[..., None, None] * np.eye(4) + b0_tech / 4.0 * np.array(
        [[1.0, rho], [rho, 1.0]]).repeat(2, 0).repeat(2, 1)
    return noise


def _model_stats(trials, detection):
    """variance_stats' report of the law the trials were drawn from, per point."""
    return covariance_stats(
        _M1_D @ (trials.record_cov + detection) @ _M1_D.T, trials.n_trials)


def _run(cfg: RunConfig, points, n_trials, seed):
    """One run_scan over points (plan, state, probe), point i seeded seed + i."""
    # every point, before any trial runs
    if any(pr.photons_per_measurement * cfg.rates.p_raman_total > 0.1
           for _, _, pr in points):
        raise ValueError(
            "p * P_Ram > 0.1: outside the first order that fig3's epsilon = "
            "p P_dF + mu and the model columns' detection terms rest on"
        )
    return run_scan([(*point, seed + i) for i, point in enumerate(points)],
                    n_trials, cfg.rates, cfg.pulses, cfg.couplings)


def scenario_fig2(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Projection-noise scaling scan: y1, y2, and 2 Var(M1-M2) vs N0."""
    opts = cfg.scenario_options("fig2")
    grid = np.asarray(opts["atom_grid"], dtype=float)
    prep = replace(cfg.preparation, **opts["preparation"])

    pair = 1.0 - prep.impurity_fraction  # double-prep excludes impurity atoms
    rep = variance_stats(_run(cfg, [point for n0 in grid for point in (
        ("squeeze-readout", prepare_css(n0, prep), cfg.probe),
        ("double-prep", prepare_css(n0 * pair, prep), cfg.probe))], n_trials, seed))
    # squeeze-readout at even points, double-prep at odd ones
    arr = np.column_stack([
        grid, 4.0 * rep.var_m1[::2], 4.0 * rep.var_m1_se[::2],  # y1 = 4 Var(M1)
        4.0 * rep.var_meas[1::2], 4.0 * rep.var_meas_se[1::2],  # y2 = 2 Var(M1 - M2)
        4.0 * rep.var_meas[::2], 4.0 * rep.var_meas_se[::2],
        grid,
    ])
    fits = {}
    if len(grid) >= 4 and max(grid) / min(grid) >= 3:
        for label, col, se_col in (("y1", 1, 2), ("y2", 3, 4)):
            coef, se = fit_quadratic_scaling(arr[:, 0], arr[:, col], arr[:, se_col])
            coef_c, se_c = fit_quadratic_scaling(
                arr[:, 0], arr[:, col], arr[:, se_col], constrain_a1=True
            )
            fits[label] = {
                "unconstrained": {"a0": coef[0], "a1": coef[1], "a2": coef[2],
                                  "se": list(se)},
                "a1_fixed": {"a0": coef_c[0], "a1": 1.0, "a2": coef_c[2],
                             "se": list(se_c)},
            }
    header = ["N0", "y1", "y1_err", "y2", "y2_err", "meas2", "meas2_err", "css_line"]
    return {"fig2.csv": (header, arr.tolist()), "fig2_fits.json": fits}


def scenario_fig3(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Conditional squeezing vs photon number with model-curve columns."""
    grid = np.asarray(cfg.scenario_options("fig3")["photon_grid"], dtype=float)
    n0 = cfg.n0
    css = n0 / 4.0
    on = cfg.probe.switches
    cpars = cfg.contrast_params
    c_in = cpars["c0"] / (1.0 - cpars["readout_loss"])
    state = prepare_css(n0, cfg.preparation)
    # epsilon_p = p P_dF + mu, each term only where its source is on
    p_df = cfg.rates.p_delta_f if on.raman else 0.0
    mu = cfg.pulses.mu_total if on.microwave else 0.0
    eps = grid * p_df + mu
    if eps.max() >= 0.5:  # checked before any trial runs
        raise ValueError(
            f"fig3 at p={grid.max():g}: epsilon_p = p P_dF + mu = {eps.max():.4g} "
            "must lie below 0.5; lower mu = composite_pi_infidelity + "
            f"lock_light_mu = {mu:g} or the largest photon_grid entry"
        )

    scan = _run(cfg, [("squeeze-readout", state, replace(
        cfg.probe, photons_per_measurement=p)) for p in grid], n_trials, seed)
    rep = variance_stats(scan)
    if np.min(rep.var_prep) <= 0:  # named at the lowest point
        raise ValueError(
            f"fig3 at p={grid[np.argmin(rep.var_prep)]:g}: the var_prep estimate "
            f"{np.min(rep.var_prep):.4g} is not positive; {n_trials} trials are "
            "too few to resolve the preparation noise"
        )
    # delta method; g = grad of var_meas var_prep / Var(M1) in (var_meas, var_prep)
    g = (np.stack((rep.var_prep, rep.var_meas), axis=-1) / rep.var_m1[:, None]) ** 2
    cond_err = np.sqrt(g[:, None, :] @ rep.meas_prep_cov @ g[:, :, None])[:, 0, 0]
    c_meas = contrast_model(grid, cpars["c0"], cpars["alpha"], cpars["beta"])
    # one composition for the Monte Carlo row (0) and the model row (1), the
    # model's variances read from the law each run draws from
    model = _model_stats(scan, _detection(cfg, grid))
    var_prep = np.stack((rep.var_prep, model.var_prep))
    var_meas = np.stack((rep.var_meas, model.var_meas))
    sigma2 = conditional_variance(var_prep, var_meas, eps) / css
    sq = squeezing_parameters(sigma2, c_meas, c_in, var_prep, var_meas, n0 / 2.0)
    rows = np.column_stack([
        grid, sq.sigma2[0], cond_err / (1 - eps) ** 2 / css, sq.sigma2_db[0], c_meas,
        sq.zeta_m_db[0], sq.zeta_e_db[0],
        sq.sigma2[1], sq.sigma2_db[1], sq.zeta_m_db[1], sq.zeta_e_db[1],
    ]).tolist()

    header = ["p", "sigma2", "sigma2_err", "sigma2_db", "C",
              "zeta_m_db", "zeta_e_db",
              "sigma2_model", "sigma2_model_db", "zeta_m_model_db",
              "zeta_e_model_db"]
    return {"fig3.csv": (header, rows)}


def scenario_rotation(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Variance of Sz after rotating the squeezed state about <S>."""
    opts = cfg.scenario_options("rotation")
    p = opts["photons"]
    angles = np.deg2rad(np.asarray(opts["angles_deg"], dtype=float))
    n0 = cfg.n0
    probe = replace(cfg.probe, photons_per_measurement=p)

    base = prepare_css(n0, cfg.preparation)
    state = measurement_backaction(
        base, p, cfg.couplings.phase_per_photon_eff, n0,
    )

    plans = ["squeeze-readout"] + [
        SequencePlan("rotate-alpha", rotation_angle=float(alpha)) for alpha in angles]
    scan = _run(cfg, [(plan, state, probe) for plan in plans], n_trials, seed)
    rep = variance_stats(scan)
    # the model reads the same statistics from each run's own law; built after
    # variance_stats, so a run with no usable trial fails before 1/p is taken
    model = _model_stats(scan, _detection(cfg, p))
    # point 0 is the squeeze-readout run, the rest one rotation each
    resid, resid_se = residual_variance(rep)
    rows = np.column_stack([
        angles, resid[1:] - rep.var_meas[0],  # from independent runs
        np.hypot(resid_se[1:], rep.var_meas_se[0]),
        residual_variance(model)[0][1:] - model.var_meas[0],
    ]).tolist()
    return {"rotation.csv": (["alpha_rad", "var_alpha", "var_alpha_err", "model"],
                             rows)}


def scenario_ramsey(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Squeezing before vs after a short Ramsey clock sequence."""
    opts = cfg.scenario_options("ramsey")
    plans = (
        SequencePlan("squeeze-readout"),
        SequencePlan(
            "ramsey-clock",
            precession_phase=opts["precession_phase"],
            phase_noise_rms=opts["phase_noise_rms"],
        ),
    )
    css = cfg.n0 / 4.0
    state = prepare_css(cfg.n0, cfg.preparation)

    scan = _run(cfg, [(plan, state, cfg.probe) for plan in plans], n_trials, seed)
    resid, _ = residual_variance(variance_stats(scan))
    # less the squeeze-readout law's imprecision
    p = cfg.probe.photons_per_measurement
    vm_model = _model_stats(scan, _detection(cfg, p)).var_meas[0]
    sigma2 = np.maximum(resid - vm_model, 1e-12) / css
    rows = [[plan.scenario, *vals] for plan, vals in zip(
        plans, np.column_stack([sigma2, to_db(sigma2)]).tolist())]
    return {"ramsey.csv": (["sequence", "sigma2", "sigma2_db"], rows)}
