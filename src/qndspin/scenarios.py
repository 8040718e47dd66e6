"""Named desk-scale experiment scenarios and their file artifacts.

Each scenario is registered in SCENARIOS as a function
fn(cfg, n_trials, seed) that runs deterministic physics plus (where
relevant) Monte Carlo trials and returns its artifacts as
{filename: payload}: a (header, rows) pair for ``.csv`` files, a dict
for ``.json`` files; the first entry is the primary artifact.  A Monte
Carlo grid is one run_scan, read by one variance_stats call over its
leading point axis, so every column is an array.
run_scenario is the only writer: it writes the artifacts, a
resolved-config echo and a run manifest (seed, config hash, scenario,
code version, output hashes) so that reruns are byte-identical and
verifiable.  Each file is serialized once and written in one call, and
its manifest hash is taken from the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    NoiseBudget,
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
from .limits import LimitInputs, limits_report
from .measurement import SequencePlan, run_scan
from .scattering import raman_noise_coefficient
from .spinstate import measurement_backaction, prepare_css


def noise_budget_from_config(cfg: RunConfig, n0: float | None = None) -> NoiseBudget:
    """Analytic four-term budget implied by the configuration."""
    n0 = cfg.n0 if n0 is None else n0
    dn_du = 1.0 / (2.0 * cfg.couplings.domega_dn)
    b_minus1 = 2.0 * (cfg.probe.apd_excess_factor / cfg.probe.quantum_efficiency) * dn_du**2
    return NoiseBudget(
        b_minus2=cfg.probe.electronic_noise_b2,
        b_minus1=b_minus1,
        b0_tech=cfg.probe.technical_noise_fraction * n0,
        b0_mu=cfg.pulses.mu_total * n0,
        b1=raman_noise_coefficient(cfg.rates, n0),
        provenance={k: "fixed" for k in
                    ("b_minus2", "b_minus1", "b0_tech", "b0_mu", "b1")},
    )


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


def _csv_text(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(
        repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
        for v in row) + "\n" for row in (header, *rows))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def scenario_params_report(cfg: RunConfig) -> dict:
    """Deterministic physics report: the full coupling/scattering chain."""
    c = cfg.couplings
    budget = noise_budget_from_config(cfg)
    kappa = cfg.resonator.linewidth
    return {
        "constants_version": cfg.constants.version,
        "antinode_cooperativity_probe": c.antinode_cooperativity,
        "effective_cooperativity": c.effective_cooperativity,
        "eta_ratio": c.effective_cooperativity / c.antinode_cooperativity,
        "effective_atom_number": c.effective_atom_number,
        "collective_cooperativity": c.effective_atom_number
        * c.effective_cooperativity,
        "shift_per_atom_f1_kappa": c.shift_per_atom_f1,
        "shift_per_atom_f2_kappa": c.shift_per_atom_f2,
        "shift_per_atom_f1_comp_kappa": c.shift_per_atom_f1_comp,
        "shift_per_atom_f2_comp_kappa": c.shift_per_atom_f2_comp,
        "domega_dn_kappa": c.domega_dn,
        "delta_prime_mhz": c.delta_prime / (2e6 * math.pi),
        "phase_per_photon_max_urad": c.phase_per_photon_max * 1e6,
        "phase_per_photon_eff_urad": c.phase_per_photon_eff * 1e6,
        "kappa_mhz": kappa / (2e6 * math.pi),
        "p_raman": cfg.rates.p_raman_total,
        "p_total": cfg.rates.p_total,
        "p_total_to_raman": cfg.rates.p_total / cfg.rates.p_raman_total,
        "p_delta_f": cfg.rates.p_delta_f,
        "p_delta_mf": cfg.rates.p_delta_mf,
        "p_delta_f_delta_mf": cfg.rates.p_delta_f_delta_mf,
        "p_rayleigh_f1": cfg.rates.p_rayleigh_f1,
        "p_rayleigh_f2": cfg.rates.p_rayleigh_f2,
        "b1_per_photon": budget.b1,
        "b_minus1": budget.b_minus1,
    }


def _params_report_artifacts(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    return {"params_report.json": scenario_params_report(cfg)}


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


def scenario_limits(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Fundamental-limit report for the configured system."""
    c = cfg.couplings
    inputs = LimitInputs(
        collective_cooperativity=c.effective_atom_number
        * c.effective_cooperativity,
        p_raman=cfg.rates.p_raman_total,
        p_total=cfg.rates.p_total,
        phi_eff=c.phase_per_photon_eff,
        p_rayleigh_f1=cfg.rates.p_rayleigh_f1,
        p_rayleigh_f2=cfg.rates.p_rayleigh_f2,
    )
    return {"limits.json": limits_report(inputs)}


# name -> (fn(cfg, n_trials, seed) -> {filename: payload}, runs trials)
SCENARIOS = {
    "params-report": (_params_report_artifacts, False),
    "fig2": (scenario_fig2, True),
    "fig3": (scenario_fig3, True),
    "rotation": (scenario_rotation, True),
    "ramsey": (scenario_ramsey, True),
    "limits": (scenario_limits, False),
}
SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenario(name: str, cfg: RunConfig, out_dir: Path,
                 n_trials: int | None = None, seed: int | None = None):
    """Run a registered scenario and write its artifacts.

    Writes every artifact, resolved_config.json and
    <name>_manifest.json into out_dir; returns (primary artifact,
    manifest).  Deterministic scenarios record n_trials = 0.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    compute, monte_carlo = SCENARIOS[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_trials = (n_trials or cfg.n_trials) if monte_carlo else 0
    seed = cfg.master_seed if seed is None else seed

    texts = {filename: _csv_text(*payload) if filename.endswith(".csv")
             else _json_text(payload)
             for filename, payload in compute(cfg, n_trials, seed).items()}
    texts["resolved_config.json"] = _json_text(cfg.raw)
    outputs = {}
    for filename, text in texts.items():
        data = text.encode()
        (out_dir / filename).write_bytes(data)
        outputs[filename] = hashlib.sha256(data).hexdigest()

    manifest = out_dir / f"{name}_manifest.json"
    manifest.write_bytes(_json_text({
        "scenario": name,
        "seed": int(seed),
        "n_trials": int(n_trials),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "outputs": outputs,
    }).encode())
    return out_dir / next(iter(texts)), manifest
