"""Named desk-scale experiment scenarios and their file artifacts.

Each scenario is registered in SCENARIOS as a function
fn(cfg, n_trials, seed) that runs deterministic physics plus (where
relevant) Monte Carlo trials and returns its artifacts as
{filename: payload}: a (header, rows) pair for ``.csv`` files, a dict
for ``.json`` files; the first entry is the primary artifact.
run_scenario is the only writer: it writes the artifacts, a
resolved-config echo and a run manifest (seed, config hash, scenario,
code version, output hashes) so that reruns are byte-identical and
verifiable.
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
    fit_quadratic_scaling,
    residual_variance,
    squeezing_parameters,
    to_db,
    variance_stats,
)
from .config import RunConfig
from .limits import LimitInputs, limits_report
from .measurement import SequencePlan, run_trials
from .scattering import raman_noise_coefficient
from .spinstate import (
    condition_on_measurement,
    measurement_backaction,
    prepare_css,
    rotate,
)


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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
                for v in row
            ) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


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


def _run(cfg: RunConfig, plan, n_trials, seed, state, probe=None):
    probe = probe or cfg.probe
    if probe.photons_per_measurement * cfg.rates.p_raman_total > 0.1:
        raise ValueError(
            "p * P_Ram > 0.1: outside the first-order noise budget that "
            "every scenario reports against"
        )
    return run_trials(
        plan, n_trials, seed, state, probe, cfg.rates, cfg.pulses, cfg.couplings,
    )


def scenario_fig2(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Projection-noise scaling scan: y1, y2, and 2 Var(M1-M2) vs N0."""
    opts = cfg.scenario_options("fig2")
    grid = opts["atom_grid"]
    prep = replace(cfg.preparation, **opts["preparation"])

    rows = []
    for i, n0 in enumerate(grid):
        state = prepare_css(n0, prep)
        ts1 = _run(cfg, "squeeze-readout", n_trials, seed + 2 * i, state)
        rep1 = variance_stats(ts1)
        n0_pair = n0 * (1.0 - prep.impurity_fraction)
        state2 = prepare_css(n0_pair, prep)
        ts2 = _run(cfg, "double-prep", n_trials, seed + 2 * i + 1, state2)
        rep2 = variance_stats(ts2)
        rows.append([
            n0, 4.0 * rep1.var_m1, 4.0 * rep1.var_m1_se,  # y1 = 4 Var(M1)
            4.0 * rep2.var_meas, 4.0 * rep2.var_meas_se,  # y2 = 2 Var(M1 - M2)
            4.0 * rep1.var_meas, 4.0 * rep1.var_meas_se,
            n0,
        ])

    arr = np.array(rows)
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
    return {"fig2.csv": (header, rows), "fig2_fits.json": fits}


def scenario_fig3(cfg: RunConfig, n_trials: int, seed: int) -> dict:
    """Conditional squeezing vs photon number with model-curve columns."""
    grid = cfg.scenario_options("fig3")["photon_grid"]
    n0 = cfg.n0
    css = n0 / 4.0
    budget = noise_budget_from_config(cfg)
    cpars = cfg.contrast_params
    c_in = cpars["c0"] / (1.0 - cpars["readout_loss"])
    state = prepare_css(n0, cfg.preparation)
    mu = cfg.pulses.mu_total
    eps_max = max(grid) * cfg.rates.p_delta_f + mu
    if eps_max >= 0.5:  # checked before any trial runs
        raise ValueError(
            f"fig3 at p={max(grid):g}: epsilon_p = p P_dF + mu = {eps_max:.4g} "
            "must lie below 0.5; lower mu = composite_pi_infidelity + "
            f"lock_light_mu = {mu:g} or the largest photon_grid entry"
        )

    def squeezing(var_prep, var_meas, eps, c_meas):
        # one composition for the Monte Carlo row and the model row
        sigma2 = conditional_variance(var_prep, var_meas, eps) / css
        return squeezing_parameters(sigma2, c_meas, c_in, var_prep, var_meas, n0 / 2.0)

    rows = []
    for i, p in enumerate(grid):
        probe = replace(cfg.probe, photons_per_measurement=p)
        ts = _run(cfg, "squeeze-readout", n_trials, seed + i, state, probe=probe)
        rep = variance_stats(ts)
        if rep.var_prep <= 0:
            raise ValueError(
                f"fig3 at p={p:g}: the var_prep estimate {rep.var_prep:.4g} is "
                f"not positive; {n_trials} trials are too few to resolve the "
                "preparation noise"
            )
        eps = p * cfg.rates.p_delta_f + mu
        # delta method; g = grad of var_meas var_prep / Var(M1) in (var_meas, var_prep)
        g = (np.array([rep.var_prep, rep.var_meas]) / rep.var_m1) ** 2
        cond_err = math.sqrt(g @ rep.meas_prep_cov @ g) / (1 - eps) ** 2
        c_meas = float(contrast_model(p, cpars["c0"], cpars["alpha"], cpars["beta"]))
        sq = squeezing(rep.var_prep, rep.var_meas, eps, c_meas)
        # model curves from the analytic budget composition
        sq_model = squeezing(
            cfg.preparation.prep_variance(n0), budget.evaluate(p) / 4.0, eps, c_meas
        )
        rows.append([
            p, sq.sigma2, cond_err / css, sq.sigma2_db, c_meas,
            sq.zeta_m_db, sq.zeta_e_db,
            sq_model.sigma2, sq_model.sigma2_db, sq_model.zeta_m_db,
            sq_model.zeta_e_db,
        ])

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

    vm_model = noise_budget_from_config(cfg).evaluate(p) / 4.0
    model_state = condition_on_measurement(state, vm_model)

    ts0 = _run(cfg, "squeeze-readout", n_trials, seed, state, probe=probe)
    rep0 = variance_stats(ts0)

    rows = []
    for i, alpha in enumerate(angles):
        plan = SequencePlan("rotate-alpha", rotation_angle=float(alpha))
        ts = _run(cfg, plan, n_trials, seed + 1 + i, state, probe=probe)
        resid, resid_se = residual_variance(variance_stats(ts))
        model = rotate(model_state, alpha).var_z
        rows.append([alpha, resid - rep0.var_meas,  # from independent runs
                     math.hypot(resid_se, rep0.var_meas_se), model])

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
    budget = noise_budget_from_config(cfg)
    vm_model = budget.evaluate(cfg.probe.photons_per_measurement) / 4.0

    rows = []
    for i, plan in enumerate(plans):
        resid, _ = residual_variance(
            variance_stats(_run(cfg, plan, n_trials, seed + i, state)))
        sigma2 = max(resid - vm_model, 1e-12) / css
        rows.append([plan.scenario, sigma2, to_db(sigma2)])
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

    files = []
    for filename, payload in compute(cfg, n_trials, seed).items():
        path = out_dir / filename
        if path.suffix == ".csv":
            _write_csv(path, *payload)
        else:
            _write_json(path, payload)
        files.append(path)
    echo = out_dir / "resolved_config.json"
    _write_json(echo, cfg.raw)

    manifest = out_dir / f"{name}_manifest.json"
    _write_json(manifest, {
        "scenario": name,
        "seed": int(seed),
        "n_trials": int(n_trials),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "outputs": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in (*files, echo)},
    })
    return files[0], manifest
