"""Multi-seed calibration of the seeded Monte Carlo tests.

    PYTHONPATH=src python tests/calibrate_engine.py [N_SEEDS]   # default 20

Re-runs the statistics that the covariance, noise-source and flip
back-reaction tests gate on (test_measurement.py, criterion 4 of
test_acceptance.py) and the rotation and fig3 model tests
(test_config_cli.py) over N_SEEDS fresh seeds, never the tests' own, and
prints for each gated entry the mean z (sample minus oracle, in the
test's standard-error units) with its standard error, the spread of z,
and the share of seeds that would fail the test's bound.  Where engine
and oracle agree, the mean z lies within about 2 SE of 0 and the failure
share is near the nominal rate of the bound.  The covariance entries
and the per-source Raman and microwave terms are compared with the exact
flip chain (spinflip_covariance_exact); the other per-source noise terms
are the budget's.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from flip_oracle import spinflip_covariance_exact  # noqa: E402
from test_measurement import (  # noqa: E402
    FLIPS_ONLY,
    M1_WEIGHTS,
    MU_PULSES,
    N0,
    NO_PULSE_ERRORS,
    RATES,
    css_state,
    four_var,
    probe_config,
    regression_slope,
    two_var_diff,
)

from qndspin.config import load_and_validate, NoiseSwitches  # noqa: E402
from qndspin.measurement import (  # noqa: E402
    run_scan,
    SequencePlan,
)
from qndspin.montecarlo import scenario_fig3, scenario_rotation  # noqa: E402
from qndspin.scattering import ScatteringRates  # noqa: E402
from qndspin.scenarios import noise_budget_from_config  # noqa: E402
from qndspin.spinstate import PulseModel  # noqa: E402

CFG = load_and_validate()
COUPLINGS = CFG.couplings
P = 6.4e5
BOOSTED = ScatteringRates(
    p_delta_f=5.2e-8, p_delta_mf=3e-8, p_delta_f_delta_mf=3e-8,
    p_rayleigh_f1=0.0, p_rayleigh_f2=0.0,
)
PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]
ROTATION = load_and_validate(overrides={
    "scenarios": {"rotation": {"angles_deg": [0.0, 90.0, 180.0]}}})


def cov_z(ts, exact):
    """Covariance entries minus the exact ones, in sqrt(2/(n-1)) N0/4."""
    se = math.sqrt(2.0 / (ts.n_trials - 1)) * N0 / 4
    sample = np.cov(ts.pulses[0].T, ddof=1)
    return {f"cov[{i}{j}]": (sample[i, j] - exact[i, j]) / se for i, j in PAIRS}


def diff_var_z(ts, expected, bound=3.0):
    """2 Var(M1 - M2) against its term, in standard errors, and the bound."""
    sample = 2.0 * float(np.var(ts.m1 - ts.m2, ddof=1))
    se = sample * math.sqrt(2.0 / (ts.n_trials - 1))
    return (sample - expected) / se, bound


def covariance_structure(seed):
    ts = run_scan([("squeeze-readout", css_state(), P, seed)], 50_000,
                  probe_config(NoiseSwitches.only("raman")), BOOSTED, MU_PULSES,
                  COUPLINGS)
    cov = spinflip_covariance_exact(BOOSTED.p_delta_f, BOOSTED.p_delta_mf,
                                    BOOSTED.p_delta_f_delta_mf, 0.0, P, N0)
    return {k: (z, 3.5) for k, z in cov_z(ts, cov).items()}


def mu_covariance(seed):
    ts = run_scan([("squeeze-readout", css_state(), P, seed)], 50_000,
                  probe_config(NoiseSwitches.only("microwave")), BOOSTED,
                  PulseModel(0.02), COUPLINGS)
    cov = spinflip_covariance_exact(0, 0, 0, 0.02, P, N0)
    return {k: (z, 3.5) for k, z in cov_z(ts, cov).items()}


def flip_term(rates, mu):
    """The exact flip term of 2 Var(M1 - M2) at P photons."""
    flips = (0, 0, 0) if rates is None else (
        rates.p_delta_f, rates.p_delta_mf, rates.p_delta_f_delta_mf)
    return two_var_diff(spinflip_covariance_exact(*flips, mu, P, N0))


def noise_sources(seed):
    dn_du = 1.0 / (2 * COUPLINGS.domega_dn)
    # name: (expected, trials, bound, rates, pulses)
    terms = {
        "electronic": (6e13 / P**2, 4000, 3.5, None, NO_PULSE_ERRORS),
        "shot": (2 * (1.9 / 0.43) * dn_du**2 / P, 10_000, 3.5, None,
                 NO_PULSE_ERRORS),
        "technical": (0.04 * N0, 10_000, 3.5, None, NO_PULSE_ERRORS),
        "microwave": (flip_term(None, 0.02), 10_000, 3.0, None, MU_PULSES),
        "raman": (flip_term(RATES, 0.0), 10_000, 3.0, RATES, NO_PULSE_ERRORS),
    }
    out = {}
    for name, (expected, n, bound, rates, pulses) in terms.items():
        ts = run_scan([("squeeze-readout", css_state(), P, seed)], n,
                      probe_config(NoiseSwitches.only(name)), rates, pulses, COUPLINGS)
        out[name] = diff_var_z(ts, expected, bound)
    return out


def criterion_4(seed):
    budget = noise_budget_from_config(CFG, N0)
    state = css_state()
    no_errors = PulseModel(0.0)
    mu_pulses = PulseModel(0.02)
    terms = {
        "electronic": (budget.b_minus2 / P**2, no_errors),
        "shot": (budget.b_minus1 / P, no_errors),
        "technical": (budget.b0_tech, no_errors),
        "microwave": (flip_term(None, 0.02), mu_pulses),
        "raman": (flip_term(CFG.rates, 0.0), no_errors),
    }
    points = [("squeeze-readout", state, P, seed)]
    out = {}
    for name, (expected, pulses) in terms.items():
        probe = replace(CFG.probe, switches=NoiseSwitches.only(name))
        ts = run_scan(points, 10_000, probe, CFG.rates, pulses, COUPLINGS)
        out[name] = diff_var_z(ts, expected)
    probe = replace(CFG.probe, switches=FLIPS_ONLY)
    ts = run_scan(points, 100_000, probe, CFG.rates, mu_pulses, COUPLINGS)
    cov = spinflip_covariance_exact(CFG.rates.p_delta_f, CFG.rates.p_delta_mf,
                                    CFG.rates.p_delta_f_delta_mf, 0.02, P, N0)
    out.update({k: (z, 3.0) for k, z in cov_z(ts, cov).items()})
    return out


def back_reaction(seed):
    out = {}
    args = (probe_config(FLIPS_ONLY), RATES, MU_PULSES, COUPLINGS)
    n = 20_000
    ts = run_scan([("double-prep", css_state(), P, seed)], n, *args)
    out["double-prep corr"] = (np.corrcoef(ts.m1, ts.m2)[0, 1] * math.sqrt(n), 3.0)
    cov = spinflip_covariance_exact(RATES.p_delta_f, RATES.p_delta_mf,
                                    RATES.p_delta_f_delta_mf, 0.02, P, N0)
    out["double-prep y2"] = diff_var_z(ts, four_var(cov, M1_WEIGHTS))
    plan = SequencePlan("rotate-alpha", rotation_angle=math.pi / 2)
    ts = run_scan([(plan, css_state(), P, seed)], n, *args)
    out["rotate pi/2 corr"] = (np.corrcoef(ts.m1, ts.m2)[0, 1] * math.sqrt(n), 3.0)
    ramsey, se_r = regression_slope(
        run_scan([(SequencePlan("ramsey-clock"), css_state(), P, seed)], 10_000, *args))
    plain, se_p = regression_slope(
        run_scan([("squeeze-readout", css_state(), P, seed + 1)], 10_000, *args))
    out["ramsey slope mirror"] = ((ramsey + plain) / math.hypot(se_r, se_p), 3.0)
    ts = run_scan([("squeeze-readout", css_state(1000), P, seed)], 100_000,
                  probe_config(NoiseSwitches.only("raman")), BOOSTED,
                  NO_PULSE_ERRORS, COUPLINGS)
    pulses = ts.pulses[0]
    x = pulses - pulses.mean(axis=0)
    d = x[:, 3] ** 2 - x[:, 0] ** 2
    out["Var(M2-) - Var(M1-)"] = (d.mean() / (d.std(ddof=1) / math.sqrt(len(d))), 3.0)
    return out


def rotation_model(seed):
    """rotation's var_alpha minus its model column, in var_alpha_err."""
    # the scenario seeds its four runs seed..seed + 3: 4 seed keeps seeds apart
    (_, rows), = scenario_rotation(ROTATION, 200_000, 4 * seed).values()
    return {f"{math.degrees(alpha):.0f} deg": ((var - model) / err, 3.0)
            for alpha, var, err, model in rows}


def fig3_model(seed):
    """fig3's sigma2 minus its model row at the default config, in sigma2_err."""
    # the scenario seeds its six runs seed..seed + 5: 6 seed keeps seeds apart
    (_, rows), = scenario_fig3(CFG, 40_000, 6 * seed).values()
    return {f"p = {p:g}": ((sigma2 - model) / err, 3.0)
            for p, sigma2, err, *_, model, _, _, _ in rows}


CHECKS = {
    "test_monte_carlo_covariance_structure": covariance_structure,
    "test_monte_carlo_mu_covariance": mu_covariance,
    "TestNoiseBudgetSources": noise_sources,
    "test_criterion_4_noise_budget_monte_carlo": criterion_4,
    "TestFlipBackReaction": back_reaction,
    "test_rotation_model_is_the_run_statistic": rotation_model,
    "test_fig3_model_honours_noise_switches": fig3_model,
}


def main(n_seeds: int) -> None:
    seeds = [900_000 + k for k in range(n_seeds)]
    print(f"{n_seeds} seeds ({seeds[0]}..{seeds[-1]})")
    for test, check in CHECKS.items():
        t0 = time.perf_counter()
        runs = [check(seed) for seed in seeds]
        print(f"\n{test}  ({time.perf_counter() - t0:.0f} s)")
        print(f"  {'entry':<22} {'mean z':>14} {'sd z':>6} {'max|z|':>7} {'fail':>6}")
        for entry in runs[0]:
            z = np.array([r[entry][0] for r in runs])
            fails = np.mean([abs(r[entry][0]) > r[entry][1] for r in runs])
            sem = z.std(ddof=1) / math.sqrt(len(z))
            print(f"  {entry:<22} {z.mean():+6.2f} +- {sem:4.2f} {z.std(ddof=1):6.2f}"
                  f" {np.abs(z).max():7.2f} {fails:6.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
