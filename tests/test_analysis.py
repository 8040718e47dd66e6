import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from qndspin.analysis import (
    conditional_variance,
    contrast_model,
    covariance_stats,
    fit_noise_model,
    fit_quadratic_scaling,
    residual_variance,
    squeezing_parameters,
    to_db,
    variance_stats,
)
from qndspin import montecarlo
from qndspin.config import load_and_validate, NoiseBudget, NoiseSwitches
from qndspin.measurement import TrialSet, run_scan

N0 = 3.3e4


# pulses (M1, M1, M2, M2) and S_z = M1 as rows over (M1, M2)
PULSES_OF_M = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])


def synthetic_trialset(rng, n, cov, mean=(0.0, 0.0)):
    """TrialSet with (M1, M2) drawn from a known bivariate Gaussian."""
    samples = rng.multivariate_normal(mean, cov, size=n)
    m1, m2 = samples[:, 0], samples[:, 1]
    pulses = np.column_stack([m1, m1, m2, m2])
    return TrialSet(
        pulses=pulses,
        true_szf=m1.copy(),
        saturated=np.zeros(n, dtype=bool),
        record_cov=PULSES_OF_M @ np.asarray(cov) @ PULSES_OF_M.T,
        detection_cov=np.zeros((5, 5)),
    )


class TestDbConversions:
    def test_reference_values(self):
        assert to_db(1.0) == 0.0
        assert to_db(0.5) == pytest.approx(-3.0103, abs=1e-4)
        assert to_db(0.0146) == pytest.approx(-18.4, abs=0.05)

    def test_domain(self):
        with pytest.raises(ValueError):
            to_db(0.0)
        with pytest.raises(ValueError):
            to_db(-1.0)


class TestVarianceStats:
    def test_constant_records(self):
        pulses = np.ones((10, 4)) * 3.0
        ts = TrialSet(
            pulses=pulses, true_szf=np.ones(10) * 3.0,
            saturated=np.zeros(10, dtype=bool), record_cov=np.zeros((5, 5)),
            detection_cov=np.zeros((5, 5)),
        )
        rep = variance_stats(ts)
        assert rep.var_m1 == 0.0
        assert rep.var_meas == 0.0
        assert rep.var_m1_se == rep.var_prep_se == 0.0
        assert not rep.meas_prep_cov.any()

    def test_known_gaussian(self):
        rng = np.random.default_rng(2)
        v_prep, v_meas = 9405.0, 1206.0
        cov = np.array(
            [[v_prep + v_meas, v_prep], [v_prep, v_prep + v_meas]]
        )
        n = 10000
        rep = variance_stats(synthetic_trialset(rng, n, cov))
        assert abs(rep.var_m1 - (v_prep + v_meas)) <= 3 * rep.var_m1_se
        assert abs(rep.var_meas - v_meas) <= 3 * rep.var_meas_se
        assert abs(rep.cov_m1_m2 - v_prep) <= 3 * rep.cov_m1_m2_se
        assert abs(rep.var_prep - v_prep) <= 3 * rep.var_prep_se
        # the two var_prep estimators agree
        assert rep.var_prep == pytest.approx(rep.cov_m1_m2, rel=0.05)
        # var_prep is Var(M1) less var_meas, and the two are read from M1
        assert rep.var_prep + rep.var_meas == pytest.approx(rep.var_m1, rel=1e-12)
        assert rep.meas_prep_cov[0, 1] < 0

    def test_law_reads_through_the_same_forms(self):
        # the report of the law a set is drawn from holds the exact values
        # that variance_stats estimates from its sample
        v_prep, v_meas = 9405.0, 1206.0
        law = np.array([[v_prep + v_meas, v_prep], [v_prep, v_prep + v_meas]])
        to_m1_d = np.array([[1.0, 0.0], [1.0, -1.0]])
        exact = covariance_stats(to_m1_d @ law @ to_m1_d.T, 10_000)
        assert exact.var_meas == pytest.approx(v_meas, rel=1e-12)
        assert exact.var_prep == pytest.approx(v_prep, rel=1e-12)
        assert residual_variance(exact)[0] == pytest.approx(
            v_meas + conditional_variance(v_prep, v_meas), rel=1e-12)
        rep = variance_stats(synthetic_trialset(np.random.default_rng(8), 10_000, law))
        assert abs(rep.var_meas - exact.var_meas) <= 3 * exact.var_meas_se
        assert abs(rep.var_prep - exact.var_prep) <= 3 * exact.var_prep_se

    def test_small_var_meas_does_not_cancel(self):
        # with the detector noise off M1 and M2 agree to rounding: var_meas
        # is 1e-20 of Var(M1) and must keep its digits and its sign
        rng = np.random.default_rng(5)
        m1 = 1e4 + 100.0 * rng.standard_normal(500)
        m2 = m1 + 1e-8 * rng.standard_normal(500)
        law = np.array([[1e4, 1e4], [1e4, 1e4 + 1e-16]])
        ts = TrialSet(pulses=np.column_stack([m1, m1, m2, m2]),
                      true_szf=m1, saturated=np.zeros(500, dtype=bool),
                      record_cov=PULSES_OF_M @ law @ PULSES_OF_M.T,
                      detection_cov=np.zeros((5, 5)))
        rep = variance_stats(ts)
        assert rep.var_meas == pytest.approx(np.var(m1 - m2, ddof=1) / 2, rel=1e-9)

    def test_saturated_excluded(self):
        rng = np.random.default_rng(3)
        ts = synthetic_trialset(rng, 100, np.eye(2))
        sat = np.zeros(100, dtype=bool)
        sat[:7] = True
        rep = variance_stats(replace(ts, saturated=sat))
        assert rep.n_excluded_saturated == 7
        assert rep.n_trials == 93

    def test_too_few_unsaturated_trials_name_the_point(self):
        # a scan's report fails on the point that cannot be estimated
        one = synthetic_trialset(np.random.default_rng(6), 10, np.eye(2))
        saturated = np.zeros((2, 10), dtype=bool)
        saturated[1, 2:] = True  # point 1 keeps 2 of its 10 trials
        scan = TrialSet(np.stack([one.pulses] * 2), np.stack([one.true_szf] * 2),
                        saturated, np.stack([one.record_cov] * 2),
                        np.stack([one.detection_cov] * 2))
        with pytest.raises(ValueError, match="trials at point 1; got 2 of 10 trials"):
            variance_stats(scan)

    def test_se_calibration(self):
        # the chi^2 standard error is consistent: ~68% of repeated
        # estimates fall within 1 SE of truth
        rng = np.random.default_rng(4)
        hits = 0
        reps = 300
        for _ in range(reps):
            rep = variance_stats(synthetic_trialset(rng, 200, np.eye(2) * 4.0))
            if abs(rep.var_m1 - 4.0) <= rep.var_m1_se:
                hits += 1
        assert 0.58 < hits / reps < 0.78


class TestConditionalVariance:
    def test_equal_variances(self):
        assert conditional_variance(10.0, 10.0, 0.0) == pytest.approx(5.0)

    def test_epsilon_correction_db(self):
        base = conditional_variance(9405.0, 1206.0, 0.0)
        corr = conditional_variance(9405.0, 1206.0, 0.035)
        assert to_db(corr) - to_db(base) == pytest.approx(0.31, abs=0.03)

    def test_reference_point_values(self):
        v = conditional_variance(9405.0, 1206.0, 0.0)
        assert v == pytest.approx(1069.0, abs=1.0)
        assert to_db(v / (N0 / 4)) == pytest.approx(-8.9, abs=0.05)

    def test_upper_bound_property(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            vp, vm = rng.uniform(1e-3, 1e6, size=2)
            c = conditional_variance(vp, vm, 0.0)
            assert c <= min(vp, vm) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            conditional_variance(-1.0, 1.0)
        with pytest.raises(ValueError):
            conditional_variance(1.0, 1.0, 0.6)


class TestSqueezingParameters:
    def test_reference_values(self):
        rep = squeezing_parameters(
            sigma2=0.20, contrast_meas=0.533, contrast_in=0.71,
            var_prep=9405.0, var_meas=1687.0, s0=N0 / 2,
        )
        assert 1.0 / rep.zeta_m == pytest.approx(2.0, abs=0.4)
        assert -rep.zeta_m_db == pytest.approx(3.0, abs=0.8)
        assert 1.0 / rep.zeta_e == pytest.approx(2.7, abs=0.3)
        assert -rep.zeta_e_db == pytest.approx(4.3, abs=0.5)

    def test_unsqueezed_css(self):
        # sigma2 = 1 means no information is gained: var_meas >> var_prep
        rep = squeezing_parameters(
            sigma2=1.0, contrast_meas=1.0, contrast_in=1.0,
            var_prep=N0 / 4, var_meas=1e15, s0=N0 / 2,
        )
        assert rep.zeta_e == pytest.approx(1.0)
        assert rep.zeta_m == pytest.approx(1.0, rel=1e-6)

    def test_zeta_m_independent_of_epsilon(self):
        # eps_p enters only sigma2, through conditional_variance; zeta_m is
        # built from raw measured variances and the measured contrast, so
        # the sigma2 of eps_p = 0 and of eps_p = 0.05 give the same zeta_m
        kw = dict(contrast_meas=0.5, contrast_in=0.71, var_prep=9000.0,
                  var_meas=1500.0, s0=N0 / 2)
        a, b = (squeezing_parameters(
            sigma2=conditional_variance(9000.0, 1500.0, eps) / (N0 / 4), **kw)
            for eps in (0.0, 0.05))
        assert a.sigma2 != b.sigma2
        assert a.zeta_m == b.zeta_m

    def test_zeta_ordering(self):
        # zeta_e <= zeta_m whenever C_meas <= C_in: with sigma2 built
        # from the same variances, zeta_e/zeta_m = C_meas/C_in exactly
        rng = np.random.default_rng(6)
        for _ in range(200):
            vp = rng.uniform(100, 1e5)
            vm = rng.uniform(100, 1e5)
            c_in = rng.uniform(0.3, 1.0)
            c = rng.uniform(0.05, 1.0) * c_in
            sigma2 = conditional_variance(vp, vm, 0.0) / (N0 / 4)
            rep = squeezing_parameters(
                sigma2=sigma2, contrast_meas=c, contrast_in=c_in,
                var_prep=vp, var_meas=vm, s0=N0 / 2,
            )
            assert rep.zeta_e <= rep.zeta_m * (1 + 1e-12)
            assert rep.zeta_e / rep.zeta_m == pytest.approx(c / c_in, rel=1e-9)

    def test_kappa_meas_relation(self):
        # var_prep = Var_CSS, eps = 0, C = 1: sigma2 = zeta_m = 1/(1 + kappa^2)
        # with kappa^2 = var_prep / var_meas the measurement strength
        for vm in [100.0, 5000.0, 2e4]:
            vp = N0 / 4
            sigma2 = conditional_variance(vp, vm, 0.0) / (N0 / 4)
            rep = squeezing_parameters(
                sigma2=sigma2, contrast_meas=1.0, contrast_in=1.0,
                var_prep=vp, var_meas=vm, s0=N0 / 2,
            )
            assert rep.sigma2 == pytest.approx(1.0 / (1.0 + vp / vm), rel=1e-12)
            assert rep.zeta_m == pytest.approx(1.0 / (1.0 + vp / vm), rel=1e-12)

    def test_contrast_ordering_enforced(self):
        with pytest.raises(ValueError):
            squeezing_parameters(0.2, 0.8, 0.71, 9e3, 1.2e3, N0 / 2)


class TestNoiseModelFit:
    def make_data(self, rng, budget, n=12, rel_noise=0.02):
        p = np.geomspace(3e4, 3e6, n)
        y = budget.evaluate(p)
        y_noisy = y * (1 + rel_noise * rng.standard_normal(n))
        return p, y_noisy, y * rel_noise

    def test_recovery_all_free(self):
        rng = np.random.default_rng(7)
        truth = NoiseBudget(6e13, 1.1e9, 1320.0, 660.0, 1.55e-3)
        # b0_tech and b0_mu are degenerate (same power); fit their sum
        p, y, se = self.make_data(rng, truth)
        fit = fit_noise_model(p, y, se, fixed={"b0_mu": 660.0})
        assert fit.b_minus2 == pytest.approx(truth.b_minus2, rel=0.15)
        assert fit.b_minus1 == pytest.approx(truth.b_minus1, rel=0.15)
        assert fit.b0_tech == pytest.approx(truth.b0_tech, rel=0.5)
        assert fit.b1 == pytest.approx(truth.b1, rel=0.15)

    def test_single_free_parameter_protocol(self):
        # all coefficients frozen except b0_tech
        rng = np.random.default_rng(8)
        truth = NoiseBudget(6e13, 1.1e9, 0.04 * N0, 0.02 * N0, 4.7e-8 * N0)
        p, y, se = self.make_data(rng, truth, rel_noise=0.01)
        fit = fit_noise_model(
            p, y, se,
            fixed={
                "b_minus2": truth.b_minus2,
                "b_minus1": truth.b_minus1,
                "b0_mu": truth.b0_mu,
                "b1": truth.b1,
            },
        )
        assert fit.provenance["b0_tech"] == "fitted"
        assert fit.b0_tech / N0 == pytest.approx(0.04, abs=0.02)

    def test_single_free_parameter_on_simulated_scan(self):
        # the same protocol applied to an actual simulated photon-number
        # scan: freeze the calculated/measured coefficients, fit only the
        # technical term, recover the configured 0.04 N0 within 0.02 N0
        from qndspin.config import load_and_validate
        from qndspin.measurement import run_scan
        from qndspin.scenarios import noise_budget_from_config
        from qndspin.spinstate import prepare_css, PreparationModel

        cfg = load_and_validate()
        n0 = 3.3e4
        state = prepare_css(n0, PreparationModel())
        budget = noise_budget_from_config(cfg, n0)
        grid = np.array([1e5, 2e5, 3.2e5, 5e5, 8e5, 1.2e6])
        samples, ses = [], []
        n = 3000
        for i, p in enumerate(grid):
            ts = run_scan([("squeeze-readout", state, p, 600 + i)], n, cfg.probe,
                          cfg.rates, cfg.pulses, cfg.couplings)
            v = 2.0 * float(np.var(ts.m1 - ts.m2, ddof=1))
            samples.append(v)
            ses.append(v * np.sqrt(2.0 / (n - 1)))
        fit = fit_noise_model(
            grid, np.array(samples), np.array(ses),
            fixed={
                "b_minus2": budget.b_minus2,
                "b_minus1": budget.b_minus1,
                "b0_mu": budget.b0_mu,
                "b1": budget.b1,
            },
        )
        assert fit.b0_tech / n0 == pytest.approx(0.04, abs=0.02)

    def test_all_frozen_returns_inputs(self):
        truth = NoiseBudget(6e13, 1.1e9, 1320.0, 660.0, 1.55e-3)
        fit = fit_noise_model(
            np.array([1e5, 1e6]), np.array([1.0, 2.0]),
            fixed={t: getattr(truth, t) for t in
                   ("b_minus2", "b_minus1", "b0_tech", "b0_mu", "b1")},
        )
        assert fit.b1 == truth.b1
        assert all(v == "fixed" for v in fit.provenance.values())

    def test_chi2_consistency_over_seeds(self):
        # residuals on self-generated data are chi^2-consistent
        truth = NoiseBudget(6e13, 1.1e9, 1320.0, 660.0, 1.55e-3)
        pvals = []
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            p, y, se = self.make_data(rng, truth, n=14)
            fit = fit_noise_model(p, y, se, fixed={"b0_mu": 660.0})
            resid = (y - fit.evaluate(p)) / se
            chi2 = float(np.sum(resid**2))
            pvals.append(1.0 - stats.chi2.cdf(chi2, df=len(p) - 4))
        pvals = np.array(pvals)
        # uniformly distributed p-values: the bulk must not collapse
        assert 0.01 < np.median(pvals) < 0.99
        assert (pvals > 0.01).mean() > 0.9

    def test_singular_design_rejected(self):
        with pytest.raises(ValueError):
            fit_noise_model(
                np.array([1e5, 1e5, 1e5, 1e5, 1e5, 1e5]),
                np.ones(6),
            )


class TestQuadraticScalingFit:
    def test_linear_data(self):
        n0 = np.linspace(5e3, 5e4, 8)
        (a0, a1, a2), _ = fit_quadratic_scaling(n0, n0.copy())
        assert a0 == pytest.approx(0.0, abs=1e-6)
        assert a1 == pytest.approx(1.0, rel=1e-9)
        assert a2 == pytest.approx(0.0, abs=1e-12)

    def test_reference_style_recovery(self):
        rng = np.random.default_rng(9)
        n0 = np.linspace(4e3, 5e4, 10)
        y = 1.0 * n0 + 9e-6 * n0**2
        y_noisy = y * (1 + 0.03 * rng.standard_normal(len(n0)))
        (a0, a1, a2), (se0, se1, se2) = fit_quadratic_scaling(
            n0, y_noisy, y * 0.03, constrain_a1=True
        )
        assert a1 == 1.0
        assert a2 == pytest.approx(9e-6, abs=3 * max(se2, 1e-6))

    def test_unconstrained_slope(self):
        n0 = np.linspace(4e3, 5e4, 10)
        y = 1.3 * n0
        (a0, a1, a2), _ = fit_quadratic_scaling(n0, y)
        assert a1 == pytest.approx(1.3, rel=1e-6)

    def test_narrow_span_warns(self):
        n0 = np.linspace(1e4, 2e4, 6)
        with pytest.raises(ValueError):
            fit_quadratic_scaling(n0, n0.copy())


class TestResidualVariance:
    def test_known_gaussian(self):
        # M2 = S_z + noise after M1 = S_z + noise: Var(M2 | M1) is the
        # readout noise plus the posterior variance v m / (v + m)
        rng = np.random.default_rng(11)
        v, m = 5e4, 1.2e3
        cov = np.array([[v + m, v], [v, v + m]])
        resid, se = residual_variance(variance_stats(synthetic_trialset(rng, 4000, cov)))
        assert se == pytest.approx(resid * math.sqrt(2 / 3998), rel=1e-12)
        assert abs(resid - (m + v * m / (v + m))) <= 3 * se

    def test_sign_of_readout_drops_out(self):
        # a rotation by pi reads -S_z: the regression weight absorbs the sign
        rng = np.random.default_rng(12)
        ts = synthetic_trialset(rng, 500, np.array([[2.0, 1.5], [1.5, 2.0]]))
        sign = np.array([1.0, 1.0, -1.0, -1.0, 1.0])
        mirrored = replace(ts, pulses=ts.pulses * sign[:4],
                           record_cov=np.outer(sign, sign) * ts.record_cov)
        plain = residual_variance(variance_stats(ts))
        flipped = residual_variance(variance_stats(mirrored))
        assert flipped == pytest.approx(plain, rel=1e-12)


REPORT_FIELDS = ("var_m1", "var_m1_se", "var_m2", "var_meas", "var_meas_se",
                 "cov_m1_m2", "cov_m1_m2_se", "var_prep", "var_prep_se",
                 "meas_prep_cov", "n_trials", "n_excluded_saturated")


def point_report(ts):
    """The per-point reference: np.cov of one point's unsaturated trials."""
    keep = ~ts.saturated
    m1 = ts.m1[keep]
    return covariance_stats(np.cov(m1, m1 - ts.m2[keep]), int(keep.sum()),
                            int(ts.saturated.sum()))


def _detection_only(cfg, points, source):
    """The detection_cov of a scan through cfg's detector with only source on."""
    probe = replace(cfg.probe, switches=NoiseSwitches.only(source))
    return run_scan([(*point, 0) for point in points], 2, probe, cfg.rates,
                    cfg.pulses, cfg.couplings).detection_cov


def test_scan_report_is_each_points_report():
    # one call over a scan's leading point axis gives each point the report
    # of that point on its own: bitwise with nothing saturated, within
    # rounding when the points exclude different numbers of trials
    grid = np.array([1e5, 3e5, 9e5])
    sources = ("shot", "electronic", "technical")
    for off in (None, *sources):
        cfg = load_and_validate(overrides={"noise": {off: False}} if off else None)
        state = montecarlo.prepare_css(cfg.n0, cfg.preparation)
        points = ([("squeeze-readout", state, p) for p in grid]
                  + [("double-prep", state, grid[1])])
        scan = montecarlo._run(cfg, points, 400, 5)
        assert not scan.saturated.any()
        assert scan.detection_cov.shape == (4, 5, 5)
        # a switched-off source adds exactly nothing, the others their own terms
        np.testing.assert_allclose(scan.detection_cov, sum(
            _detection_only(cfg, points, name) for name in sources if name != off),
            rtol=1e-14, atol=0)
        if off:
            assert _detection_only(cfg, points, off).any()

        def point(i, saturated):
            return TrialSet(scan.pulses[i], scan.true_szf[i], saturated[i],
                            scan.record_cov[i], scan.detection_cov[i])

        batched = variance_stats(scan)
        model = montecarlo._model_stats(scan)
        for i in range(4):
            # point i run alone detects through its slice of the scan's law
            alone_run = montecarlo._run(cfg, [points[i]], 400, 5 + i)
            assert (alone_run.detection_cov[0].tobytes()
                    == scan.detection_cov[i].tobytes())
            alone = point(i, scan.saturated)
            for name in REPORT_FIELDS:
                assert (np.asarray(getattr(batched, name))[i].tobytes()
                        == np.asarray(getattr(point_report(alone), name)).tobytes())
                assert (getattr(model, name)[i].tobytes() == getattr(
                    montecarlo._model_stats(alone_run), name)[0].tobytes())

        # 0, 8, 40 and 120 of 400 trials excluded; the squeeze-readout points
        # keep every statistic far from zero, so the comparison is relative
        saturated = np.zeros_like(scan.saturated)
        for i, k in enumerate((0, 8, 40, 120)):
            saturated[i, np.random.default_rng(i).choice(400, k, replace=False)] = True
        batched = variance_stats(replace(scan, saturated=saturated))
        for i in range(3):
            reference = point_report(point(i, saturated))
            for name in REPORT_FIELDS:
                np.testing.assert_allclose(np.asarray(getattr(batched, name))[i],
                                           getattr(reference, name), rtol=1e-12, atol=0)
        assert batched.n_excluded_saturated.tolist() == [0, 8, 40, 120]


def test_stated_errors_match_spread_across_seeds(monkeypatch):
    # Each stated standard error, against the spread of its estimate over
    # K independent 400-trial runs of the default config: the median
    # stated SE over that spread is 1 within 3/sqrt(2 (K - 1)), three
    # standard errors of a sample standard deviation.  fig3 covers
    # var_meas, var_prep and sigma2 at two photon numbers, rotation
    # var_alpha (a residual less an independent run's var_meas).
    k = 400
    cfg = load_and_validate(overrides={"scenarios": {
        "fig3": {"photon_grid": [1e5, 6.4e5]},
        "rotation": {"angles_deg": [0.0, 90.0]},
    }})
    reports = []
    real = montecarlo.variance_stats

    def recorded(trials):
        reports.append(real(trials))
        return reports[-1]

    monkeypatch.setattr(montecarlo, "variance_stats", recorded)
    # (value, stated SE) per seed and point; fig3 seeds 2j + point index,
    # rotation 3j + 0..2, so no stream is reused within a statistic
    fig3 = np.array([[row[1:3] for row in montecarlo.scenario_fig3(
        cfg, 400, 2 * j)["fig3.csv"][1]] for j in range(k)])
    # one report per fig3 run, each field a (2,) array over its points
    fig3_reps = np.array(
        [np.column_stack((r.var_meas, r.var_meas_se, r.var_prep, r.var_prep_se))
         for r in reports])
    rotation = np.array([[row[1:3] for row in montecarlo.scenario_rotation(
        cfg, 400, 3 * j)["rotation.csv"][1]] for j in range(k)])

    ratios = {}
    for i, p in enumerate(("1e5", "6.4e5")):
        for name, (val, se) in (
            ("var_meas", fig3_reps[:, i, :2].T),
            ("var_prep", fig3_reps[:, i, 2:].T),
            ("sigma2", fig3[:, i].T),
        ):
            ratios[f"{name} at p={p}"] = np.median(se) / np.std(val, ddof=1)
    for i, angle in enumerate((0, 90)):
        val, se = rotation[:, i].T
        ratios[f"var_alpha at {angle} deg"] = np.median(se) / np.std(val, ddof=1)
    bound = 3.0 / math.sqrt(2 * (k - 1))
    off = {name: round(float(r), 3) for name, r in ratios.items() if abs(r - 1) > bound}
    assert not off, f"stated SE / spread outside 1 +- {bound:.3f}: {off}"


class TestContrastModel:
    def test_contrast_evolution(self):
        c = contrast_model(3e5, 0.69, 7e-7, 9e-13)
        assert c == pytest.approx(
            0.69 * math.exp(-7e-7 * 3e5 - 9e-13 * 9e10 / 2), rel=1e-12
        )
        assert c == pytest.approx(0.537, abs=0.002)


def test_fig2_scan_reads_its_own_detection_law():
    # fig2's points run N0 from 6,000 to 50,000: at each, var_m1 and var_meas
    # lie within 4 SE of the law the trials were drawn from, technical noise
    # at that point's own N0 included (at one N0 for all, -31 SE at 6,000)
    cfg = load_and_validate()
    opts = cfg.scenario_options("fig2")
    prep = replace(cfg.preparation, **opts["preparation"])
    pair = 1.0 - prep.impurity_fraction
    p = cfg.photons_per_measurement
    scan = montecarlo._run(cfg, [point for n0 in opts["atom_grid"] for point in (
        ("squeeze-readout", montecarlo.prepare_css(n0, prep), p),
        ("double-prep", montecarlo.prepare_css(n0 * pair, prep), p))], 20_000, 300)
    rep, law = variance_stats(scan), montecarlo._model_stats(scan)
    for name in ("var_m1", "var_meas"):
        z = (getattr(rep, name) - getattr(law, name)) / getattr(law, f"{name}_se")
        assert np.abs(z).max() < 4.0, (name, z.round(1))
