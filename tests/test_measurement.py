import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qndspin import measurement
from qndspin.config import NoiseSwitches, ProbeConfig
from qndspin.measurement import (
    _BLOCK,
    _record_law,
    _record_moments,
    run_scan,
    SequencePlan,
    simulate_probe_pulse,
)
from qndspin.scattering import ScatteringRates
from qndspin.spinstate import prepare_css, PreparationModel, PulseModel

from flip_oracle import spinflip_covariance_exact

N0 = 3.3e4

# flip rates of the same magnitude as the physical ones
RATES = ScatteringRates(
    p_delta_f=2.6e-8,
    p_delta_mf=1.5e-8,
    p_delta_f_delta_mf=1.5e-8,
    p_rayleigh_f1=1.4e-7,
    p_rayleigh_f2=8.6e-8,
)
NO_PULSE_ERRORS = PulseModel(composite_pi_infidelity=0.0)
MU_PULSES = PulseModel(composite_pi_infidelity=0.02)


def probe_config(switches, tech=0.04):
    return ProbeConfig(
        quantum_efficiency=0.43,
        apd_excess_factor=1.9,
        electronic_noise_b2=6e13,
        technical_noise_fraction=tech,
        technical_correlation=0.0,
        switches=switches,
    )


def css_state(n0=N0, factor=1.0):
    return prepare_css(n0, PreparationModel(prep_noise_factor=factor))


def var_se(sample_var, n):
    """Standard error of a sample variance for Gaussian data."""
    return sample_var * math.sqrt(2.0 / (n - 1))


# pulse weights of M1 and M2: w^T C w is 4 Var(M) for a pulse covariance C
M1_WEIGHTS = np.array([1.0, 1.0, 0.0, 0.0])
M2_WEIGHTS = np.array([0.0, 0.0, 1.0, 1.0])


def four_var(cov, weights):
    return float(weights @ cov @ weights)


def two_var_diff(cov):
    """2 Var(M1 - M2): the quadratic form of w = (1, 1, -1, -1) / sqrt(2)."""
    return 0.5 * four_var(cov, M1_WEIGHTS - M2_WEIGHTS)


def first_order_covariance(p_delta_f, p_delta_mf, p_delta_f_delta_mf, mu, photons, n0):
    """The pulse covariance to first order in the flip fractions.

    Counts, for each pulse pair (k, l), the probability that a single
    flip event makes an atom's contribution differ between a random time
    in pulse k and one in pulse l; a, m, c = (p/2) P_x per pulse.
    """
    a, m, c = (0.5 * photons * x for x in (p_delta_f, p_delta_mf, p_delta_f_delta_mf))
    d = np.full((4, 4), (a + c) / 3.0)
    pair_values = {
        (0, 1): a + c + m + mu,
        (0, 2): 2 * a + 2 * c + m + mu,
        (0, 3): 3 * a + c + 2 * m + 2 * mu,
        (1, 2): a + c,
        (1, 3): 2 * a + 2 * c + 3 * m + mu,
        (2, 3): a + 3 * c + 3 * m + mu,
    }
    for (i, j), val in pair_values.items():
        d[i, j] = d[j, i] = val
    return (n0 / 4.0) * (1.0 - 2.0 * d)


def reference_flip_rates():
    """(P_dF, P_dmF, P_dF+dmF) of RATES as an array, for scaling by eps."""
    return np.array([RATES.p_delta_f, RATES.p_delta_mf, RATES.p_delta_f_delta_mf])


def sample_cov_z(pulses, exact, n0):
    """Largest |sample - exact| of (n, 4) pulses' covariance, in sqrt(2/(n-1)) N0/4."""
    se_scale = math.sqrt(2.0 / (len(pulses) - 1)) * n0 / 4
    return float(np.max(np.abs(np.cov(pulses.T, ddof=1) - exact))) / se_scale


def normals(rng, shape=()):
    """Standard normals for simulate_probe_pulse's detection channels."""
    return rng.standard_normal((2, *shape))


class TestSimulateProbePulse:
    def test_noiseless_recovers_shift(self, couplings):
        probe = probe_config(NoiseSwitches.none())
        rng = np.random.default_rng(0)
        for w_true in [0.0, 0.004, -0.01, 0.02]:
            w_hat, sat = simulate_probe_pulse(
                w_true, 3e5, probe, normals(rng), couplings.probe_signal_share, 0.0
            )
            assert not sat
            assert w_hat == pytest.approx(w_true, abs=1e-9)

    def test_array_of_pulses(self, couplings):
        probe = probe_config(NoiseSwitches.none())
        shifts = np.array([[0.0, 0.004], [-0.01, 0.02]])
        w_hat, sat = simulate_probe_pulse(
            shifts, 3e5, probe, normals(np.random.default_rng(0), shifts.shape),
            couplings.probe_signal_share, 0.0,
        )
        assert w_hat.shape == sat.shape == shifts.shape
        assert not sat.any()
        assert np.allclose(w_hat, shifts, atol=1e-9)
        # run_scan's pulse-major pass: (4, n) shifts, (n,) photons and
        # (2, 4, n) normals give the bits of the (n, 4) call, transposed
        probe = probe_config(NoiseSwitches())
        rng = np.random.default_rng(1)
        shifts = rng.normal(0.0, 0.005, (64, 4))
        photons = np.geomspace(20.0, 5e5, 64)  # the dimmest saturate
        z = normals(rng, shifts.shape)
        by_trial = simulate_probe_pulse(shifts, photons[:, None], probe, z,
                                        couplings.probe_signal_share, 150.0)
        by_pulse = simulate_probe_pulse(
            shifts.T.copy(), photons, probe, z.transpose(0, 2, 1).copy(),
            couplings.probe_signal_share, 150.0)
        assert by_trial[1].any() and not by_trial[1].all()
        for trial_major, pulse_major in zip(by_trial, by_pulse):
            assert pulse_major.shape == (4, 64)
            assert pulse_major.T.tobytes() == trial_major.tobytes()

    def test_shot_noise_variance(self, couplings):
        # per-pulse inferred-shift variance = f_APD kappa^2 / (Qe p)
        probe = probe_config(NoiseSwitches.only("shot"))
        rng = np.random.default_rng(1)
        p_half = 3e5
        vals = np.array(
            [
                simulate_probe_pulse(
                    0.0, p_half, probe, normals(rng), couplings.probe_signal_share,
                    0.0,
                )[0]
                for _ in range(4000)
            ]
        )
        expected = probe.apd_excess_factor / (probe.quantum_efficiency * 2 * p_half)
        assert np.var(vals) == pytest.approx(expected, rel=0.1)

    def test_determinism(self, couplings):
        probe = probe_config(NoiseSwitches())
        a = simulate_probe_pulse(
            0.001, 3e5, probe, normals(np.random.default_rng(42)), 0.98, 150.0
        )
        b = simulate_probe_pulse(
            0.001, 3e5, probe, normals(np.random.default_rng(42)), 0.98, 150.0
        )
        assert a == b

    def test_saturation_flag(self, couplings):
        probe = probe_config(NoiseSwitches.only("electronic"))
        rng = np.random.default_rng(3)
        flags = [
            simulate_probe_pulse(0.0, 20, probe, normals(rng), 1.0, 500.0)[1]
            for _ in range(200)
        ]
        assert any(flags)

    def test_scaled_standard_normals_are_generator_normal(self):
        # the detector and technical noise draw loc + scale * z in place of
        # Generator.normal(loc, scale); the goldens rest on the two being
        # the same bits from the same stream
        loc = np.linspace(1.0, 5e4, 4096).reshape(1024, 4)
        scale = np.sqrt(1.9 * loc)

        def rng():
            return np.random.Generator(np.random.PCG64DXSM([7, 3]))

        assert (rng().normal(loc, scale).tobytes()
                == (loc + scale * rng().standard_normal(loc.shape)).tobytes())
        assert (rng().normal(0.0, 37.5, (1024, 4)).tobytes()
                == (37.5 * rng().standard_normal((1024, 4))).tobytes())


class TestNoiseBudgetSources:
    """Each source alone must reproduce its analytic term in 2 Var(M1-M2)."""

    def run(self, p, switches, n_trials, seed, rates=RATES, pulses=NO_PULSE_ERRORS,
            state=None, couplings=None, scenario="squeeze-readout"):
        state = state or css_state()
        return run_scan([(scenario, state, p, seed)], n_trials, probe_config(switches),
                        rates, pulses, couplings)

    def test_electronic_only(self, couplings):
        p = 6.4e5
        ts = self.run(p, NoiseSwitches.only("electronic"), 4000, 11,
                      couplings=couplings)
        sample = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        expected = 6e13 / p**2
        # analytic b_-2/p^2 with the configured electronic noise
        assert abs(sample - expected) <= 3.5 * var_se(sample, 4000)

    def test_shot_only(self, couplings):
        p = 6.4e5
        ts = self.run(p, NoiseSwitches.only("shot"), 10000, 12, couplings=couplings)
        sample = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        dn_du = 1.0 / (2 * couplings.domega_dn)
        b_m1 = 2 * (1.9 / 0.43) * dn_du**2
        assert abs(sample - b_m1 / p) <= 3.5 * var_se(sample, 10000)

    def test_technical_only(self, couplings):
        p = 6.4e5
        ts = self.run(p, NoiseSwitches.only("technical"), 10000, 13,
                      couplings=couplings)
        sample = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        expected = 0.04 * N0
        assert abs(sample - expected) <= 3.5 * var_se(sample, 10000)

    def test_microwave_only(self, couplings):
        p = 6.4e5
        ts = self.run(p, NoiseSwitches.only("microwave"), 10000, 14,
                      pulses=MU_PULSES, couplings=couplings)
        sample = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        # the exact flip term mu (1 - mu) N0, whose first order is b_0,mu
        expected = two_var_diff(spinflip_covariance_exact(0, 0, 0, 0.02, p, N0))
        assert abs(sample - expected) <= 3 * var_se(sample, 10000)

    def test_raman_only(self, couplings):
        p = 6.4e5
        ts = self.run(p, NoiseSwitches.only("raman"), 10000, 15, rates=RATES,
                      couplings=couplings)
        sample = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        # the exact flip term, whose first order is b1 p
        expected = two_var_diff(spinflip_covariance_exact(
            RATES.p_delta_f, RATES.p_delta_mf, RATES.p_delta_f_delta_mf,
            0.0, p, N0))
        assert abs(sample - expected) <= 3 * var_se(sample, 10000)

    def test_all_noise_off_is_exact(self, couplings):
        ts = self.run(6.4e5, NoiseSwitches.none(), 50, 16, couplings=couplings)
        assert np.allclose(ts.m1, ts.m2, atol=1e-8)
        assert np.allclose(ts.m1, ts.true_szf, atol=1e-8)

    def test_projection_noise_level(self, couplings):
        # Var(M1) for a noiseless detector = preparation variance
        ts = self.run(6.4e5, NoiseSwitches.none(), 10000, 17,
                      state=css_state(factor=1.3), couplings=couplings)
        sample = np.var(ts.m1, ddof=1)
        expected = 1.3 * N0 / 4
        assert abs(sample - expected) <= 3 * var_se(sample, 10000)


class TestSpinFlipCovariance:
    """The 4x4 pulse covariance of spinflip_covariance_exact."""

    def test_zero_rates_pattern(self):
        cov = spinflip_covariance_exact(0, 0, 0, 0.0, 6e5, N0)
        assert np.allclose(cov, N0 / 4)
        assert two_var_diff(cov) == 0.0
        assert four_var(cov, M1_WEIGHTS) == pytest.approx(N0)

    def test_mu_only_aggregate(self):
        # composite-pulse errors alone: the first-order flip term is mu N0,
        # and the exact one is mu (1 - mu) N0, as an atom ends M2 reversed
        # against M1 when just one of the two composite pulses misfires
        mu, p = 0.02, 6e5
        first = first_order_covariance(0, 0, 0, mu, p, N0)
        exact = spinflip_covariance_exact(0, 0, 0, mu, p, N0)
        assert two_var_diff(first) == pytest.approx(mu * N0, rel=1e-12)
        assert two_var_diff(exact) == pytest.approx(mu * (1 - mu) * N0, rel=1e-12)
        assert four_var(exact, M1_WEIGHTS) == pytest.approx((1 - mu) * N0, rel=1e-12)

    def test_reference_rate_aggregates(self):
        # 2 Var(M1 - M2) = b1 p to first order; the exact flip term leaves
        # it at O(eps) relative when the rates are scaled by eps
        p = 6e5
        rates = reference_flip_rates()
        b1 = (4 / 3 * rates[0] + 0.5 * rates[1] + 1 / 3 * rates[2]) * N0
        rel_gaps = []
        for eps in (1.0, 0.1, 0.01):
            args = (*(eps * rates), 0.0, p, N0)
            first = first_order_covariance(*args)
            assert two_var_diff(first) == pytest.approx(eps * b1 * p, rel=1e-9)
            exact = two_var_diff(spinflip_covariance_exact(*args))
            rel_gaps.append(exact / (eps * b1 * p) - 1.0)
        assert 1e-3 < abs(rel_gaps[0]) < 0.1
        for eps, gap in zip((0.1, 0.01), rel_gaps[1:]):
            assert 0.5 * eps <= gap / rel_gaps[0] <= 2.0 * eps

    def test_m1_projection_term(self):
        # 4 Var(M2) = N0 [1 - mu - 4a/3 - 10c/3 - 3m]: readout after the
        # scrambling accumulated during M1 sees slightly less projection
        # noise than 4 Var(M1) = N0 [1 - mu - 4a/3 - m - 4c/3].  Both hold
        # on the first-order polynomial, and the exact oracle leaves them
        # only at O(eps^2) relative when rates and mu are scaled by eps.
        p = 6e5
        rates = reference_flip_rates()
        rel_gaps = []
        for eps in (1.0, 0.1, 0.01):
            mu = eps * 0.02
            args = (*(eps * rates), mu, p, N0)
            first = first_order_covariance(*args)
            exact = spinflip_covariance_exact(*args)
            a, m, c = 0.5 * p * eps * rates
            expected_m1 = (1 - mu - 4 * a / 3 - m - 4 * c / 3) * N0
            expected_m2 = (1 - mu - 4 * a / 3 - 10 * c / 3 - 3 * m) * N0
            assert four_var(first, M1_WEIGHTS) == pytest.approx(expected_m1, rel=1e-9)
            assert four_var(first, M2_WEIGHTS) == pytest.approx(expected_m2, rel=1e-9)
            rel_gaps.append(np.array([four_var(exact, M1_WEIGHTS) / expected_m1,
                                      four_var(exact, M2_WEIGHTS) / expected_m2]) - 1.0)
        assert np.all(np.abs(rel_gaps[0]) < 1e-2)
        for eps, gap in zip((0.1, 0.01), rel_gaps[1:]):
            ratio = gap / rel_gaps[0]
            assert np.all((0.5 * eps**2 <= ratio) & (ratio <= 2.0 * eps**2))

    def test_first_order_limit(self):
        # rates and mu scaled by eps: the exact matrix leaves the first-order
        # polynomial at O(eps^2), and its flip term tends to the budget's
        # b1 p + mu N0
        p = 6e5
        rates = reference_flip_rates()
        gaps = []
        for eps in (1.0, 0.1, 0.01):
            args = (*(eps * rates), eps * 0.02, p, N0)
            exact, first = spinflip_covariance_exact(*args), first_order_covariance(*args)
            b1 = (4 / 3 * rates[0] + 0.5 * rates[1] + 1 / 3 * rates[2]) * N0
            flip_term = eps * b1 * p + eps * 0.02 * N0
            assert two_var_diff(first) == pytest.approx(flip_term, rel=1e-9)
            gaps.append(np.max(np.abs(exact - first)))
        assert gaps[0] > 1e-3 * N0 / 4
        for eps, gap in zip((0.1, 0.01), gaps[1:]):
            assert 0.5 * eps**2 <= gap / gaps[0] <= 2.0 * eps**2
        # in the limit the exact flip term is the budget's
        assert two_var_diff(exact) == pytest.approx(flip_term, rel=1e-3)

    def test_atom_by_atom_simulation(self):
        # the oracle's only check that does not go through the engine:
        # atoms simulated one by one in continuous time, uniform start
        # signs, exponential waits at the total rate a + m + c and the kind
        # drawn per event (a stopped atom ignores dmF); composite pulses
        # after pulses 0 and 2 negate stopped atoms, and responders with
        # probability mu.  Rates are boosted, so cov[02], cov[03], cov[13]
        # and cov[23] stand about 10 to 20 SE from their first order.
        rng = np.random.default_rng(91)
        n_atoms, p, mu = 2_000_000, 6.4e5, 0.02
        rates = np.array([5.2e-8, 3e-8, 3e-8])
        a, m, c = 0.5 * p * rates
        total = a + m + c
        sign = rng.choice([-0.5, 0.5], n_atoms)
        stopped = np.zeros(n_atoms, dtype=bool)
        t = np.zeros(n_atoms)
        avg = np.zeros((n_atoms, 4))
        live = np.arange(n_atoms)
        while live.size:
            t_event = t[live] + rng.exponential(1.0 / total, live.size)
            edge = np.floor(t[live]) + 1.0  # end of the current pulse
            hit = t_event < edge
            t_end = np.where(hit, t_event, edge)
            avg[live, np.floor(t[live]).astype(int)] += sign[live] * (t_end - t[live])
            t[live] = t_end
            # dF flips, dmF stops a responder, dF+dmF does both
            atoms = live[hit]
            kind = rng.choice(3, atoms.size, p=[a / total, m / total, c / total])
            sign[atoms[kind != 1]] *= -1.0
            stopped[atoms[kind != 0]] = True
            ends = live[~hit]
            composite = ends[(t[ends] == 1.0) | (t[ends] == 3.0)]
            negate = stopped[composite] | (rng.random(composite.size) < mu)
            sign[composite[negate]] *= -1.0
            live = live[t[live] < 4.0]

        exact = spinflip_covariance_exact(*rates, mu, p, 1.0)  # one atom
        x = avg - avg.mean(axis=0)
        w = (M1_WEIGHTS - M2_WEIGHTS) / math.sqrt(2)
        # a per-atom product is far from normal: bound each by its own SE
        estimates = [(x[:, i] * x[:, j], exact[i, j])
                     for i in range(4) for j in range(i, 4)]
        estimates.append(((x @ w) ** 2, two_var_diff(exact)))
        for sample, expected in estimates:
            se = sample.std(ddof=1) / math.sqrt(n_atoms)
            assert abs(sample.mean() - expected) <= 4 * se

    def test_monte_carlo_covariance_structure(self, couplings):
        # flips only, ideal detector: the sampled 4x4 pulse covariance
        # matches the exact one within sampling error.  Rates are twice
        # the physical ones: strong enough that the flip terms stand ~10
        # sigma above sampling noise.
        p = 6.4e5
        n = 50_000
        boosted = ScatteringRates(
            p_delta_f=5.2e-8, p_delta_mf=3e-8, p_delta_f_delta_mf=3e-8,
            p_rayleigh_f1=0.0, p_rayleigh_f2=0.0,
        )
        ts = run_scan([("squeeze-readout", css_state(), p, 77)], n,
                      probe_config(NoiseSwitches.only("raman")), boosted,
                      MU_PULSES, couplings)
        # microwave switch is off, so only scattering events act here
        cov = spinflip_covariance_exact(
            boosted.p_delta_f, boosted.p_delta_mf, boosted.p_delta_f_delta_mf,
            0.0, p, N0,
        )
        sample_cov = np.cov(ts.pulses[0].T, ddof=1)
        se_scale = math.sqrt(2.0 / (n - 1)) * N0 / 4
        assert np.all(np.abs(sample_cov - cov) <= 3.5 * se_scale)

    def test_monte_carlo_mu_covariance(self, couplings):
        p = 6.4e5
        n = 50_000
        ts = run_scan([("squeeze-readout", css_state(), p, 78)], n,
                      probe_config(NoiseSwitches.only("microwave")), RATES,
                      PulseModel(composite_pi_infidelity=0.02),
                      couplings)
        cov = spinflip_covariance_exact(0, 0, 0, 0.02, p, N0)
        sample_cov = np.cov(ts.pulses[0].T, ddof=1)
        se_scale = math.sqrt(2.0 / (n - 1)) * N0 / 4
        assert np.all(np.abs(sample_cov - cov) <= 3.5 * se_scale)


class TestRunTrials:
    @pytest.mark.parametrize("p, mu", [(3e5, 0.02), (1.5e6, 0.02), (4e6, 0.05)])
    def test_record_moments_match_oracle(self, p, mu):
        # the engine's propagated pulse covariance of a CSS (var_z = N0/4)
        # is the oracle's, chained separately through the same flip chain
        mean, cov = _record_moments(SequencePlan(), css_state(),
                                    0.5 * p * reference_flip_rates(), mu)
        exact = spinflip_covariance_exact(*reference_flip_rates(), mu, p, N0)
        assert np.max(np.abs(cov[:4, :4] - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.max(np.abs(mean)) <= 1e-12 * N0

    def test_record_moments_of_array_and_tuple_agree(self):
        # an array of flips and a tuple of the same floats give the same bits
        flips = 0.5 * 6.4e5 * reference_flip_rates()
        args = (SequencePlan("rotate-alpha", rotation_angle=0.7), css_state())
        first = _record_moments(*args, flips, 0.02)
        expect = [x.tobytes() for x in first]
        second = _record_moments(*args, tuple(map(float, flips)), 0.02)
        assert [x.tobytes() for x in second] == expect
        # writing into one call's output does not reach the next call's
        for x in (*first, *second):
            x[...] = np.nan
        assert [x.tobytes() for x in _record_moments(*args, flips, 0.02)] == expect

    def test_repeat_scan_never_recomputes_the_law(self, couplings, monkeypatch):
        # the scan's law is built on its first run; every later run of it,
        # whatever its seed, reads the one cache and propagates nothing
        probe = probe_config(NoiseSwitches())
        points = [("squeeze-readout", css_state(), 6.4e5, 5),
                  (SequencePlan("rotate-alpha", rotation_angle=0.7), css_state(),
                   6.4e5, 6)]
        _record_law.cache_clear()
        first = run_scan(points, 300, probe, RATES, MU_PULSES, couplings)

        def fail(*args):
            raise AssertionError("the record law was propagated again")

        monkeypatch.setattr(measurement, "_record_moments", fail)
        again = run_scan([(*p[:3], p[3] + 10) for p in points], 300, probe, RATES,
                         MU_PULSES, couplings)
        assert again.record_cov is first.record_cov
        assert not np.array_equal(again.pulses, first.pulses)

    def test_record_law_cached_per_scan(self, couplings):
        # a scan's law depends on its points, not on its seeds
        def scan(seed, n0=N0, angle=0.7, p=6.4e5, pulses=MU_PULSES):
            points = [(SequencePlan("rotate-alpha", rotation_angle=angle),
                       css_state(n0), p, seed),
                      ("double-prep", css_state(n0), p, seed + 1)]
            return run_scan(points, 300, probe_config(NoiseSwitches()), RATES,
                            pulses, couplings)

        fields = ("pulses", "true_szf", "saturated", "record_cov")
        _record_law.cache_clear()
        cold, warm = scan(5), scan(5)
        for field in fields:
            assert getattr(cold, field).tobytes() == getattr(warm, field).tobytes()
        scan(6)
        assert _record_law.cache_info()[:2] == (2, 1)  # hits, misses
        # N0, the rotation angle, p and mu each make another law
        for change in ({"n0": 5e4}, {"angle": 0.3}, {"p": 3e5},
                       {"pulses": NO_PULSE_ERRORS}):
            scan(5, **change)
        assert _record_law.cache_info()[:2] == (2, 5)
        # the law is shared by every run of its scan, so none of it can be
        # written, through the cache or through a TrialSet
        means, covs, factors = _record_law(
            (SequencePlan(),), (css_state(),),
            (tuple(0.5 * 6.4e5 * reference_flip_rates()),), 0.02)
        for arr in (means, covs, *factors, cold.record_cov):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_bitwise_reproducibility(self, couplings):
        args = ([("squeeze-readout", css_state(), 6e5, 123)], 64,
                probe_config(NoiseSwitches()), RATES, MU_PULSES, couplings)
        a = run_scan(*args)
        c = run_scan(*args)
        assert np.array_equal(a.pulses, c.pulses)
        assert np.array_equal(a.true_szf, c.true_szf)

    def test_blocks_do_not_depend_on_trial_count(self, couplings):
        # block b always draws from the stream keyed (seed, b)
        points = [("squeeze-readout", css_state(), 6e5, 123)]
        args = (probe_config(NoiseSwitches()), RATES, MU_PULSES, couplings)
        short = run_scan(points, _BLOCK, *args)
        long = run_scan(points, 2 * _BLOCK + 22, *args)
        assert np.array_equal(short.pulses, long.pulses[:, :_BLOCK])

    def test_tiny_ensemble_matches_oracle(self, couplings):
        # N0 = 20 and 200 at p P_Ram = 0.096: the expected count in a
        # state is far below 1, yet every second moment stays exact
        p, n = 6.4e5, 20_000
        hot = ScatteringRates(
            p_delta_f=6e-8, p_delta_mf=4.5e-8, p_delta_f_delta_mf=4.5e-8,
            p_rayleigh_f1=0.0, p_rayleigh_f2=0.0,
        )
        for n0 in (20, 200):
            exact = spinflip_covariance_exact(
                hot.p_delta_f, hot.p_delta_mf, hot.p_delta_f_delta_mf,
                MU_PULSES.composite_pi_infidelity, p, n0,
            )
            args = (probe_config(FLIPS_ONLY), hot, MU_PULSES, couplings)
            ts = run_scan([("squeeze-readout", css_state(n0), p, 84)], n, *args)
            assert sample_cov_z(ts.pulses[0], exact, n0) <= 4.0
            y2 = 2 * np.var(ts.m1 - ts.m2, ddof=1)
            assert abs(y2 - two_var_diff(exact)) <= 4 * var_se(y2, n)
            # double-prep reads two independent M1-like measurements
            ts = run_scan([("double-prep", css_state(n0), p, 85)], n, *args)
            y2 = 2 * np.var(ts.m1 - ts.m2, ddof=1)
            assert abs(y2 - four_var(exact, M1_WEIGHTS)) <= 4 * var_se(y2, n)

    def test_beyond_first_order_budget(self, couplings):
        # p P_Ram = 0.29, three times the first-order budget's limit: the
        # engine is exact at any rate, so it still matches the oracle
        p, n0, n = 6.4e5, 1000, 200_000
        hot = ScatteringRates(
            p_delta_f=4 * 5.2e-8, p_delta_mf=4 * 3e-8, p_delta_f_delta_mf=4 * 3e-8,
            p_rayleigh_f1=0.0, p_rayleigh_f2=0.0,
        )
        assert p * hot.p_raman_total == pytest.approx(0.287, abs=1e-3)
        ts = run_scan([("squeeze-readout", css_state(n0), p, 86)], n,
                      probe_config(FLIPS_ONLY), hot, MU_PULSES, couplings)
        exact = spinflip_covariance_exact(
            hot.p_delta_f, hot.p_delta_mf, hot.p_delta_f_delta_mf,
            MU_PULSES.composite_pi_infidelity, p, n0,
        )
        assert sample_cov_z(ts.pulses[0], exact, n0) <= 4.0
        y2 = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        assert abs(y2 - two_var_diff(exact)) <= 4 * var_se(y2, n)

    def test_block_memory_does_not_grow_with_events(self, couplings):
        # a block draws a fixed number of values per trial, not one per event
        args = (probe_config(NoiseSwitches()), RATES, MU_PULSES, couplings)
        peaks = []
        for p in (1e5, 9e5):
            points = [("squeeze-readout", css_state(), p, 5)]
            run_scan(points, 2, *args)  # first-call caches
            tracemalloc.start()
            try:
                run_scan(points, _BLOCK, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.mark.parametrize("n", [400, 2 * _BLOCK + 22])
    def test_scan_equals_its_points_run_alone(self, couplings, n):
        # a point's records do not depend on the scan that holds it: mixed
        # plans and N0 (fig2), mixed p (fig3), rotate-alpha and ramsey-clock;
        # and, in a scan of its own, every switch off, whose record law is
        # rank-deficient
        p = 6.4e5
        on = [("squeeze-readout", css_state(6e3), p, 10),
              ("double-prep", css_state(6e3), p, 11),
              ("squeeze-readout", css_state(5e4), p, 12),
              ("double-prep", css_state(5e4), p, 13),
              ("squeeze-readout", css_state(), 1e5, 20),
              ("squeeze-readout", css_state(), 9e5, 21),
              (SequencePlan("rotate-alpha", rotation_angle=0.7), css_state(), p, 40),
              (SequencePlan("ramsey-clock", precession_phase=0.3,
                            phase_noise_rms=0.01), css_state(), p, 41)]
        off = [("squeeze-readout", css_state(), p, 30)]
        args = (RATES, MU_PULSES, couplings)
        for switches, points in ((NoiseSwitches(), on), (NoiseSwitches.none(), off)):
            probe = probe_config(switches)
            scan = run_scan(points, n, probe, *args)
            assert scan.pulses.shape == (len(points), n, 4)
            for i, point in enumerate(points):
                alone = run_scan([point], n, probe, *args)
                for field in ("pulses", "true_szf", "saturated", "record_cov"):
                    assert np.array_equal(getattr(scan, field)[i],
                                          getattr(alone, field)[0])

    def test_pass_memory_does_not_grow_with_the_grid(self, couplings):
        # a pass holds at most _BLOCK rows, so a 12-point scan of 400 trials
        # peaks near one point of _BLOCK trials
        args = (probe_config(NoiseSwitches()), RATES, MU_PULSES, couplings)
        grid = [(plan, n0) for n0 in np.linspace(6e3, 5e4, 6)
                for plan in ("squeeze-readout", "double-prep")]
        points = [(plan, css_state(n0), 6.4e5, i) for i, (plan, n0) in enumerate(grid)]
        run_scan(points, 2, *args)  # first-call caches
        peaks = []
        for scan, n in ((points[:1], _BLOCK), (points, 400)):
            tracemalloc.start()
            try:
                run_scan(scan, n, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_single_trial_rejected(self, couplings):
        with pytest.raises(ValueError):
            run_scan([("squeeze-readout", css_state(), 6e5, 1)], 1,
                     probe_config(NoiseSwitches()), RATES, MU_PULSES, couplings)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_photon_number_must_be_positive(self, couplings, monkeypatch, p):
        # a pulse of no photons, or of a negative number (negative flip
        # rates), fails naming its point before the law is built or any
        # pulse detected, so no division by zero warns on the way
        def fail(*args):
            raise AssertionError("the record law was built")

        monkeypatch.setattr(measurement, "_record_law", fail)
        points = [("squeeze-readout", css_state(), 6e5, 1),
                  ("squeeze-readout", css_state(), p, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="point 1: photon number"):
                run_scan(points, 8, probe_config(NoiseSwitches()), RATES,
                         MU_PULSES, couplings)

    def test_seed_changes_results(self, couplings):
        args = (16, probe_config(NoiseSwitches()), RATES, MU_PULSES, couplings)
        a = run_scan([("squeeze-readout", css_state(), 6e5, 1)], *args)
        b = run_scan([("squeeze-readout", css_state(), 6e5, 2)], *args)
        assert not np.array_equal(a.pulses, b.pulses)

    def test_linear_regime_guard(self, couplings):
        # sampled shifts stay within the linear-regime bound
        state = css_state(factor=1.3)
        std_sz = math.sqrt(state.var_z)
        assert 2 * std_sz * couplings.domega_dn <= 0.01


class TestScenarios:
    def test_double_prep_variance(self, couplings):
        # y2 = 2 Var(M1 - M2) for two independent preparations equals
        # twice the preparation variance (noiseless detector)
        ts = run_scan([("double-prep", css_state(), 6e5, 19)], 10000,
                      probe_config(NoiseSwitches.none()), RATES, NO_PULSE_ERRORS,
                      couplings)
        y2 = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        assert abs(y2 - N0) <= 3 * var_se(y2, 10000)

    def test_rotation_pi_half_reads_antisqueezed(self, couplings):
        from qndspin.spinstate import measurement_backaction

        state = measurement_backaction(css_state(), 6e5, 1.18e-4, N0)
        plan = SequencePlan("rotate-alpha", rotation_angle=math.pi / 2)
        ts = run_scan([(plan, state, 6e5, 20)], 6000,
                      probe_config(NoiseSwitches.none()), RATES, NO_PULSE_ERRORS,
                      couplings)
        est = np.var(ts.m1 - ts.m2, ddof=1)
        # M2 reads the anti-squeezed quadrature: Var(M1-M2) ~ var_z + var_y
        expected = state.var_z + state.var_y
        assert est == pytest.approx(expected, rel=0.1)

    def test_ramsey_preserves_sz_information(self, couplings):
        plan = SequencePlan("ramsey-clock")
        ts = run_scan([(plan, css_state(), 6e5, 21)], 4000,
                      probe_config(NoiseSwitches.none()), RATES, NO_PULSE_ERRORS,
                      couplings)
        # with zero precession phase the readout is the inverted squeeze
        # measurement: M1 + M2 = 0 identically
        assert np.allclose(ts.m1 + ts.m2, 0.0, atol=1e-8)


FLIPS_ONLY = NoiseSwitches(
    shot=False, electronic=False, technical=False, raman=True, microwave=True
)


def regression_slope(ts):
    """OLS slope of M2 on M1 and its standard error."""
    slope = np.cov(ts.m1, ts.m2, ddof=1)[0, 1] / np.var(ts.m1, ddof=1)
    resid = np.var(ts.m2 - slope * ts.m1, ddof=2)
    return slope, math.sqrt(resid / ((ts.n_trials - 1) * np.var(ts.m1, ddof=1)))


class TestFlipBackReaction:
    """Flips act on the spin the ensemble holds when they happen.

    Flips only, ideal detector.  Each regression fails if M2-era flips
    are drawn against the M1-era spin, or if atoms that no longer follow
    the composite pulses are treated like responders.
    """

    def test_double_prep_readout_is_independent(self, couplings):
        n = 20_000
        ts = run_scan([("double-prep", css_state(), 6.4e5, 81)], n,
                      probe_config(FLIPS_ONLY), RATES, MU_PULSES, couplings)
        assert abs(np.corrcoef(ts.m1, ts.m2)[0, 1]) <= 3.0 / math.sqrt(n)
        # y2 reads two independent M1-like measurements
        cov = spinflip_covariance_exact(
            RATES.p_delta_f, RATES.p_delta_mf, RATES.p_delta_f_delta_mf,
            MU_PULSES.composite_pi_infidelity, 6.4e5, N0,
        )
        y2 = 2 * np.var(ts.m1 - ts.m2, ddof=1)
        assert abs(y2 - four_var(cov, M1_WEIGHTS)) <= 3 * var_se(y2, n)

    def test_rotation_pi_half_readout_is_independent(self, couplings):
        # M2 reads the y quadrature, which is independent of M1
        n = 20_000
        plan = SequencePlan("rotate-alpha", rotation_angle=math.pi / 2)
        ts = run_scan([(plan, css_state(), 6.4e5, 82)], n, probe_config(FLIPS_ONLY),
                      RATES, MU_PULSES, couplings)
        assert abs(np.corrcoef(ts.m1, ts.m2)[0, 1]) <= 3.0 / math.sqrt(n)

    def test_ramsey_mirrors_squeeze_readout(self, couplings):
        # at zero phase the clock sequence inverts the spin, and flips
        # keep shrinking it towards zero: the regression of M2 on M1 is
        # minus that of squeeze-readout
        args = (10_000, probe_config(FLIPS_ONLY), RATES, MU_PULSES, couplings)
        ramsey, se_r = regression_slope(
            run_scan([(SequencePlan("ramsey-clock"), css_state(), 6.4e5, 83)], *args))
        plain, se_p = regression_slope(
            run_scan([("squeeze-readout", css_state(), 6.4e5, 84)], *args))
        assert abs(ramsey + plain) <= 3 * math.hypot(se_r, se_p)

    def test_outer_pulse_variances_agree(self, couplings):
        # the exact diagonal is flat: Var(M2-) = Var(M1-).  Atoms that
        # stopped following the composite pulses must flip sign with each
        # one they ignore, and cannot be stopped twice.  Small N0 and the
        # boosted rates of the covariance test keep this fast and sharp.
        n0 = 1000
        n = 100_000
        boosted = ScatteringRates(
            p_delta_f=5.2e-8, p_delta_mf=3e-8, p_delta_f_delta_mf=3e-8,
            p_rayleigh_f1=0.0, p_rayleigh_f2=0.0,
        )
        ts = run_scan([("squeeze-readout", css_state(n0), 6.4e5, 85)], n,
                      probe_config(NoiseSwitches.only("raman")), boosted,
                      NO_PULSE_ERRORS, couplings)
        pulses = ts.pulses[0]
        x = pulses - pulses.mean(axis=0)
        d = x[:, 3] ** 2 - x[:, 0] ** 2
        assert abs(d.mean()) <= 3 * d.std(ddof=1) / math.sqrt(n)
