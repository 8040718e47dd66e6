import math

import numpy as np
import pytest

from qndspin.spinstate import (
    condition_on_measurement,
    GaussianSpinState,
    measurement_backaction,
    prepare_css,
    PreparationModel,
    PulseModel,
    rotate,
)

N0 = 3.3e4


def ideal_prep():
    return PreparationModel(initial_contrast=1.0)


class TestPrepareCss:
    def test_css_variance(self):
        s = prepare_css(N0, ideal_prep())
        assert s.var_z == pytest.approx(N0 / 4.0)
        assert s.var_y == pytest.approx(N0 / 4.0)
        assert s.cov_yz == 0.0
        assert s.mean_length == pytest.approx(N0 / 2.0)

    def test_prep_factor(self):
        s = prepare_css(N0, PreparationModel(prep_noise_factor=1.3))
        assert s.var_z == pytest.approx(1.3 * N0 / 4.0)

    def test_quadratic_term(self):
        s = prepare_css(N0, PreparationModel(quadratic_noise_a2=9e-6))
        assert s.var_z == pytest.approx((N0 + 9e-6 * N0**2) / 4.0)

    def test_finite_contrast(self):
        s = prepare_css(N0, PreparationModel(initial_contrast=0.71))
        assert s.mean_length == pytest.approx(0.71 * N0 / 2.0)
        assert s.contrast == pytest.approx(0.71)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            prepare_css(0.0, ideal_prep())


class TestRotate:
    def test_identity(self):
        s = prepare_css(N0, ideal_prep())
        r = rotate(s, 0.0)
        assert r == s

    def test_quarter_turn_swaps_variances(self):
        s = measurement_backaction(prepare_css(N0, ideal_prep()), 1e5, 1.2e-4, N0)
        r = rotate(s, math.pi / 2)
        assert r.var_z == pytest.approx(s.var_y, rel=1e-12)
        assert r.var_y == pytest.approx(s.var_z, rel=1e-12)

    def test_covariance_rotation_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vz, vy = rng.uniform(0.5, 5.0, 2)
            cov = rng.uniform(-1, 1) * math.sqrt(vz * vy) * 0.9
            s = GaussianSpinState(
                s0=N0 / 2, mean_length=N0 / 2,
                var_z=vz, var_y=vy, cov_yz=cov,
            )
            a = rng.uniform(-math.pi, math.pi)
            r = rotate(s, a)
            expected = (
                vz * math.cos(a) ** 2
                + vy * math.sin(a) ** 2
                + cov * math.sin(2 * a)
            )
            assert r.var_z == pytest.approx(expected, rel=1e-10)
            # Monte Carlo oracle for the quadratic form
            samples = rng.multivariate_normal(
                [0, 0], [[vz, cov], [cov, vy]], size=20000
            )
            zr = samples[:, 0] * math.cos(a) + samples[:, 1] * math.sin(a)
            assert np.var(zr) == pytest.approx(expected, rel=0.08)

    def test_invariants_preserved(self):
        rng = np.random.default_rng(3)
        s = GaussianSpinState(
            s0=N0 / 2, mean_length=0.7 * N0 / 2,
            var_z=3.0, var_y=11.0, cov_yz=2.5,
        )
        for a in rng.uniform(-10, 10, 25):
            r = rotate(s, a)
            assert r.mean_length == pytest.approx(s.mean_length, rel=1e-12)
            det0 = s.var_z * s.var_y - s.cov_yz**2
            det1 = r.var_z * r.var_y - r.cov_yz**2
            assert det1 == pytest.approx(det0, rel=1e-10)


class TestCompositePi:
    """PulseModel: the composite pulse's total failure fraction mu."""

    @pytest.mark.parametrize("infidelity, lock", [(0.02, 2.0), (0.1, 0.9 + 1e-9)])
    def test_total_mu_above_one_rejected(self, infidelity, lock):
        with pytest.raises(ValueError, match="composite-pulse mu"):
            PulseModel(composite_pi_infidelity=infidelity, lock_light_mu=lock)

    def test_total_mu_of_one_accepted(self):
        assert PulseModel(composite_pi_infidelity=0.1, lock_light_mu=0.9).mu_total <= 1.0


class TestBackactionAndConditioning:
    def test_zero_photons_identity(self):
        s = prepare_css(N0, ideal_prep())
        assert measurement_backaction(s, 0.0, 1.2e-4, N0) == s

    def test_heisenberg_area_preserved(self):
        s = prepare_css(N0, ideal_prep())
        p, phi = 2e5, 1.18e-4
        b = measurement_backaction(s, p, phi, N0)
        c = condition_on_measurement(b, (N0 / 4) / (N0 * p * phi**2))
        assert c.var_z * c.var_y == pytest.approx((N0 / 4) ** 2, rel=1e-12)

    def test_ideal_conditional_variance(self):
        # normalized conditional variance = 1/(1 + N0 p phi^2)
        s = prepare_css(N0, ideal_prep())
        p, phi = 3e5, 1.18e-4
        b = measurement_backaction(s, p, phi, N0)
        c = condition_on_measurement(b, (N0 / 4) / (N0 * p * phi**2))
        assert c.var_z / (N0 / 4) == pytest.approx(
            1.0 / (1.0 + N0 * p * phi**2), rel=1e-6
        )

    def test_infinite_var_meas_identity(self):
        s = prepare_css(N0, ideal_prep())
        assert condition_on_measurement(s, math.inf) == s

    def test_equal_variances_halve(self):
        s = prepare_css(N0, ideal_prep())
        c = condition_on_measurement(s, s.var_z)
        assert c.var_z == pytest.approx(s.var_z / 2.0)

    def test_reference_conditioning_numbers(self):
        s = GaussianSpinState(
            s0=N0 / 2, mean_length=N0 / 2,
            var_z=9405.0, var_y=9405.0,
        )
        c = condition_on_measurement(s, 1206.0)
        assert c.var_z == pytest.approx(1069.0, abs=1.0)

    def test_conditional_upper_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            vz, vm = rng.uniform(1e-3, 1e5, 2)
            s = GaussianSpinState(
                s0=N0 / 2, mean_length=N0 / 2,
                var_z=vz, var_y=vz,
            )
            c = condition_on_measurement(s, vm)
            assert c.var_z <= min(vz, vm) + 1e-12


class TestPropertyInvariants:
    def test_psd_and_mean_monotone_under_ops(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            vz = rng.uniform(0.3, 2.0) * N0 / 4
            vy = rng.uniform(0.3, 2.0) * N0 / 4
            cov = rng.uniform(-0.9, 0.9) * math.sqrt(vz * vy)
            s = GaussianSpinState(
                s0=N0 / 2,
                mean_length=rng.uniform(0.3, 1.0) * N0 / 2,
                var_z=vz, var_y=vy, cov_yz=cov,
            )
            ops = [
                measurement_backaction(s, 1e5, 1.18e-4, N0),
                condition_on_measurement(s, rng.uniform(10, 1e4)),
                rotate(s, rng.uniform(-3, 3)),
            ]
            for out in ops:
                assert out.var_z > 0 and out.var_y > 0
                assert out.var_z * out.var_y >= out.cov_yz**2 * (1 - 1e-12)
            for out in ops[:2]:
                assert out.mean_length <= s.mean_length * (1 + 1e-12)

    def test_rotated_variance_model_periodicity(self):
        s = GaussianSpinState(
            s0=N0 / 2, mean_length=N0 / 2,
            var_z=1000.0, var_y=60000.0, cov_yz=0.0,
        )
        a = np.linspace(0, 2 * math.pi, 101)
        v = np.array([rotate(s, x).var_z for x in a])
        v_pi = np.array([rotate(s, x + math.pi).var_z for x in a])
        assert np.allclose(v, v_pi, rtol=1e-12)
        assert v.min() == pytest.approx(1000.0, rel=1e-9)
        assert v.max() == pytest.approx(60000.0, rel=1e-9)
