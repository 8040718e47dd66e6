import numpy as np
import pytest

from qndspin.analysis import conditional_variance
from qndspin.spinstate import (
    GaussianSpinState,
    measurement_backaction,
    prepare_css,
    PreparationModel,
    PulseModel,
)

N0 = 3.3e4


def ideal_prep():
    return PreparationModel(initial_contrast=1.0)


class TestPrepareCss:
    def test_css_variance(self):
        s = prepare_css(N0, ideal_prep())
        assert s.var_z == pytest.approx(N0 / 4.0)
        assert s.var_y == pytest.approx(N0 / 4.0)
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

    def test_degenerate(self):
        with pytest.raises(ValueError):
            prepare_css(0.0, ideal_prep())


class TestCompositePi:
    """PulseModel: mu is the one setting composite_pi_infidelity."""

    @pytest.mark.parametrize("mu", [-1e-9, 0.1 + 1e-9])
    def test_infidelity_outside_range_rejected(self, mu):
        with pytest.raises(ValueError, match="composite_pi_infidelity"):
            PulseModel(composite_pi_infidelity=mu)


class TestBackactionAndConditioning:
    def test_zero_photons_identity(self):
        s = prepare_css(N0, ideal_prep())
        assert measurement_backaction(s, 0.0, 1.2e-4, N0) == s

    def test_heisenberg_area_preserved(self):
        # the shot-noise-limited posterior of S_z times the broadened S_perp
        s = prepare_css(N0, ideal_prep())
        p, phi = 2e5, 1.18e-4
        b = measurement_backaction(s, p, phi, N0)
        var_z = conditional_variance(b.var_z, (N0 / 4) / (N0 * p * phi**2))
        assert var_z * b.var_y == pytest.approx((N0 / 4) ** 2, rel=1e-12)

    def test_ideal_conditional_variance(self):
        # normalized conditional variance = 1/(1 + N0 p phi^2)
        s = prepare_css(N0, ideal_prep())
        p, phi = 3e5, 1.18e-4
        b = measurement_backaction(s, p, phi, N0)
        var_z = conditional_variance(b.var_z, (N0 / 4) / (N0 * p * phi**2))
        assert var_z / (N0 / 4) == pytest.approx(
            1.0 / (1.0 + N0 * p * phi**2), rel=1e-6
        )


class TestPropertyInvariants:
    def test_psd_and_mean_monotone_under_ops(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            s = GaussianSpinState(
                s0=N0 / 2,
                mean_length=rng.uniform(0.3, 1.0) * N0 / 2,
                var_z=rng.uniform(0.3, 2.0) * N0 / 4,
                var_y=rng.uniform(0.3, 2.0) * N0 / 4,
            )
            out = measurement_backaction(s, 1e5, 1.18e-4, N0)
            assert out.var_z == s.var_z and out.var_y > s.var_y
            assert out.mean_length <= s.mean_length * (1 + 1e-12)
