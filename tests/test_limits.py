import math

import numpy as np
import pytest

from qndspin.limits import (
    ideal_sigma2,
    integrate_sigma2,
    LimitInputs,
    limit_contrast_and_zeta,
    limits_report,
    optimal_photon_number,
    sigma2_min,
)

N0 = 3.3e4
ETA_EFF = 3100.0 / N0  # collective cooperativity 3100


def reference_inputs(p_ram=5.6e-8):
    return LimitInputs(
        collective_cooperativity=3100.0,
        p_raman=p_ram,
        p_total=3.0 * p_ram,
        phi_eff=118e-6,
        p_rayleigh_f1=1.38e-7,
        p_rayleigh_f2=0.86e-7,
    )


class TestIdealSigma2:
    def test_zero_photons(self):
        assert ideal_sigma2(N0, 0.0, 1e-4) == 1.0

    def test_unit_knee(self):
        # N0 p phi^2 = 1 -> 1/2
        phi = 1e-4
        p = 1.0 / (N0 * phi**2)
        assert ideal_sigma2(N0, p, phi) == pytest.approx(0.5, rel=1e-12)

    def test_matches_ode_at_zero_raman(self):
        # consistency: construct ODE inputs with N0 eta_eff P_sc
        # matching phi_eff^2 = 2 eta_eff P_sc, then both forms agree
        phi_eff = 0.47 * 253e-6
        p_sc = 1.7e-7
        coll = N0 * phi_eff**2 / (2.0 * p_sc)
        inputs = LimitInputs(
            collective_cooperativity=coll, p_raman=0.0, p_total=p_sc,
            phi_eff=phi_eff,
        )
        grid, curve = integrate_sigma2(inputs, 1e5)
        closed = np.array([ideal_sigma2(N0, p, phi_eff) for p in grid])
        assert np.max(np.abs(curve - closed) / closed) < 1e-6


class TestIntegrateSigma2:
    def test_no_cavity_term(self):
        inputs = LimitInputs(
            collective_cooperativity=0.0, p_raman=1e-7, p_total=3e-7,
            phi_eff=0.0,
        )
        grid, curve = integrate_sigma2(inputs, 1e5)
        assert np.allclose(curve, 1.0 + 4e-7 * grid, rtol=1e-8)

    def test_matches_rk45_reference(self):
        # the closed form agrees with a tight adaptive Runge-Kutta solution
        # of d sigma^2/dp = 4 P_Ram - 2 N0 eta_eff P_sc sigma^4
        from scipy.integrate import solve_ivp

        inputs = reference_inputs()
        grid, curve = integrate_sigma2(inputs, 8e6, n_points=3000)
        drive = 2.0 * inputs.collective_cooperativity * inputs.p_total
        sol = solve_ivp(
            lambda _, y: -drive * y**2 + 4.0 * inputs.p_raman,
            (0.0, 8e6), [1.0], t_eval=grid, method="RK45",
            rtol=1e-10, atol=1e-12,
        )
        assert sol.success
        assert np.max(np.abs(curve - sol.y[0]) / sol.y[0]) < 1e-8

    def test_monotone_decrease_toward_minimum(self):
        inputs = reference_inputs()
        grid, curve = integrate_sigma2(inputs, 5e6, n_points=2000)
        s_min = sigma2_min(3100.0, 1.0 / 3.0)
        assert np.all(np.diff(curve) < 1e-8)   # monotone down to the fixed point
        assert curve[-1] >= s_min * (1 - 1e-9)

    def test_minimum_matches_closed_form(self):
        inputs = reference_inputs()
        _, curve = integrate_sigma2(inputs, 8e6, n_points=3000)
        s_min = sigma2_min(3100.0, 1.0 / 3.0)
        assert curve.min() == pytest.approx(s_min, rel=1e-3)

    def test_zeta_curve_has_interior_minimum(self):
        # composing sigma^2(p) with the scattering contrast loss gives the
        # metrological parameter its interior optimum
        inputs = reference_inputs()
        grid, curve = integrate_sigma2(inputs, 8e5, n_points=3000)
        r1, r2 = inputs.p_rayleigh_f1, inputs.p_rayleigh_f2
        loss_rate = 0.5 * (r1 + r2) - math.sqrt(r1 * r2) + inputs.p_raman
        zeta = curve / (1.0 - loss_rate * grid) ** 2
        k = int(np.argmin(zeta))
        assert 0 < k < len(grid) - 1


class TestSigma2Min:
    def test_reference_value(self):
        s = sigma2_min(3100.0, 1.0 / 3.0)
        assert 10 * math.log10(s) == pytest.approx(-18.3, abs=0.2)

    def test_zero_raman(self):
        assert sigma2_min(3100.0, 0.0) == 0.0

    def test_sqrt_scaling(self):
        base = sigma2_min(3100.0, 1.0 / 3.0)
        assert sigma2_min(4 * 3100.0, 1.0 / 3.0) == pytest.approx(
            base / 2.0, rel=1e-12
        )
        # exact -1/2 power over three decades
        for f in [10.0, 100.0, 1000.0]:
            assert sigma2_min(3100.0 * f, 1 / 3) / base == pytest.approx(
                f**-0.5, rel=1e-12
            )

    def test_warns_small_cooperativity(self):
        with pytest.warns(UserWarning):
            sigma2_min(50.0, 1.0 / 3.0)


class TestOptimalPhotonNumber:
    def test_reference_value(self):
        s = sigma2_min(3100.0, 1.0 / 3.0)
        p_opt = optimal_photon_number(s, 5.6e-8)
        assert p_opt * 5.6e-8 == pytest.approx(0.012, abs=0.001)

    def test_algebraic_identity(self):
        # ln(8/s) = 8 -> p P_Ram = s
        s = 8.0 * math.exp(-8.0)
        assert optimal_photon_number(s, 1.0) == pytest.approx(s, rel=1e-12)

    def test_raman_scaling(self):
        s = 0.0147
        assert optimal_photon_number(s, 2.8e-8) == pytest.approx(
            2 * optimal_photon_number(s, 5.6e-8), rel=1e-12
        )

    def test_ode_at_popt_near_minimum(self):
        # the integrated curve sits within 5% of sigma2_min at p_opt for
        # collective cooperativity >= 1e3
        for coll in [1e3, 3.1e3, 1e4]:
            inputs = LimitInputs(
                collective_cooperativity=coll, p_raman=5.6e-8,
                p_total=1.68e-7, phi_eff=1e-4,
            )
            s_min = sigma2_min(coll, 1.0 / 3.0)
            p_opt = optimal_photon_number(s_min, 5.6e-8)
            grid, curve = integrate_sigma2(inputs, p_opt, n_points=50)
            assert curve[-1] == pytest.approx(s_min, rel=0.05)


class TestLimitComposition:
    def test_reference_contrast_loss(self):
        out = limit_contrast_and_zeta(reference_inputs())
        assert out["contrast_loss"] == pytest.approx(0.012, abs=0.002)
        assert out["zeta_m_min_db"] == pytest.approx(-18.0, abs=0.4)

    def test_equal_rayleigh_rates(self):
        inputs = LimitInputs(
            collective_cooperativity=3100.0, p_raman=5.6e-8,
            p_total=1.68e-7, phi_eff=1e-4,
            p_rayleigh_f1=1e-7, p_rayleigh_f2=1e-7,
        )
        out = limit_contrast_and_zeta(inputs)
        assert out["contrast_loss"] == pytest.approx(
            out["p_opt"] * 5.6e-8, rel=1e-12
        )

    def test_bound_forms_agree_at_ratio_three(self):
        out = limit_contrast_and_zeta(reference_inputs())
        assert out["inv_zeta_bound_main"] == pytest.approx(
            out["inv_zeta_bound_scattering"], rel=1e-12
        )
        assert 10 * math.log10(out["inv_zeta_bound_main"]) == pytest.approx(
            18.3, abs=0.4
        )

    def test_report_keys(self):
        rep = limits_report(reference_inputs())
        assert set(rep) == {
            "sigma2_min_db", "p_opt", "contrast_loss", "zeta_m_min_db",
            "inv_zeta_bound_main_db", "inputs",
        }


class TestLimitInputs:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            LimitInputs(3100.0, 2e-7, 1e-7, 1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LimitInputs(-1.0, 1e-8, 3e-8, 1e-4)
