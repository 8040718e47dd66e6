import pytest

from qndspin.constants import RB87, TWO_PI
from qndspin.scattering import (
    _dipole_coeff,
    EXCITED_F,
    GROUND_F,
    raman_noise_coefficient,
    raman_rates,
    ScatteringRates,
)

from conftest import PROBE_DETUNING


@pytest.fixture(scope="module")
def reference_rates(couplings):
    eta_geom = couplings.effective_cooperativity / RB87.d2_oscillator_strength
    return raman_rates(PROBE_DETUNING, eta_geom)


class TestBranching:
    """Decay of each excited sublevel through the squared dipole elements."""

    def test_sums_to_one(self):
        # every excited sublevel decays at the same rate, which is the
        # cycling transition's: its squared elements sum to 1 in those units
        for f_exc in EXCITED_F:
            for mf_exc in range(-f_exc, f_exc + 1):
                total = sum(_dipole_coeff(f, mf2, f_exc, 2 * mf_exc) ** 2
                            for f in GROUND_F for mf2 in range(-2 * f, 2 * f + 1, 2))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_cycling_is_closed(self):
        # |3, 3> decays only to |2, 2>
        assert _dipole_coeff(2, 4, 3, 6) ** 2 == pytest.approx(1.0, abs=1e-12)
        for mf2 in range(-2, 3, 2):
            assert _dipole_coeff(1, mf2, 3, 6) == 0.0


class TestRamanRates:
    def test_reference_magnitude(self, reference_rates):
        assert reference_rates.p_raman_total == pytest.approx(5.6e-8, rel=0.20)

    def test_total_to_raman_ratio(self, reference_rates):
        assert reference_rates.p_total / reference_rates.p_raman_total == pytest.approx(
            3.0, abs=0.4
        )

    def test_decomposition_identity(self, reference_rates):
        assert reference_rates.p_raman_total == pytest.approx(
            reference_rates.p_delta_f
            + reference_rates.p_delta_mf
            + reference_rates.p_delta_f_delta_mf,
            rel=1e-15,
        )
        assert reference_rates.p_total >= reference_rates.p_raman_total

    def test_dispersive_scaling(self):
        # At fixed transmitted flux all rates fall as 1/delta^2, the same
        # scaling as the squared phase shift per photon.
        d1 = TWO_PI * 200e9
        d2 = TWO_PI * 400e9
        r1 = raman_rates(d1, 0.1)
        r2 = raman_rates(d2, 0.1)
        for attr in ("p_delta_f", "p_delta_mf", "p_delta_f_delta_mf", "p_total"):
            ratio = getattr(r1, attr) / getattr(r2, attr)
            assert ratio == pytest.approx(4.0, rel=0.05)

    def test_large_detuning_limit_ratio(self):
        # With hyperfine splittings negligible, the electron-spin algebra
        # gives Rayleigh:dF:dmF:dFdmF = 4/9 : 1/9 : 1/12 : 1/36 of the
        # cycling rate and P_sc = 3 P_Ram exactly.
        r = raman_rates(TWO_PI * 2000e9, 1.0)
        assert r.p_total / r.p_raman_total == pytest.approx(3.0, rel=1e-3)
        gamma = RB87.rb87_d2_linewidth
        # effective single detuning: use the F=2 -> F'=3 value shifted by
        # half the ground splitting (both manifolds far detuned)
        delta = TWO_PI * 2000e9 - RB87.rb87_ground_hyperfine_splitting / 2
        unit = gamma**2 / (2 * delta**2)
        assert r.p_delta_f == pytest.approx(unit / 9, rel=2e-3)
        assert r.p_delta_mf == pytest.approx(unit / 12, rel=2e-3)
        assert r.p_delta_f_delta_mf == pytest.approx(unit / 36, rel=2e-3)

    def test_optical_depth_identity(self, reference_rates, couplings):
        # (2 delta'/Gamma)^2 P_sc = 2 eta_eff within a few percent.
        gamma = RB87.rb87_d2_linewidth
        lhs = (2 * couplings.delta_prime / gamma) ** 2 * reference_rates.p_total
        assert lhs == pytest.approx(2 * couplings.effective_cooperativity, rel=0.05)


class TestNoiseCoefficient:
    def test_reference_value(self, reference_rates):
        assert raman_noise_coefficient(reference_rates, 1.0) == pytest.approx(
            4.7e-8, rel=0.20
        )

    def test_zero_rates(self):
        z = ScatteringRates(0, 0, 0, 0, 0)
        assert raman_noise_coefficient(z, 3.3e4) == 0.0

    def test_coefficient_isolation(self):
        x = 1e-8
        r = ScatteringRates(x, 0, 0, 0, 0)
        assert raman_noise_coefficient(r, 2.0) == pytest.approx(8 * x / 3, rel=1e-15)
        r = ScatteringRates(0, x, 0, 0, 0)
        assert raman_noise_coefficient(r, 2.0) == pytest.approx(x, rel=1e-15)
        r = ScatteringRates(0, 0, x, 0, 0)
        assert raman_noise_coefficient(r, 2.0) == pytest.approx(2 * x / 3, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScatteringRates(-1e-9, 0, 0, 0, 0)
