import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0, j1

from qndspin.cavity import (
    antinode_cooperativity,
    ensemble_coupling,
    hyperfine_mode_shift,
    inverse_transmission,
    lorentzian_transmission,
    phase_per_photon,
    ramsey_damping_envelope,
    ResonatorParams,
    EnsembleConfig,
)
from qndspin.constants import RB87, TWO_PI

from conftest import PROBE_DETUNING


class TestAntinodeCooperativity:
    def test_probe_wavelength(self):
        eta0 = antinode_cooperativity(5.6e3, 780e-9, 56.9e-6)
        assert eta0 == pytest.approx(0.203, abs=0.007)

    def test_trap_wavelength(self):
        eta0 = antinode_cooperativity(4.2e4, 851e-9, 59.5e-6)
        assert eta0 == pytest.approx(1.65, abs=0.04)

    def test_waist_scaling(self):
        base = antinode_cooperativity(5.6e3, 780e-9, 56.9e-6)
        assert antinode_cooperativity(5.6e3, 780e-9, 2 * 56.9e-6) == pytest.approx(
            base / 4, rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            antinode_cooperativity(-1.0, 780e-9, 56.9e-6)
        with pytest.raises(ValueError):
            antinode_cooperativity(5.6e3, 0.0, 56.9e-6)


class TestEnsembleCoupling:
    def test_reference_geometry(self, cloud):
        ratio, _ = ensemble_coupling(0.203, cloud, 56.9e-6)
        assert ratio == pytest.approx(0.47, abs=0.01)

    def test_zero_radius(self):
        ens = EnsembleConfig(physical_atom_number=1e4, rms_radius=0.0)
        ratio, n_ratio = ensemble_coupling(0.2, ens, 56.9e-6)
        assert ratio == pytest.approx(0.5, rel=1e-12)  # f * 3/4
        assert n_ratio == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_effective_atom_fraction(self, cloud):
        _, n_ratio = ensemble_coupling(0.203, cloud, 56.9e-6)
        assert n_ratio == pytest.approx(0.66, abs=0.01)

    def test_consistency_with_quadrature(self, cloud):
        # <eta> and <eta^2> by explicit quadrature over the distribution
        # must reproduce the closed-form ratios to 1e-6.
        w = 56.9e-6
        sig = cloud.rms_radius

        def radial_avg(power):
            # 2D Gaussian, per-axis sigma: p(rho) = rho/sig^2 exp(-rho^2/2sig^2)
            f = lambda r: (r / sig**2) * math.exp(-(r**2) / (2 * sig**2)) * math.exp(
                -2 * power * r**2 / w**2
            )
            val, _ = quad(f, 0, 20 * sig, limit=200)
            return val

        ax1 = quad(lambda t: math.sin(t) ** 2, 0, math.pi)[0] / math.pi
        ax2 = quad(lambda t: math.sin(t) ** 4, 0, math.pi)[0] / math.pi
        mean_eta = ax1 * radial_avg(1)
        mean_eta2 = ax2 * radial_avg(2)
        ratio, n_ratio = ensemble_coupling(1.0, cloud, w)
        assert ratio == pytest.approx((2.0 / 3.0) * mean_eta2 / mean_eta, rel=1e-6)
        assert n_ratio == pytest.approx(mean_eta**2 / mean_eta2, rel=1e-6)


class TestHyperfineModeShift:
    def test_table_shifts(self, couplings):
        # Probe-mode shifts per effective atom (hyperfine-averaging
        # convention tolerance of +-15%).
        assert couplings.shift_per_atom_f2 == pytest.approx(39e-6, rel=0.15)
        assert couplings.shift_per_atom_f1 == pytest.approx(-49e-6, rel=0.15)
        assert couplings.shift_per_atom_f2_comp == pytest.approx(-5.8e-6, rel=0.15)
        assert couplings.shift_per_atom_f1_comp == pytest.approx(-4.6e-6, rel=0.15)

    def test_differential_slope(self, couplings):
        assert couplings.domega_dn == pytest.approx(4.5e-5, abs=0.2e-5)
        assert couplings.delta_prime / TWO_PI == pytest.approx(3200e6, rel=0.01)

    def test_sign_antisymmetry(self, couplings):
        # Exchanging the clock-state roles flips the differential exactly.
        eta = couplings.effective_cooperativity
        w2 = hyperfine_mode_shift(2, PROBE_DETUNING, eta, 1.0)
        w1 = hyperfine_mode_shift(1, PROBE_DETUNING, eta, 1.0)
        assert (w2 - w1) == pytest.approx(-(w1 - w2), rel=1e-15)

    def test_dispersive_guard(self):
        with pytest.raises(ValueError):
            hyperfine_mode_shift(2, TWO_PI * 200e6, 0.1, 1.0)


class TestLorentzian:
    def test_on_resonance(self):
        assert lorentzian_transmission(0.0, 1.0) == pytest.approx(1.0)

    def test_half_width(self):
        assert lorentzian_transmission(0.5, 1.0) == pytest.approx(0.5)

    def test_round_trip(self):
        kappa = TWO_PI * 1.01e6
        for frac in [1e-3, 0.2, 0.5, 0.9, 1.0]:
            delta = inverse_transmission(frac, kappa)
            assert delta >= 0.0
            assert lorentzian_transmission(delta, kappa) == pytest.approx(
                frac, rel=1e-12
            )
        assert inverse_transmission(0.5, 1.0) == pytest.approx(0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inverse_transmission(0.0, 1.0)
        with pytest.raises(ValueError):
            inverse_transmission(1.2, 1.0)


class TestPhasePerPhoton:
    def test_antinode_value(self, couplings):
        assert couplings.phase_per_photon_max == pytest.approx(253e-6, abs=8e-6)
        # measured comparison target
        assert couplings.phase_per_photon_max == pytest.approx(250e-6, abs=20e-6)

    def test_equal_shifts_cancel(self):
        assert phase_per_photon(3e-5, 3e-5, 1.0) == 0.0

    def test_shift_phase_duality(self, couplings):
        # The same line-sum code path composed two ways: phi from the
        # per-state shifts equals 2 * (w2 - w1) / kappa identically.
        phi = phase_per_photon(
            couplings.shift_per_atom_f1, couplings.shift_per_atom_f2, 1.0
        )
        direct = 2.0 * (couplings.shift_per_atom_f2 - couplings.shift_per_atom_f1)
        assert phi == pytest.approx(direct, rel=1e-10)
        # and phi_eff relates to phi0 by the cooperativity ratio
        assert couplings.phase_per_photon_eff == pytest.approx(
            couplings.phase_per_photon_max
            * couplings.effective_cooperativity
            / couplings.antinode_cooperativity,
            rel=1e-10,
        )


class TestRamseyEnvelope:
    def test_zero(self):
        assert ramsey_damping_envelope(0.0) == pytest.approx(1.0)

    def test_reference_point(self):
        # frozen from an independent high-precision Bessel evaluation:
        # J0(2)cos(2) - J1(2)sin(2) = -0.6175858...
        assert ramsey_damping_envelope(2.0) == pytest.approx(-0.617586, abs=5e-4)

    @pytest.mark.parametrize("u", [0.1, 1.0, 5.0, 20.0])
    def test_quadrature_oracle(self, u):
        # Brute-force form: <cos(p phi0 sin^2 kz) sin^2 kz>/<sin^2 kz>
        # with u = p phi0 / 2.
        num, _ = quad(
            lambda t: math.cos(2 * u * math.sin(t) ** 2) * math.sin(t) ** 2,
            0.0,
            2 * math.pi,
            limit=400,
        )
        den, _ = quad(lambda t: math.sin(t) ** 2, 0.0, 2 * math.pi)
        assert ramsey_damping_envelope(u) == pytest.approx(num / den, abs=1e-8)

    def test_bessel_form(self):
        # the closed form the trapezoid rule evaluates, on the whole range
        # the node count is sized for
        u = np.linspace(0.0, 200.0, 4001)
        bessel = j0(u) * np.cos(u) - j1(u) * np.sin(u)
        assert np.max(np.abs(ramsey_damping_envelope(u) - bessel)) < 1e-13

    @pytest.mark.parametrize("u", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite(self, u):
        with pytest.raises(ValueError, match="finite and >= 0"):
            ramsey_damping_envelope([0.5, u])

    def test_asymptotic_decay(self):
        # envelope amplitude falls as u^(-1/2)
        def peak(u_center):
            u = np.linspace(u_center, u_center + math.pi, 2000)
            return np.max(np.abs(ramsey_damping_envelope(u)))

        assert peak(200.0) / peak(50.0) == pytest.approx(0.5, rel=0.05)

    def test_bounded(self):
        u = np.linspace(0, 30, 500)
        assert np.all(np.abs(ramsey_damping_envelope(u)) <= 1.0 + 1e-12)


class TestResonatorParams:
    def test_finesse_consistency_enforced(self):
        with pytest.raises(ValueError):
            ResonatorParams(
                wavelength=780e-9,
                mirror_separation=26.62e-3,
                linewidth=TWO_PI * 2.0e6,  # inconsistent with finesse
                finesse=5.6e3,
                mode_waist=56.9e-6,
            )

    def test_table_values_pass(self, probe_resonator, trap_resonator):
        for res in (probe_resonator, trap_resonator):
            f_check = math.pi * RB87.speed_of_light / (
                res.mirror_separation * res.linewidth
            )
            assert abs(f_check - res.finesse) / res.finesse < 1e-2
