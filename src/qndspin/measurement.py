"""Stochastic simulation of the pulse-resolved measurement protocol.

Each measurement M_i of S_z consists of two probe pulses bracketing a
composite pi pulse; a full trial is two such measurements (squeeze and
readout) with an optional manipulation between them.  Pulse labels
follow the convention that the "+" pulses are the inner pair (second of
M_1, first of M_2: no microwaves between them) and the "-" pulses the
outer pair (two composite pulses between them).

The per-atom spin-flip processes (Raman scattering types dF, dmF,
dF+dmF, and composite-pulse failures) are sampled as Poisson/binomial
event counts with uniform event times inside pulses: each event
perturbs the time-averaged signal of its own pulse partially and later
pulses according to how many composite pulses it has stopped responding
to.  Affected atoms are drawn without replacement against the running
ensemble imbalance, which makes the sampling exact to first order in
the per-pulse flip fractions eps = (p/2) P_x; residual bias is
O(6 eps^2) of the projection-noise variance (< 1e-4 at the physical
rates, bounded by the p * P_Ram < 0.1 validity guard).  Detector noise
is applied at the photocount level on both the probe and compensation
channels and propagated through the Lorentzian inversion.

Every trial owns an independent counter-based RNG stream keyed by
(master_seed, trial_index), so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cavity import CouplingSummary, inverse_transmission, lorentzian_transmission
from .scattering import ScatteringRates
from .spinstate import GaussianSpinState, PulseModel

_PULSES = 4
# number of composite-pi pulses between pulse k and pulse l (k < l);
# pi~_1 sits between pulses 1-2, pi~_2 between pulses 3-4
_N_PI_BETWEEN = {
    (1, 2): 1, (1, 3): 1, (1, 4): 2,
    (2, 3): 0, (2, 4): 1,
    (3, 4): 1,
}
# measurement-frame sign of each pulse: M_k = s_k * omega_k / (2 domega/dN)
_PULSE_SIGNS = (-1.0, +1.0, +1.0, -1.0)

SCENARIOS = ("squeeze-readout", "double-prep", "rotate-alpha", "ramsey-clock")


@dataclass(frozen=True)
class NoiseSwitches:
    """Independent enables for each noise source (all on by default)."""

    shot: bool = True          # photon shot noise + APD excess
    electronic: bool = True    # Johnson-noise-equivalent count noise
    technical: bool = True     # per-measurement technical noise
    raman: bool = True         # photon-scattering spin flips
    microwave: bool = True     # composite-pulse failures

    @classmethod
    def none(cls) -> "NoiseSwitches":
        return cls(False, False, False, False, False)

    @classmethod
    def only(cls, name: str) -> "NoiseSwitches":
        return replace(cls.none(), **{name: True})


@dataclass(frozen=True)
class ProbeConfig:
    """Probe photon budget and detection chain."""

    photons_per_measurement: float      # p, transmitted; split p/2 per pulse
    pulse_duration: float = 50e-6       # s, metadata (>> 1/kappa)
    probe_offset: float = 0.5           # units of kappa
    compensation_offset: float = -0.5   # units of kappa
    quantum_efficiency: float = 0.43
    apd_excess_factor: float = 1.9
    electronic_noise_b2: float = 6e13   # b_-2, atom^2 photon^2 units
    technical_noise_fraction: float = 0.04   # b_0,tech / N0
    technical_correlation: float = 0.0  # between M_1 and M_2 (sensitivity knob)
    switches: NoiseSwitches = field(default_factory=NoiseSwitches)

    def __post_init__(self):
        if self.photons_per_measurement < 0:
            raise ValueError("photon number must be >= 0")
        if not 0.0 < self.quantum_efficiency <= 1.0:
            raise ValueError("quantum efficiency must lie in (0, 1]")
        if self.apd_excess_factor < 1.0:
            raise ValueError("APD excess factor must be >= 1")
        if self.probe_offset * self.compensation_offset >= 0:
            raise ValueError("probe and compensation offsets must have opposite sign")
        if not -1.0 <= self.technical_correlation <= 1.0:
            raise ValueError("technical correlation must lie in [-1, 1]")


@dataclass(frozen=True)
class SequencePlan:
    """Named experiment scenario with its manipulation between M_1 and M_2.

    Pulse separations are stored for documentation; the simulated physics
    contains no motional dynamics, so they do not enter the sampling.
    """

    scenario: str = "squeeze-readout"
    rotation_angle: float = 0.0         # rotate-alpha: angle about <S>
    precession_phase: float = 0.0       # ramsey-clock: deterministic phase
    phase_noise_rms: float = 0.0        # ramsey-clock: shot-to-shot phase noise
    intra_measurement_gap: float = 280e-6   # s, metadata
    inter_measurement_gap: float = 330e-6   # s, metadata

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")

    def carryover(self) -> float:
        """Multiplier on M_1-era spin information carried into M_2."""
        if self.scenario == "squeeze-readout":
            return 1.0
        if self.scenario == "double-prep":
            return 0.0
        if self.scenario == "rotate-alpha":
            return math.cos(self.rotation_angle)
        return -math.cos(self.precession_phase)  # ramsey-clock


@dataclass(frozen=True)
class TrialRecord:
    m1_plus: float
    m1_minus: float
    m2_plus: float
    m2_minus: float
    true_szf: float
    flips_df: int
    flips_dmf: int
    flips_both: int
    saturated: bool

    @property
    def m1(self) -> float:
        return 0.5 * (self.m1_plus + self.m1_minus)

    @property
    def m2(self) -> float:
        return 0.5 * (self.m2_plus + self.m2_minus)


@dataclass(frozen=True)
class TrialSet:
    """Per-trial measurement records plus the run provenance."""

    master_seed: int
    scenario: str
    n0: float
    pulses: np.ndarray        # (n, 4): M1-, M1+, M2+, M2-  (time order)
    true_szf: np.ndarray      # (n,)
    flip_counts: np.ndarray   # (n, 3): dF, dmF, both
    saturated: np.ndarray     # (n,) bool

    def __post_init__(self):
        if len(self.pulses) < 2:
            raise ValueError("a trial set needs at least 2 trials")

    @property
    def n_trials(self) -> int:
        return len(self.pulses)

    @property
    def m1_minus(self):
        return self.pulses[:, 0]

    @property
    def m1_plus(self):
        return self.pulses[:, 1]

    @property
    def m2_plus(self):
        return self.pulses[:, 2]

    @property
    def m2_minus(self):
        return self.pulses[:, 3]

    @property
    def m1(self):
        return 0.5 * (self.m1_plus + self.m1_minus)

    @property
    def m2(self):
        return 0.5 * (self.m2_plus + self.m2_minus)


def electronic_count_sigma(probe: ProbeConfig, domega_dn: float) -> float:
    """Per-channel, per-pulse count noise that yields the configured b_-2."""
    return (
        probe.quantum_efficiency * abs(domega_dn)
        * math.sqrt(probe.electronic_noise_b2)
    )


def simulate_probe_pulse(
    true_shift_trajectory,
    photons: float,
    probe: ProbeConfig,
    rng: np.random.Generator,
    probe_share: float = 1.0,
    electronic_sigma: float = 0.0,
):
    """Measure one pulse: counts on both detection channels -> shift.

    `true_shift_trajectory` is the atom-induced differential shift in
    kappa units: a scalar (constant over the pulse) or an array of
    (duration-weight, value) segments whose transmissions are averaged,
    preserving the Lorentzian nonlinearity.  `photons` is the transmitted
    photon number at the operating point for this pulse.  Returns
    (inferred shift in kappa units, saturated flag).
    """
    if photons < 0:
        raise ValueError("photon number must be >= 0")
    offset = probe.probe_offset
    t_op = float(lorentzian_transmission(offset, 1.0))
    flux = photons / t_op  # input photons per pulse
    qe = probe.quantum_efficiency

    traj = np.atleast_2d(np.asarray(true_shift_trajectory, dtype=float))
    if traj.shape == (1, 1):
        weights, values = np.array([1.0]), traj.ravel()
    else:
        weights, values = traj[:, 0], traj[:, 1]
        weights = weights / weights.sum()

    g_p = probe_share
    g_c = 1.0 - probe_share
    t_probe = float(weights @ lorentzian_transmission(offset - g_p * values, 1.0))
    t_comp = float(weights @ lorentzian_transmission(-offset + g_c * values, 1.0))

    mean_p = qe * flux * t_probe
    mean_c = qe * flux * t_comp
    n_p, n_c = mean_p, mean_c
    if probe.switches.shot and photons > 0:
        n_p = rng.normal(mean_p, math.sqrt(probe.apd_excess_factor * mean_p))
        n_c = rng.normal(mean_c, math.sqrt(probe.apd_excess_factor * mean_c))
    if probe.switches.electronic and electronic_sigma > 0:
        n_p += rng.normal(0.0, electronic_sigma)
        n_c += rng.normal(0.0, electronic_sigma)

    t_hat_p = n_p / (qe * flux)
    t_hat_c = n_c / (qe * flux)
    saturated = not (0.0 < t_hat_p <= 1.0 and 0.0 < t_hat_c <= 1.0)
    if saturated:
        t_hat_p = min(max(t_hat_p, 1e-12), 1.0)
        t_hat_c = min(max(t_hat_c, 1e-12), 1.0)

    w_probe = offset - float(inverse_transmission(t_hat_p, 1.0, "upper-slope"))
    w_comp = float(inverse_transmission(t_hat_c, 1.0, "upper-slope")) + (-offset)
    return w_probe - w_comp, saturated


# ---------------------------------------------------------------------------
# spin-flip event bookkeeping
# ---------------------------------------------------------------------------

def _pi_count(k: int, l: int) -> int:
    return _N_PI_BETWEEN[(k, l)] if k < l else 0


def _event_weights(kind: str, pulse: int, u: np.ndarray) -> np.ndarray:
    """Perturbation weight of one event on each pulse average.

    Returned array has shape (len(u), 4); entry w[l] multiplies the
    signal perturbation (-x_pre) of the flipped atom on pulse l+1.

    * "dF": the atom flips and keeps responding to composite pulses:
      partial weight 1-u on its own pulse, 1 afterwards.
    * "both" (dF+dmF): flips and stops responding: its perturbation is
      toggled off/on by each later composite pulse.
    * "dmF": does not flip but stops responding: perturbation appears
      after an odd number of later composite pulses.
    """
    n = len(u)
    w = np.zeros((n, _PULSES))
    if kind == "dF":
        w[:, pulse - 1] = 1.0 - u
        for l in range(pulse + 1, _PULSES + 1):
            w[:, l - 1] = 1.0
    elif kind == "both":
        w[:, pulse - 1] = 1.0 - u
        for l in range(pulse + 1, _PULSES + 1):
            w[:, l - 1] = (1.0 + (-1.0) ** _pi_count(pulse, l)) / 2.0
    elif kind == "dmF":
        for l in range(pulse + 1, _PULSES + 1):
            w[:, l - 1] = (1.0 - (-1.0) ** _pi_count(pulse, l)) / 2.0
    else:
        raise ValueError(kind)
    return w


_SZF_WEIGHT = {
    # weight of each event type on Sz at the end of measurement 1,
    # by the pulse (or composite pulse) the event happened in
    "dF": {1: 1.0, 2: 1.0},
    "dmF": {1: 1.0, 2: 0.0},
    "both": {1: 0.0, 2: 1.0},
    "mu1": 1.0,
}


def simulate_trial(
    state: GaussianSpinState,
    plan: SequencePlan,
    probe: ProbeConfig,
    rates: ScatteringRates | None,
    pulses: PulseModel,
    couplings: CouplingSummary,
    rng: np.random.Generator,
    n0: float | None = None,
) -> TrialRecord:
    """One full trial: prepare, measure M_1, manipulate, measure M_2."""
    n0 = float(n0 if n0 is not None else state.n0)
    p_half = probe.photons_per_measurement / 2.0
    if rates is not None and probe.photons_per_measurement * rates.p_raman_total > 0.1:
        raise ValueError("p * P_Ram > 0.1: first-order flip sampling invalid")

    x0 = rng.normal(0.0, math.sqrt(state.var_z))

    raman_on = probe.switches.raman and rates is not None
    lam = {
        "dF": n0 * p_half * (rates.p_delta_f if raman_on else 0.0),
        "dmF": n0 * p_half * (rates.p_delta_mf if raman_on else 0.0),
        "both": n0 * p_half * (rates.p_delta_f_delta_mf if raman_on else 0.0),
    }
    mu_on = probe.switches.microwave and pulses.mu_total > 0

    pulse_pert = np.zeros(_PULSES)
    szf = x0
    counts = {"dF": 0, "dmF": 0, "both": 0}
    carry = plan.carryover()

    n0_int = max(int(round(n0)), 1)

    def signs(n: int, z_now: float) -> np.ndarray:
        """Pre-flip signal signs of n affected atoms.

        Atoms are drawn without replacement from the current up/down
        populations (hypergeometric), which keeps the flip back-reaction
        faithful beyond first order: random flips of a CSS leave its
        variance exactly at the projection-noise level.
        """
        n_up = min(max(int(round(n0 / 2.0 + z_now)), 0), n0_int)
        k_up = rng.hypergeometric(n_up, n0_int - n_up, min(n, n0_int))
        out = np.full(n, -1.0)
        out[:k_up] = 1.0
        return out

    for pulse_idx in range(1, _PULSES + 1):
        z_now = x0 + pulse_pert[pulse_idx - 1]
        for kind in ("dF", "dmF", "both"):
            if lam[kind] <= 0.0:
                continue
            n_ev = rng.poisson(lam[kind])
            counts[kind] += n_ev
            if n_ev == 0:
                continue
            u = rng.uniform(size=n_ev)
            x_pre = signs(n_ev, z_now)
            w = _event_weights(kind, pulse_idx, u)
            pert = -(x_pre[:, None] * w)
            if pulse_idx <= 2:
                pert[:, 2:] *= carry
                szf += np.sum(-x_pre * _SZF_WEIGHT[kind][pulse_idx])
            pulse_pert += pert.sum(axis=0)

        if mu_on and pulse_idx in (1, 3):
            # composite pulse follows pulses 1 and 3
            n_fail = rng.binomial(int(round(n0)), pulses.mu_total)
            if n_fail:
                x_pre = signs(n_fail, x0 + pulse_pert[pulse_idx])
                total = -np.sum(x_pre)
                if pulse_idx == 1:
                    pulse_pert[1:] += np.array([1.0, carry, carry]) * total
                    szf += total
                else:
                    pulse_pert[3] += total

    base = np.array([1.0, 1.0, carry, carry]) * x0
    if plan.scenario == "double-prep":
        x0b = rng.normal(0.0, math.sqrt(state.var_z))
        base[2:] = x0b
    elif plan.scenario == "rotate-alpha":
        y = rng.normal(0.0, math.sqrt(state.var_y))
        base[2:] = x0 * carry + y * math.sin(plan.rotation_angle)
    elif plan.scenario == "ramsey-clock" and plan.phase_noise_rms > 0:
        phi_n = rng.normal(0.0, plan.phase_noise_rms)
        base[2:] += state.mean_length * phi_n

    z_pulse = base + pulse_pert

    domega_dn = couplings.domega_dn
    sigma_e = (
        electronic_count_sigma(probe, domega_dn)
        if probe.switches.electronic
        else 0.0
    )
    share = couplings.probe_signal_share

    m = np.zeros(_PULSES)
    saturated = False
    for k in range(_PULSES):
        omega_true = 2.0 * _PULSE_SIGNS[k] * z_pulse[k] * domega_dn
        omega_hat, sat = simulate_probe_pulse(
            omega_true, p_half, probe, rng, share, sigma_e
        )
        saturated |= sat
        m[k] = _PULSE_SIGNS[k] * omega_hat / (2.0 * domega_dn)

    if probe.switches.technical and probe.technical_noise_fraction > 0:
        sigma_t = math.sqrt(probe.technical_noise_fraction * n0) / 2.0
        rho = probe.technical_correlation
        t1 = rng.normal(0.0, sigma_t)
        t2 = rho * t1 + math.sqrt(max(1 - rho**2, 0.0)) * rng.normal(0.0, sigma_t)
        m[:2] += t1
        m[2:] += t2

    return TrialRecord(
        m1_minus=m[0], m1_plus=m[1], m2_plus=m[2], m2_minus=m[3],
        true_szf=szf,
        flips_df=counts["dF"], flips_dmf=counts["dmF"], flips_both=counts["both"],
        saturated=saturated,
    )


def run_trials(
    scenario: SequencePlan | str,
    n_trials: int,
    master_seed: int,
    state: GaussianSpinState,
    probe: ProbeConfig,
    rates: ScatteringRates | None,
    pulses: PulseModel,
    couplings: CouplingSummary,
) -> TrialSet:
    """Run independent trials with per-trial counter-based RNG streams.

    Results are bitwise reproducible: trial i always consumes the Philox
    stream keyed (master_seed, i).
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials for any variance estimate")
    plan = SequencePlan(scenario) if isinstance(scenario, str) else scenario

    def one(i: int) -> TrialRecord:
        rng = np.random.Generator(np.random.Philox(key=[master_seed, i]))
        return simulate_trial(state, plan, probe, rates, pulses, couplings, rng)

    records = [one(i) for i in range(n_trials)]

    pulses_arr = np.array(
        [[r.m1_minus, r.m1_plus, r.m2_plus, r.m2_minus] for r in records]
    )
    return TrialSet(
        master_seed=master_seed,
        scenario=plan.scenario,
        n0=state.n0,
        pulses=pulses_arr,
        true_szf=np.array([r.true_szf for r in records]),
        flip_counts=np.array(
            [[r.flips_df, r.flips_dmf, r.flips_both] for r in records], dtype=int
        ),
        saturated=np.array([r.saturated for r in records], dtype=bool),
    )


# ---------------------------------------------------------------------------
# first-order analytics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinFlipCovariance:
    """First-order single-pulse covariance structure and its aggregates.

    `cov` is the 4x4 covariance of the measurement-frame pulse values
    (M1-, M1+, M2+, M2-) in spin^2 units; the diagonal of an undisturbed
    ensemble is N0/4.  Aggregates are in the 4*Var atom-number units.
    """

    cov: np.ndarray
    flip_term_4var_meas: float     # (4/3 PdF + 1/2 PdmF + 1/3 Pboth) p N0 + mu N0
    projection_term_4var_m1: float  # (1 - mu - [...] p) N0
    projection_term_4var_m2: float

    @property
    def var_meas_4_from_matrix(self) -> float:
        """Flip contribution to 2 Var(M1 - M2) recomputed from the matrix."""
        v = np.array([0.5, 0.5, -0.5, -0.5])
        return 2.0 * float(v @ self.cov @ v)


def spinflip_covariance_analytic(
    p_delta_f: float,
    p_delta_mf: float,
    p_delta_f_delta_mf: float,
    mu: float,
    photons: float,
    n0: float,
) -> SpinFlipCovariance:
    """Exact first-order pulse-pair covariances from the flip processes.

    Derived by counting, for each pulse pair (k, l), the probability that
    a single flip event makes an atom's measurement-frame contribution
    differ between a random time in pulse k and one in pulse l.  With
    a = (p/2) PdF, m = (p/2) PdmF, c = (p/2) Pboth per pulse and mu per
    composite pulse, the mean differ-probabilities are polynomial in the
    event windows; the resulting aggregates reproduce the published
    noise-model combinations exactly.
    """
    a = 0.5 * photons * p_delta_f
    m = 0.5 * photons * p_delta_mf
    c = 0.5 * photons * p_delta_f_delta_mf

    d = np.zeros((4, 4))
    for i in range(4):
        d[i, i] = (a + c) / 3.0
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

    cov = (n0 / 4.0) * (1.0 - 2.0 * d)

    flip_4var_meas = (
        (4.0 / 3.0) * photons * p_delta_f
        + 0.5 * photons * p_delta_mf
        + (1.0 / 3.0) * photons * p_delta_f_delta_mf
        + mu
    ) * n0
    proj_m1 = (
        1.0 - mu
        - (2.0 / 3.0) * photons * p_delta_f
        - 0.5 * photons * p_delta_mf
        - (2.0 / 3.0) * photons * p_delta_f_delta_mf
    ) * n0
    # 4 Var(M2) = N0 [1 - mu - 4a/3 - 10c/3 - 3m]: readout after the
    # scrambling accumulated during M1 sees slightly less projection noise
    proj_m2 = (1.0 - mu - 4.0 * a / 3.0 - 10.0 * c / 3.0 - 3.0 * m) * n0
    return SpinFlipCovariance(
        cov=cov,
        flip_term_4var_meas=flip_4var_meas,
        projection_term_4var_m1=proj_m1,
        projection_term_4var_m2=proj_m2,
    )


def coherent_error_bound(
    dphi_max: float, contrast_with_spinecho: float, n0: float
) -> float:
    """Upper bound on coherent composite-pulse errors, normalized to CSS noise."""
    if dphi_max < 0 or contrast_with_spinecho < 0 or n0 < 0:
        raise ValueError("inputs must be >= 0")
    return dphi_max**2 * contrast_with_spinecho**2 * n0
