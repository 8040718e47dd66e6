"""Stochastic simulation of the pulse-resolved measurement protocol.

Each measurement M_i of S_z consists of two probe pulses bracketing a
composite pi pulse; a full trial is two such measurements (squeeze and
readout) with an optional manipulation between them.  Pulse labels
follow the convention that the "+" pulses are the inner pair (second of
M_1, first of M_2: no microwaves between them) and the "-" pulses the
outer pair (two composite pulses between them).

Trials are simulated in blocks of _BLOCK as a state evolution over
arrays in the measurement frame, where a composite pulse leaves the
contribution of an atom that follows it unchanged.  Each trial holds
two classes of atoms: the responders, which follow the composite pulses
(imbalance z_R), and the atoms stopped by a dmF or dF+dmF Raman event
(imbalance z_S, count n_S).  Per pulse and flip kind (dF, dmF, dF+dmF)
each class draws its own Poisson event count, of mean lam * n / N0 for
its n atoms and capped at n: every atom scatters on its own, so the
total stays Poisson(lam) and n_S stays an atom count.  Each class's up
count among its hit atoms is a normal of the mean and variance of
drawing them without replacement against its current imbalance, so
every flip acts on the spin the ensemble holds, also after the
M_1 -> M_2 manipulation.  A flip at uniform fraction u of its pulse
weighs 1 - u in that pulse's average, and a trial's sum of n weights
is a normal of the Irwin-Hall mean n/2 and variance n/12.  Both normals
enter the records linearly, so every mean, variance and covariance of
the pulse records is kept.  Each composite pulse makes
Binomial(N0 - n_S, mu) responders fail and negates z_S.  Signs are drawn against the state at the start of each
(pulse, kind) step: exact to first order in the per-pulse flip
fractions eps = (p/2) P_x, with a second-order bias that the
p * P_Ram <= 0.1 validity guard keeps small.  Detector noise acts on
the photocounts of the probe and compensation channels and passes
through the Lorentzian inversion.

Block b draws from its own stream, PCG64DXSM seeded with the pair
(master_seed, b) through SeedSequence (O'Neill 2014), so results are
bitwise reproducible and a block's trials do not depend on how many
follow it.  A step draws a fixed number of values per trial, so block
memory does not grow with the event count, and 2048-trial blocks spread
the fixed cost of each library call thinly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cavity import CouplingSummary, inverse_transmission, lorentzian_transmission
from .scattering import ScatteringRates
from .spinstate import GaussianSpinState, PulseModel

_PULSES = 4
_BLOCK = 2048
# probe detuning from its mode in units of kappa; the compensation
# channel sits at -_PROBE_OFFSET, on the opposite slope of its mode
_PROBE_OFFSET = 0.5
# measurement-frame sign of each pulse: M_k = s_k * omega_k / (2 domega/dN)
_PULSE_SIGNS = np.array([-1.0, +1.0, +1.0, -1.0])
# Raman flip kinds dF, dmF, dF+dmF (the flip_counts columns):
# (flips the atom, stops it following the composite pulses)
_KINDS = ((True, False), (False, True), (True, True))

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
    quantum_efficiency: float
    apd_excess_factor: float
    electronic_noise_b2: float          # b_-2, atom^2 photon^2 units
    technical_noise_fraction: float     # b_0,tech / N0
    technical_correlation: float        # between M_1 and M_2 (sensitivity knob)
    switches: NoiseSwitches

    def __post_init__(self):
        if self.photons_per_measurement < 0:
            raise ValueError("photon number must be >= 0")
        if not 0.0 < self.quantum_efficiency <= 1.0:
            raise ValueError("quantum efficiency must lie in (0, 1]")
        if self.apd_excess_factor < 1.0:
            raise ValueError("APD excess factor must be >= 1")
        if not -1.0 <= self.technical_correlation <= 1.0:
            raise ValueError("technical correlation must lie in [-1, 1]")


@dataclass(frozen=True)
class SequencePlan:
    """Named experiment scenario with its manipulation between M_1 and M_2."""

    scenario: str = "squeeze-readout"
    rotation_angle: float = 0.0         # rotate-alpha: angle about <S>
    precession_phase: float = 0.0       # ramsey-clock: deterministic phase
    phase_noise_rms: float = 0.0        # ramsey-clock: shot-to-shot phase noise

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
    def m1(self):
        return 0.5 * (self.pulses[:, 1] + self.pulses[:, 0])

    @property
    def m2(self):
        return 0.5 * (self.pulses[:, 2] + self.pulses[:, 3])


def electronic_count_sigma(probe: ProbeConfig, domega_dn: float) -> float:
    """Per-channel, per-pulse count noise that yields the configured b_-2."""
    return (
        probe.quantum_efficiency * abs(domega_dn)
        * math.sqrt(probe.electronic_noise_b2)
    )


def simulate_probe_pulse(
    true_shift,
    photons: float,
    probe: ProbeConfig,
    rng: np.random.Generator,
    probe_share: float = 1.0,
    electronic_sigma: float = 0.0,
):
    """Measure probe pulses: counts on both detection channels -> shifts.

    `true_shift` is the atom-induced differential shift of each pulse in
    kappa units, a scalar or an array of any shape.  `photons` is the
    transmitted photon number per pulse at the operating point.  Returns
    (inferred shifts in kappa units, saturated flags), shaped like
    `true_shift`.
    """
    if photons < 0:
        raise ValueError("photon number must be >= 0")
    offset = _PROBE_OFFSET
    # detected counts per unit transmission: Q_e times the input flux
    scale = probe.quantum_efficiency * photons / float(
        lorentzian_transmission(offset, 1.0)
    )
    shift = np.asarray(true_shift, dtype=float)

    n_p = scale * lorentzian_transmission(offset - probe_share * shift, 1.0)
    n_c = scale * lorentzian_transmission(-offset + (1.0 - probe_share) * shift, 1.0)
    if probe.switches.shot and photons > 0:
        n_p = rng.normal(n_p, np.sqrt(probe.apd_excess_factor * n_p))
        n_c = rng.normal(n_c, np.sqrt(probe.apd_excess_factor * n_c))
    if probe.switches.electronic and electronic_sigma > 0:
        n_p = n_p + rng.normal(0.0, electronic_sigma, shift.shape)
        n_c = n_c + rng.normal(0.0, electronic_sigma, shift.shape)

    t_hat_p = np.asarray(n_p) / scale
    t_hat_c = np.asarray(n_c) / scale
    saturated = ~((0.0 < t_hat_p) & (t_hat_p <= 1.0)
                  & (0.0 < t_hat_c) & (t_hat_c <= 1.0))
    t_hat_p = np.clip(t_hat_p, 1e-12, 1.0)
    t_hat_c = np.clip(t_hat_c, 1e-12, 1.0)

    w_probe = offset - inverse_transmission(t_hat_p, 1.0, "upper-slope")
    w_comp = inverse_transmission(t_hat_c, 1.0, "upper-slope") + (-offset)
    # [()] hands a scalar input back as scalars, an array input as arrays
    return (w_probe - w_comp)[()], saturated[()]


# ---------------------------------------------------------------------------
# block state evolution
# ---------------------------------------------------------------------------

def _draw_up(rng: np.random.Generator, n, z, k):
    """Up atoms among k drawn without replacement from n atoms of imbalance z.

    A normal of the hypergeometric's mean k q and variance
    k q (1 - q) (n - k) / (n - 1), q = rint(n/2 + z) / n; exact where certain.
    """
    n_up = np.clip(np.rint(0.5 * n + z), 0, n)
    mean = k * n_up / np.maximum(n, 1)
    var = mean * (1.0 - n_up / np.maximum(n, 1)) * (n - k) / np.maximum(n - 1, 1)
    return mean + np.sqrt(var) * rng.standard_normal(np.shape(k))


def _flip_average(rng: np.random.Generator, up, n):
    """Change of each trial's pulse-averaged imbalance from n flips, `up` of up atoms.

    A flip at uniform fraction u of the pulse changes the imbalance by
    -1 (up atom) or +1 (down atom) for the remaining 1 - u of it.  As
    1 - u is itself uniform, the change is a sum of n uniforms, drawn as
    a normal of its mean n/2 and variance n/12, minus `up`.
    """
    return 0.5 * n + np.sqrt(n / 12.0) * rng.standard_normal(n.shape) - up


def _simulate_block(rng, b, plan, state, probe, lam, mu, couplings):
    """Pulses (b, 4), true S_z after M_1, flip counts (b, 3), saturated flags."""
    n0 = max(int(round(state.n0)), 1)
    sd_z = math.sqrt(state.var_z)
    z_r = rng.normal(0.0, sd_z, b)
    z_s = np.zeros(b)
    n_s = np.zeros(b, dtype=np.int64)
    avg = np.empty((b, _PULSES))
    counts = np.zeros((b, len(_KINDS)), dtype=np.int64)

    for k in range(_PULSES):
        if k == 2:  # the M_1 -> M_2 manipulation
            szf = z_r + z_s
            if plan.scenario == "double-prep":
                z_r = rng.normal(0.0, sd_z, b)
                z_s = np.zeros(b)
                n_s = np.zeros(b, dtype=np.int64)
            else:
                carry = plan.carryover()
                z_r, z_s = carry * z_r, carry * z_s
                if plan.scenario == "rotate-alpha":
                    y = rng.normal(0.0, math.sqrt(state.var_y), b)
                    z_r += y * math.sin(plan.rotation_angle)
                elif plan.scenario == "ramsey-clock" and plan.phase_noise_rms > 0:
                    z_r += state.mean_length * rng.normal(0.0, plan.phase_noise_rms, b)
        avg[:, k] = z_r + z_s

        for j, (flips, stops) in enumerate(_KINDS):
            if lam[j] <= 0.0:
                continue
            k_r = np.minimum(rng.poisson(lam[j] * (n0 - n_s) / n0), n0 - n_s)
            k_s = (np.minimum(rng.poisson(lam[j] * n_s / n0), n_s) if n_s.any()
                   else np.zeros_like(k_r))
            n_ev = k_r + k_s
            counts[:, j] += n_ev
            up = _draw_up(rng, np.concatenate((n0 - n_s, n_s)),
                          np.concatenate((z_r, z_s)), np.concatenate((k_r, k_s)))
            up_r, up_s = up[:b], up[b:]
            # summed pre-event contribution (+-1/2 per atom) of the hit responders
            h_r = up_r - 0.5 * k_r
            if flips:
                avg[:, k] += _flip_average(rng, up_r + up_s, n_ev)
                z_s -= 2.0 * up_s - k_s
            if stops:  # the hit responders join the stopped atoms
                z_r -= h_r
                z_s += -h_r if flips else h_r
                n_s = n_s + k_r
            else:
                z_r -= 2.0 * h_r

        if k in (0, 2):  # composite pulse
            if mu > 0.0:
                n_fail = rng.binomial(n0 - n_s, mu)
                z_r -= 2.0 * _draw_up(rng, n0 - n_s, z_r, n_fail) - n_fail
            z_s = -z_s

    domega_dn = couplings.domega_dn
    sigma_e = (
        electronic_count_sigma(probe, domega_dn)
        if probe.switches.electronic
        else 0.0
    )
    omega_hat, sat = simulate_probe_pulse(
        2.0 * domega_dn * _PULSE_SIGNS * avg, probe.photons_per_measurement / 2.0,
        probe, rng, couplings.probe_signal_share, sigma_e,
    )
    m = _PULSE_SIGNS * omega_hat / (2.0 * domega_dn)

    if probe.switches.technical and probe.technical_noise_fraction > 0:
        sigma_t = math.sqrt(probe.technical_noise_fraction * state.n0) / 2.0
        rho = probe.technical_correlation
        t1 = rng.normal(0.0, sigma_t, b)
        t2 = rho * t1 + math.sqrt(max(1 - rho**2, 0.0)) * rng.normal(0.0, sigma_t, b)
        m[:, :2] += t1[:, None]
        m[:, 2:] += t2[:, None]
    return m, szf, counts, sat.any(axis=1)


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
    """Run independent trials, _BLOCK at a time, one PCG64DXSM stream per block.

    Results are bitwise reproducible: block b (trials b*_BLOCK onwards)
    always consumes the stream seeded with (master_seed, b), whatever
    the trial count.  master_seed is any non-negative int.
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials for any variance estimate")
    if rates is not None and probe.photons_per_measurement * rates.p_raman_total > 0.1:
        raise ValueError("p * P_Ram > 0.1: first-order flip sampling invalid")
    plan = SequencePlan(scenario) if isinstance(scenario, str) else scenario
    raman_on = probe.switches.raman and rates is not None
    scale = state.n0 * probe.photons_per_measurement / 2.0
    lam = (
        [scale * rates.p_delta_f, scale * rates.p_delta_mf,
         scale * rates.p_delta_f_delta_mf]
        if raman_on else [0.0] * len(_KINDS)
    )
    mu = pulses.mu_total if probe.switches.microwave else 0.0

    out = (np.empty((n_trials, _PULSES)), np.empty(n_trials),
           np.empty((n_trials, len(_KINDS)), dtype=np.int64),
           np.empty(n_trials, dtype=bool))
    for block, lo in enumerate(range(0, n_trials, _BLOCK)):
        rng = np.random.Generator(np.random.PCG64DXSM([master_seed, block]))
        b = min(_BLOCK, n_trials - lo)
        parts = _simulate_block(rng, b, plan, state, probe, lam, mu, couplings)
        for arr, part in zip(out, parts):
            arr[lo:lo + b] = part
    # out holds pulses, true_szf, flip_counts and saturated, in field order
    return TrialSet(master_seed, plan.scenario, state.n0, *out)


# ---------------------------------------------------------------------------
# first-order analytics
# ---------------------------------------------------------------------------

def spinflip_covariance_analytic(
    p_delta_f: float,
    p_delta_mf: float,
    p_delta_f_delta_mf: float,
    mu: float,
    photons: float,
    n0: float,
) -> np.ndarray:
    """Exact first-order 4x4 covariance of the pulse values (M1-, M1+, M2+, M2-).

    In spin^2 units; the diagonal of an undisturbed ensemble is N0/4.
    Derived by counting, for each pulse pair (k, l), the probability that
    a single flip event makes an atom's measurement-frame contribution
    differ between a random time in pulse k and one in pulse l.  With
    a = (p/2) PdF, m = (p/2) PdmF, c = (p/2) Pboth per pulse and mu per
    composite pulse, the mean differ-probabilities are polynomial in the
    event windows.  The noise-model combinations are quadratic forms
    w^T C w of the result: 4 Var(M1) with w = (1, 1, 0, 0), 4 Var(M2)
    with w = (0, 0, 1, 1), and 2 Var(M1 - M2), the flip term
    (b1 p + mu N0), with w = (1, 1, -1, -1) / sqrt(2).
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

    return (n0 / 4.0) * (1.0 - 2.0 * d)
