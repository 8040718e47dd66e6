"""Stochastic simulation of the pulse-resolved measurement protocol.

Each measurement M_i of S_z consists of two probe pulses bracketing a
composite pi pulse; a full trial is two such measurements (squeeze and
readout) with an optional manipulation between them.  Pulse labels
follow the convention that the "+" pulses are the inner pair (second of
M_1, first of M_2: no microwaves between them) and the "-" pulses the
outer pair (two composite pulses between them).

Raman flips act on each atom on its own, as a Markov chain over
(+, -) x (responder R, stopped S) in the measurement frame, where a
composite pulse leaves a responder's contribution unchanged and negates
a stopped atom's.  The Van Loan exponential of its per-pulse generator
(_flip_chain) gives both the exact pulse covariance
(spinflip_covariance_exact) and the moments the trial engine draws from.

A trial is linear-Gaussian in its counts x = (+R, -R, +S, -S): the
initial imbalance is a normal, each pulse maps x linearly and adds a
normal whose covariance follows from the expected counts, and the
M_1 -> M_2 manipulation is linear plus a normal.  So a trial's four
pulse averages and S_z after M_1 are jointly normal.  _record_moments
propagates one point's mean and covariance, exact at any flip rate, and
a block draws them as one (b, rank) @ (rank, 5) product of standard
normals with a factor of that covariance; _record_law builds both for
every point once per distinct scan, since no seed enters, and is the
engine's only cache.  The TrialSet hands the covariance back, read-only,
so a scenario's model column reads the law its trials were drawn from,
not a second model.  Detector noise acts on the photocounts of the
probe and compensation channels and passes through the Lorentzian
inversion; shot and electronic noise are independent normals, so each
channel draws one normal of their summed variance.  Noise is drawn as
loc + scale * z on standard normals.

run_scan runs a scan's points (plan, state, probe, seed) together into
one TrialSet with a leading point axis, which the estimators read at
once; run_trials is one point.  Block b of a point draws from its own
stream, PCG64DXSM seeded with (seed, b) through SeedSequence (O'Neill
2014), in one call, so results are bitwise reproducible and do not
depend on the trial count or on the rest of the scan.  Whole blocks
are packed into passes of at most _BLOCK = 2048 rows, each detected in
one call on pulse-major (pulse, trial) arrays, so that elementwise steps
run over contiguous trials; a pass's memory grows neither with the flip
rate nor with the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cavity import CouplingSummary, inverse_transmission, lorentzian_transmission
from .config import ProbeConfig
from .scattering import ScatteringRates
from .spinstate import GaussianSpinState, PulseModel

_PULSES = 4
_BLOCK = 2048
# probe detuning from its mode in units of kappa; the compensation
# channel sits at -_PROBE_OFFSET, on the opposite slope of its mode
_PROBE_OFFSET = 0.5
# measurement-frame sign of each pulse: M_k = s_k * omega_k / (2 domega/dN)
_PULSE_SIGNS = np.array([[-1.0], [+1.0], [+1.0], [-1.0]])

SCENARIOS = ("squeeze-readout", "double-prep", "rotate-alpha", "ramsey-clock")


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


@dataclass(frozen=True)
class TrialSet:
    """Per-trial measurement records of one point, or of a scan's points (G, ...)."""

    pulses: np.ndarray        # (..., n, 4): M1-, M1+, M2+, M2-  (time order)
    true_szf: np.ndarray      # (..., n)
    saturated: np.ndarray     # (..., n) bool
    record_cov: np.ndarray    # (..., 5, 5) Cov of (a_0..a_3, true_szf) before detection

    def __post_init__(self):
        if self.n_trials < 2:
            raise ValueError("a trial set needs at least 2 trials")

    @property
    def n_trials(self) -> int:
        return self.pulses.shape[-2]

    @property
    def m1(self):
        return 0.5 * (self.pulses[..., 1] + self.pulses[..., 0])

    @property
    def m2(self):
        return 0.5 * (self.pulses[..., 2] + self.pulses[..., 3])


def simulate_probe_pulse(
    true_shift,
    photons,
    probe: ProbeConfig,
    normals,
    probe_share: float = 1.0,
    electronic_sigma: float = 0.0,
):
    """Measure probe pulses: counts on both detection channels -> shifts.

    `true_shift` is the atom-induced differential shift of each pulse in
    kappa units, a scalar or an array of any shape.  `photons` is the
    transmitted photon number per pulse at the operating point, a scalar
    or an array that broadcasts against `true_shift` (one per row of a
    scan's pass).  `normals` holds one standard normal per detection
    channel and pulse, shaped (2, *shape): probe, then compensation.
    Returns (inferred shifts in kappa units, saturated flags), shaped
    like `true_shift`.
    """
    if np.any(np.asarray(photons) < 0):
        raise ValueError("photon number must be >= 0")
    offset = _PROBE_OFFSET
    # detected counts per unit transmission: Q_e times the input flux
    scale = probe.quantum_efficiency * photons / float(
        lorentzian_transmission(offset, 1.0)
    )
    shift = np.asarray(true_shift, dtype=float)

    n_p = scale * lorentzian_transmission(offset - probe_share * shift, 1.0)
    n_c = scale * lorentzian_transmission(-offset + (1.0 - probe_share) * shift, 1.0)
    # shot and electronic noise are independent normals, so their sum is
    # one normal of variance f n + sigma_e^2 on each channel
    f = probe.apd_excess_factor if probe.switches.shot else 0.0
    e2 = electronic_sigma**2 if probe.switches.electronic else 0.0
    n_p = n_p + np.sqrt(f * n_p + e2) * normals[0]
    n_c = n_c + np.sqrt(f * n_c + e2) * normals[1]

    t_hat_p = np.asarray(n_p) / scale
    t_hat_c = np.asarray(n_c) / scale
    saturated = ~((0.0 < t_hat_p) & (t_hat_p <= 1.0)
                  & (0.0 < t_hat_c) & (t_hat_c <= 1.0))
    t_hat_p = np.clip(t_hat_p, 1e-12, 1.0)
    t_hat_c = np.clip(t_hat_c, 1e-12, 1.0)

    w_probe = offset - inverse_transmission(t_hat_p, 1.0)
    w_comp = inverse_transmission(t_hat_c, 1.0) + (-offset)
    # [()] hands a scalar input back as scalars, an array input as arrays
    return (w_probe - w_comp)[()], saturated[()]


# ---------------------------------------------------------------------------
# the Raman flip chain of one atom
# ---------------------------------------------------------------------------

def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a 20-term Taylor series (a may be defective)."""
    squarings = max(0, math.ceil(math.log2(np.abs(a).sum(axis=1).max())) + 1)
    out = term = np.eye(len(a))
    for k in range(1, 21):
        term = term @ a / (k * 2.0**squarings)
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _flip_chain(a: float, m: float, c: float, mu: float):
    """One atom's Markov chain over a probe pulse and over a composite pulse.

    States (+R, -R, +S, -S): the sign of the atom's contribution +-1/2 to
    S_z in the measurement frame, and whether it follows the composite
    pulses (responder R) or was stopped (S).  Per pulse (time scaled to
    1) dF flips a responder at rate a, dmF stops it at rate m and dF+dmF
    does both at rate c; a stopped atom flips at rate a + c.  With Q that
    generator and R = diag(+-1/2), exp([[Q, R, 0], [0, Q, R], [0, 0, Q]])
    (Van Loan 1978) holds T = e^Q, F1[i, j] = E[I 1{end j} | start i] for
    the atom's pulse average I, and F2 with E[I^2 1{end j} | i] = 2 F2[i, j].
    A composite pulse negates a stopped atom, and a responder with
    probability mu.  Returns (T, F1, F2, composite), indexed [start, end].
    """
    big = np.zeros((12, 12))
    q = big[:4, :4]
    q[:] = [[0.0, a, m, c], [a, 0.0, c, m],
            [0.0, 0.0, 0.0, a + c], [0.0, 0.0, a + c, 0.0]]
    q[range(4), range(4)] = -q.sum(axis=1)
    big[4:8, 4:8] = big[8:, 8:] = q
    big[range(8), range(4, 12)] = [0.5, -0.5] * 4  # R on both upper blocks
    big = _expm(big)
    composite = np.array([[1.0 - mu, mu, 0.0, 0.0], [mu, 1.0 - mu, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
    return big[:4, :4], big[:4, 4:8], big[:4, 8:], composite


def spinflip_covariance_exact(
    p_delta_f: float,
    p_delta_mf: float,
    p_delta_f_delta_mf: float,
    mu: float,
    photons: float,
    n0: float,
) -> np.ndarray:
    """Exact 4x4 covariance of the pulse values (M1-, M1+, M2+, M2-).

    Squeeze-readout of a coherent spin state, in spin^2 units (diagonal
    N0/4 undisturbed), to all orders in the flip fractions (p/2) P_x per
    pulse and mu per composite pulse: N0 times one atom's covariance of
    its pulse averages, chained through _flip_chain from a uniform sign.
    Quadratic forms w^T C w give 4 Var(M1) for w = (1, 1, 0, 0), 4 Var(M2)
    for w = (0, 0, 1, 1), and 2 Var(M1 - M2), whose first order is the
    flip term b1 p + mu N0, for w = (1, 1, -1, -1) / sqrt(2).
    """
    flips = (0.5 * photons * x for x in (p_delta_f, p_delta_mf, p_delta_f_delta_mf))
    t, f1, f2, composite = _flip_chain(*flips, mu)
    after = (composite, np.eye(4), composite)  # from pulse k to pulse k + 1
    f1_sum = f1.sum(axis=1)
    mean = np.empty(_PULSES)
    second = np.empty((_PULSES, _PULSES))
    start = np.array([0.5, 0.5, 0.0, 0.0])
    for k in range(_PULSES):
        mean[k] = start @ f1_sum
        second[k, k] = 2.0 * start @ f2.sum(axis=1)
        joint = start @ f1  # E[I_k 1{state}] at the end of pulse k
        for j in range(k + 1, _PULSES):
            joint = joint @ after[j - 1]
            second[k, j] = second[j, k] = joint @ f1_sum
            joint = joint @ t
        if k < len(after):
            start = start @ t @ after[k]
    return n0 * (second - np.outer(mean, mean))


# ---------------------------------------------------------------------------
# the records' moments and the block sampler
# ---------------------------------------------------------------------------

def _record_moments(plan, state, flips, mu):
    """Mean (5,) and covariance (5, 5) of one point's (a_0..a_3, S_z after M_1).

    Carries the covariance of v = (x, a_0..a_3, szf), x the counts (+R, -R,
    +S, -S), through linear maps v -> v a plus independent normals, with
    flips (a, m, c) and mu as in _flip_chain.  Pulse k maps x to x e^Q and
    sets a_k = x (F1 1), plus a normal with one atom's 5x5 covariance of
    (end state, pulse average) summed over the expected counts E[x_j].  A
    composite pulse maps x linearly, and its failures move a normal of
    variance E[n_R] mu (1 - mu) from +R to -R.  The manipulation only
    rescales or redraws imbalances, whose mean is zero, so it leaves E[x]
    alone.  By the law of total covariance and the Markov property every
    moment is exact at any rate.
    """
    t, f1, f2, composite = _flip_chain(*flips, mu)
    move = np.hstack((t, f1.sum(axis=1, keepdims=True)))  # [e^Q | F1 1]
    atom = np.zeros((4, 5, 5))  # per start state: Cov of (end state, average)
    atom[:, range(4), range(4)] = t
    atom[:, :4, 4] = atom[:, 4, :4] = f1
    atom[:, 4, 4] = 2.0 * f2.sum(axis=1)
    atom = (atom - move[:, :, None] * move[:, None, :]).reshape(4, 25)
    composite_map = np.eye(9)
    composite_map[:4, :4] = composite
    imbalance = np.zeros((9, 9))  # unit variance of the responders' imbalance
    imbalance[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    css = np.array([[0.5, 0.5, 0.0, 0.0]]) * state.n0
    mean, cov, counts = np.zeros(5), state.var_z * imbalance, css  # (1, 4) rows
    for k in range(_PULSES):
        if k == 2:  # read S_z, then the M_1 -> M_2 manipulation
            a, kick, carry = np.eye(9), 0.0, 1.0
            a[:4, 8] = [0.5, -0.5, 0.5, -0.5]
            mean[4] = (counts @ a[:4, 8:])[0, 0]
            # carry: multiplier on the M_1-era imbalance carried into M_2
            if plan.scenario == "double-prep":
                a[:4, :4], kick, counts = 0.0, state.var_z, css
            elif plan.scenario == "rotate-alpha":
                carry = math.cos(plan.rotation_angle)
                kick = state.var_y * math.sin(plan.rotation_angle) ** 2
            elif plan.scenario == "ramsey-clock":
                carry = -math.cos(plan.precession_phase)
                kick = (state.mean_length * plan.phase_noise_rms) ** 2
            for i in (0, 2):  # each class's imbalance times the carry-over
                a[i:i + 2, i:i + 2] += 0.5 * (carry - 1.0) * imbalance[:2, :2]
            cov = a.T @ cov @ a + kick * imbalance
        a, noise = np.eye(9), np.zeros((9, 9))
        out = [0, 1, 2, 3, 4 + k]  # the entries of v that pulse k writes
        a[:4, out] = move
        noise[np.ix_(out, out)] = (counts @ atom).reshape(5, 5)
        cov = a.T @ cov @ a + noise
        mean[k] = (counts @ move[:, 4:])[0, 0]
        counts = counts @ t
        if k in (0, 2):  # the composite pulse after it
            fail = counts[0, :2].sum() * mu * (1.0 - mu)
            cov = composite_map.T @ cov @ composite_map + fail * imbalance
            counts = counts @ composite
    return mean, cov[4:, 4:]


@functools.lru_cache(maxsize=64)
def _record_law(plans, states, flips, mus):
    """Each point's record mean, covariance and (rank, 5) factor, read-only.

    run_scan's seed-free part and the engine's only cache: built once per
    distinct scan, one _record_moments per point, and shared by every run
    of it; bounded, since every scan a process runs adds one."""
    means, covs = map(np.array, zip(*map(_record_moments, plans, states, flips, mus)))
    # a (rank, 5) factor of each cov; eigenvalues at rounding level are
    # dropped, so a rank-deficient record law stays exact
    w, vec = np.linalg.eigh(covs)
    keep = w > 5.0 * np.finfo(float).eps * w.max(axis=1, keepdims=True)
    factors = tuple(np.sqrt(w_i[k])[:, None] * vec_i[:, k].T
                    for w_i, vec_i, k in zip(w, vec, keep))
    for arr in (means, covs, *factors):
        arr.flags.writeable = False
    return means, covs, factors


def run_scan(points, n_trials, rates, pulses, couplings) -> TrialSet:
    """Run n_trials trials at each point (plan, state, probe, seed) of a scan.

    Returns one TrialSet over (G, n_trials) whose point i is bitwise equal
    to that point run alone: block b (trials b*_BLOCK onwards) of a point
    always draws from the stream seeded (seed, b), seed any non-negative
    int.  A scan run again only draws and detects, its law cached in
    _record_law; each pass of at most _BLOCK rows runs detection and
    technical noise once.
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials for any variance estimate")
    plans = tuple(SequencePlan(p) if isinstance(p, str) else p for p, *_ in points)
    _, states, probes, seeds = zip(*points)
    flips = tuple(tuple(0.5 * pr.photons_per_measurement * x for x in (
        rates.p_delta_f, rates.p_delta_mf, rates.p_delta_f_delta_mf))
        if pr.switches.raman else (0.0, 0.0, 0.0) for pr in probes)
    mus = tuple(pulses.mu_total if pr.switches.microwave else 0.0 for pr in probes)
    means, covs, factors = _record_law(plans, states, flips, mus)

    # the scan's trials as columns, point i's at i * n_trials onwards, so
    # every elementwise step of a pass runs over contiguous trials
    n_rows = len(points) * n_trials
    pulses_out, szf, saturated = (np.empty((_PULSES, n_rows)), np.empty(n_rows),
                                  np.empty(n_rows, dtype=bool))
    p_half = np.array([pr.photons_per_measurement for pr in probes]) / 2.0
    n0 = np.array([s.n0 for s in states])
    # a pass: whole blocks (point, block, first row, size) in order, at
    # most _BLOCK rows, all of one detector
    keys = [replace(pr, photons_per_measurement=0.0) for pr in probes]
    passes, rows = [], _BLOCK
    for i in range(len(points)):
        for block, lo in enumerate(range(0, n_trials, _BLOCK)):
            b = min(_BLOCK, n_trials - lo)
            if rows + b > _BLOCK or keys[i] != keys[passes[-1][0][0]]:
                passes.append([])
                rows = 0
            passes[-1].append((i, block, i * n_trials + lo, b))
            rows += b

    domega_dn = couplings.domega_dn
    for batch in passes:
        probe, lo, hi = probes[batch[0][0]], batch[0][2], batch[-1][2] + batch[-1][3]
        v, normals, tech = (np.empty((hi - lo, 5)), np.empty((2, _PULSES, hi - lo)),
                            np.empty((2, hi - lo)))
        for i, block, row, b in batch:
            # a trial draws its record's rank, one normal per detection
            # channel and pulse (its own, copied transposed), and two technical
            rank, r = len(factors[i]), row - lo
            z = np.random.Generator(np.random.PCG64DXSM([seeds[i], block])
                                    ).standard_normal(b * (rank + 10))
            v[r:r + b] = means[i] + z[:b * rank].reshape(b, rank) @ factors[i]
            normals[:, :, r:r + b] = z[b * rank:b * (rank + 8)].reshape(
                2, b, _PULSES).transpose(0, 2, 1)
            tech[:, r:r + b] = z[b * (rank + 8):].reshape(2, b)
        point = np.arange(lo, hi) // n_trials  # the point of each row
        # per-channel, per-pulse count noise that yields the configured b_-2
        sigma_e = (probe.quantum_efficiency * abs(domega_dn)
                   * math.sqrt(probe.electronic_noise_b2))
        omega_hat, sat = simulate_probe_pulse(
            2.0 * domega_dn * _PULSE_SIGNS * v[:, :4].T, p_half[point], probe,
            normals, couplings.probe_signal_share, sigma_e)
        m = _PULSE_SIGNS * omega_hat / (2.0 * domega_dn)
        if probe.switches.technical:
            sigma_t = np.sqrt(probe.technical_noise_fraction * n0[point]) / 2.0
            rho = probe.technical_correlation
            t1 = sigma_t * tech[0]
            t2 = rho * t1 + math.sqrt(max(1 - rho**2, 0.0)) * (sigma_t * tech[1])
            m[:2] += t1
            m[2:] += t2
        pulses_out[:, lo:hi], szf[lo:hi], saturated[lo:hi] = m, v[:, 4], sat.any(axis=0)
    return TrialSet(pulses_out.reshape(_PULSES, -1, n_trials).transpose(1, 2, 0),
                    szf.reshape(-1, n_trials), saturated.reshape(-1, n_trials), covs)


def run_trials(scenario: SequencePlan | str, n_trials: int, master_seed: int,
               state: GaussianSpinState, probe: ProbeConfig, rates: ScatteringRates,
               pulses: PulseModel, couplings: CouplingSummary) -> TrialSet:
    """Run independent trials at one point: run_scan of that point alone."""
    scan = run_scan([(scenario, state, probe, master_seed)], n_trials, rates,
                    pulses, couplings)
    return TrialSet(scan.pulses[0], scan.true_szf[0], scan.saturated[0],
                    scan.record_cov[0])
