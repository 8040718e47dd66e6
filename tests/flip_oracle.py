"""The exact pulse covariance of squeeze-readout: the flip engine's test oracle.

It composes measurement._flip_chain per atom, the one statement of the
flip physics, independently of the record law the engine draws from
(measurement._record_moments).  test_measurement, test_acceptance and
calibrate_engine import it.
"""

import numpy as np

from qndspin.measurement import _PULSES, _flip_chain


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
