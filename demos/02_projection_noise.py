"""Projection-noise scaling: the coherent-spin-state reference line.

Simulates the spin-noise scan against atom number: a single prepared
state read twice (y1 = 4 Var(M1)), two independent preparations
(y2 = 2 Var(M1 - M2)), and the conditional-measurement variance
2 Var(M1 - M2) for the squeezing configuration, which stays far below
the CSS line.  A quadratic fit separates the linear projection noise
from N0^2 technical noise.
"""

import numpy as np

from qndspin import (
    fit_quadratic_scaling,
    prepare_css,
    PreparationModel,
    run_trials,
    variance_stats,
)
from qndspin.config import load_and_validate

cfg = load_and_validate()   # shipped defaults = reference apparatus
trials = 1500
prep = PreparationModel(prep_noise_factor=1.0, quadratic_noise_a2=9e-6)

print(f"{'N0':>8} {'y1':>10} {'y2':>10} {'2Var(M1-M2)':>12} {'CSS':>8}")
grid = np.array([6e3, 1.2e4, 2e4, 3e4, 4e4, 5e4])
rows = []
for i, n0 in enumerate(grid):
    state = prepare_css(n0, prep)
    ts1 = run_trials("squeeze-readout", trials, 100 + 2 * i, state,
                     cfg.probe, cfg.rates, cfg.pulses, cfg.couplings)
    ts2 = run_trials("double-prep", trials, 101 + 2 * i, state,
                     cfg.probe, cfg.rates, cfg.pulses, cfg.couplings)
    r1, r2 = variance_stats(ts1), variance_stats(ts2)
    # y1 = 4 Var(M1); y2 = 2 Var(M1 - M2) = 4 var_meas of the double preparation
    rows.append((n0, 4 * r1.var_m1, 4 * r1.var_m1_se, 4 * r2.var_meas,
                 4 * r2.var_meas_se, 4 * r1.var_meas))
    print(f"{n0:8.0f} {rows[-1][1]:10.0f} {rows[-1][3]:10.0f} "
          f"{4 * r1.var_meas:12.0f} {n0:8.0f}")

arr = np.array(rows)
(a0, a1, a2), (se0, se1, se2) = fit_quadratic_scaling(arr[:, 0], arr[:, 1], arr[:, 2])
print(f"\nunconstrained quadratic fit of y1: a1 = {a1:.2f}({se1:.2f}), "
      f"a2 = {a2 * 1e6:.1f}({se2 * 1e6:.1f})e-6")
(a0c, _, a2c), (_, _, se2c) = fit_quadratic_scaling(
    arr[:, 0], arr[:, 1], arr[:, 2], constrain_a1=True
)
print(f"with a1 fixed to the CSS value 1: a2 = {a2c * 1e6:.1f}({se2c * 1e6:.1f})e-6")
print("\nthe squeezing-readout difference variance stays below the CSS line:")
print(f"  at N0 = {grid[-1]:.0f}: {arr[-1, 5]:.0f} atoms^2 vs CSS {grid[-1]:.0f}")
