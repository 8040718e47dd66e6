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
    variance_stats,
)
from qndspin.config import load_and_validate
from qndspin.measurement import run_scan

cfg = load_and_validate()   # shipped defaults = reference apparatus
trials = 1500
prep = PreparationModel(prep_noise_factor=1.0, quadratic_noise_a2=9e-6)

print(f"{'N0':>8} {'y1':>10} {'y2':>10} {'2Var(M1-M2)':>12} {'CSS':>8}")
grid = np.array([6e3, 1.2e4, 2e4, 3e4, 4e4, 5e4])
# the whole grid in one scan: squeeze-readout (seed 100 + 2i) at even
# points, double-prep (seed 101 + 2i) at odd ones
points = [(plan, prepare_css(n0, prep), cfg.probe, 100 + 2 * i + k)
          for i, n0 in enumerate(grid)
          for k, plan in enumerate(("squeeze-readout", "double-prep"))]
rep = variance_stats(run_scan(points, trials, cfg.rates, cfg.pulses, cfg.couplings))
# y1 = 4 Var(M1); y2 = 2 Var(M1 - M2) = 4 var_meas of the double preparation
arr = np.column_stack([grid, 4 * rep.var_m1[::2], 4 * rep.var_m1_se[::2],
                       4 * rep.var_meas[1::2], 4 * rep.var_meas_se[1::2],
                       4 * rep.var_meas[::2]])
for n0, y1, _, y2, _, meas in arr:
    print(f"{n0:8.0f} {y1:10.0f} {y2:10.0f} {meas:12.0f} {n0:8.0f}")

(a0, a1, a2), (se0, se1, se2) = fit_quadratic_scaling(arr[:, 0], arr[:, 1], arr[:, 2])
print(f"\nunconstrained quadratic fit of y1: a1 = {a1:.2f}({se1:.2f}), "
      f"a2 = {a2 * 1e6:.1f}({se2 * 1e6:.1f})e-6")
(a0c, _, a2c), (_, _, se2c) = fit_quadratic_scaling(
    arr[:, 0], arr[:, 1], arr[:, 2], constrain_a1=True
)
print(f"with a1 fixed to the CSS value 1: a2 = {a2c * 1e6:.1f}({se2c * 1e6:.1f})e-6")
print("\nthe squeezing-readout difference variance stays below the CSS line:")
print(f"  at N0 = {grid[-1]:.0f}: {arr[-1, 5]:.0f} atoms^2 vs CSS {grid[-1]:.0f}")
