"""Projection-noise scaling: the coherent-spin-state reference line.

Runs the fig2 scenario, the spin-noise scan against atom number: a
single prepared state read twice (y1 = 4 Var(M1)), two independent
preparations (y2 = 2 Var(M1 - M2)), and the conditional-measurement
variance 2 Var(M1 - M2) for the squeezing configuration, which stays far
below the CSS line.  A quadratic fit separates the linear projection
noise from N0^2 technical noise.
"""

from qndspin.config import load_and_validate
from qndspin.montecarlo import scenario_fig2

# shipped defaults = reference apparatus, every atom in the double preparation
cfg = load_and_validate(
    overrides={"scenarios": {"fig2": {"preparation": {"impurity_fraction": 0.0}}}})
out = scenario_fig2(cfg, 1500, 100)
_, rows = out["fig2.csv"]
fits = out["fig2_fits.json"]["y1"]

print(f"{'N0':>8} {'y1':>10} {'y2':>10} {'2Var(M1-M2)':>12} {'CSS':>8}")
for n0, y1, _, y2, _, meas, _, css in rows:
    print(f"{n0:8.0f} {y1:10.0f} {y2:10.0f} {meas:12.0f} {css:8.0f}")

free, fixed = fits["unconstrained"], fits["a1_fixed"]
print(f"\nunconstrained quadratic fit of y1: a1 = {free['a1']:.2f}({free['se'][1]:.2f}),"
      f" a2 = {free['a2'] * 1e6:.1f}({free['se'][2] * 1e6:.1f})e-6")
print(f"with a1 fixed to the CSS value 1: a2 = {fixed['a2'] * 1e6:.1f}"
      f"({fixed['se'][2] * 1e6:.1f})e-6")
print("\nthe squeezing-readout difference variance stays below the CSS line:")
n0, meas = rows[-1][0], rows[-1][5]
print(f"  at N0 = {n0:.0f}: {meas:.0f} atoms^2 vs CSS {n0:.0f}")
