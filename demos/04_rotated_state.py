"""Anti-squeezing: the conjugate quadrature after a conditional measurement.

Rotating the post-measurement state by an angle alpha about its mean
spin direction swings the readout between the squeezed Sz quadrature
and the back-action-broadened transverse one.  The rotation scenario
reports the measured sinusoid next to its model: the same statistic
read from the law each run draws its records from.
"""

import math

from qndspin.config import load_and_validate
from qndspin.montecarlo import scenario_rotation

angles = [0.0, 20.0, 45.0, 70.0, 90.0, 110.0, 135.0, 160.0, 180.0]
cfg = load_and_validate(overrides={"scenarios": {"rotation": {"angles_deg": angles}}})
(_, rows), = scenario_rotation(cfg, 2000, 400).values()
model = {round(math.degrees(alpha)): m for alpha, _, _, m in rows}

print(f"squeezed quadrature (model at 0 deg):       {model[0]:8.0f} atoms^2")
print(f"anti-squeezed quadrature (model at 90 deg): {model[90]:8.0f} atoms^2")
print(f"CSS reference:                              {cfg.n0 / 4:8.0f} atoms^2\n")

print(f"{'alpha/deg':>10} {'Var(S_alpha)':>14} {'model':>10}")
for deg, (_, est, _, m) in zip(angles, rows):
    print(f"{deg:10.0f} {est:14.0f} {m:10.0f}")

print("\nsqueezing Sz below the CSS line inflates S_perp far above it")
