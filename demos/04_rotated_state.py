"""Anti-squeezing: the conjugate quadrature after a conditional measurement.

Rotating the post-measurement state by an angle alpha about its mean
spin direction swings the readout between the squeezed Sz quadrature
and the back-action-broadened transverse one.  The measured sinusoid is
compared against the parameter-free covariance-rotation model.
"""

import math
from dataclasses import replace

from qndspin import (
    condition_on_measurement,
    measurement_backaction,
    prepare_css,
    PreparationModel,
    residual_variance,
    rotate,
    run_trials,
    SequencePlan,
    variance_stats,
)
from qndspin.config import load_and_validate
from qndspin.scenarios import noise_budget_from_config

cfg = load_and_validate()
n0 = cfg.n0
p = 3e5
probe = replace(cfg.probe, photons_per_measurement=p)

base = prepare_css(n0, PreparationModel(prep_noise_factor=1.14))
state = measurement_backaction(base, p, cfg.couplings.phase_per_photon_eff, n0)

budget = noise_budget_from_config(cfg)
var_meas_model = budget.evaluate(p) / 4
model_state = condition_on_measurement(state, var_meas_model)
print(f"squeezed quadrature (model):      {model_state.var_z:8.0f} atoms^2")
print(f"anti-squeezed quadrature (model): {model_state.var_y:8.0f} atoms^2")
print(f"CSS reference:                    {n0 / 4:8.0f} atoms^2\n")

ts0 = run_trials("squeeze-readout", 2000, 400, state, probe,
                 cfg.rates, cfg.pulses, cfg.couplings)
var_meas0 = variance_stats(ts0).var_meas

print(f"{'alpha/deg':>10} {'Var(S_alpha)':>14} {'model':>10}")
for i, deg in enumerate([0, 20, 45, 70, 90, 110, 135, 160, 180]):
    alpha = math.radians(deg)
    plan = SequencePlan("rotate-alpha", rotation_angle=alpha)
    ts = run_trials(plan, 2000, 401 + i, state, probe,
                    cfg.rates, cfg.pulses, cfg.couplings)
    est = residual_variance(variance_stats(ts))[0] - var_meas0
    model = rotate(model_state, alpha).var_z
    print(f"{deg:10.0f} {est:14.0f} {model:10.0f}")

print("\nthe uncertainty area is conserved: squeezing Sz inflates S_perp")
