"""Conditional spin squeezing and metrological gain vs photon number.

The first measurement M1 narrows the conditional distribution of Sz;
the readout M2 verifies it.  More probe photons measure better but
scatter more, so the normalized spin noise sigma^2, the contrast C, and
the metrological parameter zeta_m all trade off against each other, with
an optimum near p ~ 3e5 transmitted photons.
"""

from dataclasses import replace

import numpy as np

from qndspin import (
    conditional_variance,
    prepare_css,
    squeezing_parameters,
    variance_stats,
)
from qndspin.analysis import contrast_model
from qndspin.config import load_and_validate
from qndspin.measurement import run_scan

cfg = load_and_validate()
n0 = cfg.n0
css = n0 / 4
state = prepare_css(n0, cfg.preparation)
trials = 2000
# the contrast law and C_in of the shipped config, as the fig3 scenario reads them
cpars = cfg.contrast_params
c_in = cpars["c0"] / (1.0 - cpars["readout_loss"])

print(f"effective atom number: {n0:.0f}, CSS variance {css:.0f} atoms^2\n")
print(f"{'p':>8} {'sigma2_dB':>10} {'C':>6} {'1/zeta_m dB':>12} {'1/zeta_e dB':>12}")
# the photon-number grid in one scan, point i seeded 300 + i
grid = np.array([1e5, 2e5, 3e5, 4.5e5, 6.4e5, 9e5])
points = [("squeeze-readout", state, replace(cfg.probe, photons_per_measurement=p),
           300 + i) for i, p in enumerate(grid)]
rep = variance_stats(run_scan(points, trials, cfg.rates, cfg.pulses, cfg.couplings))
eps = grid * cfg.rates.p_delta_f + cfg.pulses.mu_total
sigma2 = conditional_variance(rep.var_prep, rep.var_meas, eps) / css
c_meas = contrast_model(grid, cpars["c0"], cpars["alpha"], cpars["beta"])
sq = squeezing_parameters(sigma2, c_meas, c_in, rep.var_prep, rep.var_meas, n0 / 2)
for p, db, c, zeta_m_db, zeta_e_db in zip(grid, sq.sigma2_db, c_meas, sq.zeta_m_db,
                                         sq.zeta_e_db):
    print(f"{p:8.0f} {db:10.2f} {c:6.3f} {-zeta_m_db:12.2f} {-zeta_e_db:12.2f}")

print("\nnegative sigma^2 dB = conditional noise below the projection limit;")
print("positive 1/zeta_m dB = phase sensitivity beyond the standard quantum limit")
