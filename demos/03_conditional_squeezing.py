"""Conditional spin squeezing and metrological gain vs photon number.

The first measurement M1 narrows the conditional distribution of Sz;
the readout M2 verifies it.  More probe photons measure better but
scatter more, so the normalized spin noise sigma^2, the contrast C, and
the metrological parameter zeta_m all trade off against each other, with
an optimum near p ~ 3e5 transmitted photons.  The fig3 scenario runs the
photon-number grid and reads each of these from its trials.
"""

from qndspin.config import load_and_validate
from qndspin.montecarlo import scenario_fig3

cfg = load_and_validate()
(_, rows), = scenario_fig3(cfg, 2000, 300).values()

print(f"effective atom number: {cfg.n0:.0f}, CSS variance {cfg.n0 / 4:.0f} atoms^2\n")
print(f"{'p':>8} {'sigma2_dB':>10} {'C':>6} {'1/zeta_m dB':>12} {'1/zeta_e dB':>12}")
for p, _, _, db, c, zeta_m_db, zeta_e_db, *_ in rows:
    print(f"{p:8.0f} {db:10.2f} {c:6.3f} {-zeta_m_db:12.2f} {-zeta_e_db:12.2f}")

print("\nnegative sigma^2 dB = conditional noise below the projection limit;")
print("positive 1/zeta_m dB = phase sensitivity beyond the standard quantum limit")
