"""How far can this kind of measurement squeeze, in principle?

Free-space Raman scattering feeds spin-flip noise back while the
measurement gains information; the balance puts a floor on the
normalized spin noise that depends only on the collective cooperativity
and the Raman fraction of the scattering.  The script integrates the
noise ODE, locates the optimum photon number, and prints the associated
contrast cost.
"""

from qndspin.analysis import to_db
from qndspin.config import load_and_validate
from qndspin.limits import (
    integrate_sigma2,
    limit_contrast_and_zeta,
    LimitInputs,
    optimal_photon_number,
    sigma2_min,
)

cfg = load_and_validate()
c = cfg.couplings
inputs = LimitInputs(
    collective_cooperativity=c.effective_atom_number * c.effective_cooperativity,
    p_raman=cfg.rates.p_raman_total,
    p_total=cfg.rates.p_total,
    phi_eff=c.phase_per_photon_eff,
    p_rayleigh_f1=cfg.rates.p_rayleigh_f1,
    p_rayleigh_f2=cfg.rates.p_rayleigh_f2,
)

print(f"collective cooperativity N0*eta_eff = {inputs.collective_cooperativity:.0f}")
print(f"P_sc / P_Ram = {inputs.p_total / inputs.p_raman:.2f}\n")

s_min = sigma2_min(inputs.collective_cooperativity,
                   inputs.p_raman / inputs.p_total)
p_opt = optimal_photon_number(s_min, inputs.p_raman)
print(f"minimum normalized spin noise: {to_db(s_min):.1f} dB")
print(f"reached near p = {p_opt:.2e} photons (p * P_Ram = {p_opt * inputs.p_raman:.3f})")

out = limit_contrast_and_zeta(inputs)
print(f"contrast cost at the optimum:  {out['contrast_loss'] * 100:.1f}%")
print(f"limiting metrological parameter: {out['zeta_m_min_db']:.1f} dB")
print(f"closed-form bound 1/zeta_m <= sqrt(1.5 N0 eta_eff): "
      f"{to_db(out['inv_zeta_bound_main']):.1f} dB\n")

grid, curve = integrate_sigma2(inputs, 4 * p_opt, n_points=9)
print(f"{'p':>12} {'sigma2':>9} {'sigma2_dB':>10}")
for p, s in zip(grid, curve):
    print(f"{p:12.3e} {s:9.4f} {to_db(s):10.1f}")

print("\nfor comparison, the demonstrated conditional noise reduction was")
print("about -9 dB: an order of magnitude above this scattering floor")
