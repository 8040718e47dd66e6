"""From the resonator mode to measurable coupling constants.

Walks the deterministic physics chain: finesse and waist give the
antinode cooperativity; the cloud geometry averages it down; the
hyperfine line sums turn it into dispersive mode shifts, the
population-difference slope d omega/dN, and the per-photon phase shift
that back-acts on the atoms.
"""

from qndspin.cavity import coupling_summary, EnsembleConfig, ResonatorParams
from qndspin.constants import TWO_PI

resonator = ResonatorParams(
    wavelength=780.241209686e-9,
    finesse=5.6e3,
    mode_waist=56.9e-6,
)
cloud = EnsembleConfig(physical_atom_number=5e4, rms_radius=8.1e-6)

# probe on the slope of a mode 3.57 GHz blue of F=2 -> F'=3; the
# compensation sideband sits far red on the opposite slope
c = coupling_summary(
    resonator, cloud,
    probe_detuning_f2_f3=TWO_PI * 3.57e9,
    compensation_detuning_f2_f3=TWO_PI * (-24.59e9),
)

print("antinode cooperativity      eta0   =", f"{c.antinode_cooperativity:.4f}")
print("ensemble effective coupling eta_eff =",
      f"{c.effective_cooperativity:.4f}  ({c.effective_cooperativity / c.antinode_cooperativity:.3f} eta0)")
print("effective atom number       N0     =",
      f"{c.effective_atom_number:.0f}  ({c.effective_atom_number / 5e4:.3f} N_a)")
print()
print("probe-mode shift per effective atom (units of kappa):")
print(f"  |F=2,0>: {c.shift_per_atom_f2 * 1e6:+.1f}e-6    |F=1,0>: {c.shift_per_atom_f1 * 1e6:+.1f}e-6")
print(f"population-difference slope d omega/dN = {c.domega_dn * 1e5:.2f}e-5 kappa/atom")
print(f"equivalent single detuning  delta' = {c.delta_prime / TWO_PI / 1e6:.0f} MHz")
print()
print(f"phase per transmitted photon, maximally coupled atom: {c.phase_per_photon_max * 1e6:.0f} urad")
print(f"ensemble-effective phase per photon:                  {c.phase_per_photon_eff * 1e6:.0f} urad")
print()
print("collective cooperativity N0 * eta_eff =",
      f"{c.effective_atom_number * c.effective_cooperativity:.0f}")
