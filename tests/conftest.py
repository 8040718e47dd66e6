import pytest

from qndspin.cavity import EnsembleConfig, ResonatorParams, coupling_summary
from qndspin.constants import TWO_PI


@pytest.fixture(scope="session")
def probe_resonator():
    return ResonatorParams(
        wavelength=780.241209686e-9,
        mirror_separation=26.62e-3,
        linewidth=TWO_PI * 1.01e6,
        finesse=5.6e3,
        mode_waist=56.9e-6,
    )


@pytest.fixture(scope="session")
def trap_resonator():
    return ResonatorParams(
        wavelength=851e-9,
        mirror_separation=26.62e-3,
        linewidth=TWO_PI * 135e3,
        finesse=4.2e4,
        mode_waist=59.5e-6,
    )


@pytest.fixture(scope="session")
def cloud():
    return EnsembleConfig(physical_atom_number=5e4, rms_radius=8.1e-6)


PROBE_DETUNING = TWO_PI * 3.57e9
COMPENSATION_DETUNING = TWO_PI * (-24.59e9)


@pytest.fixture(scope="session")
def couplings(probe_resonator, cloud):
    return coupling_summary(
        probe_resonator, cloud, PROBE_DETUNING, COMPENSATION_DETUNING
    )
