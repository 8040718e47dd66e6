"""Resonator-aided QND measurement and conditional spin squeezing.

A numpy library reproducing the full physics and analysis chain of
dispersive collective-spin measurement at desk scale: cavity/atom
coupling constants, stochastic pulse-level measurement records,
conditional spin noise, squeezing parameters, and fundamental limits.
"""

__version__ = "0.1.0"

from .analysis import (
    conditional_variance,
    fit_noise_model,
    fit_quadratic_scaling,
    NoiseBudget,
    residual_variance,
    squeezing_parameters,
    SqueezingReport,
    to_db,
    variance_stats,
    VarianceReport,
)
from .cavity import (
    antinode_cooperativity,
    coupling_summary,
    CouplingSummary,
    ensemble_coupling,
    EnsembleConfig,
    hyperfine_mode_shift,
    inverse_transmission,
    lorentzian_transmission,
    phase_per_photon,
    ramsey_damping_envelope,
    ResonatorParams,
)
from .config import ConfigError, load_and_validate, RunConfig
from .constants import load_constants, PhysicalConstants, RB87
from .limits import (
    ideal_sigma2,
    integrate_sigma2,
    LimitInputs,
    limit_contrast_and_zeta,
    optimal_photon_number,
    sigma2_min,
)
from .measurement import (
    NoiseSwitches,
    ProbeConfig,
    run_trials,
    SequencePlan,
    simulate_probe_pulse,
    spinflip_covariance_exact,
    TrialSet,
)
from .scattering import raman_noise_coefficient, raman_rates, ScatteringRates
from .spinstate import (
    GaussianSpinState,
    measurement_backaction,
    prepare_css,
    PreparationModel,
    PulseModel,
)
