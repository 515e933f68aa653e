"""Hamiltonian sequential Monte Carlo sampling library."""

from .core import (
    BoxConstraints,
    DegenerateEnsembleError,
    DegenerateWeightsError,
    Ensemble,
    RandomSource,
    TargetDensity,
    normalize_weights,
)
from .diagnostics import MomentSummary, effective_sample_size, weighted_moments
from .kde import kde_target, loo_log_density_all, silverman_bandwidth
from .kernels import (
    HmcConfig,
    MhConfig,
    MutationResult,
    StepOutcome,
    hmc_step,
    mh_step,
    mutate_ensemble,
)
from .smc import (
    InitialDistribution,
    RunReport,
    SmcConfig,
    SmcRun,
    TargetSequence,
    annealing_sequence,
    compare_groups,
    correction_weights,
    diag_gaussian_initial,
    kde_blocks_sequence,
    loglik_blocks_sequence,
    resample,
    run_smc,
    tempering_sequence,
    uniform_box_initial,
)
from .targets import (
    LogitData,
    dropwave,
    gaussian,
    geometric_bridge,
    nonlinear_logit_loglik,
    powered,
    rosenbrock,
    sample_dropwave_data,
    sample_smiley_data,
    simulate_logit_data,
    smiley,
)

__version__ = "0.1.0"
