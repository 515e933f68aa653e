"""Hamiltonian sequential Monte Carlo sampling library."""

import os

# Parallel work runs on hsmc's own workers, and every KDE product is
# sized to stay on the calling thread (kde._BLOCK_TERMS), so OpenBLAS's
# pool never gets work: its worker only busy-waits when numpy loads it.
# OpenBLAS reads its thread count once, when numpy is first imported (by
# .core below), so this holds when hsmc is imported first.  A thread
# variable the user set wins.
if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import (
    BoxConstraints,
    DegenerateEnsembleError,
    DegenerateWeightsError,
    Ensemble,
    RandomSource,
    TargetDensity,
    normalize_weights,
)
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
    MomentSummary,
    RunReport,
    SmcConfig,
    SmcRun,
    TargetSequence,
    annealing_sequence,
    compare_groups,
    correction_weights,
    diag_gaussian_initial,
    effective_sample_size,
    kde_blocks_sequence,
    loglik_blocks_sequence,
    resample,
    run_smc,
    tempering_sequence,
    uniform_box_initial,
    weighted_moments,
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
