"""Sequential Monte Carlo engines.

A run walks an ensemble through a sequence of targets f_1 ... f_T by
repeating, at every stage, correction (importance reweighting),
selection (resampling with replacement) and mutation (MCMC moves under
the current target).  Every stage resamples, so each correction starts
from an unweighted cloud, as the leave-one-out weights assume.  Two
weight rules are supported: the classic ratio f_t / f_{t-1} and the
kernel variant f_t / f-hat_{t-1}, where f-hat is a leave-one-out KDE of
the current particle cloud, with kernels widened for stragglers and the
weights truncated.  :func:`correction_weights` computes either rule
whole, exactly as a run applies it, from log-densities its caller
evaluated, so a stage is one target evaluation and one call each to
correction, selection and mutation.  Independent particle groups run on
a thread pool and are compared afterwards as a convergence check; each
group cuts its stages' target evaluations and mutations into row chunks
for the threads the groups leave over.

Stage t of group j draws its selection from the stream
(seed, j, SELECTION_STREAM, t) and its mutation of particle i from
(seed, j, MUTATION_STREAM, t, i); the initial draws come from
(seed, j, INIT_STREAM, 0).

Each density is evaluated once per point per stage.  The stage
evaluates f_t at the corrected cloud once: log f_t, and for a
Hamiltonian mutation its gradient in the same call.  Both follow each
survivor through selection and are the mutation's start values, and
under "theoretical_ratio" the mutation's final log f_t is the next
correction's denominator.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    INIT_STREAM,
    MUTATION_STREAM,
    SELECTION_STREAM,
    BoxConstraints,
    DegenerateEnsembleError,
    DegenerateWeightsError,
    Ensemble,
    RandomSource,
    TargetDensity,
    _as_count,
    _chunk_count,
    normalize_weights,
)
from .diagnostics import effective_sample_size, weighted_moments
from .kde import _kth_neighbour_distance, kde_target, loo_log_density_all, silverman_bandwidth
from .kernels import HmcConfig, KernelConfig, MhConfig, _start_values, mutate_ensemble
from .targets import (
    LogitData, _make_target, gaussian, geometric_bridge, nonlinear_logit_loglik, powered,
)

__all__ = [
    "InitialDistribution",
    "TargetSequence",
    "SmcConfig",
    "IterationRecord",
    "RunReport",
    "SmcRun",
    "diag_gaussian_initial",
    "uniform_box_initial",
    "kde_blocks_sequence",
    "loglik_blocks_sequence",
    "tempering_sequence",
    "annealing_sequence",
    "correction_weights",
    "resample",
    "run_smc",
    "compare_groups",
]

WEIGHT_MODES = ("theoretical_ratio", "loo_kde_ratio")


@dataclass(frozen=True)
class InitialDistribution:
    """A start density f_0 together with an exact sampler for it."""

    density: TargetDensity
    sample: Callable[[int, np.random.Generator], np.ndarray]


def diag_gaussian_initial(mean, sigma) -> InitialDistribution:
    """Diagonal Gaussian f_0 with per-dimension standard deviations."""
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    sd = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sd.shape != mu.shape:
        raise ValueError("mean and sigma must have the same length")
    if np.any(sd <= 0) or not np.all(np.isfinite(sd)):
        raise ValueError("sigma must be finite and strictly positive")
    density = gaussian(mu, sd**2)  # rejects a non-finite mean

    def sample(n: int, gen: np.random.Generator) -> np.ndarray:
        return mu + sd * gen.standard_normal((n, mu.shape[0]))

    return InitialDistribution(density, sample)


def uniform_box_initial(lower, upper) -> InitialDistribution:
    """Uniform f_0 on a finite box."""
    box = BoxConstraints(lower, upper)
    for name, bound in (("lower", box.lower), ("upper", box.upper)):
        if not np.all(np.isfinite(bound)):
            raise ValueError(f"{name} bounds of a uniform initial distribution must be "
                             f"finite, got {bound.tolist()}")
    dim = box.dim
    density = _make_target(dim, lambda pos: np.zeros(len(pos)), np.zeros_like, constraints=box)

    def sample(n: int, gen: np.random.Generator) -> np.ndarray:
        return gen.uniform(box.lower, box.upper, size=(n, dim))

    return InitialDistribution(density, sample)


@dataclass(frozen=True)
class TargetSequence:
    """Ordered targets f_1 ... f_T plus the start distribution f_0."""

    stages: tuple[TargetDensity, ...]
    initial: InitialDistribution

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) < 1:
            raise ValueError("a target sequence needs at least one stage")
        dims = {t.dim for t in stages}
        if len(dims) != 1:
            raise ValueError("all stages must share one dimension")
        if self.initial.density.dim != stages[0].dim:
            raise ValueError("initial distribution dimension does not match the stages")
        object.__setattr__(self, "stages", stages)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def dim(self) -> int:
        return self.stages[0].dim


@dataclass(frozen=True)
class SmcConfig:
    """Engine parameters: ensemble sizes, mutation kernel and weight rule.

    The groups run on a pool of ``n_threads`` threads, and each group cuts
    its stages' rows into chunks for ``ceil(n_threads / n_groups)`` of
    them.  ``n_threads`` defaults to 1 because the engine calls the stage
    targets from every thread of its pool, and a caller's own target may
    not be thread-safe; the CLI builds only built-in targets and defaults
    to the usable cores.

    Threads overlap only inside numpy calls that release the interpreter
    lock; in the KDE blocks those are exp, the row sums, the exponent
    ``np.matmul`` and the ``np.dot`` reductions.  The Python between them
    holds it, so smiley's four groups on two threads still wait 10-12% of
    their wall time.  Groups in forked processes ran 0.81-0.85x the
    threaded wall time (medians of 6 and 8 pairs) with the same bytes, so
    the floor is the lock, not the cores.  They are not used: ``os.fork``
    warns on Python 3.12+ in a process that runs threads (by default
    hsmc starts no OpenBLAS thread, but a BLAS thread setting can), a
    ``spawn`` pool would have to pickle targets that are closures, and
    perfbench's tracer cannot see spans in worker processes.

    The pool's threads are the only ones a run computes on.  Importing
    hsmc sets ``OPENBLAS_NUM_THREADS=1`` unless ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set; OpenBLAS reads it
    when numpy is first imported.  OpenBLAS's pool had no work in the
    shipped recipes: KDE products are sized to stay on the calling thread
    (see ``kde._BLOCK_TERMS``), and its worker accrued no CPU during whole
    smiley_hsmc and logit_hsmc runs beyond the busy wait it starts with.
    A caller whose own target makes large products can set one of those
    variables before the import.
    """

    n_particles: int
    mutation: KernelConfig
    n_groups: int = 1
    mutation_steps: int = 1
    weight_mode: str = "theoretical_ratio"
    n_threads: int = 1

    def __post_init__(self):
        for name, minimum in (("n_particles", 2), ("n_groups", 1), ("mutation_steps", 1),
                              ("n_threads", 1)):
            object.__setattr__(self, name, _as_count(getattr(self, name), name, minimum))
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if not isinstance(self.mutation, (HmcConfig, MhConfig)):
            raise ValueError("mutation must be an HmcConfig or MhConfig")


@dataclass(frozen=True)
class IterationRecord:
    """Per (group, iteration) diagnostics."""

    group: int
    iteration: int
    acceptance_count: int
    ess: float
    weight_min: float
    weight_max: float
    mean: np.ndarray
    cov_diag: np.ndarray


@dataclass(frozen=True)
class RunReport:
    """All iteration records of a run, ordered by (group, iteration)."""

    n_particles: int
    n_groups: int
    n_iterations: int
    rows: tuple[IterationRecord, ...]

    def final_rows(self) -> list[IterationRecord]:
        return [r for r in self.rows if r.iteration == self.n_iterations]


@dataclass(frozen=True)
class SmcRun:
    """Result of a run: the report and every stage's ensemble per group.

    ``history[j][t]`` is (ensemble, accepted flags) of group j after stage
    t; ``history[j][0]`` holds the initial draws, with all flags True.
    """

    report: RunReport
    history: tuple[tuple[tuple[Ensemble, np.ndarray], ...], ...]

    @property
    def ensembles(self) -> tuple[Ensemble, ...]:
        """The final ensemble of each group."""
        return tuple(group[-1][0] for group in self.history)


def _block_cuts(total: int, block_size: int) -> list[int]:
    """Revealed-data sizes of the stages: one more block each, then all ``total``."""
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if total == 0:
        raise ValueError("data must be nonempty")
    return [*range(block_size, total, block_size), total]


def kde_blocks_sequence(
    points, block_size: int, constraints: BoxConstraints | None = None, *,
    initial: InitialDistribution,
) -> TargetSequence:
    """Stage t is a Gaussian KDE of the first t blocks of (n, d) ``points``.

    The last block may be short.  Each stage's per-dimension bandwidth is
    sd(revealed) * n_t^(-1/5); ``constraints`` bound every stage's support.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be an (n, dim) array, got shape {points.shape}")
    stages = []
    for cut in _block_cuts(points.shape[0], block_size):
        revealed = points[:cut]
        sd = revealed.std(axis=0, ddof=1) if cut > 1 else np.ones(points.shape[1])
        if np.any(sd <= 0):
            raise ValueError("revealed data has zero spread in some dimension")
        stages.append(kde_target(revealed, sd * float(cut) ** (-0.2), constraints))
    return TargetSequence(tuple(stages), initial)


def loglik_blocks_sequence(
    data: LogitData, block_size: int, *, initial: InitialDistribution
) -> TargetSequence:
    """Stage t is the logit log-likelihood of the first t blocks; the last may be short."""
    cuts = _block_cuts(len(data), block_size)
    return TargetSequence(tuple(nonlinear_logit_loglik(data.subset(c)) for c in cuts), initial)


def tempering_sequence(
    initial: InitialDistribution, f: TargetDensity, phis: Sequence[float]
) -> TargetSequence:
    """Geometric bridge stages f^phi f_0^(1-phi) for increasing phi ending at 1.

    The bridge starts from the initial distribution's density f_0.
    """
    phis = [float(p) for p in phis]
    if len(phis) < 1 or phis[-1] != 1.0:
        raise ValueError("phis must end at exactly 1")
    if any(not 0.0 < p <= 1.0 for p in phis):
        raise ValueError("phis must lie in (0, 1]")
    if any(b <= a for a, b in zip(phis, phis[1:])):
        raise ValueError("phis must be strictly increasing")
    stages = tuple(geometric_bridge(initial.density, f, p) for p in phis)
    return TargetSequence(stages, initial)


def annealing_sequence(
    f: TargetDensity,
    gammas: Sequence[float],
    *,
    initial: InitialDistribution,
) -> TargetSequence:
    """Powered stages f^gamma for strictly increasing positive gammas."""
    gammas = [float(g) for g in gammas]
    if len(gammas) < 1:
        raise ValueError("need at least one gamma")
    if any(g <= 0 for g in gammas):
        raise ValueError("gammas must be strictly positive")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gammas must be strictly increasing")
    return TargetSequence(tuple(powered(f, g) for g in gammas), initial)


def correction_weights(
    ensemble: Ensemble,
    log_next: np.ndarray,
    log_prev: np.ndarray | None,
    mode: str = "theoretical_ratio",
    bandwidth_fallback: np.ndarray | None = None,
) -> np.ndarray:
    """Importance weights carrying the ensemble from f_prev to f_next.

    ``log_next`` is f_next's log-density at each particle; the caller
    evaluates it, so the same values can start the mutation.
    "theoretical_ratio" uses f_next / f_prev pointwise, ``log_prev`` being
    f_prev's log-density at each particle.  "loo_kde_ratio" is the whole
    kernel-weighted rule a run applies: it ignores ``log_prev``, divides by
    a leave-one-out KDE of the cloud whose Silverman bandwidths are widened
    for stragglers, and truncates the weights at sqrt(N) times their
    truncated mean.  ``bandwidth_fallback`` stands in for the Silverman
    bandwidth of a cloud collapsed in some dimension, which without it
    raises :class:`DegenerateEnsembleError`.  Weights are exponentiated
    after subtracting the maximum log-weight, so only their ratios are
    meaningful.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError(f"mode must be one of {WEIGHT_MODES}")
    if mode == "loo_kde_ratio":
        bandwidth = _loo_engine_bandwidth(ensemble, bandwidth_fallback)
        log_prev = loo_log_density_all(ensemble.positions, bandwidth)
    elif log_prev is None:
        raise ValueError("theoretical weights need the previous target's log-densities")
    log_next, log_prev = np.asarray(log_next, dtype=float), np.asarray(log_prev, dtype=float)
    if log_next.shape != (ensemble.n_particles,) or log_prev.shape != log_next.shape:
        raise ValueError("log_next and log_prev must have one entry per particle")
    with np.errstate(invalid="ignore"):
        log_w = np.where(np.isneginf(log_next), -np.inf, log_next - log_prev)
    log_w = np.where(np.isnan(log_w), -np.inf, log_w)
    if not np.any(np.isfinite(log_w)):
        raise DegenerateWeightsError("every particle has zero density under the next target")
    w = np.exp(log_w - log_w[np.isfinite(log_w)].max())
    return _truncate_weights(w) if mode == "loo_kde_ratio" else w


def resample(ensemble: Ensemble, weights, rng: np.random.Generator) -> Ensemble:
    """Multinomial selection: N i.i.d. categorical draws with replacement.

    Particle i is picked with probability proportional to ``weights[i]``;
    the selected particles are equally weighted again.
    """
    probs = normalize_weights(np.asarray(weights, dtype=float))
    n = ensemble.n_particles
    if probs.shape != (n,):
        raise ValueError("weights must have one entry per particle")
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.uniform(size=n), side="left")
    return Ensemble(ensemble.positions[idx])


def _truncate_weights(w: np.ndarray) -> np.ndarray:
    """Truncate weights at sqrt(N) times their own truncated mean.

    Kernel denominators can vanish for particles that drifted away from
    the cloud, handing one particle the whole selection pool.  The cap is
    the fixed point of c = sqrt(N) * mean(min(w, c)), so it is immune to
    the outliers it removes, and it grows with N, which preserves the
    large-N consistency of the reweighting.  With the m largest weights
    capped, c = sqrt(N) S / (N - sqrt(N) m), S the sum of the others; the
    cap is the c of the smallest m for which it is positive and at least
    the (m+1)-th largest weight.  With fewer than sqrt(N) positive weights
    no positive c exists; the cap is then the smallest positive weight, so
    the surviving particles weigh equally.
    """
    n = len(w)
    desc = np.sort(w)[::-1]
    m = np.arange(n)
    m = m[n - np.sqrt(n) * m > 0]
    caps = np.sqrt(n) * np.cumsum(desc[::-1])[::-1][m] / (n - np.sqrt(n) * m)
    fits = (caps > 0) & (caps >= desc[m])
    return np.minimum(w, caps[fits][0] if fits.any() else desc[desc > 0][-1])


_WIDEN_NEIGHBOUR = 7
_WIDEN_REACH = 3.0


def _loo_engine_bandwidth(ensemble: Ensemble, fallback: np.ndarray | None) -> np.ndarray:
    """Per-particle bandwidths: the Silverman rule widened for stragglers.

    From the cloud's Silverman bandwidth (or ``fallback`` if some dimension
    collapsed), each particle whose _WIDEN_NEIGHBOUR-th neighbour sits
    farther than _WIDEN_REACH bandwidths has its kernel widened to keep that
    neighbour in range.  Otherwise a particle that drifted from a tight
    cloud gets a vanishing leave-one-out density and the whole selection.
    """
    try:
        base = silverman_bandwidth(ensemble)
    except DegenerateEnsembleError:
        if fallback is None:
            raise
        base = fallback
    k = min(_WIDEN_NEIGHBOUR, ensemble.n_particles - 1)
    kth = _kth_neighbour_distance(ensemble.positions, base, k)
    widen = np.maximum(1.0, kth / _WIDEN_REACH)
    return base[None, :] * widen[:, None]


def _iteration_record(group: int, iteration: int, accepted: int, ensemble: Ensemble,
                      weights) -> IterationRecord:
    """The report row of ``ensemble``, whose ESS and weight extrema come from ``weights``."""
    probs = normalize_weights(weights)
    moments = weighted_moments(ensemble)
    return IterationRecord(group, iteration, accepted, effective_sample_size(weights),
                           float(probs.min()), float(probs.max()), moments.mean,
                           moments.covariance_diag)


def _run_group(group: int, sequence: TargetSequence, config: SmcConfig, rng: RandomSource,
               pool: Executor):
    """Group ``group``'s whole run, each stage's rows cut into chunks on ``pool``.

    A stage evaluates f_t at the corrected cloud once, with the gradient
    when the mutation is Hamiltonian; both follow each survivor through
    selection into the mutation.
    """
    chunks = _chunk_count(config.n_particles, -(-config.n_threads // config.n_groups))
    group_rng = rng.derive(group)
    gen_init = group_rng.derive(INIT_STREAM, 0).generator()
    ens = Ensemble(sequence.initial.sample(config.n_particles, gen_init))
    # selection picks labels, so each survivor keeps the f_t values of its parent
    labels = Ensemble(np.arange(config.n_particles, dtype=float)[:, None])
    bandwidth_fallback = log_prev = None
    if config.weight_mode == "loo_kde_ratio":
        bandwidth_fallback = silverman_bandwidth(ens)
    else:
        log_prev = sequence.initial.density.log_f(ens.positions)

    rows = []
    history = [(ens, np.ones(config.n_particles, dtype=bool))]
    for t, f_t in enumerate(sequence.stages, start=1):
        log_next, grad = _start_values(f_t, config.mutation, ens.positions, pool, chunks)
        try:
            w = correction_weights(ens, log_next, log_prev, config.weight_mode, bandwidth_fallback)
        except DegenerateWeightsError as err:
            raise DegenerateWeightsError(
                f"degenerate weights at stage {t} of group {group}: {err}", stage=t
            ) from err
        selection = group_rng.derive(SELECTION_STREAM, t).generator()
        idx = resample(labels, w, selection).positions[:, 0].astype(np.intp)
        ens, accepted_count, accepted, log_prev = mutate_ensemble(
            f_t, Ensemble(ens.positions[idx]), config.mutation, config.mutation_steps,
            group_rng.derive(MUTATION_STREAM, t), log_next[idx],
            None if grad is None else grad[idx], pool, chunks,
        )
        rows.append(_iteration_record(group, t, accepted_count, ens, w))
        history.append((ens, accepted))
    return rows, tuple(history)


def run_smc(sequence: TargetSequence, config: SmcConfig, rng: RandomSource) -> SmcRun:
    """Run correction / selection / mutation over the whole sequence.

    Each of the ``n_groups`` particle groups runs independently on its own
    derived random stream, as a task on a pool of ``n_threads`` threads.
    Each group cuts every stage's target evaluation and mutation into one
    chunk of rows for each of its ``ceil(n_threads / n_groups)`` threads,
    fewer when a chunk would get under ``core._MIN_CHUNK_ROWS`` rows, and
    hands the chunks after its first to the same pool.  The thread count
    never changes the results.  The returned history keeps every stage's
    ensemble.  Raises :class:`DegenerateWeightsError` (carrying the stage
    index) when every particle dies under some stage.
    """
    if not isinstance(rng, RandomSource):
        raise TypeError("run_smc needs a RandomSource")

    with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
        results = list(pool.map(lambda j: _run_group(j, sequence, config, rng, pool),
                                range(config.n_groups)))

    report = RunReport(
        n_particles=config.n_particles,
        n_groups=config.n_groups,
        n_iterations=sequence.n_stages,
        rows=tuple(row for rows, _ in results for row in rows),
    )
    return SmcRun(report=report, history=tuple(h for _, h in results))


def compare_groups(report: RunReport) -> float:
    """Between-group spread of final means over the pooled standard error.

    For each dimension, the standard deviation of the J final group means
    is divided by the pooled within-group standard error of a mean; the
    maximum over dimensions is returned.  Values near or below ~3 indicate
    the groups agree; much larger values flag a convergence problem.
    """
    if report.n_groups < 2:
        raise ValueError("group comparison needs at least 2 groups")
    finals = sorted(report.final_rows(), key=lambda r: r.group)
    means = np.array([r.mean for r in finals])
    variances = np.array([r.cov_diag for r in finals])
    spread = means.std(axis=0, ddof=1)
    se = np.sqrt(variances.mean(axis=0) / report.n_particles)
    se = np.where(se > 0, se, np.inf)
    return float((spread / se).max())
