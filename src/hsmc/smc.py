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
correction, selection and mutation.  Independent particle groups are
shared out over P = min(groups, threads) workers, the caller and P - 1
forked processes or threads (see :func:`run_smc`), and compared
afterwards as a convergence check.  Neither path changes a bit.

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

import os
import pickle
import signal
import sys
import threading
import time
import traceback
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
    _as_reals,
    _on_threads,
    normalize_weights,
)
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
    "MomentSummary",
    "weighted_moments",
    "effective_sample_size",
]

WEIGHT_MODES = ("theoretical_ratio", "loo_kde_ratio")


@dataclass(frozen=True)
class InitialDistribution:
    """A start density f_0 together with an exact sampler for it."""

    density: TargetDensity
    sample: Callable[[int, np.random.Generator], np.ndarray]


def diag_gaussian_initial(mean, sigma) -> InitialDistribution:
    """Diagonal Gaussian f_0 with per-dimension standard deviations."""
    mu = _as_reals(mean, "mean")
    sd = _as_reals(sigma, "sigma")
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

    :func:`run_smc` shares the groups out over P = min(n_groups,
    n_threads) workers, the caller and P - 1 forked processes or threads;
    its docstring gives the rule.  ``n_threads`` defaults to 1 because the
    engine calls the stage targets from several threads, and a caller's
    own target may not be thread-safe; the CLI builds only built-in
    targets and defaults to the usable cores.  A target that runs in a
    forked worker keeps its side effects, such as counters or caches, in
    that worker.

    Threads overlap only inside numpy calls that release the interpreter
    lock; in the KDE blocks those are exp, the row sums, the exponent
    ``np.matmul`` and the ``np.dot`` reductions.  The Python between them
    holds it, so smiley's four groups on two threads waited for it 10-12%
    of their wall time; processes do not share the lock.  Workers are
    forked, not spawned, because a spawned worker would have to unpickle
    the targets, which are closures; and not forked from a process that
    runs threads, where a fork can copy a lock another thread holds and
    Python 3.12+ warns.

    The workers and their row-chunk threads are the only ones a run
    computes on.  Importing hsmc sets ``OPENBLAS_NUM_THREADS=1`` unless
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``
    is set; OpenBLAS reads it when numpy is first imported.  OpenBLAS's
    pool had no work in the shipped recipes: KDE products are sized to
    stay on the calling thread (see ``kde._BLOCK_TERMS``), and its worker
    accrued no CPU during whole smiley_hsmc and logit_hsmc runs beyond the
    busy wait it starts with.
    A caller whose own target makes large products can set one of those
    variables before the import; OpenBLAS's pool then keeps the groups on
    threads.
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
    phis = _as_reals(phis, "phis").tolist()
    if phis[-1] != 1.0:
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
    gammas = _as_reals(gammas, "gammas").tolist()
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


@dataclass(frozen=True)
class MomentSummary:
    """Sample mean and diagonal covariance."""

    mean: np.ndarray
    covariance_diag: np.ndarray


def weighted_moments(ensemble: Ensemble) -> MomentSummary:
    """Population mean and variance (divide by N) of equally weighted rows."""
    positions = ensemble.positions
    return MomentSummary(positions.mean(axis=0), positions.var(axis=0))


def effective_sample_size(weights) -> float:
    """ESS = (sum w)^2 / sum w^2; lies in [1, N] and is scale-invariant."""
    w = np.asarray(weights, dtype=float)
    denom = (w**2).sum()
    total = w.sum()
    if denom <= 0 or not np.isfinite(total) or total <= 0:
        raise DegenerateWeightsError("cannot compute ESS of degenerate weights")
    # total * total, not total**2: a scalar power goes through libm pow, which
    # need not round correctly, so rescaling w by 2**k could move the last bit
    return float(total * total / denom)


def _iteration_record(group: int, iteration: int, accepted: int, ensemble: Ensemble,
                      weights) -> IterationRecord:
    """The report row of ``ensemble``, whose ESS and weight extrema come from ``weights``."""
    probs = normalize_weights(weights)
    moments = weighted_moments(ensemble)
    return IterationRecord(group, iteration, accepted, effective_sample_size(weights),
                           float(probs.min()), float(probs.max()), moments.mean,
                           moments.covariance_diag)


def _run_group(group: int, sequence: TargetSequence, config: SmcConfig, rng: RandomSource,
               threads: int):
    """Group ``group``'s whole run, each stage's rows cut into runs for ``threads`` threads.

    A stage evaluates f_t at the corrected cloud once, with the gradient
    when the mutation is Hamiltonian; both follow each survivor through
    selection into the mutation.
    """
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
        log_next, grad = _start_values(f_t, config.mutation, ens.positions, threads)
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
            None if grad is None else grad[idx], threads,
        )
        rows.append(_iteration_record(group, t, accepted_count, ens, w))
        history.append((ens, accepted))
    return rows, tuple(history)


# How long a listed thread that Python does not run may take to leave
# /proc/self/task before it counts as running.  A thread whose join has
# returned stays listed while its OS thread exits: 10-50 us on a 2-core VM,
# at most 0.7 ms in 2,000 pool shutdowns beside a busy test run.
_THREAD_EXIT_S = 0.01


def _can_fork() -> bool:
    """Whether ``os.fork`` is safe here: on Linux, in a process that runs one thread.

    ``threading.active_count`` sees Python's threads; ``/proc/self/task``
    lists native ones too, such as the workers of a BLAS pool.  A native
    thread that leaves within ``_THREAD_EXIT_S`` was exiting, as a thread
    of a pool just shut down is, and does not count.
    """
    deadline = time.monotonic() + _THREAD_EXIT_S
    while sys.platform == "linux" and threading.active_count() == 1:
        try:
            if len(os.listdir("/proc/self/task")) == 1:
                return True
        except OSError:
            return False
        if time.monotonic() > deadline:
            return False
        time.sleep(_THREAD_EXIT_S / 50)
    return False


def _run_groups(groups: range, sequence: TargetSequence, config: SmcConfig, rng: RandomSource,
                threads: int):
    """A worker's run: ``groups`` one after another, each on ``threads`` threads.

    Returns the ``(rows, history)`` of each group that finished and, for the
    first that raised, ``(group, exception)``, else None.  No later group
    runs: its index is higher, so its exception would not be the one raised.
    """
    done = []
    for j in groups:
        try:
            done.append(_run_group(j, sequence, config, rng, threads))
        except Exception as err:
            return done, (j, err)
    return done, None


def _worker(read: int, write: int, run: Callable[[range], tuple], share: range):
    """A forked worker's whole life: ``run(share)``, pickle the outcome into ``write``, exit.

    It closes its copy of the pipe's ``read`` end, so a write to a parent
    that died fails instead of blocking.  It leaves by ``os._exit``, so no
    stdio buffer or ``atexit`` hook it inherited runs a second time, and it
    exits 0 only once the whole outcome is written.
    """
    status = 1
    try:
        os.close(read)
        payload = pickle.dumps(run(share), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    except Exception:
        traceback.print_exc()  # the parent learns only the exit status
    finally:
        os._exit(status)


def _outcome(payload: bytes, status: int, share: range):
    """What a reaped worker sent, as :func:`_run_groups` returns it.

    A worker that died, or sent a pickle that cannot be read, becomes a
    RuntimeError for its first group.
    """
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        problem = f"was killed by signal {-code}"
    elif code > 0:
        problem = f"exited with status {code}"
    else:
        try:
            return pickle.loads(payload)
        except Exception:  # truncated, or an exception that cannot be rebuilt here
            problem = "sent a result that could not be read"
    names = ", ".join(map(str, share))
    return [], (share[0], RuntimeError(f"the worker process for groups {names} {problem}"))


def _forked(run: Callable[[range], tuple], shares: list[range]) -> list:
    """``run`` of every share, share p in worker process p; this process is worker 0.

    It forks the others before it starts any thread.  Every pipe is read
    to EOF and every worker reaped before this returns or raises; on an
    exception of its own, such as an interrupt, this process kills the
    workers first.
    """
    running = {}  # worker -> (pid, read end of its pipe), until reaped
    try:
        for p in range(1, len(shares)):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _worker(read, write, run, shares[p])
            os.close(write)
            running[p] = (pid, os.fdopen(read, "rb"))
        outcomes = [run(shares[0])]
        for p in range(1, len(shares)):
            pid, pipe = running[p]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del running[p]
            outcomes.append(_outcome(payload, status, shares[p]))
    except BaseException:
        for pid, _ in running.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in running.values():
            pipe.close()
            os.waitpid(pid, 0)
    return outcomes


def run_smc(sequence: TargetSequence, config: SmcConfig, rng: RandomSource) -> SmcRun:
    """Run correction / selection / mutation over the whole sequence.

    Each of the ``n_groups`` particle groups runs independently on its own
    derived random stream.  The groups are shared out over P =
    min(n_groups, n_threads) workers: worker p runs groups j = p (mod P)
    in order, and each of its groups cuts every stage's target evaluation
    and mutation into one run of rows for each of ceil(n_threads / P)
    threads, fewer when a run would get under ``core._MIN_CHUNK_ROWS``
    rows.  The caller is worker 0, and each row cut computes its first run
    on the thread that cuts it and the others on threads started for it.
    With P of at least 2, in a process where forking is safe (Linux, and
    one thread running), workers 1 ... P - 1 are processes this one forks,
    and a target's side effects there do not reach the caller; otherwise
    they are threads started for the run.  Neither the thread count nor
    the path changes the results.  The returned history keeps every
    stage's ensemble.  Raises the exception of the lowest failing group:
    :class:`DegenerateWeightsError` (carrying the stage index) when every
    particle dies under some stage, and RuntimeError when a worker process
    dies.

    An interrupt (Ctrl-C) stops the caller's share within one row chunk.
    Forked workers are then killed; worker threads cannot be, so on the
    thread path it reaches the caller once they have run their groups.
    """
    if not isinstance(rng, RandomSource):
        raise TypeError("run_smc needs a RandomSource")

    workers = min(config.n_groups, config.n_threads)
    shares = [range(p, config.n_groups, workers) for p in range(workers)]

    def run(share):
        return _run_groups(share, sequence, config, rng, -(-config.n_threads // workers))

    outcomes = (_forked if workers >= 2 and _can_fork() else _on_threads)(run, shares)

    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * config.n_groups
    for p, (done, _) in enumerate(outcomes):
        results[p::workers] = done
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
