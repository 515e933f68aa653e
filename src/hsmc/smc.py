"""Sequential Monte Carlo engines.

A run walks an ensemble through a sequence of targets f_1 ... f_T by
repeating, at every stage, correction (importance reweighting),
selection (resampling with replacement) and mutation (MCMC moves under
the current target).  Every stage resamples, so each correction starts
from an unweighted cloud, as the leave-one-out weights assume.  Two
weight rules are supported: the classic ratio f_t / f_{t-1} and the
kernel variant f_t / f-hat_{t-1}, where f-hat is a leave-one-out KDE of
the current particle cloud.  Independent particle groups can run in
parallel and are compared afterwards as a convergence check.

Stage t of group j draws its selection from the stream
(seed, j, SELECTION_STREAM, t) and its mutation of particle i from
(seed, j, MUTATION_STREAM, t, i); the initial draws come from
(seed, j, INIT_STREAM, 0).

Each density is evaluated once per point per stage.  The correction's
log f_t follows each survivor through selection and is the mutation's
start value, and under "theoretical_ratio" the mutation's final log f_t
is the next correction's denominator.  Only log-densities cross
selection: a KDE gradient's last bits can depend on the row's place in
its batch, which selection reorders, so the mutation computes its start
gradient itself.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
    as_generator,
    normalize_weights,
)
from .diagnostics import effective_sample_size, weighted_moments
from .kde import _kth_neighbour_distance, kde_target, loo_log_density_all, silverman_bandwidth
from .kernels import HmcConfig, KernelConfig, MhConfig, mutate_ensemble
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
    "blockwise_sequence",
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
    if np.any(sd <= 0):
        raise ValueError("sigma must be strictly positive")
    density = gaussian(mu, sd**2)

    def sample(n: int, gen: np.random.Generator) -> np.ndarray:
        return mu + sd * gen.standard_normal((n, mu.shape[0]))

    return InitialDistribution(density, sample)


def uniform_box_initial(lower, upper) -> InitialDistribution:
    """Uniform f_0 on a finite box."""
    box = BoxConstraints(lower, upper)
    if not (np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper))):
        raise ValueError("uniform initial distribution needs finite bounds")
    dim = box.dim
    density = _make_target(dim, lambda pos: np.zeros(len(pos)), np.zeros_like, constraints=box)

    def sample(n: int, gen: np.random.Generator) -> np.ndarray:
        return gen.uniform(box.lower, box.upper, size=(n, dim))

    return InitialDistribution(density, sample)


@dataclass(frozen=True)
class TargetSequence:
    """Ordered targets f_1 ... f_T plus the start distribution f_0."""

    stages: tuple[TargetDensity, ...]
    initial: InitialDistribution | None = None

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) < 1:
            raise ValueError("a target sequence needs at least one stage")
        dims = {t.dim for t in stages}
        if len(dims) != 1:
            raise ValueError("all stages must share one dimension")
        if self.initial is not None and self.initial.density.dim != stages[0].dim:
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
    """Engine parameters: ensemble sizes, mutation kernel and weight rule."""

    n_particles: int
    mutation: KernelConfig
    n_groups: int = 1
    mutation_steps: int = 1
    weight_mode: str = "theoretical_ratio"
    n_threads: int = 1

    def __post_init__(self):
        if int(self.n_particles) < 2:
            raise ValueError("n_particles must be at least 2")
        if int(self.n_groups) < 1:
            raise ValueError("n_groups must be at least 1")
        if int(self.mutation_steps) < 1:
            raise ValueError("mutation_steps must be at least 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if not isinstance(self.mutation, (HmcConfig, MhConfig)):
            raise ValueError("mutation must be an HmcConfig or MhConfig")
        if int(self.n_threads) < 1:
            raise ValueError("n_threads must be at least 1")


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

    def to_jsonable(self) -> dict:
        return {
            "group": self.group,
            "iteration": self.iteration,
            "acceptance_count": self.acceptance_count,
            "ess": float(self.ess),
            "weight_min": float(self.weight_min),
            "weight_max": float(self.weight_max),
            "mean": [float(v) for v in self.mean],
            "cov_diag": [float(v) for v in self.cov_diag],
        }


@dataclass(frozen=True)
class RunReport:
    """All iteration records of a run, ordered by (group, iteration)."""

    n_particles: int
    n_groups: int
    n_iterations: int
    rows: tuple[IterationRecord, ...]

    def final_rows(self) -> list[IterationRecord]:
        return [r for r in self.rows if r.iteration == self.n_iterations]

    def to_jsonable(self) -> dict:
        return {
            "n_particles": self.n_particles,
            "n_groups": self.n_groups,
            "n_iterations": self.n_iterations,
            "rows": [r.to_jsonable() for r in self.rows],
        }


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


def blockwise_sequence(
    kind: str,
    data,
    block_size: int,
    constraints: BoxConstraints | None = None,
    initial: InitialDistribution | None = None,
) -> TargetSequence:
    """Stage t uses the first t blocks of the data; the last block may be short.

    kind "kde": data is an (n, d) point array and stage t is a Gaussian KDE
    of the revealed points, with per-dimension bandwidth
    sd(revealed) * n_t^(-1/5).
    kind "loglik": data is LogitData and stage t is the log-likelihood of
    the revealed observations.
    """
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if kind not in ("kde", "loglik"):
        raise ValueError("kind must be 'kde' or 'loglik'")

    if kind == "loglik":
        if not isinstance(data, LogitData):
            raise ValueError("loglik sequences need LogitData")
        total = len(data)
    else:
        data = np.atleast_2d(np.asarray(data, dtype=float))
        total = data.shape[0]
    if total == 0:
        raise ValueError("data must be nonempty")

    stages = []
    for cut in [*range(block_size, total, block_size), total]:
        if kind == "kde":
            revealed = data[:cut]
            sd = revealed.std(axis=0, ddof=1) if cut > 1 else np.ones(data.shape[1])
            if np.any(sd <= 0):
                raise ValueError("revealed data has zero spread in some dimension")
            stages.append(kde_target(revealed, sd * float(cut) ** (-0.2), constraints))
        else:
            stages.append(nonlinear_logit_loglik(data.subset(cut)))
    return TargetSequence(tuple(stages), initial)


def tempering_sequence(
    f1: TargetDensity | InitialDistribution,
    f: TargetDensity,
    phis: Sequence[float],
    initial: InitialDistribution | None = None,
) -> TargetSequence:
    """Geometric bridge stages f^phi f1^(1-phi) for increasing phi ending at 1.

    ``f1`` may be an InitialDistribution, in which case it doubles as f_0.
    """
    if isinstance(f1, InitialDistribution):
        if initial is None:
            initial = f1
        f1 = f1.density
    phis = [float(p) for p in phis]
    if len(phis) < 1 or phis[-1] != 1.0:
        raise ValueError("phis must end at exactly 1")
    if any(not 0.0 < p <= 1.0 for p in phis):
        raise ValueError("phis must lie in (0, 1]")
    if any(b <= a for a, b in zip(phis, phis[1:])):
        raise ValueError("phis must be strictly increasing")
    stages = tuple(geometric_bridge(f1, f, p) for p in phis)
    return TargetSequence(stages, initial)


def annealing_sequence(
    f: TargetDensity,
    gammas: Sequence[float],
    initial: InitialDistribution | None = None,
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
    f_next: TargetDensity,
    log_prev: np.ndarray | None,
    mode: str = "theoretical_ratio",
    loo_bandwidth=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Importance weights carrying the ensemble from f_prev to f_next.

    "theoretical_ratio" uses f_next / f_prev pointwise, with ``log_prev``
    the log-density of f_prev at each particle;  "loo_kde_ratio" ignores
    ``log_prev`` and replaces the denominator with a leave-one-out KDE of
    the current cloud (bandwidth selected by the Silverman rule unless
    ``loo_bandwidth`` overrides it).  Weights are computed in log space and
    exponentiated after subtracting the maximum, so only their ratios are
    meaningful.  Returns (weights, log_next), log_next being f_next's
    log-density at each particle.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError(f"mode must be one of {WEIGHT_MODES}")
    log_next = f_next.log_f(ensemble.positions)
    if mode == "theoretical_ratio":
        if log_prev is None:
            raise ValueError("theoretical weights need the previous target's log-densities")
        log_prev = np.asarray(log_prev, dtype=float)
        if log_prev.shape != log_next.shape:
            raise ValueError("log_prev must have one entry per particle")
    else:
        bandwidth = loo_bandwidth if loo_bandwidth is not None else silverman_bandwidth(ensemble)
        log_prev = loo_log_density_all(ensemble.positions, bandwidth)
    with np.errstate(invalid="ignore"):
        log_w = np.where(np.isneginf(log_next), -np.inf, log_next - log_prev)
    log_w = np.where(np.isnan(log_w), -np.inf, log_w)
    if not np.any(np.isfinite(log_w)):
        raise DegenerateWeightsError("every particle has zero density under the next target")
    return np.exp(log_w - log_w[np.isfinite(log_w)].max()), log_next


def resample(
    ensemble: Ensemble, weights, rng: RandomSource | np.random.Generator
) -> Ensemble:
    """Multinomial selection: N i.i.d. categorical draws with replacement.

    Particle i is picked with probability proportional to ``weights[i]``;
    the selected particles are equally weighted again.
    """
    gen = as_generator(rng)
    probs = normalize_weights(np.asarray(weights, dtype=float))
    n = ensemble.n_particles
    if probs.shape != (n,):
        raise ValueError("weights must have one entry per particle")
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, gen.uniform(size=n), side="left")
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


def _loo_engine_bandwidth(
    ensemble: Ensemble, fallback: np.ndarray, knn: int = 7, reach: float = 3.0
) -> np.ndarray:
    """Per-particle bandwidths: the Silverman rule widened for stragglers.

    Starting from the Silverman bandwidth of the current cloud (falling
    back to the initial cloud's value if some dimension collapsed), each
    particle whose ``knn``-th neighbour sits farther than ``reach``
    bandwidths gets its kernel widened to keep that neighbour in range.
    Without this, a particle that drifted away from a concentrated cloud
    is assigned an exponentially vanishing leave-one-out density and its
    importance ratio swallows the whole selection pool.
    """
    try:
        base = silverman_bandwidth(ensemble)
    except DegenerateEnsembleError:
        base = fallback
    k = min(knn, ensemble.n_particles - 1)
    kth = _kth_neighbour_distance(ensemble.positions, base, k)
    widen = np.maximum(1.0, kth / reach)
    return base[None, :] * widen[:, None]


def _run_group(group: int, sequence: TargetSequence, config: SmcConfig, rng: RandomSource):
    group_rng = rng.derive(group)
    gen_init = group_rng.derive(INIT_STREAM, 0).generator()
    ens = Ensemble(sequence.initial.sample(config.n_particles, gen_init))
    # selection picks labels, so each survivor keeps the log f_t of its parent
    labels = Ensemble(np.arange(config.n_particles, dtype=float)[:, None])
    bandwidth_fallback = log_prev = None
    if config.weight_mode == "loo_kde_ratio":
        bandwidth_fallback = silverman_bandwidth(ens)
    else:
        log_prev = sequence.initial.density.log_f(ens.positions)

    rows = []
    history = [(ens, np.ones(config.n_particles, dtype=bool))]
    for t, f_t in enumerate(sequence.stages, start=1):
        try:
            loo_bw = None
            if bandwidth_fallback is not None:
                loo_bw = _loo_engine_bandwidth(ens, bandwidth_fallback)
            w, log_next = correction_weights(
                ens, f_t, log_prev, config.weight_mode, loo_bandwidth=loo_bw
            )
            if config.weight_mode == "loo_kde_ratio":
                w = _truncate_weights(w)
            probs = normalize_weights(w)
        except DegenerateWeightsError as err:
            raise DegenerateWeightsError(
                f"degenerate weights at stage {t} of group {group}: {err}", stage=t
            ) from err
        selection = group_rng.derive(SELECTION_STREAM, t).generator()
        idx = resample(labels, w, selection).positions[:, 0].astype(np.intp)
        ens, accepted_count, accepted, log_prev = mutate_ensemble(
            f_t, Ensemble(ens.positions[idx]), config.mutation, config.mutation_steps,
            group_rng.derive(MUTATION_STREAM, t), log_next[idx],
        )
        moments = weighted_moments(ens)
        rows.append(
            IterationRecord(
                group=group,
                iteration=t,
                acceptance_count=accepted_count,
                ess=effective_sample_size(w),
                weight_min=float(probs.min()),
                weight_max=float(probs.max()),
                mean=moments.mean,
                cov_diag=moments.covariance_diag,
            )
        )
        history.append((ens, accepted))
    return rows, tuple(history)


def run_smc(sequence: TargetSequence, config: SmcConfig, rng: RandomSource) -> SmcRun:
    """Run correction / selection / mutation over the whole sequence.

    Each of the ``n_groups`` particle groups runs independently on its own
    derived random stream; with ``n_threads > 1`` groups execute in
    parallel, with results bit-identical to the sequential run.  The
    returned history keeps every stage's ensemble.  Raises
    :class:`DegenerateWeightsError` (carrying the stage index) when every
    particle dies under some stage.
    """
    if sequence.initial is None:
        raise ValueError("the target sequence has no initial distribution to draw from")
    if not isinstance(rng, RandomSource):
        raise TypeError("run_smc needs a RandomSource")

    groups = list(range(config.n_groups))
    if config.n_threads > 1:
        with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
            results = list(pool.map(lambda j: _run_group(j, sequence, config, rng), groups))
    else:
        results = [_run_group(j, sequence, config, rng) for j in groups]

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
