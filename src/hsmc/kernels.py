"""Markov transition kernels on batches of positions.

Random-walk Metropolis-Hastings and a leapfrog Hamiltonian step, both
with a diagonal mass / scale generalization, plus reflective position
updates that bounce trajectories off box constraints.  Every step runs on
an ``(n, dim)`` batch: row i draws ``dim`` normals and then one uniform
from its own stream.  No built-in target's rows depend on their batch,
so a batch cut anywhere steps piece by piece bit-identically to stepping
it whole, and its rows can even be stepped one at a time.

One loop, ``_chains``, steps J rows as one ``(J, dim)`` batch of Markov
chains through draws taken before its first step, and records every
state.  ``mutate_ensemble`` runs it on a whole ensemble, each particle on
its own derived stream, and can run it on pieces of the ensemble on a
thread pool; the CLI runs its chains through it, chain j on stream j; and
``mh_step`` and ``hmc_step``, the single-position edge, run it on one row
for one step, drawing from the caller's generator.  The streams are those
of ``RandomSource.derive(i).generator()``, but no generator is built per
row: all row keys come from one vectorized SeedSequence pass, and every
step's draws from one reused Philox (``_stage_draws``).

One step function, ``_step``, proposes and accepts for both kernels:
it builds the random-walk or leapfrog proposal, evaluates log f once
there and applies one Metropolis test.  The last leapfrog step takes log
f and the gradient at the proposal in one call of the target's
``log_f_and_grad``, so a KDE target forms each proposal's kernel sums
once; other targets compose it from the two separate calls.
Steps carry each row's log f and gradient from one step to the next: a
row ends where its proposal was accepted or where it started, and the
last leapfrog gradient is the one at the proposal, so no point is
evaluated twice and only the first Hamiltonian step evaluates a start
gradient.  A carried value has the bits that evaluating the new batch
would give, since no row depends on its batch.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .core import (
    Ensemble, RandomSource, TargetDensity, _as_count, _child_keys, _chunk_bounds, _map_chunks,
    _readonly,
)

__all__ = [
    "HmcConfig",
    "MhConfig",
    "StepOutcome",
    "MutationResult",
    "mh_step",
    "hmc_step",
    "mutate_ensemble",
]


@dataclass(frozen=True)
class HmcConfig:
    """Leapfrog tuning triple: diagonal mass M, step count L, step size eps.

    The momentum is drawn from N(0, M), the position step is
    eps * M^-1 p and the kinetic energy is p^T M^-1 p / 2; with M = I this
    is the textbook integrator.
    """

    mass_diag: np.ndarray | float = 1.0
    leapfrog_steps: int = 20
    step_size: float = 0.05

    def __post_init__(self):
        mass = _readonly(np.atleast_1d(self.mass_diag))
        if np.any(mass <= 0) or not np.all(np.isfinite(mass)):
            raise ValueError("mass_diag components must be strictly positive")
        object.__setattr__(self, "mass_diag", mass)
        object.__setattr__(self, "leapfrog_steps",
                           _as_count(self.leapfrog_steps, "leapfrog_steps", 1))
        if not np.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError("step_size must be strictly positive")

    def mass_for(self, dim: int) -> np.ndarray:
        if self.mass_diag.shape == (1,):
            return np.full(dim, self.mass_diag[0])
        if self.mass_diag.shape != (dim,):
            raise ValueError(f"mass_diag must be scalar or length-{dim}")
        return self.mass_diag


@dataclass(frozen=True)
class MhConfig:
    """Isotropic Gaussian random-walk proposal N(theta, s I).

    ``proposal_scale`` is the covariance scale s, so the per-dimension
    standard deviation is sqrt(s).
    """

    proposal_scale: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.proposal_scale) or self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be strictly positive")


@dataclass(frozen=True)
class StepOutcome:
    """Result of one kernel step; on rejection the position is unchanged."""

    new_position: np.ndarray
    accepted: bool
    log_accept_prob: float


class MutationResult(NamedTuple):
    ensemble: Ensemble
    acceptance_count: int
    accepted: np.ndarray  # outcome of each particle's final mutation step
    log_f: np.ndarray  # target log-density at each final particle


KernelConfig = Union[HmcConfig, MhConfig]


def _reflect_box(
    positions: np.ndarray, momenta: np.ndarray, lower: np.ndarray, upper: np.ndarray
):
    """Fold coordinates back into the box, flipping momentum once per fold.

    Repeated folds at the two walls trace a triangle wave: a coordinate
    that overshoots a wall by e, with w = upper - lower and r = e mod 2w,
    lands at that wall minus r after an odd number of folds when r <= w
    (momentum flips), and otherwise at the opposite wall plus r - w
    (momentum keeps its sign).  Non-finite coordinates pass through
    unchanged, so the proposal is rejected downstream.
    """
    above = positions > upper
    below = positions < lower
    if not (above.any() or below.any()):
        return positions, momenta
    width = upper - lower
    inward = np.where(above, -1.0, 1.0)
    with np.errstate(invalid="ignore"):
        r = np.fmod(np.where(above, positions - upper, lower - positions), 2.0 * width)
        odd = r <= width
        landed = np.where(
            odd,
            np.where(above, upper, lower) + inward * r,
            np.where(above, lower, upper) - inward * (r - width),
        )
    folded = (above | below) & np.isfinite(positions)
    q = np.where(folded, np.clip(landed, lower, upper), positions)
    p = np.where(folded & odd, -momenta, momenta)
    return q, p


def _leapfrog_batch(target, q, momenta, grad0, config: HmcConfig):
    """L leapfrog steps, then momentum negation: the proposal map, its own inverse.

    ``q`` holds the start positions and ``grad0`` grad log f there.
    Returns the proposal's (q, p), log f and grad log f.  The last step,
    whose gradient is the final half step's, evaluates both at once with
    ``target.log_f_and_grad``, so a target with a native one takes one
    pass at the proposal.
    """
    mass = config.mass_for(q.shape[1])
    eps = config.step_size
    box = target.constraints
    # half step momentum; note grad U = -grad log f
    p = momenta + 0.5 * eps * grad0
    for step in range(config.leapfrog_steps):
        q = q + eps * p / mass
        if box is not None:
            q, p = _reflect_box(q, p, box.lower, box.upper)
        if step < config.leapfrog_steps - 1:
            p = p + eps * target.grad_log_f(q)
    lf, grad = target.log_f_and_grad(q)
    return q, -(p + 0.5 * eps * grad), lf, grad


def _stage_draws(rng: RandomSource, n: int, dim: int, steps: int):
    """All draws of ``steps`` steps of n rows, row i on stream ``rng.derive(i)``.

    Per step each stream draws ``dim`` standard normals and then one
    uniform, exactly as its own generator would.  One Philox is rekeyed
    per row with counter 0 and an empty buffer, the state a fresh
    generator starts from.  Returns noise ``(steps, n, dim)`` and log_u
    ``(steps, n)``.
    """
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    zeros = np.zeros(4, dtype=np.uint64)
    noise = np.empty((steps, n, dim))
    u = np.empty((steps, n))
    for i, key in enumerate(_child_keys(rng, n).tolist()):
        bit_gen.state = {
            "bit_generator": "Philox", "state": {"counter": zeros, "key": key},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        for s in range(steps):
            gen.standard_normal(out=noise[s, i])
            u[s, i] = gen.random()
    return noise, np.log(u)


def _step(target, positions, lf, grad, kernel: KernelConfig, noise, log_u):
    """One Metropolis step of every row from its draws ``noise`` and ``log_u``.

    ``lf`` is log f at the rows and ``grad`` its gradient; given None, a
    Hamiltonian step evaluates it.  A random-walk step evaluates log f at
    the proposal; a Hamiltonian step takes it, with the gradient there,
    from :func:`_leapfrog_batch`.  Row i's ``dim`` standard normals
    ``noise[i]`` are the random-walk noise, or the momentum before scaling
    by sqrt(M), and ``log_u[i]`` is the log uniform of its accept test.
    Rows at zero density, NaN log ratios and divergent trajectories are
    rejected rather than crashing.  Returns (new positions, new lf, new
    grad, accepted, log accept prob); new grad is None for random walk.
    """
    if isinstance(kernel, HmcConfig):
        mass = kernel.mass_for(positions.shape[1])
        momenta = np.sqrt(mass) * noise
        with np.errstate(over="ignore", invalid="ignore"):
            if grad is None:
                grad = target.grad_log_f(positions)
            kin0 = 0.5 * ((momenta**2) / mass).sum(axis=-1)
            q, p, lf1, new_grad = _leapfrog_batch(target, positions, momenta, grad, kernel)
            kin1 = 0.5 * ((p**2) / mass).sum(axis=-1)
            finite = np.all(np.isfinite(q), axis=-1)
            log_ratio = np.where(finite, (lf1 - lf) + (kin0 - kin1), np.nan)
    else:
        q = positions + np.sqrt(kernel.proposal_scale) * noise
        lf1 = target.log_f(q)
        log_ratio = lf1 - lf
        new_grad = None
    log_a = np.where(np.isnan(log_ratio) | ~np.isfinite(lf), -np.inf, np.minimum(0.0, log_ratio))
    accepted = log_u < log_a
    keep = accepted[:, None]
    if new_grad is not None:
        new_grad = np.where(keep, new_grad, grad)
    return np.where(keep, q, positions), np.where(accepted, lf1, lf), new_grad, accepted, log_a


def _chains(kind, target, start, kernel, noise, log_u, lf=None):
    """Step the rows of ``start`` (J, dim) as J chains in one batch, through all draws.

    Step s of chain j takes the draws ``noise[s, j]`` and ``log_u[s, j]``,
    and ``kernel`` must be a ``kind``.  ``lf`` is log f at the starts;
    given None, it is evaluated and must be finite at every start.  Log f
    and the gradient are carried from step to step, so only the first
    Hamiltonian step evaluates a start gradient.  Returns the states
    (steps + 1, J, dim) and their accept flags (steps + 1, J), both start
    first with the start's flags True, log f at the last states and the
    last step's log accept probabilities.
    """
    if not isinstance(kernel, kind):
        raise TypeError(f"expected an {kind.__name__}, got {type(kernel).__name__}")
    if lf is None:
        lf = target.log_f(start)
        if not np.all(np.isfinite(lf)):
            raise ValueError("starting position has non-finite log-density")
    states = np.empty((len(noise) + 1,) + start.shape)
    accepted = np.ones(states.shape[:2], dtype=bool)
    states[0], grad = start, None
    for s in range(len(noise)):
        states[s + 1], lf, grad, accepted[s + 1], log_a = _step(
            target, states[s], lf, grad, kernel, noise[s], log_u[s])
    return states, accepted, lf, log_a


def mh_step(
    target: TargetDensity,
    position: np.ndarray,
    config: MhConfig,
    rng: np.random.Generator,
) -> StepOutcome:
    """One random-walk Metropolis step from a single ``position``.

    The proposal is symmetric, so the acceptance probability reduces to
    min(1, f(proposal) / f(position)).
    """
    start = np.atleast_1d(np.asarray(position, dtype=float))[None]
    draws = rng.standard_normal((1,) + start.shape), np.log([[rng.random()]])
    states, accepted, _, log_a = _chains(MhConfig, target, start, config, *draws)
    return StepOutcome(states[1, 0], bool(accepted[1, 0]), float(log_a[0]))


def hmc_step(
    target: TargetDensity,
    position: np.ndarray,
    config: HmcConfig,
    rng: np.random.Generator,
) -> StepOutcome:
    """One Hamiltonian step from a single ``position``.

    The momentum is drawn from N(0, M); after L leapfrog steps the momentum
    is negated and the move is accepted with probability
    min(1, exp[(log f' - log f) + (K - K')]) where K = p^T M^-1 p / 2.
    Box-constrained targets bounce off the walls during position updates.
    """
    start = np.atleast_1d(np.asarray(position, dtype=float))[None]
    draws = rng.standard_normal((1,) + start.shape), np.log([[rng.random()]])
    states, accepted, _, log_a = _chains(HmcConfig, target, start, config, *draws)
    return StepOutcome(states[1, 0], bool(accepted[1, 0]), float(log_a[0]))


def mutate_ensemble(
    target: TargetDensity,
    ensemble: Ensemble,
    kernel: KernelConfig,
    steps: int,
    rng: RandomSource,
    log_f: np.ndarray,
    pool: Executor | None = None,
    chunks: int = 1,
) -> MutationResult:
    """Advance every particle by ``steps`` kernel steps.

    ``rng`` is the stage's mutation source; the SMC engine passes
    (seed, group, MUTATION_STREAM, stage).  Particle i consumes its own
    stream ``rng.derive(i)``, so the result does not depend on execution
    order, and it matches stepping particles one by one with the same
    streams when the target's rows do not depend on their batch, as no
    built-in target's do.  The streams' keys come from one vectorized
    SeedSequence pass, and all ``steps`` steps' draws are taken before
    the first step; the draws are the ones each particle's own generator
    gives.  Per-particle failures (zero density, divergent trajectories)
    reject the proposal instead of aborting the ensemble.

    ``log_f`` is ``target.log_f`` at the particles, which the caller
    usually has already; the result's ``log_f`` is its value at the final
    particles.  Steps carry log f and the gradient, so only the first
    step evaluates a start gradient.

    The rows are cut into at most ``chunks`` nearly equal runs, and each
    run takes all ``steps`` steps as one task.  The caller steps the first
    run, and the others too unless a worker of ``pool`` has started them
    (all in turn when there is no pool).  Every row keeps its own draws
    and its own target values, so the result does not depend on
    ``chunks``.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not isinstance(rng, RandomSource):
        raise TypeError("mutate_ensemble needs a RandomSource to derive particle streams")
    if not isinstance(kernel, (HmcConfig, MhConfig)):
        raise TypeError("kernel must be an HmcConfig or MhConfig")
    lf = np.asarray(log_f, dtype=float)
    if lf.shape != (ensemble.n_particles,):
        raise ValueError("log_f must have one entry per particle")
    noise, log_u = _stage_draws(rng, ensemble.n_particles, ensemble.dim, steps)

    def trajectory(rows):
        states, accepted, final_lf, _ = _chains(type(kernel), target, ensemble.positions[rows],
                                                kernel, noise[:, rows], log_u[:, rows], lf[rows])
        return states[-1], final_lf, accepted[-1], int(accepted[1:].sum())

    bounds = _chunk_bounds(ensemble.n_particles, chunks)
    runs = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    parts = map(trajectory, runs) if pool is None else _map_chunks(trajectory, runs, pool)
    positions, final_lf, accepted, counts = zip(*parts)
    return MutationResult(Ensemble(np.concatenate(positions)), sum(counts),
                          np.concatenate(accepted), np.concatenate(final_lf))
