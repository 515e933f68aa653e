"""Markov transition kernels on batches of positions.

Random-walk Metropolis-Hastings and a leapfrog Hamiltonian step, both
with a diagonal mass / scale generalization, plus reflective position
updates that bounce trajectories off box constraints.  Every step runs on
an ``(n, dim)`` batch: row i draws ``dim`` normals and then one uniform
from its own generator, so a batch is bit-identical to stepping its rows
one at a time.  ``mutate_ensemble`` steps a whole ensemble, each particle
on its own derived stream; ``mh_step`` and ``hmc_step`` are the
single-position edge, a batch of one row.

Steps carry each row's log f and gradient from one step to the next: a
row ends where its proposal was accepted or where it started, and the
last leapfrog gradient is the one at the proposal, so no point is
evaluated twice.  A row keeps its place in the batch through a
mutation, so a carried value has the bits that evaluating the new batch
would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .core import Ensemble, RandomSource, TargetDensity, _readonly, as_generator

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
        if int(self.leapfrog_steps) < 1:
            raise ValueError("leapfrog_steps must be at least 1")
        object.__setattr__(self, "leapfrog_steps", int(self.leapfrog_steps))
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


def _mh_batch(target, positions, lf0, noise, log_u, scale):
    """Vectorized symmetric random-walk step from rows with log-densities ``lf0``.

    Returns (new_q, new_lf, accepted, log_a): each row's position and
    log-density after the step, its accept flag and log accept prob.
    """
    proposals = positions + np.sqrt(scale) * noise
    lf1 = target.log_f(proposals)
    log_ratio = lf1 - lf0
    valid = np.isfinite(lf0)
    log_a = np.where(np.isnan(log_ratio) | ~valid, -np.inf, np.minimum(0.0, log_ratio))
    accepted = log_u < log_a
    new_q = np.where(accepted[:, None], proposals, positions)
    return new_q, np.where(accepted, lf1, lf0), accepted, log_a


def _leapfrog_batch(target, positions, momenta, grad0, config: HmcConfig):
    """L leapfrog steps, then momentum negation: the proposal map, its own inverse.

    ``grad0`` is grad log f at ``positions``.  Returns (q, p, grad log f at q);
    that last gradient is the final half step's, so it is evaluated once.
    """
    mass = config.mass_for(positions.shape[1])
    eps = config.step_size
    box = target.constraints
    lower = box.lower if box is not None else None

    q = positions
    # half step momentum; note grad U = -grad log f
    p = momenta + 0.5 * eps * grad0
    for step in range(config.leapfrog_steps):
        q = q + eps * p / mass
        if box is not None:
            q, p = _reflect_box(q, p, lower, box.upper)
        grad = target.grad_log_f(q)
        p = p + (eps if step < config.leapfrog_steps - 1 else 0.5 * eps) * grad
    return q, -p, grad


def _hmc_batch(target, positions, lf0, grad0, momenta, log_u, config: HmcConfig):
    """Vectorized leapfrog proposal with Metropolis correction.

    ``lf0`` and ``grad0`` are log f and its gradient at ``positions``.
    Returns (new_q, new_lf, new_grad, accepted, log_a): each row's position,
    log-density and gradient after the step, its accept flag and log accept
    prob.  Any non-finite gradient or log-density along the trajectory marks
    the proposal as infinitely uphill, so it is rejected rather than crashing.
    """
    mass = config.mass_for(positions.shape[1])

    with np.errstate(over="ignore", invalid="ignore"):
        kin0 = 0.5 * ((momenta**2) / mass).sum(axis=-1)
        q, p, grad1 = _leapfrog_batch(target, positions, momenta, grad0, config)
        lf1 = target.log_f(q)
        kin1 = 0.5 * ((p**2) / mass).sum(axis=-1)
        log_ratio = (lf1 - lf0) + (kin0 - kin1)
        bad = ~np.isfinite(lf0) | np.isnan(log_ratio) | ~np.all(np.isfinite(q), axis=-1)
        log_a = np.where(bad, -np.inf, np.minimum(0.0, log_ratio))
    accepted = log_u < log_a
    keep = accepted[:, None]
    return (
        np.where(keep, q, positions), np.where(accepted, lf1, lf0),
        np.where(keep, grad1, grad0), accepted, log_a,
    )


def _start_gradient(target, positions, kernel: KernelConfig):
    """grad log f at the rows for a Hamiltonian kernel; None for random walk."""
    if not isinstance(kernel, HmcConfig):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        return target.grad_log_f(positions)


def _step(target, positions, lf, grad, kernel: KernelConfig, gens):
    """One kernel step of every row, row i drawing from ``gens[i]``.

    ``lf`` is log f at the rows and ``grad`` its gradient (None for
    random walk).  Each generator draws ``dim`` standard normals (the
    random-walk noise, or the momentum before scaling by sqrt(M)) and then
    one uniform for the accept test.  Returns (new positions, new lf, new
    grad, accepted, log accept prob).
    """
    dim = positions.shape[1]
    noise = np.stack([g.standard_normal(dim) for g in gens])
    log_u = np.log(np.array([g.uniform() for g in gens]))
    if isinstance(kernel, HmcConfig):
        momenta = np.sqrt(kernel.mass_for(dim)) * noise
        return _hmc_batch(target, positions, lf, grad, momenta, log_u, kernel)
    new_q, new_lf, accepted, log_a = _mh_batch(
        target, positions, lf, noise, log_u, kernel.proposal_scale
    )
    return new_q, new_lf, None, accepted, log_a


def _single_step(kind, target, position, config, rng) -> StepOutcome:
    """``_step`` on the one-row batch ``position[None]``, config and start checked."""
    if not isinstance(config, kind):
        raise TypeError(f"expected an {kind.__name__}, got {type(config).__name__}")
    position = np.atleast_1d(np.asarray(position, dtype=float))[None]
    lf = target.log_f(position)
    if not np.isfinite(lf[0]):
        raise ValueError("starting position has non-finite log-density")
    grad = _start_gradient(target, position, config)
    new_q, _, _, accepted, log_a = _step(target, position, lf, grad, config, [as_generator(rng)])
    return StepOutcome(new_q[0], bool(accepted[0]), float(log_a[0]))


def mh_step(
    target: TargetDensity,
    position: np.ndarray,
    config: MhConfig,
    rng: RandomSource | np.random.Generator,
) -> StepOutcome:
    """One random-walk Metropolis step from a single ``position``.

    The proposal is symmetric, so the acceptance probability reduces to
    min(1, f(proposal) / f(position)).
    """
    return _single_step(MhConfig, target, position, config, rng)


def hmc_step(
    target: TargetDensity,
    position: np.ndarray,
    config: HmcConfig,
    rng: RandomSource | np.random.Generator,
) -> StepOutcome:
    """One Hamiltonian step from a single ``position``.

    The momentum is drawn from N(0, M); after L leapfrog steps the momentum
    is negated and the move is accepted with probability
    min(1, exp[(log f' - log f) + (K - K')]) where K = p^T M^-1 p / 2.
    Box-constrained targets bounce off the walls during position updates.
    """
    return _single_step(HmcConfig, target, position, config, rng)


def mutate_ensemble(
    target: TargetDensity,
    ensemble: Ensemble,
    kernel: KernelConfig,
    steps: int,
    rng: RandomSource,
    log_f: np.ndarray,
) -> MutationResult:
    """Advance every particle by ``steps`` kernel steps.

    ``rng`` is the stage's mutation source; the SMC engine passes
    (seed, group, MUTATION_STREAM, stage).  Particle i consumes its own
    stream ``rng.derive(i)``, so the result does not depend on execution
    order and matches stepping particles one by one with the same
    streams.  Per-particle failures (zero density, divergent trajectories)
    reject the proposal instead of aborting the ensemble.

    ``log_f`` is ``target.log_f`` at the particles, which the caller
    usually has already; the result's ``log_f`` is its value at the final
    particles.  Steps carry log f and the gradient, so only the first
    step's start gradient is evaluated here.
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
    gens = [rng.derive(idx).generator() for idx in range(ensemble.n_particles)]

    positions = ensemble.positions
    grad = _start_gradient(target, positions, kernel)
    acceptance_count = 0
    for _ in range(steps):
        positions, lf, grad, accepted, _ = _step(target, positions, lf, grad, kernel, gens)
        acceptance_count += int(accepted.sum())

    return MutationResult(Ensemble(positions), acceptance_count, accepted, lf)
