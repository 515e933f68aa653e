"""Single-step Markov transition kernels.

Random-walk Metropolis-Hastings and a leapfrog Hamiltonian step, both
with a diagonal mass / scale generalization, plus reflective position
updates that bounce trajectories off box constraints.  The ensemble
mutation helper advances every particle on its own derived random
stream, so batched execution is bit-identical to stepping the particles
one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .core import Ensemble, RandomSource, TargetDensity, as_generator

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
        mass = np.atleast_1d(np.asarray(self.mass_diag, dtype=float))
        if np.any(mass <= 0) or not np.all(np.isfinite(mass)):
            raise ValueError("mass_diag components must be strictly positive")
        mass.setflags(write=False)
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


def _mh_batch(target, positions, noise, log_u, scale):
    """Vectorized symmetric random-walk step; returns (new_q, accepted, log_a)."""
    lf0 = np.atleast_1d(target.log_f(positions))
    proposals = positions + np.sqrt(scale) * noise
    lf1 = np.atleast_1d(target.log_f(proposals))
    log_ratio = lf1 - lf0
    valid = np.isfinite(lf0)
    log_a = np.where(np.isnan(log_ratio) | ~valid, -np.inf, np.minimum(0.0, log_ratio))
    accepted = log_u < log_a
    new_q = np.where(accepted[:, None], proposals, positions)
    return new_q, accepted, log_a


def _leapfrog_batch(target, positions, momenta, config: HmcConfig):
    """L leapfrog steps, then momentum negation: the proposal map, its own inverse."""
    mass = config.mass_for(positions.shape[1])
    eps = config.step_size
    box = target.constraints
    lower = box.lower if box is not None else None

    q = positions.copy()
    # half step momentum; note grad U = -grad log f
    p = momenta + 0.5 * eps * np.asarray(target.grad_log_f(q))
    for step in range(config.leapfrog_steps):
        q = q + eps * p / mass
        if box is not None:
            q, p = _reflect_box(q, p, lower, box.upper)
        if step < config.leapfrog_steps - 1:
            p = p + eps * np.asarray(target.grad_log_f(q))
    p = p + 0.5 * eps * np.asarray(target.grad_log_f(q))
    return q, -p


def _hmc_batch(target, positions, momenta, log_u, config: HmcConfig):
    """Vectorized leapfrog proposal with Metropolis correction.

    Any non-finite gradient or log-density along the trajectory marks the
    proposal as infinitely uphill, so it is rejected rather than crashing.
    """
    mass = config.mass_for(positions.shape[1])

    with np.errstate(over="ignore", invalid="ignore"):
        lf0 = np.atleast_1d(target.log_f(positions))
        kin0 = 0.5 * ((momenta**2) / mass).sum(axis=-1)
        q, p = _leapfrog_batch(target, positions, momenta, config)
        lf1 = np.atleast_1d(target.log_f(q))
        kin1 = 0.5 * ((p**2) / mass).sum(axis=-1)
        log_ratio = (lf1 - lf0) + (kin0 - kin1)
        bad = ~np.isfinite(lf0) | np.isnan(log_ratio) | ~np.all(np.isfinite(q), axis=-1)
        log_a = np.where(bad, -np.inf, np.minimum(0.0, log_ratio))
    accepted = log_u < log_a
    new_q = np.where(accepted[:, None], q, positions)
    return new_q, accepted, log_a


def mh_step(
    target: TargetDensity,
    position: np.ndarray,
    config: MhConfig,
    rng: RandomSource | np.random.Generator,
) -> StepOutcome:
    """One random-walk Metropolis step from ``position``.

    The proposal is symmetric, so the acceptance probability reduces to
    min(1, f(proposal) / f(position)).
    """
    position = np.atleast_1d(np.asarray(position, dtype=float))
    if not np.isfinite(target.log_f(position)):
        raise ValueError("starting position has non-finite log-density")
    gen = as_generator(rng)
    noise = gen.standard_normal(position.shape[0])
    log_u = np.log(gen.uniform())
    new_q, accepted, log_a = _mh_batch(
        target, position[None, :], noise[None, :], np.array([log_u]), config.proposal_scale
    )
    return StepOutcome(new_q[0], bool(accepted[0]), float(log_a[0]))


def hmc_step(
    target: TargetDensity,
    position: np.ndarray,
    config: HmcConfig,
    rng: RandomSource | np.random.Generator,
) -> StepOutcome:
    """One Hamiltonian step: momentum draw, L leapfrog steps, accept test.

    The momentum is drawn from N(0, M); after the trajectory the momentum
    is negated and the move is accepted with probability
    min(1, exp[(log f' - log f) + (K - K')]) where K = p^T M^-1 p / 2.
    Box-constrained targets bounce off the walls during position updates.
    """
    position = np.atleast_1d(np.asarray(position, dtype=float))
    if not np.isfinite(target.log_f(position)):
        raise ValueError("starting position has non-finite log-density")
    gen = as_generator(rng)
    mass = config.mass_for(position.shape[0])
    momentum = np.sqrt(mass) * gen.standard_normal(position.shape[0])
    log_u = np.log(gen.uniform())
    new_q, accepted, log_a = _hmc_batch(
        target, position[None, :], momentum[None, :], np.array([log_u]), config
    )
    return StepOutcome(new_q[0], bool(accepted[0]), float(log_a[0]))


def mutate_ensemble(
    target: TargetDensity,
    ensemble: Ensemble,
    kernel: KernelConfig,
    steps: int,
    rng: RandomSource,
) -> MutationResult:
    """Advance every particle by ``steps`` kernel steps.

    ``rng`` is the stage's mutation source; the SMC engine passes
    (seed, group, MUTATION_STREAM, stage).  Particle i consumes its own
    stream ``rng.derive(i)``, so the result does not depend on execution
    order and matches stepping particles one by one with the same
    streams.  Weights are untouched; per-particle failures (zero density,
    divergent trajectories) reject the proposal instead of aborting the
    ensemble.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not isinstance(rng, RandomSource):
        raise TypeError("mutate_ensemble needs a RandomSource to derive particle streams")
    n, dim = ensemble.n_particles, ensemble.dim
    gens = [rng.derive(idx).generator() for idx in range(n)]

    positions = ensemble.positions.copy()
    acceptance_count = 0
    accepted = np.zeros(n, dtype=bool)
    for _ in range(steps):
        if isinstance(kernel, HmcConfig):
            mass = kernel.mass_for(dim)
            draws = np.stack([np.sqrt(mass) * g.standard_normal(dim) for g in gens])
            log_u = np.log(np.array([g.uniform() for g in gens]))
            positions, accepted, _ = _hmc_batch(target, positions, draws, log_u, kernel)
        elif isinstance(kernel, MhConfig):
            draws = np.stack([g.standard_normal(dim) for g in gens])
            log_u = np.log(np.array([g.uniform() for g in gens]))
            positions, accepted, _ = _mh_batch(
                target, positions, draws, log_u, kernel.proposal_scale
            )
        else:
            raise TypeError("kernel must be an HmcConfig or MhConfig")
        acceptance_count += int(accepted.sum())

    return MutationResult(Ensemble(positions, ensemble.weights), acceptance_count, accepted)
