"""Shared value types: targets, ensembles and reproducible randomness.

Everything here is an immutable value that can safely be shared across
threads.  Randomness is counter-based: a :class:`RandomSource` is a
(seed, stream) pair, and deriving sub-streams per group / stage /
particle makes parallel runs bit-reproducible regardless of execution
order or thread count.  An :class:`Ensemble` holds positions and weights
only; the stream keys of a stage travel as RandomSources, not inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "BoxConstraints",
    "DegenerateEnsembleError",
    "DegenerateWeightsError",
    "Ensemble",
    "RandomSource",
    "TargetDensity",
    "as_generator",
    "make_ensemble",
    "normalize_weights",
    "INIT_STREAM",
    "SELECTION_STREAM",
    "MUTATION_STREAM",
]

# Stream tags used to key sub-streams inside a sequential run.  Kept public
# so tests and external drivers can reproduce any particle's draw sequence.
INIT_STREAM = 0
SELECTION_STREAM = 1
MUTATION_STREAM = 2


class DegenerateWeightsError(ValueError):
    """All importance weights are zero or non-finite.

    Carries the sequential ``stage`` index when raised from inside a run.
    """

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class DegenerateEnsembleError(ValueError):
    """An ensemble has collapsed (e.g. zero spread in some dimension)."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BoxConstraints:
    """Per-dimension box bounds; use ``-inf`` / ``+inf`` for free dimensions.

    Invariant: ``lower[d] < upper[d]`` for every dimension d.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _readonly(np.atleast_1d(self.lower))
        upper = _readonly(np.atleast_1d(self.upper))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper bounds must be 1-d and equally long")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, position: np.ndarray) -> np.ndarray | bool:
        """True where a position (or each row of a batch) lies inside the box."""
        pos = np.asarray(position, dtype=float)
        inside = (pos >= self.lower) & (pos <= self.upper)
        return inside.all(axis=-1)

    def intersect(self, other: "BoxConstraints | None") -> "BoxConstraints":
        if other is None:
            return self
        return BoxConstraints(
            np.maximum(self.lower, other.lower), np.minimum(self.upper, other.upper)
        )


@dataclass(frozen=True)
class TargetDensity:
    """An unnormalized log-density kernel with its gradient.

    ``log_f`` maps a position of shape ``(dim,)`` to a float, or a batch of
    shape ``(n, dim)`` to an ``(n,)`` array.  Zero density is represented as
    ``-inf`` (never NaN); ``grad_log_f`` returns matching shapes and is
    finite wherever ``log_f`` is.  ``constraints`` restricts the support to
    a box; samplers bounce trajectories off its walls.
    """

    dim: int
    log_f: Callable[[np.ndarray], Union[float, np.ndarray]]
    grad_log_f: Callable[[np.ndarray], np.ndarray]
    constraints: BoxConstraints | None = None

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be a positive integer")
        if self.constraints is not None and self.constraints.dim != self.dim:
            raise ValueError("constraints dimension does not match target dim")


@dataclass(frozen=True)
class Ensemble:
    """A set of N particles sharing one dimension.

    Stored columnar: ``positions`` is ``(n, dim)`` and ``weights`` is
    ``(n,)``.  After every selection phase all weights equal 1.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        positions = _readonly(np.atleast_2d(self.positions))
        weights = _readonly(np.atleast_1d(self.weights))
        if positions.ndim != 2:
            raise ValueError("positions must be a (n, dim) array")
        if weights.shape != (positions.shape[0],):
            raise ValueError("weights must be a vector with one entry per particle")
        if positions.shape[0] < 2:
            raise ValueError("an ensemble needs at least 2 particles")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


def make_ensemble(draws: Sequence[np.ndarray] | np.ndarray) -> Ensemble:
    """Build an equally weighted ensemble from raw position draws.

    Raises ValueError when fewer than two draws are given or when the draws
    do not share a single dimension.
    """
    if isinstance(draws, np.ndarray) and draws.ndim == 2:
        positions = np.array(draws, dtype=float)
    else:
        rows = [np.atleast_1d(np.asarray(d, dtype=float)) for d in draws]
        if len(rows) >= 2 and len({r.shape for r in rows}) > 1:
            raise ValueError("draws have mismatched dimensions")
        positions = np.array(rows, dtype=float)
    if positions.shape[0] < 2:
        raise ValueError("need at least 2 draws to form an ensemble")
    return Ensemble(positions, np.ones(positions.shape[0]))


def normalize_weights(weights: "Ensemble | np.ndarray") -> np.ndarray:
    """Return weights divided by their sum (sums to 1 within 1e-12).

    Accepts an ensemble or a raw weight vector.  Raises
    :class:`DegenerateWeightsError` when the total is zero or non-finite.
    """
    w = np.asarray(weights.weights if isinstance(weights, Ensemble) else weights, dtype=float)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeightsError("weights sum to zero or are non-finite")
    return w / total


@dataclass(frozen=True)
class RandomSource:
    """Counter-based random stream identified by ``(seed, stream)``.

    Two sources with the same identity generate identical draw sequences;
    distinct stream paths give statistically independent streams.  The
    stream is a tuple so that per-group / per-iteration / per-particle
    sub-streams can be derived without coordination.
    """

    seed: int
    stream: tuple[int, ...] = field(default=())

    def __post_init__(self):
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        stream = tuple(int(s) for s in self.stream)
        if any(s < 0 or s >= 2**32 for s in stream):
            raise ValueError("stream ids must be unsigned 32-bit integers")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", stream)

    def derive(self, *ids: int) -> "RandomSource":
        """A child source with ``ids`` appended to the stream path."""
        return RandomSource(self.seed, self.stream + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        """A fresh generator; same identity always yields the same draws."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))


def as_generator(rng: "RandomSource | np.random.Generator") -> np.random.Generator:
    """Accept either a live generator or a RandomSource."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RandomSource):
        return rng.generator()
    raise TypeError("rng must be a RandomSource or numpy Generator")
