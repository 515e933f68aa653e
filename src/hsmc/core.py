"""Shared value types: targets, ensembles and reproducible randomness.

Everything here is an immutable value that can safely be shared across
threads.  Randomness is counter-based: a :class:`RandomSource` is a
(seed, stream) pair, and deriving sub-streams per group / stage /
particle makes parallel runs bit-reproducible regardless of execution
order or thread count.  ``_child_keys`` gives the Philox keys of all
particle streams of a stage in one vectorized pass.  An
:class:`Ensemble` holds positions only: every stage resamples, which
leaves all particles equally weighted, and the stream keys of a stage
travel as RandomSources, not inside it.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

__all__ = [
    "BoxConstraints",
    "DegenerateEnsembleError",
    "DegenerateWeightsError",
    "Ensemble",
    "RandomSource",
    "TargetDensity",
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


def _fields_key(value) -> tuple:
    """The fields of dataclass ``value``, each array as a tuple of its entries."""
    return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v
                 for v in (getattr(value, f.name) for f in fields(value)))


def _eq_by_fields(self, other):
    """``==`` for a dataclass with array fields, whose generated ``==`` would raise."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _fields_key(self) == _fields_key(other)


def _hash_by_fields(self) -> int:
    return hash(_fields_key(self))


@dataclass(frozen=True)
class BoxConstraints:
    """Per-dimension box bounds; use ``-inf`` / ``+inf`` for free dimensions.

    Invariant: ``lower[d] < upper[d]`` for every dimension d.
    """

    lower: np.ndarray
    upper: np.ndarray

    __eq__ = _eq_by_fields
    __hash__ = _hash_by_fields

    def __post_init__(self):
        lower = _readonly(_as_reals(self.lower, "lower"))
        upper = _readonly(_as_reals(self.upper, "upper"))
        # each message starts with the bound it names
        if lower.shape != upper.shape:
            raise ValueError("lower and upper bounds must be equally long")
        for name, bound in (("lower", lower), ("upper", upper)):
            if np.any(np.isnan(bound)):
                raise ValueError(f"{name} bounds must not be NaN, got {bound.tolist()}")
        if not np.all(lower < upper):
            raise ValueError("upper bounds must lie strictly above the lower bounds")
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

    ``log_f`` maps a batch of positions ``(n, dim)`` to an ``(n,)`` array
    and ``grad_log_f`` maps it to ``(n, dim)``; there is no single-point
    form.  Zero density is represented as ``-inf`` (never NaN), and the
    gradient is finite wherever ``log_f`` is.  ``constraints`` restricts
    the support to a box; samplers bounce trajectories off its walls.

    ``log_f_and_grad`` maps a batch to ``(log_f, grad_log_f)`` at once,
    with exactly the bits of the two separate calls.  It is not a
    constructor argument: the target composes it from ``log_f`` and
    ``grad_log_f``, and a target's own constructor replaces it, with
    ``object.__setattr__``, by one call when both share most of their work.
    ``replace`` composes it anew, so a wrapper of ``log_f`` or
    ``grad_log_f`` made with ``replace`` always evaluates what it wraps.
    """

    dim: int
    log_f: Callable[[np.ndarray], np.ndarray]
    grad_log_f: Callable[[np.ndarray], np.ndarray]
    constraints: BoxConstraints | None = None
    log_f_and_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_count(self.dim, "dim", 1))
        if self.constraints is not None and self.constraints.dim != self.dim:
            raise ValueError("constraints dimension does not match target dim")
        log_f, grad_log_f = self.log_f, self.grad_log_f
        object.__setattr__(self, "log_f_and_grad", lambda pos: (log_f(pos), grad_log_f(pos)))


@dataclass(frozen=True)
class Ensemble:
    """A set of N equally weighted particles sharing one dimension.

    ``positions`` is ``(n, dim)``; a list of ``n`` rows is accepted too.
    """

    positions: np.ndarray

    def __post_init__(self):
        positions = _readonly(np.atleast_2d(self.positions))
        if positions.ndim != 2:
            raise ValueError("positions must be a (n, dim) array")
        if positions.shape[0] < 2:
            raise ValueError("an ensemble needs at least 2 particles")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", positions)

    def __reduce__(self):
        # rebuilt through __post_init__: NumPy unpickles arrays writeable
        return Ensemble, (self.positions,)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


def _as_count(value, name: str, minimum: int) -> int:
    """``value`` as an int, once it is an integral number of at least ``minimum``.

    int() would truncate 2.7 to 2 and take True (or NumPy's True) as 1; the
    ValueError names ``name``.
    """
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if isinstance(value, (bool, np.bool_)) or count is None or count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return count


def _as_real(value, name: str) -> float:
    """``value`` as a float, once it is a real number.

    float() would take True as 1.0 and the string "0.5" as 0.5; here a
    bool or a string raises a ValueError that names ``name``.  Infinities
    and NaN pass: each caller decides which values it takes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_reals(value, name: str) -> np.ndarray:
    """``value`` as a new 1-d float array, each entry by the rule of :func:`_as_real`.

    ``value`` is one number, which makes a one-entry vector, or a
    nonempty list, tuple or 1-d array of numbers.  np.asarray would take
    True and "0.5" too, and a nested list as a 2-d array; here those and an
    empty sequence raise a ValueError that names ``name``.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()  # a number, a list of numbers or nested lists
    entries = value if isinstance(value, (list, tuple)) else [value]
    if len(entries) == 0:
        raise ValueError(f"{name} must hold at least one number")
    return np.array([_as_real(entry, name) for entry in entries])


def normalize_weights(weights) -> np.ndarray:
    """Return weights divided by their sum (sums to 1 within 1e-12).

    Raises :class:`DegenerateWeightsError` when the total is zero or
    non-finite.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeightsError("weights sum to zero or are non-finite")
    return w / total


# Fewest rows a chunk takes, which bounds the threads a group's correction
# and mutation or the grid keep busy.  Small chunks cost little, but threads
# queue for the interpreter lock between their numpy calls: on a 2-core VM
# one 512-row logit mutation took 0.52 s as 2 to 16 chunks on 2 threads, and
# 0.53, 0.68, 0.80 and 1.77 s as one chunk per thread on 4, 8, 16 and 64
# threads.
_MIN_CHUNK_ROWS = 128


def _chunk_count(n_rows: int, threads: int) -> int:
    """The chunks n_rows split into on ``threads`` threads.

    One a thread, but never one under ``_MIN_CHUNK_ROWS`` rows: the rule
    :func:`_map_rows` cuts every row map by.
    """
    return max(1, min(threads, n_rows // _MIN_CHUNK_ROWS))


def _on_threads(fn: Callable, items: list) -> list:
    """``fn`` of every item, in item order: item 0 on the calling thread.

    Items 1, 2, ... run on a pool of ``len(items) - 1`` threads started for
    this call, one item each, and ended before it returns or raises; a
    single item starts no thread.  An exception of the caller's own item,
    such as an interrupt, reaches the caller once the pool's items end.
    """
    if len(items) == 1:
        return [fn(items[0])]
    with ThreadPoolExecutor(max_workers=len(items) - 1) as pool:
        futures = [pool.submit(fn, item) for item in items[1:]]
        return [fn(items[0])] + [future.result() for future in futures]


def _map_rows(fn: Callable, n_rows: int, threads: int) -> list:
    """``fn`` over n_rows rows cut into runs for ``threads`` threads, its results joined.

    ``fn(rows)`` takes a slice of the rows and returns a tuple of arrays
    with one entry per row; the result lists each of them concatenated
    over the runs, in row order.  The rows are cut into
    ``_chunk_count(n_rows, threads)`` nearly equal runs, which
    :func:`_on_threads` computes.
    """
    chunks = _chunk_count(n_rows, threads)
    bounds = [round(i * n_rows / chunks) for i in range(chunks + 1)]
    runs = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    return [np.concatenate(field) for field in zip(*_on_threads(fn, runs))]


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
        seed = _as_count(self.seed, "seed", 0)
        if seed >= 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
        stream = tuple(_as_count(s, "stream id", 0) for s in self.stream)
        if any(s >= 2**32 for s in stream):
            raise ValueError("stream ids must be unsigned 32-bit integers")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", stream)

    def derive(self, *ids: int) -> "RandomSource":
        """A child source with ``ids`` appended to the stream path."""
        return RandomSource(self.seed, self.stream + ids)

    def generator(self) -> np.random.Generator:
        """A fresh generator; same identity always yields the same draws."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))


# The SeedSequence hash of NEP 19 (numpy.random.SeedSequence, pool of four
# 32-bit words), vectorized over the last stream id.  NEP 19 fixes it, so
# the keys below match every NumPy version's ``SeedSequence``.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _child_keys(source: RandomSource, n: int) -> np.ndarray:
    """The ``(n, 2)`` uint64 Philox keys of ``source.derive(i).generator()``, i < n.

    SeedSequence splits the seed into little-endian 32-bit words (one or
    two here), pads them with a spawn key to the pool size, appends the
    spawn key's words, hashes them into the pool and draws the key from
    it.  Every word but the last is shared by the n children, so each hash
    step is one uint32 array operation over the children.
    """
    seed = source.seed
    run = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    words = run + [0] * (_POOL_SIZE - len(run)) + list(source.stream)
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(entropy[k]) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((n, 4), dtype=np.uint64)
    hash_b = _INIT_B
    for k in range(4):
        value = pool[k] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = value * np.uint32(hash_b)
        state[:, k] = value ^ (value >> np.uint32(16))
    # generate_state(2, np.uint64) pairs the words little-endian
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))
