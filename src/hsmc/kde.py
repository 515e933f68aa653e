"""Gaussian kernel density estimation.

Provides KDE-backed target densities (with optional box support) and the
leave-one-out density estimate that drives kernel-based correction
weights.  Every kernel sum runs over blocks of rows small enough to stay
in a core's cache, and each block is reduced to what the caller needs
before the next one is formed, so no full (positions x points) array is
ever built.  Every block over the same points has one height, the last
one padded with zero rows, so a row's bits never depend on the other
rows of its batch.

A KDE target centres positions and points at the points' mean, and its
block product is the whole exponent -|z_i - y_j|^2 / 2, which is never
above 0: each block needs one product, one exp and one product with
[points, 1].  That product's last column is each row's kernel sum: log f
is its log, and the gradient's kernel-weighted means divide by it, so
log f, the gradient and the fused call make the same pass and rest on
one sum.  A row whose sum falls below a floor lies farther than about
35 bandwidths from every point; it is recomputed through log-sum-exp,
shifted by its largest term, by the helper that gives the leave-one-out
sums, so thousands of kernels cannot underflow.  The floor test, the
log, the division and that fallback run once per call, not once per
block.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BoxConstraints, DegenerateEnsembleError, Ensemble, TargetDensity, _as_real, _as_reals,
)
from .targets import _make_target

__all__ = ["kde_target", "loo_log_density_all", "silverman_bandwidth"]

_LOG_2PI = float(np.log(2.0 * np.pi))

# Most kernel terms per block of rows.  A block (at most 1 MB of float64)
# stays in a core's L2 cache, and each numpy call on it runs long enough
# with the GIL released for a second group thread to overlap: on a 2-core
# Xeon VM, blocks of 2^15 terms left two threads no faster than one.  The
# calls that release it are exp, the row sums, the exponent product
# np.matmul(..., out=s) and the reductions np.dot(s, values); on numpy
# 2.4.6, s @ values keeps the lock for the whole product, although its bits
# are np.dot's.  The exponent product stays on np.matmul, which releases
# the lock too and took 66-79 us per 64 x 2048 block where np.dot took
# 91-105 (one thread, 4,000 calls, 10 runs).  A block's matrix products
# make at most 2^17 multiply-adds per inner coordinate: k + 2 of them for
# a KDE target in k dimensions (k + 1 for its far rows, for
# nearest-neighbour sums and for the product with [points, 1] that every
# KDE call makes), and 2k for leave-one-out sums, which take every
# bandwidth, shared or not, per particle.  OpenBLAS 0.3.31 keeps products
# of up to 6 * 2^17 multiply-adds on the calling thread (it splits those
# of 2^20), so for k <= 4 (k <= 3 for leave-one-out sums) and up to 2^17
# points hsmc's own threads keep the cores and the bits do not depend on the
# BLAS thread setting.  Since no product reaches OpenBLAS's pool, importing
# hsmc caps that pool at one thread (see hsmc/__init__.py): its worker
# accrued no CPU during whole smiley_hsmc and logit_hsmc runs, beyond its
# busy wait at start-up.
_BLOCK_TERMS = 1 << 17

# Most rows per block.  Every product of a kernel sum over m points has
# one height, a power of two: on OpenBLAS 0.3.31 a row of such a product,
# at heights 2 to 128 and m = 64 to 40,000, kept its bits in every place
# of the block, while at heights such as 5, 65 or 131 rows changed with
# their neighbours.
_MAX_BLOCK_ROWS = 128

# A KDE row whose unshifted kernel sum is below this lies farther than about
# 35 bandwidths from every point.  Above it, the terms exp lost to underflow
# (each under e^-708) are a negligible part of the sum.
_SUM_FLOOR = float(np.exp(-600.0))


def _as_bandwidth(bandwidth, dim: int) -> np.ndarray:
    h = _as_reals(bandwidth, "bandwidth")
    if h.shape == (1,) and dim > 1:
        h = np.full(dim, h[0])
    if h.shape != (dim,):
        raise ValueError(f"bandwidth must be scalar or length-{dim}")
    if np.any(h <= 0) or not np.all(np.isfinite(h)):
        raise ValueError("bandwidth components must be strictly positive")
    return h


def _sq_dist_rows(x: np.ndarray) -> np.ndarray:
    """Row factor a = [x, 1, -|x|^2 / 2] of -|x_i - y_j|^2 / 2 = (a @ b)[i, j].

    b comes from :func:`_sq_dist_cols`.  ``a[:, :-1] @ b[:-1]`` leaves out
    the row term ``a[:, -1]``, which is constant along a row, for sums that
    add it to the row's log-sum afterwards.
    """
    return np.column_stack([x, np.ones(len(x)), -0.5 * (x * x).sum(axis=1)])


def _sq_dist_cols(y: np.ndarray) -> np.ndarray:
    """Column factor b = [y; -|y|^2 / 2; 1], see :func:`_sq_dist_rows`."""
    return np.ascontiguousarray(np.column_stack([y, -0.5 * (y * y).sum(axis=1), np.ones(len(y))]).T)


def _block_height(n_cols: int) -> int:
    """Rows of every product block of a kernel sum over ``n_cols`` points.

    The largest power of two that is at most _MAX_BLOCK_ROWS and at most
    max(1, _BLOCK_TERMS // n_cols).  OpenBLAS 0.3.31 gives a row of a
    product of such a height the same bits in every place of the block,
    so a row computed in a block of this height, padded or not, does not
    depend on the rows around it.
    """
    return min(_MAX_BLOCK_ROWS, 1 << (max(1, _BLOCK_TERMS // n_cols).bit_length() - 1))


def _product_blocks(a: np.ndarray, b: np.ndarray, exclude_self: bool = False):
    """Yield (rows, s): a[rows] @ b in the first rows of s, _block_height rows a block.

    Every product has that height: the last block is padded with zero rows
    of a, whose rows of s are 0, so exp stays on its fast path there, and
    callers keep only s's first ``rows.stop - rows.start`` rows.
    ``exclude_self`` sets s[i, i] to -inf, for a and b built from the same
    points.  The block's array is reused, so reduce s before the next block.
    """
    height = _block_height(b.shape[1])
    s = np.empty((height, b.shape[1]))
    padded = np.zeros((height, a.shape[1]))
    for start in range(0, len(a), height):
        rows = slice(start, min(start + height, len(a)))
        block = a[rows]
        if len(block) < height:
            padded[: len(block)] = block
        np.matmul(block if len(block) == height else padded, b, out=s)
        if exclude_self:
            i = np.arange(len(block))
            s[i, start + i] = -np.inf
        yield rows, s


def _shifted_sums(a, b, c, values=None, exclude_self=False):
    """Row-wise log sum_j exp(s_ij) + c_i of s = a @ b, shifted by each row's largest term.

    The products run in :func:`_product_blocks` (``exclude_self`` as
    there), so no row's bits depend on its batch.  Given ``values``
    (m, k), also returns the (n, k) means of its rows under each row's
    weights exp(s_ij); otherwise the second result is None.
    """
    log_sums = np.empty(len(a))
    means = None if values is None else np.empty((len(a), values.shape[1]))
    for rows, s in _product_blocks(a, b, exclude_self):
        real = rows.stop - rows.start
        shift = s.max(axis=1)
        s -= shift[:, None]
        np.exp(s, out=s)
        total = s.sum(axis=1)
        log_sums[rows] = (shift + np.log(total))[:real] + c[rows]
        if means is not None:
            means[rows] = (np.dot(s, values) / total[:, None])[:real]
    return log_sums, means


def _kde_sums(a, b, values):
    """Row-wise log sum_j exp(s_ij) of s = a @ b <= 0, and the means of ``values``.

    a and b come from :func:`_sq_dist_rows` and :func:`_sq_dist_cols`, so
    exp(s) is summed unshifted.  ``values`` is [y, 1], (m, k + 1): one
    product exp(s) @ values per block gives the rows' weighted sums of y
    and, in its last column, the kernel sum itself, whose log is the
    log-sum and which the means of y divide by, so both results rest on
    one sum.  It runs as ``np.dot``, which releases the GIL while the ``@``
    operator holds it, so another group thread can compute beside it (see
    _BLOCK_TERMS for why the exponent product stays on ``np.matmul``).
    Rows whose sum falls below _SUM_FLOOR are recomputed by
    :func:`_shifted_sums` from the product without the row term.
    """
    weighted = np.empty((a.shape[0], values.shape[1]))
    for rows, s in _product_blocks(a, b):
        np.exp(s, out=s)
        weighted[rows] = np.dot(s, values)[: rows.stop - rows.start]
    total = weighted[:, -1]
    far = total < _SUM_FLOOR
    total[far] = 1.0
    log_sums = np.log(total)
    means = weighted[:, :-1] / total[:, None]
    if far.any():
        log_sums[far], means[far] = _shifted_sums(a[far, :-1], b[:-1], a[far, -1], values[:, :-1])
    return log_sums, means


def _kth_neighbour_distance(positions: np.ndarray, scale: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row to its k-th nearest other row, in units of ``scale``."""
    z = positions / scale
    a = _sq_dist_rows(z)
    n = len(z)
    kth = np.empty(n)
    for rows, s in _product_blocks(a[:, :-1], _sq_dist_cols(z)[:-1], exclude_self=True):
        # the k-th nearest neighbour has the k-th largest -|z_i - z_j|^2 / 2
        kth[rows] = np.partition(s[: rows.stop - rows.start], n - k, axis=1)[:, n - k]
    return np.sqrt(np.maximum(-2.0 * (kth + a[:, -1]), 0.0))


def kde_target(points, bandwidth, constraints: BoxConstraints | None = None) -> TargetDensity:
    """Gaussian KDE over ``points`` as a normalized target density.

    log f(t) = log [ (1 / (n prod h)) sum_m prod_d phi((t_d - p_md) / h_d) ];
    the gradient is analytic: (kernel-weighted mean of the points - t) / h^2.
    Both are reduced block by block from the exp of one matrix product per
    block of positions, taken about the points' mean so that data far from
    the origin keep their precision, and rest on one kernel sum per row:
    the target's ``log_f_and_grad`` makes that pass, and ``log_f`` and
    ``grad_log_f`` are its two halves.  ``constraints`` are attached
    unmodified, so the kernel itself is untouched and samplers simply
    bounce off the box.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"points must be a nonempty (n, dim) array, got shape {pts.shape}")
    n, dim = pts.shape
    h = _as_bandwidth(bandwidth, dim)
    const = -np.log(n) - np.log(h).sum() - 0.5 * dim * _LOG_2PI
    centre = pts.mean(axis=0)
    y = (pts - centre) / h
    b = _sq_dist_cols(y)
    y1 = np.column_stack([y, np.ones(n)])

    def log_f_and_grad(pos):
        z = (pos - centre) / h
        log_sums, means = _kde_sums(_sq_dist_rows(z), b, y1)
        return log_sums + const, (means - z) / h

    return _make_target(dim, lambda pos: log_f_and_grad(pos)[0],
                        lambda pos: log_f_and_grad(pos)[1], constraints=constraints,
                        batch_log_f_and_grad=log_f_and_grad)


def loo_log_density_all(positions: np.ndarray, bandwidth) -> np.ndarray:
    """Leave-one-out KDE log-density of every particle at once.

    Entry i is the log-density at ``positions[i]`` of the Gaussian KDE
    built from the other n-1 rows.  ``bandwidth`` is an (n, dim) array
    giving each particle its own evaluation bandwidth (a balloon
    estimate), or one vector (or scalar) shared by all particles, which
    is evaluated as that vector given to every particle.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n, dim = positions.shape
    if n < 2:
        raise ValueError("leave-one-out estimate needs at least 2 particles")
    h = np.asarray(bandwidth)
    if h.ndim <= 1:
        h = np.broadcast_to(_as_bandwidth(bandwidth, dim), (n, dim))
    elif h.shape != (n, dim):
        raise ValueError(f"per-particle bandwidth must have shape {(n, dim)}")
    else:
        if not (isinstance(bandwidth, np.ndarray) and h.dtype.kind in "fiu"):
            # np.asarray reads True as 1.0 in a list of floats
            for entry in np.asarray(bandwidth, dtype=object).flat:
                _as_real(entry, "bandwidth")
        h = h.astype(float, copy=False)
        if np.any(h <= 0) or not np.all(np.isfinite(h)):
            raise ValueError("bandwidth components must be strictly positive")
    # -sum_d (x_id - x_jd)^2 / (2 h_id^2): the row's own 1/h^2 scales
    # both x_j and x_j^2, so the product has 2 dim coordinates
    inv2 = 1.0 / (h * h)
    a = np.column_stack([positions * inv2, -0.5 * inv2])
    b = np.ascontiguousarray(np.column_stack([positions, positions**2]).T)
    c = -0.5 * (positions * positions * inv2).sum(axis=1)
    log_sums, _ = _shifted_sums(a, b, c, exclude_self=True)
    return log_sums - np.log(n - 1) - np.log(h).sum(axis=1) - 0.5 * dim * _LOG_2PI


def silverman_bandwidth(ensemble: Ensemble) -> np.ndarray:
    """Rule-of-thumb bandwidth h_d = sd_d * (4 / ((d + 2) n))^(1 / (d + 4)).

    Uses the per-dimension sample standard deviation (ddof=1).  Raises
    :class:`DegenerateEnsembleError` when any dimension has zero spread.
    """
    n, dim = ensemble.n_particles, ensemble.dim
    sd = ensemble.positions.std(axis=0, ddof=1)
    if np.any(sd <= 0) or not np.all(np.isfinite(sd)):
        raise DegenerateEnsembleError("zero spread in some dimension; cannot pick a bandwidth")
    return sd * (4.0 / ((dim + 2.0) * n)) ** (1.0 / (dim + 4.0))
