"""Gaussian kernel density estimation.

Provides KDE-backed target densities (with optional box support) and the
leave-one-out density estimate that drives kernel-based correction
weights.  All log-densities are computed through log-sum-exp so thousands
of kernels cannot underflow.  Every kernel sum runs over blocks of rows
small enough to stay in a core's cache, and each block is reduced to what
the caller needs before the next one is formed, so no full
(positions x points) array is ever built.
"""

from __future__ import annotations

import numpy as np

from .core import BoxConstraints, DegenerateEnsembleError, Ensemble, TargetDensity
from .targets import _make_target

__all__ = ["kde_target", "loo_log_density_all", "silverman_bandwidth"]

_LOG_2PI = float(np.log(2.0 * np.pi))

# Kernel terms per block of rows.  A block (1 MB of float64) stays in a
# core's L2 cache, and each numpy call on it holds the GIL released long
# enough for a second group thread to overlap: on a 2-core Xeon VM, blocks
# of 2^15 terms left two threads no faster than one.  A block's matrix
# products make 2^17 multiply-adds per inner coordinate: k + 1 of them for
# k dimensions (k for the gradient, 2k with per-particle bandwidths).
# OpenBLAS 0.3.31 keeps products of up to 6 * 2^17 multiply-adds on the
# calling thread (it splits those of 2^20), so for k <= 5 (k <= 3 with
# per-particle bandwidths) and up to 2^17 points the group pool keeps the
# cores and the bits do not depend on the BLAS thread setting.
_BLOCK_TERMS = 1 << 17


def _as_bandwidth(bandwidth, dim: int) -> np.ndarray:
    h = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if h.shape == (1,) and dim > 1:
        h = np.full(dim, h[0])
    if h.shape != (dim,):
        raise ValueError(f"bandwidth must be scalar or length-{dim}")
    if np.any(h <= 0) or not np.all(np.isfinite(h)):
        raise ValueError("bandwidth components must be strictly positive")
    return h


def _half_sq_rows(x: np.ndarray):
    """Row factors a, c of -|x_i - y_j|^2 / 2 = (a @ b)[i, j] + c[i].

    b comes from :func:`_half_sq_cols`: the column term -|y_j|^2 / 2 rides
    in the product as one more coordinate.  The row term c is constant
    along a row, so it stays out of the exponent and is added to the row's
    log-sum afterwards.
    """
    return np.column_stack([x, np.ones(len(x))]), -0.5 * (x * x).sum(axis=1)


def _half_sq_cols(y: np.ndarray) -> np.ndarray:
    """Column factor b of -|x_i - y_j|^2 / 2, see :func:`_half_sq_rows`."""
    return np.ascontiguousarray(np.column_stack([y, -0.5 * (y * y).sum(axis=1)]).T)


def _row_blocks(a: np.ndarray, b: np.ndarray, exclude_self: bool = False):
    """Yield (rows, s) with s = a[rows] @ b, about _BLOCK_TERMS entries at a time.

    ``exclude_self`` sets s[i, i] to -inf, for a and b built from the same
    points.  The block's array is reused, so reduce s before the next block.
    """
    n, m = a.shape[0], b.shape[1]
    step = max(1, _BLOCK_TERMS // m)
    buf = np.empty((min(step, n), m))
    for start in range(0, n, step):
        stop = min(start + step, n)
        s = np.matmul(a[start:stop], b, out=buf[: stop - start])
        if exclude_self:
            i = np.arange(stop - start)
            s[i, start + i] = -np.inf
        yield slice(start, stop), s


def _log_kernel_sums(a, b, values=None, exclude_self: bool = False):
    """Row-wise log sum_j exp(s_ij) of s = a @ b, block by block.

    Given ``values`` (m, k), also returns the (n, k) means of its rows
    under each row's weights exp(s_ij); otherwise the second result is None.
    """
    n = a.shape[0]
    log_sums = np.empty(n)
    means = None if values is None else np.empty((n, values.shape[1]))
    for rows, s in _row_blocks(a, b, exclude_self):
        shift = s.max(axis=1)
        s -= shift[:, None]
        np.exp(s, out=s)
        total = s.sum(axis=1)
        log_sums[rows] = shift + np.log(total)
        if means is not None:
            means[rows] = (s @ values) / total[:, None]
    return log_sums, means


def _kth_neighbour_distance(positions: np.ndarray, scale: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row to its k-th nearest other row, in units of ``scale``."""
    z = positions / scale
    a, c = _half_sq_rows(z)
    b = _half_sq_cols(z)
    n = len(z)
    kth = np.empty(n)
    for rows, s in _row_blocks(a, b, exclude_self=True):
        # the k-th nearest neighbour has the k-th largest -|z_i - z_j|^2 / 2
        kth[rows] = np.partition(s, n - k, axis=1)[:, n - k]
    return np.sqrt(np.maximum(-2.0 * (kth + c), 0.0))


def kde_target(points, bandwidth, constraints: BoxConstraints | None = None) -> TargetDensity:
    """Gaussian KDE over ``points`` as a normalized target density.

    log f(t) = log [ (1 / (n prod h)) sum_m prod_d phi((t_d - p_md) / h_d) ];
    the gradient is analytic: (kernel-weighted mean of the points - t) / h^2.
    Both are reduced block by block from one matrix product per block of
    positions.  ``constraints`` are attached unmodified, so the kernel
    itself is untouched and samplers simply bounce off the box.
    """
    pts = np.atleast_2d(np.array(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, dim) array")
    n, dim = pts.shape
    h = _as_bandwidth(bandwidth, dim)
    const = -np.log(n) - np.log(h).sum() - 0.5 * dim * _LOG_2PI
    b = _half_sq_cols(pts / h)

    def batch_log_f(pos):
        a, c = _half_sq_rows(pos / h)
        log_sums, _ = _log_kernel_sums(a, b)
        return log_sums + c + const

    def batch_grad(pos):
        a, _ = _half_sq_rows(pos / h)
        _, means = _log_kernel_sums(a, b, values=pts)
        return (means - pos) / (h * h)

    return _make_target(dim, batch_log_f, batch_grad, constraints=constraints)


def loo_log_density_all(positions: np.ndarray, bandwidth) -> np.ndarray:
    """Leave-one-out KDE log-density of every particle at once.

    Entry i is the log-density at ``positions[i]`` of the Gaussian KDE
    built from the other n-1 rows.  ``bandwidth`` is either one vector
    shared by all particles or an (n, dim) array giving each particle its
    own evaluation bandwidth (a balloon estimate).
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n, dim = positions.shape
    if n < 2:
        raise ValueError("leave-one-out estimate needs at least 2 particles")
    h = np.asarray(bandwidth, dtype=float)
    if h.ndim <= 1:
        h = _as_bandwidth(bandwidth, dim)
        z = positions / h
        a, c = _half_sq_rows(z)
        b = _half_sq_cols(z)
        log_h_sum = np.log(h).sum()
    else:
        if h.shape != (n, dim):
            raise ValueError(f"per-particle bandwidth must have shape {(n, dim)}")
        if np.any(h <= 0) or not np.all(np.isfinite(h)):
            raise ValueError("bandwidth components must be strictly positive")
        # -sum_d (x_id - x_jd)^2 / (2 h_id^2): the row's own 1/h^2 scales
        # both x_j and x_j^2, so the product has 2 dim coordinates
        inv2 = 1.0 / (h * h)
        a = np.column_stack([positions * inv2, -0.5 * inv2])
        b = np.ascontiguousarray(np.column_stack([positions, positions**2]).T)
        c = -0.5 * (positions * positions * inv2).sum(axis=1)
        log_h_sum = np.log(h).sum(axis=1)
    log_sums, _ = _log_kernel_sums(a, b, exclude_self=True)
    return log_sums + c - np.log(n - 1) - log_h_sum - 0.5 * dim * _LOG_2PI


def silverman_bandwidth(ensemble: Ensemble | np.ndarray) -> np.ndarray:
    """Rule-of-thumb bandwidth h_d = sd_d * (4 / ((d + 2) n))^(1 / (d + 4)).

    Uses the per-dimension sample standard deviation (ddof=1).  Raises
    :class:`DegenerateEnsembleError` when any dimension has zero spread.
    """
    positions = ensemble.positions if isinstance(ensemble, Ensemble) else np.asarray(ensemble)
    positions = np.atleast_2d(positions)
    n, dim = positions.shape
    if n < 2:
        raise ValueError("bandwidth selection needs at least 2 particles")
    sd = positions.std(axis=0, ddof=1)
    if np.any(sd <= 0) or not np.all(np.isfinite(sd)):
        raise DegenerateEnsembleError("zero spread in some dimension; cannot pick a bandwidth")
    return sd * (4.0 / ((dim + 2.0) * n)) ** (1.0 / (dim + 4.0))
