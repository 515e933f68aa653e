"""Gaussian kernel density estimation.

Provides KDE-backed target densities (with optional box support) and the
leave-one-out density estimate that drives kernel-based correction
weights.  All log-densities are computed through log-sum-exp so thousands
of kernels cannot underflow.
"""

from __future__ import annotations

import numpy as np

from .core import BoxConstraints, DegenerateEnsembleError, Ensemble, TargetDensity
from .targets import _make_target

__all__ = ["kde_target", "loo_log_density_all", "silverman_bandwidth"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _as_bandwidth(bandwidth, dim: int) -> np.ndarray:
    h = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if h.shape == (1,) and dim > 1:
        h = np.full(dim, h[0])
    if h.shape != (dim,):
        raise ValueError(f"bandwidth must be scalar or length-{dim}")
    if np.any(h <= 0) or not np.all(np.isfinite(h)):
        raise ValueError("bandwidth components must be strictly positive")
    return h


def _kde_parts(positions: np.ndarray, points: np.ndarray, h: np.ndarray):
    """Stabilized kernel sums: row shifts and scaled weights exp(sq - shift).

    positions (n, d) against points (m, d); the density at row i equals
    exp(shift_i) * w_i.sum() / (count * prod(h) * (2 pi)^(d/2)).  The
    squared distances are expanded through a matrix product so large
    clouds evaluate at BLAS speed.
    """
    zp = positions / h
    zk = points / h
    sq = zp @ zk.T
    sq *= 2.0
    sq -= (zp * zp).sum(axis=1)[:, None]
    sq -= (zk * zk).sum(axis=1)[None, :]
    sq *= 0.5
    shift = sq.max(axis=-1)
    w = np.exp(sq - shift[:, None])
    return shift, w


def kde_target(points, bandwidth, constraints: BoxConstraints | None = None) -> TargetDensity:
    """Gaussian KDE over ``points`` as a normalized target density.

    log f(t) = log [ (1 / (n prod h)) sum_m prod_d phi((t_d - p_md) / h_d) ];
    the gradient is analytic.  ``constraints`` are attached unmodified, so
    the kernel itself is untouched and samplers simply bounce off the box.
    """
    pts = np.atleast_2d(np.array(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, dim) array")
    n, dim = pts.shape
    h = _as_bandwidth(bandwidth, dim)
    const = -np.log(n) - np.log(h).sum() - 0.5 * dim * _LOG_2PI

    def batch_log_f(pos):
        shift, w = _kde_parts(pos, pts, h)
        return shift + np.log(w.sum(axis=-1)) + const

    def batch_grad(pos):
        _, w = _kde_parts(pos, pts, h)
        total = w.sum(axis=-1)
        # sum_m w_m (p_m - t) / h^2 collapses to one matrix product
        return ((w @ pts) / total[:, None] - pos) / (h * h)

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
        sq = z @ z.T
        sq *= 2.0
        norms = (z * z).sum(axis=1)
        sq -= norms[:, None]
        sq -= norms[None, :]
        sq *= 0.5
        log_h_sum = np.log(h).sum()
    else:
        if h.shape != (n, dim):
            raise ValueError(f"per-particle bandwidth must have shape {(n, dim)}")
        if np.any(h <= 0) or not np.all(np.isfinite(h)):
            raise ValueError("bandwidth components must be strictly positive")
        # (theta_i - theta_m)^2 / h_i^2 expanded with row-wise scalings
        inv2 = 1.0 / (h * h)
        scaled = positions * inv2
        sq = scaled @ positions.T
        sq *= 2.0
        sq -= (positions * scaled).sum(axis=1)[:, None]
        sq -= inv2 @ (positions**2).T
        sq *= 0.5
        log_h_sum = np.log(h).sum(axis=1)
    np.fill_diagonal(sq, -np.inf)
    shift = sq.max(axis=-1)
    s = np.exp(sq - shift[:, None]).sum(axis=-1)
    return shift + np.log(s) - np.log(n - 1) - log_h_sum - 0.5 * dim * _LOG_2PI


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
