"""Estimators and health checks computed from ensembles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateWeightsError, Ensemble, normalize_weights

__all__ = ["MomentSummary", "weighted_moments", "effective_sample_size", "mode_mass"]


@dataclass(frozen=True)
class MomentSummary:
    """Weighted mean and diagonal covariance."""

    mean: np.ndarray
    covariance_diag: np.ndarray


def weighted_moments(ensemble: Ensemble) -> MomentSummary:
    """Weighted sample mean and diagonal covariance of an ensemble.

    With equal weights this reduces to the plain sample moments
    (population normalization, i.e. divide by the total weight).
    """
    w = normalize_weights(ensemble)
    mean = w @ ensemble.positions
    centered = ensemble.positions - mean
    cov_diag = w @ (centered**2)
    return MomentSummary(mean, cov_diag)


def effective_sample_size(weights) -> float:
    """ESS = (sum w)^2 / sum w^2; lies in [1, N] and is scale-invariant."""
    w = np.asarray(weights, dtype=float)
    denom = (w**2).sum()
    total = w.sum()
    if denom <= 0 or not np.isfinite(total) or total <= 0:
        raise DegenerateWeightsError("cannot compute ESS of degenerate weights")
    return float(total**2 / denom)


def mode_mass(ensemble: Ensemble, mode_centers) -> np.ndarray:
    """Fraction of ensemble weight nearest to each mode center.

    Particles are assigned to their nearest center in Euclidean distance;
    the returned fractions sum to 1 and permuting the centers permutes the
    fractions.
    """
    centers = np.atleast_2d(np.asarray(mode_centers, dtype=float))
    if centers.shape[0] < 1 or centers.size == 0:
        raise ValueError("need at least one mode center")
    if centers.shape[1] != ensemble.dim:
        raise ValueError("mode centers must match the ensemble dimension")
    d2 = ((ensemble.positions[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    nearest = d2.argmin(axis=1)
    if not np.all(np.isfinite(ensemble.weights)) or ensemble.weights.sum() <= 0:
        raise DegenerateWeightsError("mode mass needs normalizable weights")
    binned = np.bincount(nearest, weights=ensemble.weights, minlength=centers.shape[0])
    return binned / binned.sum()
