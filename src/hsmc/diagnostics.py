"""Estimators and health checks computed from ensembles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateWeightsError, Ensemble

__all__ = ["MomentSummary", "weighted_moments", "effective_sample_size"]


@dataclass(frozen=True)
class MomentSummary:
    """Sample mean and diagonal covariance."""

    mean: np.ndarray
    covariance_diag: np.ndarray


def weighted_moments(ensemble: Ensemble) -> MomentSummary:
    """Population mean and variance (divide by N) of equally weighted rows."""
    positions = ensemble.positions
    return MomentSummary(positions.mean(axis=0), positions.var(axis=0))


def effective_sample_size(weights) -> float:
    """ESS = (sum w)^2 / sum w^2; lies in [1, N] and is scale-invariant."""
    w = np.asarray(weights, dtype=float)
    denom = (w**2).sum()
    total = w.sum()
    if denom <= 0 or not np.isfinite(total) or total <= 0:
        raise DegenerateWeightsError("cannot compute ESS of degenerate weights")
    # total * total, not total**2: a scalar power goes through libm pow, which
    # need not round correctly, so rescaling w by 2**k could move the last bit
    return float(total * total / denom)

