# hsmc before numpy, as the hsmc command imports them: importing hsmc keeps
# OpenBLAS on the calling thread, so this process runs one thread and
# run_smc may run its groups in forked workers
import hsmc  # noqa: F401, I001

import numpy as np
import pytest

from hsmc.kernels import _leapfrog_batch, _reflect_box


def finite_difference_gradients(log_f, points, rel_step=1e-6):
    """Central-difference gradients at every row, steps scaled to each coordinate.

    All 2 * n * dim shifted points go through ``log_f`` in one batch call.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    steps = rel_step * np.maximum(1.0, np.abs(points))
    shifts = np.eye(dim)[None, :, :] * steps[:, :, None]  # (n, dim, dim): row d moves x_d
    shifted = np.concatenate([points[:, None, :] + shifts, points[:, None, :] - shifts])
    values = log_f(shifted.reshape(-1, dim)).reshape(2 * n, dim)
    return (values[:n] - values[n:]) / (2.0 * steps)


def assert_gradient_matches(target, points, rel_tol=1e-5):
    """Check analytic against finite-difference gradients at many points."""
    points = np.asarray(points, dtype=float)
    analytic = target.grad_log_f(points)
    numeric = finite_difference_gradients(target.log_f, points)
    scale = np.maximum(1e-6, np.abs(numeric))
    rel = (np.abs(analytic - numeric) / scale).max(axis=1)
    worst = int(np.argmax(rel))
    assert rel[worst] < rel_tol, (
        f"gradient mismatch at {points[worst]}: {analytic[worst]} vs {numeric[worst]}"
    )


def reflect_into_box(q, p, lower, upper):
    """Fold one coordinate into [lower, upper] with the kernels' batch reflection."""
    q2, p2 = _reflect_box(np.array([q]), np.array([p]), np.array([lower]), np.array([upper]))
    return float(q2[0]), float(p2[0])


def leapfrog_proposal(target, positions, momenta, config):
    """The leapfrog trajectory map on a batch of (n, dim) phase points."""
    positions = np.asarray(positions, dtype=float)
    q, p, _, _ = _leapfrog_batch(
        target, positions, np.asarray(momenta, dtype=float), target.grad_log_f(positions), config
    )
    return q, p


# Component maxima of the smiley target's three-bump mixture: one bump
# per "eye" ridge apex at x = +/-2.5, plus the parabola bump through the
# origin.
SMILEY_MODE_CENTERS = np.array([[2.5, 38.0 / 1.5], [-2.5, 38.0 / 1.5], [0.0, 0.0]])


def mode_mass(ensemble, mode_centers):
    """Fraction of the ensemble's particles nearest to each mode center.

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
    return np.bincount(nearest, minlength=centers.shape[0]) / ensemble.n_particles


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
