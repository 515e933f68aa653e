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
    q, p, _ = _leapfrog_batch(
        target, positions, np.asarray(momenta, dtype=float), target.grad_log_f(positions), config
    )
    return q, p


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
