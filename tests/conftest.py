import numpy as np
import pytest

from hsmc.kernels import _leapfrog_batch, _reflect_box


def finite_difference_gradient(log_f, position, rel_step=1e-6):
    """Central-difference gradient with a step scaled to each coordinate."""
    position = np.asarray(position, dtype=float)
    grad = np.zeros_like(position)
    for d in range(position.size):
        step = rel_step * max(1.0, abs(position[d]))
        e = np.zeros_like(position)
        e[d] = step
        grad[d] = (log_f(position + e) - log_f(position - e)) / (2.0 * step)
    return grad


def assert_gradient_matches(target, points, rel_tol=1e-5):
    """Check analytic against finite-difference gradients at many points."""
    for x in points:
        analytic = target.grad_log_f(x)
        numeric = finite_difference_gradient(target.log_f, x)
        scale = np.maximum(1e-6, np.abs(numeric))
        rel = np.abs(analytic - numeric) / scale
        assert rel.max() < rel_tol, f"gradient mismatch at {x}: {analytic} vs {numeric}"


def reflect_into_box(q, p, lower, upper):
    """Fold one coordinate into [lower, upper] with the kernels' batch reflection."""
    q2, p2 = _reflect_box(np.array([q]), np.array([p]), np.array([lower]), np.array([upper]))
    return float(q2[0]), float(p2[0])


def leapfrog_proposal(target, position, momentum, config):
    """The leapfrog trajectory map on one phase point or on a batch of them."""
    position = np.asarray(position, dtype=float)
    single = position.ndim == 1
    q, p = _leapfrog_batch(
        target, np.atleast_2d(position), np.atleast_2d(np.asarray(momentum, dtype=float)), config
    )
    return (q[0], p[0]) if single else (q, p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
