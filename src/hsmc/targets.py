"""Built-in target densities and wrappers for tempering and annealing.

All targets expose unnormalized log-kernels (samplers only ever need
ratios) together with analytic gradients.  Every ``log_f`` accepts a
single position ``(dim,)`` or a batch ``(n, dim)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import BoxConstraints, RandomSource, TargetDensity, as_generator

__all__ = [
    "LogitData",
    "rosenbrock",
    "gaussian",
    "smiley",
    "dropwave",
    "nonlinear_logit_loglik",
    "simulate_logit_data",
    "powered",
    "geometric_bridge",
    "rejection_sample",
    "sample_smiley_data",
    "sample_dropwave_data",
    "SMILEY_MODE_CENTERS",
    "DROPWAVE_BOX",
]

# Component maxima of the three-bump mixture below: one bump per "eye"
# ridge apex at x = +/-2.5, plus the parabola bump through the origin.
SMILEY_MODE_CENTERS = np.array([[2.5, 38.0 / 1.5], [-2.5, 38.0 / 1.5], [0.0, 0.0]])

DROPWAVE_BOX = BoxConstraints(lower=(-2.5, -2.5), upper=(2.5, 2.5))


def _make_target(
    dim: int,
    batch_log_f: Callable[[np.ndarray], np.ndarray],
    batch_grad: Callable[[np.ndarray], np.ndarray],
    constraints: BoxConstraints | None = None,
) -> TargetDensity:
    """Wrap batched implementations into a TargetDensity.

    Adds single-position promotion, dimension checks, and -inf masking of
    everything outside the constraint box.
    """

    def log_f(position):
        pos = np.asarray(position, dtype=float)
        single = pos.ndim == 1
        pos2 = np.atleast_2d(pos)
        if pos2.shape[-1] != dim:
            raise ValueError(f"position has dimension {pos2.shape[-1]}, expected {dim}")
        out = np.asarray(batch_log_f(pos2), dtype=float)
        if constraints is not None:
            out = np.where(constraints.contains(pos2), out, -np.inf)
        return float(out[0]) if single else out

    def grad_log_f(position):
        pos = np.asarray(position, dtype=float)
        single = pos.ndim == 1
        pos2 = np.atleast_2d(pos)
        if pos2.shape[-1] != dim:
            raise ValueError(f"position has dimension {pos2.shape[-1]}, expected {dim}")
        out = np.asarray(batch_grad(pos2), dtype=float)
        return out[0] if single else out

    return TargetDensity(dim=dim, log_f=log_f, grad_log_f=grad_log_f, constraints=constraints)


def rosenbrock() -> TargetDensity:
    """Banana-shaped 2-d benchmark: log f(x, y) = (-5 (y - x^2)^2 - x^2) / 8."""

    def batch_log_f(pos):
        x, y = pos[:, 0], pos[:, 1]
        return (-5.0 * (y - x * x) ** 2 - x * x) / 8.0

    def batch_grad(pos):
        x, y = pos[:, 0], pos[:, 1]
        d = y - x * x
        gx = (20.0 * x * d - 2.0 * x) / 8.0
        gy = -10.0 * d / 8.0
        return np.stack([gx, gy], axis=-1)

    return _make_target(2, batch_log_f, batch_grad)


def gaussian(mean, cov_diag) -> TargetDensity:
    """Diagonal-covariance Gaussian kernel: log f = -sum (t - mu)^2 / (2 s^2)."""
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(cov_diag, dtype=float))
    if var.shape != mu.shape:
        raise ValueError("mean and cov_diag must have the same length")
    if np.any(var <= 0) or not np.all(np.isfinite(var)):
        raise ValueError("cov_diag must be strictly positive")

    def batch_log_f(pos):
        return -0.5 * (((pos - mu) ** 2) / var).sum(axis=-1)

    def batch_grad(pos):
        return -(pos - mu) / var

    return _make_target(mu.shape[0], batch_log_f, batch_grad)


def _smiley_exponents(x, y):
    """The three bump exponents h_i with g = sum_i exp(h_i)."""
    a = x - 2.5
    qa = -a * a - 1.5 * y + 38.0
    h1 = (-6.0 * qa * qa - a * a) / 5.0

    b = x + 2.5
    qb = -b * b - 1.5 * y + 38.0
    h2 = (-6.0 * qb * qb - b * b) / 5.0

    d = y - x * x
    h3 = (-5.0 * d * d - x * x) / 5.0
    return (h1, h2, h3), (a, qa, b, qb, d)


def smiley() -> TargetDensity:
    """Mixture of three bumps tracing a smiley face; multimodal benchmark.

    g(x, y) sums two "eye" ridges centred at x = +/-2.5 and a parabolic
    "smile" through the origin; the target is log g, computed via a shifted
    exponential sum so far-field evaluations do not underflow to -inf.
    """

    def batch_log_f(pos):
        x, y = pos[:, 0], pos[:, 1]
        (h1, h2, h3), _ = _smiley_exponents(x, y)
        h = np.stack([h1, h2, h3], axis=-1)
        m = h.max(axis=-1)
        return m + np.log(np.exp(h - m[:, None]).sum(axis=-1))

    def batch_grad(pos):
        x, y = pos[:, 0], pos[:, 1]
        (h1, h2, h3), (a, qa, b, qb, d) = _smiley_exponents(x, y)
        h = np.stack([h1, h2, h3], axis=-1)
        m = h.max(axis=-1)
        w = np.exp(h - m[:, None])

        # d h_i / d(x, y) for each bump
        g1x = (24.0 * a * qa - 2.0 * a) / 5.0
        g1y = 18.0 * qa / 5.0
        g2x = (24.0 * b * qb - 2.0 * b) / 5.0
        g2y = 18.0 * qb / 5.0
        g3x = (20.0 * x * d - 2.0 * x) / 5.0
        g3y = -10.0 * d / 5.0

        gx = np.stack([g1x, g2x, g3x], axis=-1)
        gy = np.stack([g1y, g2y, g3y], axis=-1)
        total = w.sum(axis=-1)
        return np.stack(
            [(w * gx).sum(axis=-1) / total, (w * gy).sum(axis=-1) / total], axis=-1
        )

    return _make_target(2, batch_log_f, batch_grad)


def dropwave() -> TargetDensity:
    """Rippled radial target log f = (cos(5 r) + 1) / (r^2 + 2) on [-2.5, 2.5]^2."""

    def batch_log_f(pos):
        r2 = (pos**2).sum(axis=-1)
        r = np.sqrt(r2)
        return (np.cos(5.0 * r) + 1.0) / (r2 + 2.0)

    def batch_grad(pos):
        r2 = (pos**2).sum(axis=-1)
        r = np.sqrt(r2)
        a = np.cos(5.0 * r) + 1.0
        b = r2 + 2.0
        # d cos(5r)/dx = -5 sin(5r) x / r; sin(5r)/r stays finite at the origin
        sin_over_r = 5.0 * np.sinc(5.0 * r / np.pi)
        coef = (-5.0 * sin_over_r * b - 2.0 * a) / (b * b)
        return coef[:, None] * pos

    return _make_target(2, batch_log_f, batch_grad, constraints=DROPWAVE_BOX)


@dataclass(frozen=True)
class LogitData:
    """Binary exchange-experiment records: offer positions and 0/1 choices."""

    offers: np.ndarray
    choices: np.ndarray

    def __post_init__(self):
        offers = np.atleast_1d(np.asarray(self.offers, dtype=float))
        choices = np.atleast_1d(np.asarray(self.choices, dtype=float))
        if offers.shape != choices.shape or offers.ndim != 1:
            raise ValueError("offers and choices must be equally long vectors")
        if offers.size == 0:
            raise ValueError("logit data must be nonempty")
        if np.any(offers < -2.0) or np.any(offers > 8.0):
            raise ValueError("every offer must lie in [-2, 8]")
        if not np.all(np.isin(choices, (0.0, 1.0))):
            raise ValueError("choices must be 0 or 1")
        offers = offers.copy()
        choices = choices.copy()
        offers.setflags(write=False)
        choices.setflags(write=False)
        object.__setattr__(self, "offers", offers)
        object.__setattr__(self, "choices", choices)

    def __len__(self) -> int:
        return self.offers.shape[0]

    def subset(self, n: int) -> "LogitData":
        return LogitData(self.offers[:n], self.choices[:n])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "choice"])
            for x, c in zip(self.offers, self.choices):
                writer.writerow([repr(float(x)), int(c)])

    @classmethod
    def from_csv(cls, path) -> "LogitData":
        rows = np.genfromtxt(Path(path), delimiter=",", names=True)
        data = np.atleast_1d(rows)
        return cls(data["x"], data["choice"])


def _logit_utility(beta1, beta2, x):
    """V(x) = 2 sin(b2 x) / (1 + 0.5 (b1 - x)^2) and its beta-gradient parts."""
    denom = 1.0 + 0.5 * (beta1 - x) ** 2
    v = 2.0 * np.sin(beta2 * x) / denom
    dv_db1 = -2.0 * np.sin(beta2 * x) * (beta1 - x) / denom**2
    dv_db2 = 2.0 * x * np.cos(beta2 * x) / denom
    return v, dv_db1, dv_db2


def _log1pexp(v):
    # log(1 + e^v) = max(v, 0) + log1p(e^-|v|), stable at extreme v
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def _sigmoid(v):
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def nonlinear_logit_loglik(data: LogitData) -> TargetDensity:
    """Log-likelihood of the 2-parameter nonlinear binary logit.

    The acceptance probability of an offer x is e^V / (1 + e^V) with
    V(x) = 2 sin(b2 x) / (1 + 0.5 (b1 - x)^2); the target is the
    log-likelihood over (b1, b2), which is multimodal in b2.
    """
    if not isinstance(data, LogitData):
        raise ValueError("data must be a LogitData instance")
    x = data.offers
    c = data.choices

    def batch_log_f(pos):
        v, _, _ = _logit_utility(pos[:, 0:1], pos[:, 1:2], x[None, :])
        return (c[None, :] * v - _log1pexp(v)).sum(axis=-1)

    def batch_grad(pos):
        v, dv1, dv2 = _logit_utility(pos[:, 0:1], pos[:, 1:2], x[None, :])
        resid = c[None, :] - _sigmoid(v)
        return np.stack([(resid * dv1).sum(axis=-1), (resid * dv2).sum(axis=-1)], axis=-1)

    return _make_target(2, batch_log_f, batch_grad)


def simulate_logit_data(
    n: int, beta: tuple[float, float], rng: RandomSource | np.random.Generator
) -> LogitData:
    """Simulate n choice experiments with offers uniform on [-2, 8]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = as_generator(rng)
    offers = gen.uniform(-2.0, 8.0, size=n)
    v, _, _ = _logit_utility(beta[0], beta[1], offers)
    choices = (gen.uniform(size=n) < _sigmoid(v)).astype(float)
    return LogitData(offers, choices)


def powered(target: TargetDensity, gamma: float) -> TargetDensity:
    """Raise a target to a power: log f_gamma = gamma * log f  (gamma > 0)."""
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be strictly positive")
    gamma = float(gamma)
    return _make_target(
        target.dim,
        lambda pos: gamma * target.log_f(pos),
        lambda pos: gamma * target.grad_log_f(pos),
        constraints=target.constraints,
    )


def geometric_bridge(f1: TargetDensity, f: TargetDensity, phi: float) -> TargetDensity:
    """Geometric interpolation log f_phi = phi log f + (1 - phi) log f1.

    phi must lie in [0, 1]; the support is the intersection of both
    supports, and zero-density (-inf) terms never produce NaN.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must lie in [0, 1]")
    if f1.dim != f.dim:
        raise ValueError("bridged targets must share one dimension")
    phi = float(phi)
    if f.constraints is not None:
        constraints = f.constraints.intersect(f1.constraints)
    else:
        constraints = f1.constraints
    if phi in (0.0, 1.0):
        end = f if phi == 1.0 else f1
        return TargetDensity(f.dim, end.log_f, end.grad_log_f, constraints=constraints)

    def batch_log_f(pos):
        la, lb = f.log_f(pos), f1.log_f(pos)
        return np.where(np.isneginf(la) | np.isneginf(lb), -np.inf, phi * la + (1.0 - phi) * lb)

    def batch_grad(pos):
        return phi * f.grad_log_f(pos) + (1.0 - phi) * f1.grad_log_f(pos)

    return _make_target(f.dim, batch_log_f, batch_grad, constraints=constraints)


def rejection_sample(
    target: TargetDensity,
    lower,
    upper,
    log_envelope: float,
    n: int,
    rng: RandomSource | np.random.Generator,
    batch: int = 65536,
) -> np.ndarray:
    """Draw n points from exp(log_f) by rejection against a uniform envelope.

    ``log_envelope`` must bound log_f from above on the box; the sampler is
    exact up to the (negligible) mass outside the box.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    gen = as_generator(rng)
    out = np.empty((n, lower.shape[0]))
    filled = 0
    while filled < n:
        pts = gen.uniform(lower, upper, size=(batch, lower.shape[0]))
        logu = np.log(gen.uniform(size=batch))
        keep = pts[logu < target.log_f(pts) - log_envelope]
        take = min(n - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def sample_smiley_data(n: int, rng: RandomSource | np.random.Generator) -> np.ndarray:
    """Sample points from the smiley mixture density.

    Each bump exponent is <= 0, so the mixture is bounded by 3; the box
    captures all but ~1e-5 of the relative mass.
    """
    return rejection_sample(smiley(), (-7.0, -2.5), (7.0, 27.5), np.log(3.0), n, rng)


def sample_dropwave_data(n: int, rng: RandomSource | np.random.Generator) -> np.ndarray:
    """Sample points from the dropwave density restricted to its box."""
    return rejection_sample(dropwave(), (-2.5, -2.5), (2.5, 2.5), 1.0, n, rng)
