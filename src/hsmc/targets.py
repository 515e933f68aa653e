"""Built-in target densities and wrappers for tempering and annealing.

All targets expose unnormalized log-kernels (samplers only ever need
ratios) together with analytic gradients.  Every ``log_f`` takes a batch
of positions ``(n, dim)`` and returns ``(n,)``; a single position is the
batch ``position[None]``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import BoxConstraints, RandomSource, TargetDensity, _readonly, as_generator

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

    Adds the ``(n, dim)`` shape check and -inf masking of everything
    outside the constraint box.
    """

    def checked(position) -> np.ndarray:
        pos = np.asarray(position, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != dim:
            raise ValueError(f"positions must have shape (n, dim) = (n, {dim}), got {pos.shape}")
        return pos

    def log_f(position):
        pos = checked(position)
        out = np.asarray(batch_log_f(pos), dtype=float)
        return out if constraints is None else np.where(constraints.contains(pos), out, -np.inf)

    def grad_log_f(position):
        return np.asarray(batch_grad(checked(position)), dtype=float)

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
        if not np.all(np.isfinite(offers)):
            raise ValueError("every offer must be a finite number")
        if np.any(offers < -2.0) or np.any(offers > 8.0):
            raise ValueError("every offer must lie in [-2, 8]")
        if not np.all(np.isin(choices, (0.0, 1.0))):
            raise ValueError("choices must be 0 or 1")
        object.__setattr__(self, "offers", _readonly(offers))
        object.__setattr__(self, "choices", _readonly(choices))

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


# Particle x observation terms per block of rows in the logit layer.  A
# block's scratch arrays (six of 2^14 float64 for the gradient, 768 kB)
# stay in a core's L2 cache.  On a 2-core Xeon VM at 512 particles x 400
# observations, the gradient took 11.4, 11.3 and 11.5 ms (min of 300
# calls) with blocks of 2^13, 2^14 and 2^15 terms, and 12.0 ms as one
# block; log_f took 6.1, 5.9, 5.9 and 6.8 ms.
_LOGIT_BLOCK_TERMS = 1 << 14


def _logit_blocks(pos: np.ndarray, n_obs: int, n_buffers: int):
    """Yield (rows, buffers): blocks of rows of ``pos`` with scratch arrays.

    Each of the ``n_buffers`` arrays holds one (rows, n_obs) block of
    terms; they are reused, so reduce a block before the next one is formed.
    """
    step = max(1, _LOGIT_BLOCK_TERMS // n_obs)
    buf = np.empty((n_buffers, min(step, len(pos)), n_obs))
    for start in range(0, len(pos), step):
        stop = min(start + step, len(pos))
        yield slice(start, stop), buf[:, : stop - start]


def _logit_utility(beta, x, buf):
    """V(x) = 2 sin(b2 x) / (1 + 0.5 (b1 - x)^2) for rows (b1, b2) of ``beta``.

    Works in the first five arrays of ``buf`` and returns them as
    (b1 - x, b2 x, 2 sin(b2 x), the denominator, V); the gradient reuses
    the first four.
    """
    d, arg, two_sin, denom, v = buf[:5]
    np.subtract(beta[:, 0:1], x, out=d)
    np.multiply(beta[:, 1:2], x, out=arg)
    np.sin(arg, out=two_sin)
    two_sin *= 2.0
    np.multiply(d, d, out=denom)
    denom *= 0.5
    denom += 1.0
    np.divide(two_sin, denom, out=v)
    return d, arg, two_sin, denom, v


def _exp_neg_abs(v, out):
    """e^-|v| into ``out``: both log(1 + e^v) and the sigmoid are stable built on it."""
    np.abs(v, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def _log1pexp(v, scratch, out):
    """log(1 + e^v) = max(v, 0) + log1p(e^-|v|) into ``out``, stable at extreme v."""
    np.log1p(_exp_neg_abs(v, out=scratch), out=scratch)
    np.maximum(v, 0.0, out=out)
    out += scratch
    return out


def _sigmoid(v, scratch):
    """Overwrite ``v`` with e^v / (1 + e^v), stable at extreme v.

    That is where(v >= 0, 1, e) / (1 + e) with e = e^-|v|; the numerator
    is e^min(v, 0), which is exactly 1 for v >= 0 and exactly e otherwise,
    and costs one more exp instead of a masked copy.
    """
    e = _exp_neg_abs(v, out=scratch)
    e += 1.0
    np.minimum(v, 0.0, out=v)
    np.exp(v, out=v)
    return np.divide(v, e, out=v)


def nonlinear_logit_loglik(data: LogitData) -> TargetDensity:
    """Log-likelihood of the 2-parameter nonlinear binary logit.

    The acceptance probability of an offer x is e^V / (1 + e^V) with
    V(x) = 2 sin(b2 x) / (1 + 0.5 (b1 - x)^2); the target is the
    log-likelihood over (b1, b2), which is multimodal in b2.  Both the
    log-likelihood and its gradient are summed over the observations
    block of rows by block of rows, so no (positions x observations)
    array is built; each row's sums match the unblocked formulas bit for
    bit, whatever the batch and the row's place in it.
    """
    if not isinstance(data, LogitData):
        raise ValueError("data must be a LogitData instance")
    x = data.offers[None, :]
    c = data.choices[None, :]
    two_x = 2.0 * x
    n_obs = x.shape[1]

    def batch_log_f(pos):
        out = np.empty(len(pos))
        for rows, buf in _logit_blocks(pos, n_obs, 5):
            _, arg, _, denom, v = _logit_utility(pos[rows], x, buf)
            # c V - log(1 + e^V)
            _log1pexp(v, arg, out=denom)
            v *= c
            v -= denom
            out[rows] = v.sum(axis=1)
        return out

    def batch_grad(pos):
        out = np.empty((len(pos), 2))
        for rows, buf in _logit_blocks(pos, n_obs, 6):
            d, arg, two_sin, denom, v = _logit_utility(pos[rows], x, buf)
            # resid = c - sigmoid(V)
            resid = np.subtract(c, _sigmoid(v, buf[5]), out=v)
            # dV/db1 = -2 sin(b2 x) (b1 - x) / denom^2
            np.negative(two_sin, out=two_sin)
            two_sin *= d
            np.multiply(denom, denom, out=d)
            two_sin /= d
            two_sin *= resid
            out[rows, 0] = two_sin.sum(axis=1)
            # dV/db2 = 2 x cos(b2 x) / denom
            np.cos(arg, out=arg)
            np.multiply(two_x, arg, out=arg)
            arg /= denom
            arg *= resid
            out[rows, 1] = arg.sum(axis=1)
        return out

    return _make_target(2, batch_log_f, batch_grad)


def simulate_logit_data(
    n: int, beta: tuple[float, float], rng: RandomSource | np.random.Generator
) -> LogitData:
    """Simulate n choice experiments with offers uniform on [-2, 8]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = as_generator(rng)
    offers = gen.uniform(-2.0, 8.0, size=n)
    buf = np.empty((6, 1, n))
    *_, v = _logit_utility(np.array([beta], dtype=float), offers[None, :], buf)
    choices = (gen.uniform(size=n) < _sigmoid(v, buf[5])[0]).astype(float)
    return LogitData(offers, choices)


def powered(target: TargetDensity, gamma: float) -> TargetDensity:
    """Raise a target to a power: log f_gamma = gamma * log f  (gamma > 0)."""
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be strictly positive")
    gamma = float(gamma)
    # the inner target checks shapes and masks its own box
    return TargetDensity(
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

        # the other end's box still bounds the support
        def end_log_f(pos):
            out = end.log_f(pos)
            return out if constraints is None else np.where(constraints.contains(pos), out, -np.inf)

        return TargetDensity(f.dim, end_log_f, end.grad_log_f, constraints=constraints)

    # both ends check shapes and mask their own boxes, whose intersection
    # is the bridge's box
    def log_f(pos):
        la, lb = f.log_f(pos), f1.log_f(pos)
        return np.where(np.isneginf(la) | np.isneginf(lb), -np.inf, phi * la + (1.0 - phi) * lb)

    def grad_log_f(pos):
        return phi * f.grad_log_f(pos) + (1.0 - phi) * f1.grad_log_f(pos)

    return TargetDensity(f.dim, log_f, grad_log_f, constraints=constraints)


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
