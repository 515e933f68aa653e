import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import assert_gradient_matches

from hsmc import kde
from hsmc.core import BoxConstraints, DegenerateEnsembleError, Ensemble
from hsmc.kde import (
    _BLOCK_TERMS,
    _kth_neighbour_distance,
    kde_target,
    loo_log_density_all,
    silverman_bandwidth,
)


def product_kernels(x, points, h):
    """Product-kernel values at one position, straight from the differences."""
    return np.prod(np.exp(-0.5 * ((x - points) / h) ** 2) / (np.sqrt(2 * np.pi) * h), axis=1)


def gaussian_kernel_density(x, points, h):
    """Brute-force product-kernel KDE at one position."""
    return product_kernels(np.atleast_1d(x), np.atleast_2d(points), h).mean()


def gaussian_kernel_grad_log(x, points, h):
    """Brute-force gradient of the log KDE: (kernel-weighted mean - x) / h^2."""
    k = product_kernels(x, points, h)
    return (k @ points / k.sum() - x) / h**2


def loo_bruteforce(positions, h):
    """Leave-one-out log-densities; ``h`` is shared (dim,) or per particle (n, dim)."""
    h = np.broadcast_to(h, positions.shape)
    return np.array([
        np.log(product_kernels(x, np.delete(positions, i, axis=0), h[i]).mean())
        for i, x in enumerate(positions)
    ])


# particles whose n x n kernel sum spans a full block of rows and a partial one
N_SPLIT = math.isqrt(_BLOCK_TERMS) + 40


class TestKdeTarget:
    def test_symmetric_pair_has_flat_centre(self):
        t = kde_target([[-1.0], [1.0]], [1.0])
        np.testing.assert_allclose(t.grad_log_f(np.array([[0.0]]))[0], 0.0, atol=1e-14)

    def test_bandwidth_rate_constant(self):
        # the n^(-1/5) rate at n=100
        assert 100 ** (-1.0 / 5.0) == pytest.approx(0.39811, abs=1e-5)

    def test_matches_bruteforce_density(self, rng):
        h = np.array([0.4, 0.8])
        # (kernels, positions): one partial block; two full blocks and a
        # partial one, at two kernel counts; a single kernel; more kernels
        # than a block holds, so one row per block
        cases = [(40, 10), (1, 7), (_BLOCK_TERMS + 3, 3)]
        cases += [(m, 2 * (_BLOCK_TERMS // m) + 5) for m in (40, 3000)]
        for m, n in cases:
            points = rng.standard_normal((m, 2))
            t = kde_target(points, h)
            xs = rng.standard_normal((n, 2)) * 1.5
            log_f = t.log_f(xs)
            grad = t.grad_log_f(xs)
            for x, value, g in zip(xs, log_f, grad):
                assert value == pytest.approx(
                    np.log(gaussian_kernel_density(x, points, h)), abs=1e-12
                )
                np.testing.assert_allclose(
                    g, gaussian_kernel_grad_log(x, points, h), rtol=1e-10, atol=1e-10
                )
            # a one-row batch evaluates as that row of the larger batch
            assert t.log_f(xs[-1:])[0] == pytest.approx(log_f[-1], abs=1e-13)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            kde_target(np.empty((0, 2)), [1.0, 1.0])

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            kde_target([[0.0]], [0.0])

    def test_constraints_attached(self):
        box = BoxConstraints([-1.0], [1.0])
        t = kde_target([[0.0]], [1.0], constraints=box)
        assert t.constraints is box
        assert t.log_f(np.array([[2.0]]))[0] == -np.inf

    @given(seed=st.integers(0, 2**32 - 1), n_points=st.sampled_from([5, 300, 700, 2048]))
    @settings(max_examples=25, deadline=None)
    def test_log_f_rows_do_not_depend_on_their_batch(self, seed, n_points):
        # f(pos[idx]) == f(pos)[idx] exactly, with batches spanning several
        # blocks of rows: a resampled particle keeps its log-density
        gen = np.random.default_rng(seed)
        target = kde_target(gen.standard_normal((n_points, 2)), [0.3, 0.5])
        pos = 2.0 * gen.standard_normal((600, 2))
        idx = gen.integers(0, 600, size=gen.integers(1, 700))
        np.testing.assert_array_equal(target.log_f(pos[idx]), target.log_f(pos)[idx])

    def test_gradient_matches_finite_differences(self, rng):
        points = rng.standard_normal((30, 2)) * [1.0, 3.0]
        t = kde_target(points, [0.5, 1.1])
        pts = rng.uniform([-2, -6], [2, 6], size=(50, 2))
        assert_gradient_matches(t, pts)

    def test_shrinking_bandwidth_concentrates_on_spikes(self, rng):
        points = np.array([[0.0], [5.0]])
        wide = kde_target(points, [1.0])
        narrow = kde_target(points, [0.01])
        # at a data point the narrow estimate is much larger; off-data much smaller
        assert narrow.log_f(np.array([[0.0]]))[0] > wide.log_f(np.array([[0.0]]))[0]
        assert narrow.log_f(np.array([[2.5]]))[0] < wide.log_f(np.array([[2.5]]))[0]


class TestLeaveOneOut:
    def test_two_coincident_particles(self):
        # one term: log phi(0) = -log(sqrt(2 pi))
        assert loo_log_density_all(np.array([[0.3], [0.3]]), [1.0])[0] == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-14
        )

    def test_matches_bruteforce_double_loop(self, rng, monkeypatch):
        shared = np.array([0.6, 0.9])
        positions = rng.standard_normal((50, 2))
        np.testing.assert_allclose(
            loo_log_density_all(positions, shared), loo_bruteforce(positions, shared),
            rtol=0, atol=1e-12,
        )
        # a full block and a partial one.  The rows on either side of the
        # block edge coincide, so a self term left in (or a neighbour's
        # dropped) would move both estimates.
        n = N_SPLIT
        edge = _BLOCK_TERMS // n
        positions = rng.standard_normal((n, 2))
        positions[edge] = positions[edge - 1]
        per_particle = rng.uniform(0.3, 1.2, size=(n, 2))
        for h in (shared, per_particle):
            np.testing.assert_allclose(
                loo_log_density_all(positions, h), loo_bruteforce(positions, h),
                rtol=0, atol=1e-12,
            )
        # more particles than a block holds: one row per block, and the
        # excluded term is the block's first column offset by its start
        monkeypatch.setattr(kde, "_BLOCK_TERMS", 16)
        positions = positions[:20]
        for h in (shared, per_particle[:20]):
            np.testing.assert_allclose(
                loo_log_density_all(positions, h), loo_bruteforce(positions, h),
                rtol=0, atol=1e-12,
            )

    def test_equals_kde_over_other_particles(self, rng):
        positions = rng.standard_normal((20, 3))
        h = [0.5, 0.7, 1.0]
        loo = loo_log_density_all(positions, h)
        for i in (0, 7, 19):
            others = np.delete(positions, i, axis=0)
            assert loo[i] == pytest.approx(
                kde_target(others, h).log_f(positions[i][None])[0], abs=1e-12
            )

    def test_needs_two_particles(self):
        with pytest.raises(ValueError):
            loo_log_density_all(np.array([[0.0]]), [1.0])

    def test_density_integrates_to_one(self, rng):
        # the LOO estimate at particle i is the KDE over the others, which
        # must integrate to 1 over the real line
        positions = rng.standard_normal((12, 1)) * 2.0
        others = np.delete(positions, 3, axis=0)
        t = kde_target(others, [0.8])
        val, _ = quad(lambda x: np.exp(t.log_f(np.array([[x]]))[0]), -40, 40, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestKthNeighbourDistance:
    @staticmethod
    def full_matrix(positions, scale, k):
        z = positions / scale
        sq = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(sq, np.inf)
        return np.sqrt(np.partition(sq, k - 1, axis=1)[:, k - 1])

    def test_matches_full_matrix_partition(self, rng, monkeypatch):
        # a full block and a partial one; a pair coinciding across the block
        # edge has a nearest neighbour at distance zero, never itself
        n = N_SPLIT
        edge = _BLOCK_TERMS // n
        positions = rng.standard_normal((n, 2)) * [1.0, 3.0]
        positions[edge] = positions[edge - 1]
        scale = np.array([0.5, 1.5])
        for k in (1, 7, n - 1):
            np.testing.assert_allclose(
                _kth_neighbour_distance(positions, scale, k),
                self.full_matrix(positions, scale, k),
                rtol=1e-10, atol=1e-7,
            )
        assert _kth_neighbour_distance(positions, scale, 1)[edge] < 1e-7
        monkeypatch.setattr(kde, "_BLOCK_TERMS", 16)
        for k in (1, 7, 19):
            np.testing.assert_allclose(
                _kth_neighbour_distance(positions[:20], scale, k),
                self.full_matrix(positions[:20], scale, k),
                rtol=1e-10, atol=1e-7,
            )


class TestSilvermanBandwidth:
    def test_hand_value_unit_spread(self, rng):
        draws = rng.standard_normal((100, 2))
        draws = (draws - draws.mean(axis=0)) / draws.std(axis=0, ddof=1)
        h = silverman_bandwidth(Ensemble(draws))
        # (4 / ((d + 2) n))^(1 / (d + 4)) with d=2, n=100 -> 0.01^(1/6)
        np.testing.assert_allclose(h, 0.46416, atol=1e-4)

    def test_scales_with_positions(self, rng):
        draws = rng.standard_normal((64, 2))
        base = silverman_bandwidth(Ensemble(draws))
        scaled = silverman_bandwidth(Ensemble(3.0 * draws))
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_collapsed_ensemble_rejected(self):
        ens = Ensemble([[1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(DegenerateEnsembleError):
            silverman_bandwidth(ens)


class TestKdeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            kde_target(np.empty((0, 1)), [1.0])
        with pytest.raises(ValueError):
            kde_target([[0.0, 1.0]], [1.0, -1.0])

    def test_scalar_bandwidth_broadcast(self, rng):
        pts = rng.standard_normal((5, 2))
        scalar = kde_target([[0.0, 1.0]], 0.5)
        vector = kde_target([[0.0, 1.0]], [0.5, 0.5])
        np.testing.assert_array_equal(scalar.log_f(pts), vector.log_f(pts))
