import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

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
N_SPLIT = kde._MAX_BLOCK_ROWS + 40


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
        cases += [(m, 2 * kde._block_height(m) + 5) for m in (40, 3000)]
        for m, n in cases:
            points = rng.standard_normal((m, 2))
            t = kde_target(points, h)
            xs = rng.standard_normal((n, 2)) * 1.5
            log_f = t.log_f(xs)
            grad = t.grad_log_f(xs)
            fused_log_f, fused_grad = t.log_f_and_grad(xs)
            np.testing.assert_array_equal(fused_log_f, log_f)
            np.testing.assert_array_equal(fused_grad, grad)
            for x, value, g in zip(xs, log_f, grad):
                assert value == pytest.approx(
                    np.log(gaussian_kernel_density(x, points, h)), abs=1e-12
                )
                np.testing.assert_allclose(
                    g, gaussian_kernel_grad_log(x, points, h), rtol=1e-10, atol=1e-10
                )
            # a one-row batch evaluates as that row of the larger batch
            assert t.log_f(xs[-1:])[0] == log_f[-1]

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
        # blocks of rows, batches whose last block has one row, and rows
        # about 130 bandwidths beyond every point: a resampled particle
        # keeps its log-density
        gen = np.random.default_rng(seed)
        target = kde_target(gen.standard_normal((n_points, 2)), [0.3, 0.5])
        pos = 2.0 * gen.standard_normal((600, 2))
        pos[gen.random(600) < 0.1] += 40.0
        whole = target.log_f(pos)
        for size in (gen.integers(1, 700), 1, kde._block_height(n_points) + 1):
            idx = gen.integers(0, 600, size=size)
            np.testing.assert_array_equal(target.log_f(pos[idx]), whole[idx])

    @given(seed=st.integers(0, 2**32 - 1), n_points=st.sampled_from([700, 2000, 3000, 5000]),
           cuts=st.lists(st.integers(1, 299), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_their_batch(self, seed, n_points, cuts):
        # log f, the gradient and the fused call give each row the bits the
        # whole batch's separate calls give it, whatever batch the row comes
        # in: a piece cut anywhere, a permutation or a row alone.  The point
        # counts take blocks of 128, 64, 32 and 16 rows, and about a tenth
        # of the rows lie about 130 bandwidths beyond every point, below the
        # sum floor
        gen = np.random.default_rng(seed)
        target = kde_target(gen.standard_normal((n_points, 2)), [0.3, 0.5])
        pos = 2.0 * gen.standard_normal((300, 2))
        pos[gen.random(300) < 0.1] += 40.0

        def evaluate(rows):
            return (target.log_f(pos[rows]), target.grad_log_f(pos[rows]),
                    *target.log_f_and_grad(pos[rows]))

        log_f, grad = target.log_f(pos), target.grad_log_f(pos)
        whole = (log_f, grad, log_f, grad)
        bounds = [0, *sorted(set(cuts)), len(pos)]
        batches = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        batches += [gen.permutation(len(pos)), *([i] for i in gen.integers(0, len(pos), 3))]
        for rows in batches:
            for got, want in zip(evaluate(rows), whole):
                np.testing.assert_array_equal(got, want[rows])

    def test_rows_beyond_every_kernel(self, rng):
        # every term of a row about 130 bandwidths from the points underflows
        # unshifted; such rows are summed in log space
        h = np.array([0.3, 0.5])
        points = rng.standard_normal((2048, 2))
        t = kde_target(points, h)
        pos = 2.0 * rng.standard_normal((300, 2))
        far = rng.random(300) < 0.3
        pos[far] += 40.0
        log_f, grad = t.log_f(pos), t.grad_log_f(pos)
        assert np.all(np.isfinite(log_f)) and np.all(np.isfinite(grad))
        exponents = -0.5 * (((pos[far, None, :] - points) / h) ** 2).sum(axis=-1)
        expected = (logsumexp(exponents, axis=1) - np.log(len(points)) - np.log(h).sum()
                    - np.log(2 * np.pi))
        w = np.exp(exponents - exponents.max(axis=1, keepdims=True))
        expected_grad = (w @ points / w.sum(axis=1)[:, None] - pos[far]) / h**2
        np.testing.assert_allclose(log_f[far], expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad[far], expected_grad, rtol=1e-12, atol=0)
        # a batch cut anywhere keeps every bit, gradient included
        cuts = [0, 1, 100, 257, len(pos)]
        for lo, hi in zip(cuts, cuts[1:]):
            np.testing.assert_array_equal(t.log_f(pos[lo:hi]), log_f[lo:hi])
            np.testing.assert_array_equal(t.grad_log_f(pos[lo:hi]), grad[lo:hi])

    @pytest.mark.parametrize("box", [None, BoxConstraints([-2.0, -2.0], [41.0, 41.0])])
    def test_fused_call_has_the_bits_of_the_separate_calls(self, box, rng):
        # with rows about 130 bandwidths beyond every point, rows outside
        # the box, and batches cut anywhere
        t = kde_target(rng.standard_normal((2048, 2)), [0.3, 0.5], box)
        pos = 2.0 * rng.standard_normal((300, 2))
        pos[rng.random(300) < 0.3] += 40.0
        log_f, grad = t.log_f(pos), t.grad_log_f(pos)
        if box is not None:
            assert 0 < np.isneginf(log_f).sum() < len(pos)
        cuts = [0, 1, 100, 257, len(pos)]
        for lo, hi in zip([0, *cuts], [len(pos), *cuts[1:]]):
            fused_log_f, fused_grad = t.log_f_and_grad(pos[lo:hi])
            np.testing.assert_array_equal(fused_log_f, log_f[lo:hi])
            np.testing.assert_array_equal(fused_grad, grad[lo:hi])

    def test_fused_call_sums_far_rows_in_one_pass(self, rng, monkeypatch):
        # rows about 40 bandwidths beyond every point, some near rows between:
        # the fused call recomputes the far rows for both results at once
        h = np.array([0.3, 0.5])
        t = kde_target(rng.standard_normal((1000, 2)), h)
        pos = 40.0 * h + 0.1 * rng.standard_normal((512, 2))
        pos[::4] = rng.standard_normal((128, 2))
        log_f, grad = t.log_f(pos), t.grad_log_f(pos)
        passes = []

        def counted_far_sums(a, b, values=None):
            passes.append(len(a))
            return far_sums(a, b, values)

        far_sums = kde._far_sums
        monkeypatch.setattr(kde, "_far_sums", counted_far_sums)
        fused_log_f, fused_grad = t.log_f_and_grad(pos)
        assert passes == [384]
        np.testing.assert_array_equal(fused_log_f, log_f)
        np.testing.assert_array_equal(fused_grad, grad)

    def test_data_far_from_the_origin(self, rng):
        # positions and points are taken about the points' mean, so an
        # offset of 1e6 costs no precision
        h = [0.3, 0.5]
        points = rng.standard_normal((500, 2))
        xs = 2.0 * rng.standard_normal((50, 2))
        near, offset = kde_target(points, h), kde_target(points + 1e6, h)
        np.testing.assert_allclose(offset.log_f(xs + 1e6), near.log_f(xs), rtol=0, atol=1e-8)
        np.testing.assert_allclose(offset.grad_log_f(xs + 1e6), near.grad_log_f(xs),
                                   rtol=0, atol=1e-8)

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
        edge = kde._block_height(n)
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
        edge = kde._block_height(n)
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
