import numpy as np
import pytest
from scipy.integrate import quad

from conftest import assert_gradient_matches

from hsmc.core import BoxConstraints, DegenerateEnsembleError, make_ensemble
from hsmc.kde import kde_target, loo_log_density_all, silverman_bandwidth


def gaussian_kernel_density(x, points, h):
    """Brute-force product-kernel KDE, one kernel at a time."""
    x = np.atleast_1d(x)
    total = 0.0
    for p in np.atleast_2d(points):
        total += np.prod(np.exp(-0.5 * ((x - p) / h) ** 2) / (np.sqrt(2 * np.pi) * h))
    return total / len(np.atleast_2d(points))


class TestKdeTarget:
    def test_single_point_mode(self):
        p = np.array([0.7, -1.2])
        t = kde_target([p], [0.5, 0.5])
        np.testing.assert_allclose(t.grad_log_f(p), 0.0, atol=1e-12)
        assert t.log_f(p) > t.log_f(p + 0.3)

    def test_symmetric_pair_has_flat_centre(self):
        t = kde_target([[-1.0], [1.0]], [1.0])
        np.testing.assert_allclose(t.grad_log_f(np.array([0.0])), 0.0, atol=1e-14)

    def test_bandwidth_rate_constant(self):
        # the n^(-1/5) rate at n=100
        assert 100 ** (-1.0 / 5.0) == pytest.approx(0.39811, abs=1e-5)

    def test_matches_bruteforce_density(self, rng):
        points = rng.standard_normal((40, 2))
        h = np.array([0.4, 0.8])
        t = kde_target(points, h)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert t.log_f(x) == pytest.approx(
                np.log(gaussian_kernel_density(x, points, h)), abs=1e-12
            )

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
        assert t.log_f(np.array([2.0])) == -np.inf

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
        assert narrow.log_f(np.array([0.0])) > wide.log_f(np.array([0.0]))
        assert narrow.log_f(np.array([2.5])) < wide.log_f(np.array([2.5]))


class TestLeaveOneOut:
    def test_two_coincident_particles(self):
        # one term: log phi(0) = -log(sqrt(2 pi))
        assert loo_log_density_all(np.array([[0.3], [0.3]]), [1.0])[0] == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-14
        )

    def test_matches_bruteforce_double_loop(self, rng):
        positions = rng.standard_normal((50, 2))
        h = np.array([0.6, 0.9])
        for i in range(50):
            total = 0.0
            for m in range(50):
                if m == i:
                    continue
                total += np.prod(
                    np.exp(-0.5 * ((positions[i] - positions[m]) / h) ** 2)
                    / (np.sqrt(2 * np.pi) * h)
                )
            expected = np.log(total / 49)
            assert loo_log_density_all(positions, h)[i] == pytest.approx(expected, abs=1e-12)

    def test_equals_kde_over_other_particles(self, rng):
        positions = rng.standard_normal((20, 3))
        h = [0.5, 0.7, 1.0]
        loo = loo_log_density_all(positions, h)
        for i in (0, 7, 19):
            others = np.delete(positions, i, axis=0)
            assert loo[i] == pytest.approx(
                kde_target(others, h).log_f(positions[i]), abs=1e-12
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
        val, _ = quad(lambda x: np.exp(t.log_f(np.array([x]))), -40, 40, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestSilvermanBandwidth:
    def test_hand_value_unit_spread(self, rng):
        draws = rng.standard_normal((100, 2))
        draws = (draws - draws.mean(axis=0)) / draws.std(axis=0, ddof=1)
        h = silverman_bandwidth(make_ensemble(draws))
        # (4 / ((d + 2) n))^(1 / (d + 4)) with d=2, n=100 -> 0.01^(1/6)
        np.testing.assert_allclose(h, 0.46416, atol=1e-4)

    def test_scales_with_positions(self, rng):
        draws = rng.standard_normal((64, 2))
        base = silverman_bandwidth(make_ensemble(draws))
        scaled = silverman_bandwidth(make_ensemble(3.0 * draws))
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_collapsed_ensemble_rejected(self):
        ens = make_ensemble([[1.0, 2.0], [1.0, 3.0]])
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
