import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mode_mass

from hsmc.core import DegenerateWeightsError, Ensemble
from hsmc.smc import effective_sample_size, weighted_moments


class TestWeightedMoments:
    def test_symmetric_pair(self):
        ens = Ensemble([[-1.0], [1.0]])
        summary = weighted_moments(ens)
        assert summary.mean[0] == 0.0
        assert summary.covariance_diag[0] == 1.0

    def test_weighted_mean_hand_value(self):
        # three copies of 0 weigh 3 against one 4, as after a selection
        ens = Ensemble(np.array([[0.0], [0.0], [0.0], [4.0]]))
        assert weighted_moments(ens).mean[0] == pytest.approx(1.0)

    def test_gaussian_sample_moments(self, rng):
        draws = rng.standard_normal((10_000, 1))
        summary = weighted_moments(Ensemble(draws))
        assert abs(summary.mean[0]) < 0.04
        assert abs(summary.covariance_diag[0] - 1.0) < 0.05

    def test_equal_weights_match_plain_moments(self, rng):
        draws = rng.standard_normal((257, 3))
        summary = weighted_moments(Ensemble(draws))
        np.testing.assert_array_equal(summary.mean, draws.mean(axis=0))
        np.testing.assert_array_equal(summary.covariance_diag, draws.var(axis=0))


class TestEffectiveSampleSize:
    def test_uniform_weights(self):
        assert effective_sample_size(np.ones(512)) == pytest.approx(512.0)

    def test_point_mass(self):
        w = np.zeros(10)
        w[4] = 2.0
        assert effective_sample_size(w) == pytest.approx(1.0)

    def test_hand_value(self):
        assert effective_sample_size(np.array([2.0, 1.0, 1.0])) == pytest.approx(16.0 / 6.0)

    @given(
        weights=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40),
        log2_scale=st.integers(-40, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_exact_for_binary_scales(self, weights, log2_scale):
        # powers of two rescale mantissas exactly, so ESS is bit-identical
        w = np.array(weights)
        assert effective_sample_size(2.0**log2_scale * w) == effective_sample_size(w)

    @given(
        weights=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_general(self, weights, scale):
        w = np.array(weights)
        assert effective_sample_size(scale * w) == pytest.approx(
            effective_sample_size(w), rel=1e-12
        )

    @given(weights=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_range(self, weights):
        w = np.array(weights)
        assert 1.0 <= effective_sample_size(w) <= len(w) + 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateWeightsError):
            effective_sample_size(np.zeros(4))


class TestModeMass:
    def test_single_center(self, rng):
        ens = Ensemble(rng.standard_normal((20, 2)))
        np.testing.assert_array_equal(mode_mass(ens, [[0.0, 0.0]]), [1.0])

    def test_symmetric_eyes(self):
        ens = Ensemble([[-2.5, 4.5], [2.5, 4.5]])
        centers = [[2.5, 38.0 / 1.5], [-2.5, 38.0 / 1.5]]
        np.testing.assert_allclose(mode_mass(ens, centers), [0.5, 0.5])

    def test_fractions_sum_to_one(self, rng):
        ens = Ensemble(rng.standard_normal((101, 2)) * 3)
        centers = rng.standard_normal((5, 2))
        fractions = mode_mass(ens, centers)
        assert fractions.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariance(self, rng):
        ens = Ensemble(rng.standard_normal((64, 2)) * 3)
        centers = rng.standard_normal((4, 2)) * 2
        perm = np.array([2, 0, 3, 1])
        base = mode_mass(ens, centers)
        permuted = mode_mass(ens, centers[perm])
        np.testing.assert_allclose(permuted, base[perm])

    def test_respects_weights(self):
        # copies of a particle count as its weight
        ens = Ensemble(np.array([[-1.0], [-1.0], [-1.0], [1.0]]))
        np.testing.assert_allclose(mode_mass(ens, [[-1.0], [1.0]]), [0.75, 0.25])

    def test_empty_centers_rejected(self, rng):
        ens = Ensemble(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError):
            mode_mass(ens, np.empty((0, 2)))
