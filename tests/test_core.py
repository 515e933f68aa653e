import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmc.core import (
    BoxConstraints,
    DegenerateWeightsError,
    Ensemble,
    RandomSource,
    normalize_weights,
)


class TestMakeEnsemble:
    def test_two_points(self):
        ens = Ensemble([[0.0, 1.0], [2.0, 3.0]])
        assert ens.n_particles == 2
        assert ens.dim == 2

    def test_many_gaussian_draws(self, rng):
        draws = rng.standard_normal((512, 2))
        ens = Ensemble(draws)
        assert ens.n_particles == 512
        np.testing.assert_array_equal(ens.positions, draws)

    def test_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            Ensemble([[0.0, 1.0], [1.0, 2.0, 3.0]])

    def test_too_few_draws(self):
        with pytest.raises(ValueError, match="at least 2"):
            Ensemble([[0.0, 1.0]])


class TestEnsembleInvariants:
    def test_nonfinite_position_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([[np.inf], [0.0]]))

    def test_positions_are_readonly(self):
        ens = Ensemble([[0.0], [1.0]])
        with pytest.raises(ValueError):
            ens.positions[0, 0] = 5.0


class TestNormalizeWeights:
    def test_uniform(self):
        out = normalize_weights(np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_proportional(self):
        out = normalize_weights(np.array([3.0, 1.0]))
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-15)

    def test_all_zero(self):
        with pytest.raises(DegenerateWeightsError):
            normalize_weights(np.array([0.0, 0.0]))

    @given(
        weights=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, weights, scale):
        w = np.array(weights)
        np.testing.assert_allclose(
            normalize_weights(scale * w), normalize_weights(w), atol=1e-12
        )

    @given(weights=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, weights):
        assert abs(normalize_weights(np.array(weights)).sum() - 1.0) < 1e-12


class TestBoxConstraints:
    def test_contains(self):
        box = BoxConstraints([-1.0, 0.0], [1.0, 2.0])
        assert box.contains(np.array([0.0, 1.0]))
        assert not box.contains(np.array([0.0, 3.0]))
        np.testing.assert_array_equal(
            box.contains(np.array([[0.0, 1.0], [2.0, 1.0]])), [True, False]
        )

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxConstraints([1.0], [1.0])

    def test_half_open(self):
        box = BoxConstraints([-np.inf], [0.0])
        assert box.contains(np.array([-1e12]))
        assert not box.contains(np.array([0.5]))


class TestRandomSource:
    def test_identical_streams_identical_draws(self):
        a = RandomSource(1234, (5, 6)).generator().standard_normal(8)
        b = RandomSource(1234, (5, 6)).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(1234, (5, 6)).generator().standard_normal(8)
        b = RandomSource(1234, (5, 7)).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_derive_appends(self):
        rs = RandomSource(9).derive(1).derive(2, 3)
        assert rs.stream == (1, 2, 3)
        assert rs.seed == 9

    def test_seed_range(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)

    def test_generator_is_fresh(self):
        rs = RandomSource(7)
        assert rs.generator().uniform() == rs.generator().uniform()
