import pickle
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsmc import core
from hsmc.core import (
    BoxConstraints,
    DegenerateWeightsError,
    Ensemble,
    RandomSource,
    _child_keys,
    _map_rows,
    normalize_weights,
)
from hsmc.kde import kde_target
from hsmc.kernels import HmcConfig, MhConfig
from hsmc.smc import annealing_sequence, diag_gaussian_initial, tempering_sequence
from hsmc.targets import gaussian, geometric_bridge, powered, rosenbrock


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

    def test_unpickled_positions_are_readonly(self):
        # forked run_smc workers send their ensembles back pickled
        ens = pickle.loads(pickle.dumps(Ensemble([[0.0], [1.0]])))
        assert not ens.positions.flags.writeable
        np.testing.assert_array_equal(ens.positions, [[0.0], [1.0]])


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

    def test_equality_and_hash_compare_bounds(self):
        box = BoxConstraints([0.0, -np.inf], [1.0, 2.0])
        same = BoxConstraints([0, -np.inf], np.array([1.0, 2.0]))
        assert box == same and hash(box) == hash(same) and len({box, same}) == 1
        for other in (BoxConstraints([0.0, -np.inf], [1.0, 3.0]),
                      BoxConstraints([0.5, -np.inf], [1.0, 2.0]),
                      BoxConstraints([0.0], [1.0])):
            assert box != other
        assert box != (box.lower, box.upper)

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


class TestChildKeys:
    # seeds of one and two 32-bit words, at both ends of each
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        stream=st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple),
        n=st.sampled_from([1, 2, 513]),
    )
    @example(seed=2**64 - 1, stream=(2**32 - 1,) * 4, n=513)
    @example(seed=0, stream=(), n=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_seed_sequence(self, seed, stream, n):
        keys = _child_keys(RandomSource(seed, stream), n)
        assert keys.dtype == np.uint64 and keys.shape == (n, 2)
        for i in range(n):
            expected = np.random.SeedSequence(
                entropy=seed, spawn_key=stream + (i,)
            ).generate_state(2, np.uint64)
            np.testing.assert_array_equal(keys[i], expected)

    def test_is_the_derived_generators_key(self):
        source = RandomSource(2**40 + 3, (1, 2, 7))
        keys = _child_keys(source, 5)
        for i in range(5):
            state = source.derive(i).generator().bit_generator.state["state"]
            np.testing.assert_array_equal(keys[i], state["key"])


def _rows_and_thread(rows):
    """Each row's index, and the thread that computed it."""
    index = np.arange(rows.start, rows.stop)
    return index, np.full(len(index), threading.get_ident())


@pytest.fixture
def one_row_chunks(monkeypatch):
    """Let a chunk take a single row, so a few rows cut into one chunk a thread."""
    monkeypatch.setattr(core, "_MIN_CHUNK_ROWS", 1)


class TestMapRows:
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_results_join_in_row_order(self, one_row_chunks, threads):
        # a 5-row batch on 2, 3 or 8 threads: 2, 3 or 5 runs
        def fn(rows):
            return np.arange(rows.start, rows.stop), -np.arange(rows.start, rows.stop)[:, None]

        index, column = _map_rows(fn, 5, threads)
        np.testing.assert_array_equal(index, np.arange(5))
        np.testing.assert_array_equal(column, -np.arange(5)[:, None])

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        # 255 rows make one chunk on any thread count: a chunk takes 128 rows
        def no_pool(*args, **kwargs):
            raise AssertionError("a single run started a pool")

        monkeypatch.setattr(core, "ThreadPoolExecutor", no_pool)
        for n_rows, threads in ((7, 1), (255, 4)):
            index, ran_on = _map_rows(_rows_and_thread, n_rows, threads)
            np.testing.assert_array_equal(index, np.arange(n_rows))
            assert (ran_on == threading.get_ident()).all()

    def test_the_caller_runs_the_first_run_and_its_pool_ends(self, one_row_chunks):
        before = threading.active_count()
        index, ran_on = _map_rows(_rows_and_thread, 4, 4)
        np.testing.assert_array_equal(index, np.arange(4))
        assert ran_on[0] == threading.get_ident()
        assert threading.get_ident() not in ran_on[1:]
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 2])
    def test_an_error_in_a_run_reaches_the_caller(self, one_row_chunks, failing):
        def fn(rows):
            if rows.start == failing:
                raise ValueError(f"run {failing} failed")
            return (np.arange(rows.start, rows.stop),)

        with pytest.raises(ValueError, match=f"run {failing} failed"):
            _map_rows(fn, 4, 4)


_F = rosenbrock()
_INITIAL = diag_gaussian_initial([0.0, 0.0], [1.0, 1.0])
# every library entry that takes a number of a run's config: the name of its
# parameter, a call passing it a value, and whether it takes one number only
NUMBER_CALLERS = [
    ("mass_diag", lambda v: HmcConfig(mass_diag=v), False),
    ("step_size", lambda v: HmcConfig(step_size=v), True),
    ("proposal_scale", lambda v: MhConfig(proposal_scale=v), True),
    ("lower", lambda v: BoxConstraints(v, [1.0]), False),
    ("upper", lambda v: BoxConstraints([0.0], v), False),
    ("mean", lambda v: gaussian(v, [1.0]), False),
    ("cov_diag", lambda v: gaussian([0.0], v), False),
    ("mean", lambda v: diag_gaussian_initial(v, [1.0]), False),
    ("sigma", lambda v: diag_gaussian_initial([0.0], v), False),
    ("bandwidth", lambda v: kde_target([[0.0], [1.0]], v), False),
    ("phis", lambda v: tempering_sequence(_INITIAL, _F, v), False),
    ("gammas", lambda v: annealing_sequence(_F, v, initial=_INITIAL), False),
    ("gamma", lambda v: powered(_F, v), True),
    ("phi", lambda v: geometric_bridge(_INITIAL.density, _F, v), True),
    ("seed", lambda v: RandomSource(v), True),
    ("stream id", lambda v: RandomSource(1, (v,)), True),
]


@pytest.mark.parametrize("name, call, value", [
    *((name, call, value) for name, call, scalar in NUMBER_CALLERS
      for value in [True, "0.5"] + ([] if scalar else [[[0.0, 0.0]], []])),
    ("seed", RandomSource, 2.7),
    ("seed", RandomSource, np.True_),
    ("mean", lambda v: gaussian(v, [[1, 1]]), [[0, 0]]),
])
def test_config_numbers_follow_one_rule(name, call, value):
    # a bool, a quoted number, a nested list and an empty list are errors
    # that name the parameter, never a number or a vector of some other shape
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call(value)


def test_config_numbers_keep_their_value():
    assert HmcConfig(step_size=1).step_size == 1.0
    assert isinstance(HmcConfig(step_size=1).step_size, float)
    assert MhConfig(np.float32(0.25)).proposal_scale == 0.25
    np.testing.assert_array_equal(HmcConfig(mass_diag=2).mass_diag, [2.0])
    np.testing.assert_array_equal(
        HmcConfig(mass_diag=[np.float32(0.5), np.int64(2)]).mass_diag, [0.5, 2.0])
    np.testing.assert_array_equal(BoxConstraints(np.int64([0, 1]), (2, np.inf)).upper,
                                  [2.0, np.inf])
    assert RandomSource(np.int64(5), (np.uint32(3),)) == RandomSource(5, (3,))
