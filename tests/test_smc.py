import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsmc.core import (
    INIT_STREAM,
    MUTATION_STREAM,
    SELECTION_STREAM,
    BoxConstraints,
    DegenerateEnsembleError,
    DegenerateWeightsError,
    Ensemble,
    RandomSource,
    TargetDensity,
    _chunk_count,
)
from hsmc import kde, smc
from hsmc.kernels import HmcConfig, MhConfig, mutate_ensemble
from hsmc.smc import (
    IterationRecord,
    RunReport,
    SmcConfig,
    TargetSequence,
    annealing_sequence,
    compare_groups,
    correction_weights,
    diag_gaussian_initial,
    kde_blocks_sequence,
    loglik_blocks_sequence,
    resample,
    run_smc,
    tempering_sequence,
    uniform_box_initial,
)
from hsmc.smc import _loo_engine_bandwidth, _truncate_weights
from hsmc.kde import kde_target, silverman_bandwidth
from hsmc.targets import dropwave, gaussian, rosenbrock, simulate_logit_data

INITIAL_1D = diag_gaussian_initial([0.0], [1.0])
INITIAL_2D = diag_gaussian_initial([0.0, 0.0], [1.0, 1.0])


class TestBlockwiseSequence:
    def test_smiley_scale_block_count(self, rng):
        points = rng.standard_normal((2048, 2))
        seq = kde_blocks_sequence(points, 100, initial=INITIAL_2D)
        assert seq.n_stages == 21  # 20 full blocks and one block of 48

    def test_dropwave_scale_block_count(self, rng):
        points = rng.standard_normal((4096, 2))
        seq = kde_blocks_sequence(points, 100, initial=INITIAL_2D)
        assert seq.n_stages == 41  # 40 full blocks and one block of 96

    def test_logit_block_count(self):
        data = simulate_logit_data(400, (3.0, 3.0), RandomSource(1))
        seq = loglik_blocks_sequence(data, 50, initial=INITIAL_2D)
        assert seq.n_stages == 8

    def test_final_stage_uses_all_data(self, rng):
        points = rng.standard_normal((130, 2))
        seq = kde_blocks_sequence(points, 50, initial=INITIAL_2D)
        assert seq.n_stages == 3
        sd = points.std(axis=0, ddof=1)
        expected = kde_target(points, sd * 130 ** (-0.2))
        x = np.array([0.3, -0.7])
        assert seq.stages[-1].log_f(x[None])[0] == pytest.approx(
            expected.log_f(x[None])[0], abs=1e-12
        )

    def test_stage_bandwidth_uses_revealed_data_only(self, rng):
        points = rng.standard_normal((60, 2)) * [1.0, 5.0]
        seq = kde_blocks_sequence(points, 20, initial=INITIAL_2D)
        first = points[:20]
        expected = kde_target(first, first.std(axis=0, ddof=1) * 20 ** (-0.2))
        x = np.array([0.0, 0.0])
        assert seq.stages[0].log_f(x[None])[0] == pytest.approx(
            expected.log_f(x[None])[0], abs=1e-12
        )

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            kde_blocks_sequence(np.empty((0, 2)), 100, initial=INITIAL_2D)

    def test_points_must_be_a_2d_array(self):
        # four 1-d values are not one 4-d point
        with pytest.raises(ValueError, match=r"\(n, dim\) array, got shape \(4,\)"):
            kde_blocks_sequence([0.1, 0.4, 0.6, 0.9], 2, initial=INITIAL_1D)

    def test_constraints_propagate(self, rng):
        from hsmc.targets import DROPWAVE_BOX

        points = rng.uniform(-2, 2, (64, 2))
        seq = kde_blocks_sequence(points, 32, constraints=DROPWAVE_BOX, initial=INITIAL_2D)
        assert seq.stages[0].log_f(np.array([[3.0, 0.0]]))[0] == -np.inf

    def test_loglik_rejects_constraints(self):
        data = simulate_logit_data(400, (3.0, 3.0), RandomSource(1))
        box = BoxConstraints([-2.0, -2.0], [2.0, 2.0])
        with pytest.raises(TypeError, match="constraints"):
            loglik_blocks_sequence(data, 50, constraints=box, initial=INITIAL_2D)


class TestTemperingSequence:
    def test_single_phi_equals_target(self, rng):
        f1 = diag_gaussian_initial([0.0], [2.0])
        f = gaussian([2.0], [1.0])
        seq = tempering_sequence(f1, f, [1.0])
        assert seq.n_stages == 1
        for _ in range(5):
            x = rng.standard_normal(1)
            assert seq.stages[0].log_f(x[None])[0] == f.log_f(x[None])[0]

    def test_four_stage_ladder(self, rng):
        f1 = diag_gaussian_initial([0.0], [2.0])
        f = gaussian([2.0], [1.0])
        seq = tempering_sequence(f1, f, [0.25, 0.5, 0.75, 1.0])
        assert seq.n_stages == 4
        x = rng.standard_normal(1)
        assert seq.stages[-1].log_f(x[None])[0] == f.log_f(x[None])[0]

    def test_monotonicity_enforced(self):
        f1, f = diag_gaussian_initial([0.0], [2.0]), gaussian([2.0], [1.0])
        with pytest.raises(ValueError):
            tempering_sequence(f1, f, [0.5, 0.4, 1.0])
        with pytest.raises(ValueError):
            tempering_sequence(f1, f, [0.5, 0.9])
        with pytest.raises(ValueError):
            tempering_sequence(f1, f, [0.0, 1.0])

    def test_initial_distribution_doubles_as_f1(self):
        init = diag_gaussian_initial([0.0], [2.0])
        seq = tempering_sequence(init, gaussian([2.0], [1.0]), [0.5, 1.0])
        assert seq.initial is init


class TestAnnealingSequence:
    def test_identity_gamma(self, rng):
        f = gaussian([0.0], [1.0])
        seq = annealing_sequence(f, [1.0], initial=INITIAL_1D)
        x = rng.standard_normal(1)
        assert seq.stages[0].log_f(x[None])[0] == f.log_f(x[None])[0]

    def test_gaussian_power_variances(self):
        # N(0,1)^gamma is N(0, 1/gamma): check the log-kernel curvature
        f = gaussian([0.0], [1.0])
        seq = annealing_sequence(f, [1.0, 4.0, 16.0, 64.0], initial=INITIAL_1D)
        one = np.array([1.0])
        zero = np.array([0.0])
        for stage, gamma in zip(seq.stages, [1.0, 4.0, 16.0, 64.0]):
            diff = stage.log_f(one[None])[0] - stage.log_f(zero[None])[0]
            assert diff == pytest.approx(-gamma / 2)

    def test_validation(self):
        f = gaussian([0.0], [1.0])
        with pytest.raises(ValueError):
            annealing_sequence(f, [4.0, 1.0], initial=INITIAL_1D)
        with pytest.raises(ValueError):
            annealing_sequence(f, [-1.0, 2.0], initial=INITIAL_1D)
        with pytest.raises(ValueError):
            annealing_sequence(f, [], initial=INITIAL_1D)

    def test_high_gamma_concentrates_dropwave_on_grid(self):
        # at gamma=64 nearly all grid mass sits at the central bump
        target = dropwave()
        seq = annealing_sequence(target, [1.0, 4.0, 16.0, 64.0], initial=INITIAL_2D)
        xs = np.linspace(-2.5, 2.5, 101)
        grid = np.array([[x, y] for x in xs for y in xs])
        dens = np.exp(seq.stages[-1].log_f(grid) - seq.stages[-1].log_f(np.zeros((1, 2)))[0])
        radius = np.linalg.norm(grid, axis=1)
        assert dens[radius > 0.5].sum() / dens.sum() < 1e-6


def _kernel_weights_by_brute_force(f, positions, base):
    """The kernel-weighted rule term by term: (truncated weights, raw weights).

    Bandwidths are ``base`` widened by :func:`_widened_by_brute_force`; the
    denominator is the balloon leave-one-out density as a double loop; the
    cap c solves c = sqrt(N) mean(min(w, c)) by bisection.
    """
    n, dim = positions.shape
    h = _widened_by_brute_force(positions, base, min(7, n - 1))
    loo = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j != i:
                u = (positions[i] - positions[j]) / h[i]
                loo[i] += np.exp(-0.5 * u @ u) / (np.prod(h[i]) * (2 * np.pi) ** (dim / 2))
    log_w = f.log_f(positions) - np.log(loo / (n - 1))
    raw = np.exp(log_w - log_w.max())
    lo, hi = raw.min(), np.sqrt(n) * raw.mean() + raw.max()
    for _ in range(200):
        c = 0.5 * (lo + hi)
        lo, hi = (c, hi) if c < np.sqrt(n) * np.minimum(raw, c).mean() else (lo, c)
    return np.minimum(raw, hi), raw


class TestCorrectionWeights:
    def test_identical_targets_give_uniform_weights(self, rng):
        f = gaussian([0.0, 0.0], [1.0, 1.0])
        ens = Ensemble(rng.standard_normal((32, 2)))
        lf = f.log_f(ens.positions)
        w = correction_weights(ens, lf, lf, "theoretical_ratio")
        np.testing.assert_allclose(w / w.sum(), 1.0 / 32, atol=1e-12)

    def test_theoretical_ratio_values(self, rng):
        f0 = gaussian([0.0], [4.0])
        f1 = gaussian([1.0], [1.0])
        positions = rng.standard_normal((16, 1))
        ens = Ensemble(positions)
        w = correction_weights(ens, f1.log_f(positions), f0.log_f(positions), "theoretical_ratio")
        logw = f1.log_f(positions) - f0.log_f(positions)
        expected = np.exp(logw - logw.max())
        np.testing.assert_allclose(w, expected, rtol=1e-12)

    def test_loo_mode_matches_bruteforce(self, rng):
        # a far straggler, so both guards fire: its kernel widens and its
        # weight is truncated
        f1 = gaussian([0.0, 0.0], [100.0, 100.0])
        positions = rng.standard_normal((40, 2))
        positions[0] = [12.0, -9.0]
        base = positions.std(axis=0, ddof=1) * (4.0 / 160) ** (1 / 6)
        w = correction_weights(Ensemble(positions), f1.log_f(positions), None, "loo_kde_ratio",
                               np.array([7.0, 7.0]))
        expected, raw = _kernel_weights_by_brute_force(f1, positions, base)
        assert _widened_by_brute_force(positions, base, 7)[0, 0] > base[0]
        np.testing.assert_allclose(w, expected, rtol=1e-9)
        assert w[0] < raw[0] and w[0] == w.max()

    def test_loo_mode_collapsed_cloud_uses_the_fallback(self, rng):
        f1 = gaussian([0.0, 0.0], [4.0, 4.0])
        positions = np.column_stack([rng.standard_normal(16), np.zeros(16)])
        fallback = np.array([0.5, 0.25])
        w = correction_weights(Ensemble(positions), f1.log_f(positions), None, "loo_kde_ratio",
                               fallback)
        expected, _ = _kernel_weights_by_brute_force(f1, positions, fallback)
        np.testing.assert_allclose(w, expected, rtol=1e-9)

    def test_loo_mode_collapsed_cloud_without_fallback_raises(self, rng):
        f1 = gaussian([0.0, 0.0], [4.0, 4.0])
        positions = np.column_stack([rng.standard_normal(16), np.zeros(16)])
        with pytest.raises(DegenerateEnsembleError):
            correction_weights(Ensemble(positions), f1.log_f(positions), None, "loo_kde_ratio")

    def test_zero_density_particle_gets_zero_weight(self):
        box_target = dropwave()
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        ens = Ensemble(positions)
        w = correction_weights(
            ens, box_target.log_f(positions), gaussian([0.0, 0.0], [25.0, 25.0]).log_f(positions)
        )
        assert w[2] == 0.0
        assert w[0] > 0 and w[1] > 0

    def test_all_dead_raises(self):
        box_target = dropwave()
        positions = np.array([[3.0, 0.0], [4.0, 4.0]])
        ens = Ensemble(positions)
        with pytest.raises(DegenerateWeightsError):
            correction_weights(ens, box_target.log_f(positions),
                               gaussian([0.0, 0.0], [25.0, 25.0]).log_f(positions))

    def test_log_densities_need_one_entry_per_particle(self, rng):
        ens = Ensemble(rng.standard_normal((8, 2)))
        for log_next, log_prev in ((np.zeros(7), np.zeros(8)), (np.zeros(8), np.zeros((8, 1)))):
            with pytest.raises(ValueError, match="log_next and log_prev must have one entry"):
                correction_weights(ens, log_next, log_prev, "theoretical_ratio")
        with pytest.raises(ValueError, match="log_next and log_prev must have one entry"):
            correction_weights(ens, np.zeros(9), None, "loo_kde_ratio")

    def test_loo_weights_permutation_equivariant(self, rng):
        f1 = gaussian([0.0, 0.0], [1.0, 1.0])
        positions = rng.standard_normal((24, 2))
        perm = rng.permutation(24)
        w = correction_weights(Ensemble(positions), f1.log_f(positions), None, "loo_kde_ratio")
        wp = correction_weights(Ensemble(positions[perm]), f1.log_f(positions[perm]), None,
                                "loo_kde_ratio")
        np.testing.assert_allclose(wp, w[perm], rtol=1e-10)


class TestResample:
    def test_point_mass_gives_copies(self, rng):
        positions = rng.standard_normal((8, 2))
        ens = Ensemble(positions)
        weights = np.zeros(8)
        weights[3] = 5.0
        out = resample(ens, weights, RandomSource(2).generator())
        np.testing.assert_array_equal(out.positions, np.tile(positions[3], (8, 1)))

    def test_multinomial_copy_counts(self, rng):
        # single resample of 10^4 uniform weights: copy counts behave like
        # Poisson(1); allow up to the ~1e-6 tail level
        n = 10_000
        ens = Ensemble(rng.standard_normal((n, 1)))
        out = resample(ens, np.ones(n), RandomSource(4).generator())
        src = ens.positions[:, 0]
        counts = np.bincount(np.searchsorted(np.sort(src), out.positions[:, 0]), minlength=n)
        assert counts.sum() == n
        assert counts.max() <= 9

    def test_unbiasedness_over_repetitions(self):
        # mean copy count over many resamples matches N * normalized weight
        # within 3 binomial standard deviations of the mean
        n, reps = 10, 10_000
        weights = np.array([1.0, 2.0, 3.0, 4.0, 0.5, 1.5, 2.5, 0.25, 0.75, 4.0])
        probs = weights / weights.sum()
        positions = np.arange(n, dtype=float)[:, None]
        ens = Ensemble(positions)
        root = RandomSource(77)
        totals = np.zeros(n)
        for r in range(reps):
            out = resample(ens, weights, root.derive(r).generator())
            totals += np.bincount(out.positions[:, 0].astype(int), minlength=n)
        mean_counts = totals / reps
        expected = n * probs
        sd = np.sqrt(n * probs * (1 - probs) / reps)
        assert np.all(np.abs(mean_counts - expected) <= 3 * sd)

    def test_degenerate_weights_rejected(self, rng):
        ens = Ensemble(rng.standard_normal((4, 1)))
        with pytest.raises(DegenerateWeightsError):
            resample(ens, np.zeros(4), RandomSource(1).generator())


positive_weights = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40).map(np.array)


class TestTruncateWeights:
    def test_hand_value(self):
        # N = 4: the cap c solves c = sqrt(4) * (1 + 1 + 1 + c) / 4, so c = 3
        out = _truncate_weights(np.array([1.0, 1.0, 1.0, 100.0]))
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 3.0], rtol=1e-15)

    @given(w=positive_weights)
    @settings(max_examples=100, deadline=None)
    def test_weights_within_the_cap_unchanged(self, w):
        assume(w.max() <= np.sqrt(len(w)) * w.mean())
        np.testing.assert_array_equal(_truncate_weights(w), w)

    @given(w=positive_weights, log2_scale=st.integers(-40, 40))
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariant_and_never_raises(self, w, log2_scale):
        # powers of two rescale mantissas exactly, so the scaled run is bit-identical
        out = _truncate_weights(w)
        scale = 2.0**log2_scale
        np.testing.assert_array_equal(_truncate_weights(scale * w), scale * out)
        assert np.all(out <= w)

    def test_cap_is_a_fixed_point_when_convergence_is_slow(self):
        # three of ten weights capped: an iteration towards the cap would
        # contract by 3 / sqrt(10) = 0.95 per step; the fixed point solves
        # c = sqrt(10) * (7 + 3c) / 10
        w = np.array([100.0] * 3 + [1.0] * 7)
        cap = 0.7 * np.sqrt(10) / (1.0 - 0.3 * np.sqrt(10))
        np.testing.assert_allclose(_truncate_weights(w), np.minimum(w, cap), rtol=1e-12)

    def test_fewer_positive_weights_than_sqrt_n_survive_equally(self):
        # N = 16 with 2 < sqrt(16) positive weights: the only fixed point is
        # 0, so the cap is the smallest positive weight
        w = np.array([5.0, 2.0] + [0.0] * 14)
        np.testing.assert_array_equal(_truncate_weights(w), [2.0, 2.0] + [0.0] * 14)

    @given(w=positive_weights)
    @settings(max_examples=100, deadline=None)
    def test_cap_is_a_fixed_point(self, w):
        out = _truncate_weights(w)
        cap = out.max()
        if cap < w.max():
            assert cap == pytest.approx(np.sqrt(len(w)) * out.mean(), rel=1e-12)


def _widened_by_brute_force(positions, base, k):
    """base * max(1, d_k / 3), d_k the k-th neighbour distance in units of base."""
    z = positions / base
    dist = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    d_k = np.sort(dist, axis=1)[:, k - 1]
    return base[None, :] * np.maximum(1.0, d_k / 3.0)[:, None]


class TestLooEngineBandwidth:
    @pytest.mark.parametrize("n", [5, 64])
    def test_matches_brute_force_neighbour_distances(self, rng, n):
        # a cloud with one straggler, whose kernel must widen
        positions = rng.standard_normal((n, 2))
        positions[0] = [12.0, -9.0]
        ens = Ensemble(positions)
        base = silverman_bandwidth(ens)
        out = _loo_engine_bandwidth(ens, fallback=np.array([7.0, 7.0]))
        np.testing.assert_allclose(
            out, _widened_by_brute_force(positions, base, min(7, n - 1)), rtol=1e-9
        )
        assert out[0, 0] > base[0]

    def test_collapsed_cloud_uses_the_fallback(self, rng):
        positions = np.column_stack([rng.standard_normal(16), np.zeros(16)])
        ens = Ensemble(positions)
        with pytest.raises(DegenerateEnsembleError):
            silverman_bandwidth(ens)
        fallback = np.array([0.5, 0.25])
        np.testing.assert_allclose(
            _loo_engine_bandwidth(ens, fallback),
            _widened_by_brute_force(positions, fallback, 7), rtol=1e-9,
        )


def _noop_sequence(n_dim=1):
    init = diag_gaussian_initial(np.zeros(n_dim), np.ones(n_dim))
    return TargetSequence((init.density,), init)


class TestRunSmc:
    def test_noop_sequence_recovers_initial_mean(self):
        # f_1 = f_0, so the final sample still targets f_0
        seq = _noop_sequence()
        cfg = SmcConfig(n_particles=4096, mutation=MhConfig(1.0), weight_mode="theoretical_ratio")
        result = run_smc(seq, cfg, RandomSource(11))
        mean = result.ensembles[0].positions.mean()
        assert abs(mean) < 3.0 / np.sqrt(4096)

    def test_three_estimators_agree_with_analytic_mean(self):
        # importance-weighted mean, post-selection mean and post-mutation
        # mean all target the final Gaussian's mean
        f0 = diag_gaussian_initial([0.0], [2.0])
        f1 = gaussian([1.0], [1.0])
        n = 4096
        draws = f0.sample(n, RandomSource(5).generator())
        ens = Ensemble(draws)
        w = correction_weights(ens, f1.log_f(draws), f0.density.log_f(draws), "theoretical_ratio")
        pre_selection_mean = (w / w.sum()) @ ens.positions[:, 0]
        selected = resample(ens, w, RandomSource(6).generator())
        post_selection_mean = selected.positions.mean()
        mutated = mutate_ensemble(
            f1, selected, MhConfig(1.0), 2, RandomSource(7), f1.log_f(selected.positions)
        ).ensemble
        post_mutation_mean = mutated.positions.mean()
        se = 5.0 / np.sqrt(n)
        for value in (pre_selection_mean, post_selection_mean, post_mutation_mean):
            assert abs(value - 1.0) < se

    def test_degenerate_weights_abort_carries_stage(self):
        # f_1 lives on a box the initial cloud cannot reach
        f1 = kde_target([[0.5, 0.5]], [0.1, 0.1],
                        constraints=BoxConstraints([0.0, 0.0], [1.0, 1.0]))
        init = diag_gaussian_initial([50.0, 50.0], [0.01, 0.01])
        seq = TargetSequence((f1,), init)
        cfg = SmcConfig(n_particles=32, mutation=MhConfig(0.1))
        with pytest.raises(DegenerateWeightsError) as err:
            run_smc(seq, cfg, RandomSource(3))
        assert err.value.stage == 1

    def test_thread_count_does_not_change_results(self, rng):
        points = rng.standard_normal((120, 2))
        seq = kde_blocks_sequence(points, 60,
                                  initial=diag_gaussian_initial([0.0, 0.0], [3.0, 3.0]))
        base = SmcConfig(n_particles=32, n_groups=4, mutation=HmcConfig(1.0, 5, 0.05),
                         weight_mode="loo_kde_ratio", n_threads=1)
        threaded = SmcConfig(n_particles=32, n_groups=4, mutation=HmcConfig(1.0, 5, 0.05),
                             weight_mode="loo_kde_ratio", n_threads=4)
        a = run_smc(seq, base, RandomSource(9))
        b = run_smc(seq, threaded, RandomSource(9))
        for ea, eb in zip(a.ensembles, b.ensembles):
            np.testing.assert_array_equal(ea.positions, eb.positions)

        # 400 particles a group and stages of 1200 and 2400 points, which
        # compute in blocks of 64 and 32 rows: at 3 and 5 threads every group
        # cuts its rows into 2 or 3 chunks, at 200 or at 133 and 267, on no
        # block edge, beside the groups of the other workers
        seq = kde_blocks_sequence(rng.standard_normal((2400, 2)), 1200,
                                  initial=diag_gaussian_initial([0.0, 0.0], [3.0, 3.0]))
        assert [kde._block_height(m) for m in (1200, 2400)] == [64, 32]
        for groups in (2, 4):
            runs = [run_smc(seq, SmcConfig(n_particles=400, n_groups=groups,
                                           mutation=HmcConfig(1.0, 5, 0.05),
                                           weight_mode="loo_kde_ratio", n_threads=threads),
                            RandomSource(9))
                    for threads in (1, 3, 5)]
            for run in runs[1:]:
                for ha, hb in zip(runs[0].history, run.history, strict=True):
                    for (ea, fa), (eb, fb) in zip(ha, hb, strict=True):
                        np.testing.assert_array_equal(ea.positions, eb.positions)
                        np.testing.assert_array_equal(fa, fb)

    def test_rows_beyond_every_kernel_do_not_depend_on_threads(self, rng):
        # a flattened KDE stage keeps the particles about 130 bandwidths from
        # every point, so one group's row chunks carry rows whose kernel sums
        # are taken in log space
        points = rng.standard_normal((1000, 2))
        seq = annealing_sequence(kde_target(points, [0.3, 0.3]), [1e-4, 2e-4],
                                 initial=diag_gaussian_initial([40.0, 40.0], [5.0, 5.0]))
        runs = [run_smc(seq, SmcConfig(n_particles=512, mutation=HmcConfig(1.0, 5, 1.0),
                                       n_threads=threads), RandomSource(5))
                for threads in (1, 2, 3)]
        final = runs[0].ensembles[0].positions
        nearest = np.sqrt(((final[:, None, :] - points) ** 2).sum(axis=-1)).min(axis=1)
        assert np.mean(nearest > 35 * 0.3) > 0.9
        for run in runs[1:]:
            for (ea, fa), (eb, fb) in zip(runs[0].history[0], run.history[0], strict=True):
                np.testing.assert_array_equal(ea.positions, eb.positions)
                np.testing.assert_array_equal(fa, fb)

    @pytest.mark.parametrize("groups, threads, particles, chunks", [
        (1, 1, 512, 1), (1, 3, 512, 3), (1, 3, 300, 2), (1, 64, 512, 4), (1, 2, 100, 1),
        (2, 2, 512, 1), (4, 2, 512, 1), (2, 3, 512, 2), (2, 64, 512, 4),
    ])
    def test_groups_cut_rows_for_their_share_of_threads(self, monkeypatch, tmp_path, groups,
                                                         threads, particles, chunks):
        # each group hands a stage's target evaluation and its mutation its
        # worker's ceil(threads / min(groups, threads)) threads, which cut
        # the rows into one chunk a thread, at least _MIN_CHUNK_ROWS = 128
        # to a chunk.  Groups may run in forked workers, so the calls are
        # recorded in a file they all append to
        log = tmp_path / "calls.txt"

        def recording(fn):
            def record(*args):
                with open(log, "a") as fh:  # the thread count, passed last
                    fh.write(f"{fn.__name__} {args[-1]}\n")
                return fn(*args)
            return record

        for name in ("_start_values", "mutate_ensemble"):
            monkeypatch.setattr(smc, name, recording(getattr(smc, name)))
        seq = annealing_sequence(gaussian([0.0], [1.0]), [0.5, 1.0],
                                 initial=diag_gaussian_initial([0.0], [2.0]))
        run_smc(seq, SmcConfig(n_particles=particles, mutation=MhConfig(0.5), n_groups=groups,
                               n_threads=threads), RandomSource(1))
        seen = [(name, int(count)) for name, count in map(str.split, log.read_text().splitlines())]
        share = -(-threads // min(groups, threads))
        assert _chunk_count(particles, share) == chunks
        assert sorted(seen) == sorted([("_start_values", share),
                                       ("mutate_ensemble", share)] * (2 * groups))

    def test_report_row_per_group_and_iteration(self, rng):
        points = rng.standard_normal((90, 2))
        seq = kde_blocks_sequence(points, 30,
                                  initial=diag_gaussian_initial([0.0, 0.0], [3.0, 3.0]))
        cfg = SmcConfig(n_particles=16, n_groups=3, mutation=MhConfig(0.5),
                        weight_mode="theoretical_ratio")
        result = run_smc(seq, cfg, RandomSource(21))
        assert len(result.report.rows) == 3 * 3
        for row in result.report.rows:
            assert 1.0 <= row.ess <= 16.0
            assert 0 <= row.acceptance_count <= 16
        assert len(result.history) == 3
        assert len(result.history[0]) == 4  # initial draws plus 3 iterations

    def test_missing_initial_rejected(self):
        with pytest.raises(TypeError, match="initial"):
            TargetSequence((gaussian([0.0], [1.0]),))

    @pytest.mark.parametrize("mode", ["theoretical_ratio", "loo_kde_ratio"])
    def test_stages_replay_from_the_documented_streams(self, rng, mode):
        # stage t of group j: correction_weights on history[j][t-1] (under
        # loo_kde_ratio with the initial cloud's Silverman bandwidth as the
        # fallback), selection on (seed, j, SELECTION_STREAM, t), mutation on
        # (seed, j, MUTATION_STREAM, t) from f_t's log f and gradient at the
        # survivors
        points = rng.standard_normal((60, 2))
        seq = kde_blocks_sequence(points, 30,
                                  initial=diag_gaussian_initial([0.0, 0.0], [3.0, 3.0]))
        cfg = SmcConfig(n_particles=16, n_groups=2, mutation=HmcConfig(1.0, 5, 0.1),
                        weight_mode=mode)
        root = RandomSource(17)
        result = run_smc(seq, cfg, root)
        assert [len(h) for h in result.history] == [3, 3]
        for j in range(2):
            history = result.history[j]
            fallback = None
            if mode == "loo_kde_ratio":
                fallback = silverman_bandwidth(history[0][0])
            for t in (1, 2):
                f_t = seq.stages[t - 1]
                f_prev = seq.initial.density if t == 1 else seq.stages[t - 2]
                before = history[t - 1][0]
                w = correction_weights(before, f_t.log_f(before.positions),
                                       f_prev.log_f(before.positions), mode, fallback)
                selected = resample(before, w, root.derive(j, SELECTION_STREAM, t).generator())
                mutated, _, accepted, _ = mutate_ensemble(
                    f_t, selected, cfg.mutation, 1, root.derive(j, MUTATION_STREAM, t),
                    f_t.log_f(selected.positions), f_t.grad_log_f(selected.positions),
                )
                np.testing.assert_array_equal(mutated.positions, history[t][0].positions)
                np.testing.assert_array_equal(accepted, history[t][1])
            assert result.ensembles[j] is history[-1][0]


@contextmanager
def another_thread():
    """A second Python thread, waiting on an Event, so run_smc keeps its groups on threads."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert not smc._can_fork()
        yield
    finally:
        done.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


def forked_and_threaded(seq, cfg, rng):
    """run_smc's result with the groups in forked workers and with them on threads."""
    with another_thread():
        threaded = run_smc(seq, cfg, rng)
    return run_smc(seq, cfg, rng), threaded


def pid_recording(log):
    """A flat 1-d target that appends the pid of each process calling it to ``log``."""

    def log_f(pos):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return np.zeros(len(pos))

    return TargetDensity(1, log_f, np.zeros_like)


def assert_gone(pid):
    # a child that exited but was not reaped is a zombie, which kill(pid, 0) still finds
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


class TestForkedGroups:
    """Groups in forked workers: the same results and errors as on threads."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("groups", [2, 4])
    def test_both_paths_give_the_same_bits(self, groups, threads):
        # 300 particles a group: at 5 and 9 threads each cuts its rows into
        # 2 chunks, in workers of 3 and 5 threads (2 groups) or 2 and 3 (4)
        points = np.random.default_rng(12).standard_normal((400, 2))
        seq = kde_blocks_sequence(points, 200, initial=INITIAL_2D)
        cfg = SmcConfig(n_particles=300, n_groups=groups, mutation=HmcConfig(1.0, 5, 0.1),
                        weight_mode="loo_kde_ratio", n_threads=threads)
        forked, threaded = forked_and_threaded(seq, cfg, RandomSource(4))
        for ha, hb in zip(forked.history, threaded.history, strict=True):
            for (ea, fa), (eb, fb) in zip(ha, hb, strict=True):
                assert not ea.positions.flags.writeable and not eb.positions.flags.writeable
                np.testing.assert_array_equal(ea.positions, eb.positions)
                np.testing.assert_array_equal(fa, fb)
        assert forked.report.n_groups == threaded.report.n_groups == groups
        for ra, rb in zip(forked.report.rows, threaded.report.rows, strict=True):
            for field in fields(ra):
                np.testing.assert_array_equal(getattr(ra, field.name), getattr(rb, field.name))

    def test_groups_run_in_forked_workers(self, tmp_path):
        # 4 groups on 2 threads: this process runs groups 0 and 2, one
        # worker groups 1 and 3, and the worker is reaped before run_smc
        # returns.  With a thread running, every group runs here
        cfg = SmcConfig(n_particles=16, n_groups=4, mutation=MhConfig(0.5), n_threads=2)
        seq = TargetSequence((pid_recording(tmp_path / "forked.txt"),), INITIAL_1D)
        run_smc(seq, cfg, RandomSource(2))
        pids = set(map(int, (tmp_path / "forked.txt").read_text().split()))
        assert os.getpid() in pids and len(pids) == 2
        for pid in pids - {os.getpid()}:
            assert_gone(pid)
        seq = TargetSequence((pid_recording(tmp_path / "threaded.txt"),), INITIAL_1D)
        with another_thread():
            run_smc(seq, cfg, RandomSource(2))
        assert set(map(int, (tmp_path / "threaded.txt").read_text().split())) == {os.getpid()}

    def test_a_run_right_after_a_pool_forks(self, tmp_path):
        # a thread whose join has returned stays listed in /proc/self/task
        # while its OS thread exits; run_smc waits for it to leave
        cfg = SmcConfig(n_particles=16, n_groups=2, mutation=MhConfig(0.5), n_threads=2)
        for attempt in range(20):
            log = tmp_path / f"{attempt}.txt"
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(abs, range(4)))
            run_smc(TargetSequence((pid_recording(log),), INITIAL_1D), cfg, RandomSource(2))
            assert len(set(log.read_text().split())) == 2, f"attempt {attempt} ran on threads"

    def test_thread_workers_run_groups_apart_by_the_worker_count(self, monkeypatch):
        # 5 groups on 2 threads: one worker runs groups 0, 2 and 4 in order
        # on one thread of the pool, the other groups 1 and 3.  A pool
        # thread that finished one worker's share may take the other's too
        ran = []

        def recording(group, *args):
            ran.append((threading.get_ident(), group))
            return run_group(group, *args)

        run_group = smc._run_group
        monkeypatch.setattr(smc, "_run_group", recording)
        cfg = SmcConfig(n_particles=16, n_groups=5, mutation=MhConfig(0.5), n_threads=2)
        with another_thread():
            run_smc(_noop_sequence(), cfg, RandomSource(2))
        for share in ([0, 2, 4], [1, 3]):
            (thread,) = {thread for thread, group in ran if group in share}
            assert [group for t, group in ran if t == thread and group in share] == share
            assert thread != threading.get_ident()

    def test_lowest_failing_group_raises_on_both_paths(self):
        # every particle starts on a point of f_1, where random-walk
        # proposals are rejected, so each group keeps its initial draws.  f_2
        # lives on group 0's draws only, so groups 1-3 die at stage 2; group
        # 1, the lowest, runs in a worker on the forked path
        init = uniform_box_initial([0.0], [1.0])
        root = RandomSource(6)
        draws = [init.sample(16, root.derive(j, INIT_STREAM, 0).generator())[:, 0]
                 for j in range(4)]

        def on(points):
            return TargetDensity(1, lambda pos: np.where(np.isin(pos[:, 0], points), 0.0, -np.inf),
                                 np.zeros_like)

        seq = TargetSequence((on(np.concatenate(draws)), on(draws[0])), init)
        cfg = SmcConfig(n_particles=16, n_groups=4, mutation=MhConfig(0.5), n_threads=2)
        with another_thread():
            with pytest.raises(DegenerateWeightsError) as threaded:
                run_smc(seq, cfg, root)
        with pytest.raises(DegenerateWeightsError) as forked:
            run_smc(seq, cfg, root)
        assert (str(forked.value), forked.value.stage) == (str(threaded.value), 2)
        assert "degenerate weights at stage 2 of group 1:" in str(forked.value)

    def test_worker_killed_by_a_signal_makes_the_parent_raise(self, tmp_path):
        me = os.getpid()
        log = tmp_path / "pids.txt"

        def log_f(pos):
            if os.getpid() != me:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                os.kill(os.getpid(), signal.SIGKILL)
            return np.zeros(len(pos))

        seq = TargetSequence((TargetDensity(1, log_f, np.zeros_like),), INITIAL_1D)
        cfg = SmcConfig(n_particles=16, n_groups=4, mutation=MhConfig(0.5), n_threads=2)
        with pytest.raises(RuntimeError, match=r"groups 1, 3 was killed by signal 9"):
            run_smc(seq, cfg, RandomSource(3))
        (pid,) = map(int, log.read_text().split())
        assert_gone(pid)

    def test_truncated_result_makes_the_parent_raise(self, monkeypatch):
        dumps = smc.pickle.dumps
        monkeypatch.setattr(smc.pickle, "dumps", lambda obj, *args: dumps(obj, *args)[:-20])
        cfg = SmcConfig(n_particles=16, n_groups=3, mutation=MhConfig(0.5), n_threads=3)
        with pytest.raises(RuntimeError, match=r"groups 1 sent a result that could not be read"):
            run_smc(_noop_sequence(), cfg, RandomSource(3))


def counting(target, counts, native=False):
    """``target`` with the rows passed to log_f and grad_log_f added to ``counts``.

    Given ``native``, the target's own log_f_and_grad is kept, with its rows
    counted under "fused".
    """

    def log_f(pos):
        counts["log_f"] += len(pos)
        return target.log_f(pos)

    def grad_log_f(pos):
        counts["grad"] += len(pos)
        return target.grad_log_f(pos)

    def log_f_and_grad(pos):
        counts["fused"] += len(pos)
        return target.log_f_and_grad(pos)

    # replace composes the fused call anew; a native one is set again
    counted = replace(target, log_f=log_f, grad_log_f=grad_log_f)
    if native:
        counts.setdefault("fused", 0)
        object.__setattr__(counted, "log_f_and_grad", log_f_and_grad)
    return counted


class TestEvaluationCounts:
    """Each density is evaluated once per point per stage."""

    N, T = 16, 4

    def run_counted(self, mutation, steps, mode, seq=None, native=False):
        if seq is None:
            seq = annealing_sequence(gaussian([0.5, -0.5], [1.0, 2.0]), [0.25, 0.5, 0.75, 1.0],
                                     initial=diag_gaussian_initial([0.0, 0.0], [2.0, 2.0]))
        counts = {"log_f": 0, "grad": 0}
        seq = TargetSequence(tuple(counting(t, counts, native) for t in seq.stages),
                             seq.initial)
        cfg = SmcConfig(n_particles=self.N, mutation=mutation, mutation_steps=steps,
                        weight_mode=mode)
        run_smc(seq, cfg, RandomSource(8))
        return counts

    @pytest.mark.parametrize("mode", ["theoretical_ratio", "loo_kde_ratio"])
    def test_hmc_stage(self, mode):
        # per stage: N log f and N gradient rows at the correction, the
        # composed fused call; per step L N gradient rows and N log f rows
        # at the proposals
        n, steps, leapfrog = self.N, 3, 5
        counts = self.run_counted(HmcConfig(1.0, leapfrog, 0.1), steps, mode)
        assert counts == {"log_f": self.T * (1 + steps) * n,
                          "grad": self.T * (1 + steps * leapfrog) * n}

    @pytest.mark.parametrize("mode", ["theoretical_ratio", "loo_kde_ratio"])
    def test_hmc_stage_on_a_fused_target(self, mode):
        # per stage: N fused rows at the correction; per step (L - 1) N
        # gradient rows and N fused rows at the proposals; no log f rows and
        # no start gradients
        n, steps, leapfrog = self.N, 3, 5
        points = np.random.default_rng(4).standard_normal((200, 2))
        seq = kde_blocks_sequence(points, 50, initial=diag_gaussian_initial([0.0, 0.0],
                                                                            [2.0, 2.0]))
        assert seq.n_stages == self.T
        counts = self.run_counted(HmcConfig(1.0, leapfrog, 0.1), steps, mode, seq, native=True)
        assert counts == {"log_f": 0, "fused": self.T * (1 + steps) * n,
                          "grad": self.T * steps * (leapfrog - 1) * n}

    @pytest.mark.parametrize("mode", ["theoretical_ratio", "loo_kde_ratio"])
    def test_mh_smc_makes_two_evaluations_per_particle_and_stage(self, mode):
        counts = self.run_counted(MhConfig(0.5), 1, mode)
        assert counts == {"log_f": self.T * 2 * self.N, "grad": 0}

    @pytest.mark.parametrize("stage", ["kde", "boxed dropwave", "powered"])
    def test_survivors_carry_their_own_start_values(self, monkeypatch, rng, stage):
        # the stage evaluates f_t at the corrected cloud in 2 row chunks,
        # about half of it outside the dropwave box at the first stage, and
        # selection hands each survivor log f_t and its gradient with the
        # bits of evaluating the survivors themselves
        seq = {
            "kde": lambda: kde_blocks_sequence(rng.standard_normal((400, 2)), 200,
                                               initial=INITIAL_2D),
            "boxed dropwave": lambda: TargetSequence(
                (dropwave(), dropwave()), diag_gaussian_initial([0.0, 0.0], [2.5, 2.5])),
            "powered": lambda: annealing_sequence(rosenbrock(), [0.5, 1.0], initial=INITIAL_2D),
        }[stage]()
        handed = []

        def recording(target, ensemble, kernel, steps, rng, log_f, grad_log_f, *args):
            handed.append((target, ensemble.positions, log_f, grad_log_f))
            return mutate_ensemble(target, ensemble, kernel, steps, rng, log_f, grad_log_f, *args)

        monkeypatch.setattr(smc, "mutate_ensemble", recording)
        run_smc(seq, SmcConfig(n_particles=300, mutation=HmcConfig(1.0, 5, 0.1), n_threads=3),
                RandomSource(6))
        assert [target for target, *_ in handed] == list(seq.stages)
        for target, positions, log_f, grad in handed:
            np.testing.assert_array_equal(log_f, target.log_f(positions))
            np.testing.assert_array_equal(grad, target.grad_log_f(positions))

    def test_mutation_hands_back_the_final_log_f(self, rng):
        # the boxed KDE target's proposals take log f from its fused call;
        # a replace-d KDE target with a prior added must not
        box = BoxConstraints([-2.0, -2.0], [2.0, 2.0])
        kde = kde_target(rng.standard_normal((200, 2)), 0.5, box)
        with_prior = replace(kde, log_f=lambda pos: kde.log_f(pos) - 0.5 * (pos**2).sum(axis=1),
                             grad_log_f=lambda pos: kde.grad_log_f(pos) - pos)
        ens = Ensemble(np.clip(rng.standard_normal((self.N, 2)), -1.9, 1.9))
        for target in (gaussian([0.5, -0.5], [1.0, 2.0]), kde, with_prior):
            for kernel in (HmcConfig(1.0, 5, 0.1), MhConfig(0.5)):
                result = mutate_ensemble(target, ens, kernel, 3, RandomSource(2),
                                         *target.log_f_and_grad(ens.positions))
                np.testing.assert_array_equal(result.log_f,
                                              target.log_f(result.ensemble.positions))


def _report_from_group_stats(stats, n_particles):
    rows = tuple(
        IterationRecord(group=g, iteration=1, acceptance_count=0, ess=float(n_particles),
                        weight_min=0.0, weight_max=1.0,
                        mean=np.atleast_1d(mean), cov_diag=np.atleast_1d(var))
        for g, (mean, var) in enumerate(stats)
    )
    return RunReport(n_particles=n_particles, n_groups=len(stats), n_iterations=1, rows=rows)


class TestCompareGroups:
    def test_identical_groups_give_zero(self):
        report = _report_from_group_stats([(0.5, 1.0), (0.5, 1.0), (0.5, 1.0)], 100)
        assert compare_groups(report) == 0.0

    def test_same_distribution_rarely_flags(self):
        # Monte Carlo calibration: two groups of 10^4 draws from one
        # Gaussian stay below 3 in almost every replication
        gen = np.random.default_rng(2024)
        n, flags = 10_000, 0
        reps = 200
        for _ in range(reps):
            stats = []
            for _ in range(2):
                draws = gen.standard_normal(n)
                stats.append((draws.mean(), draws.var()))
            flags += compare_groups(_report_from_group_stats(stats, n)) >= 3.0
        assert flags <= 4  # ~0.5% expected rate, generous head-room

    def test_groups_stuck_at_different_modes_flagged(self):
        report = _report_from_group_stats([(-2.5, 0.05), (2.5, 0.05)], 512)
        assert compare_groups(report) > 100.0

    def test_needs_two_groups(self):
        report = _report_from_group_stats([(0.0, 1.0)], 10)
        with pytest.raises(ValueError):
            compare_groups(report)


class TestSmcConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SmcConfig(n_particles=1, mutation=MhConfig(1.0))
        for field in ("n_particles", "n_groups", "mutation_steps", "n_threads"):
            for value in (16.5, True, "4"):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    SmcConfig(**{"n_particles": 16, "mutation": MhConfig(1.0), field: value})
        counts = SmcConfig(n_particles=16.0, mutation=MhConfig(1.0), n_groups=np.int64(2),
                           mutation_steps=3.0, n_threads=2.0)
        assert [type(v) for v in (counts.n_particles, counts.n_groups, counts.mutation_steps,
                                  counts.n_threads)] == [int] * 4
        with pytest.raises(ValueError):
            SmcConfig(n_particles=8, mutation=MhConfig(1.0), weight_mode="bogus")
        with pytest.raises(ValueError):
            SmcConfig(n_particles=8, mutation="not a kernel")

    def test_sequence_dim_mismatch(self):
        with pytest.raises(ValueError):
            TargetSequence(
                (gaussian([0.0], [1.0]), gaussian([0.0, 0.0], [1.0, 1.0])), INITIAL_1D
            )
        # a target's dim is a count
        for dim in (2.5, True, "3"):
            with pytest.raises(ValueError, match="dim must be an integer"):
                TargetDensity(dim, np.zeros, np.zeros)
        assert type(TargetDensity(np.int64(2), np.zeros, np.zeros).dim) is int
