from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsmc.core import (
    MUTATION_STREAM,
    SELECTION_STREAM,
    BoxConstraints,
    DegenerateEnsembleError,
    DegenerateWeightsError,
    Ensemble,
    RandomSource,
)
from hsmc.kernels import HmcConfig, MhConfig, mutate_ensemble
from hsmc.smc import (
    IterationRecord,
    RunReport,
    SmcConfig,
    TargetSequence,
    annealing_sequence,
    blockwise_sequence,
    compare_groups,
    correction_weights,
    diag_gaussian_initial,
    resample,
    run_smc,
    tempering_sequence,
)
from hsmc.smc import _loo_engine_bandwidth, _truncate_weights
from hsmc.kde import kde_target, loo_log_density_all, silverman_bandwidth
from hsmc.targets import dropwave, gaussian, simulate_logit_data


class TestBlockwiseSequence:
    def test_smiley_scale_block_count(self, rng):
        points = rng.standard_normal((2048, 2))
        seq = blockwise_sequence("kde", points, 100)
        assert seq.n_stages == 21  # 20 full blocks and one block of 48

    def test_dropwave_scale_block_count(self, rng):
        points = rng.standard_normal((4096, 2))
        seq = blockwise_sequence("kde", points, 100)
        assert seq.n_stages == 41  # 40 full blocks and one block of 96

    def test_logit_block_count(self):
        data = simulate_logit_data(400, (3.0, 3.0), RandomSource(1))
        seq = blockwise_sequence("loglik", data, 50)
        assert seq.n_stages == 8

    def test_final_stage_uses_all_data(self, rng):
        points = rng.standard_normal((130, 2))
        seq = blockwise_sequence("kde", points, 50)
        assert seq.n_stages == 3
        sd = points.std(axis=0, ddof=1)
        expected = kde_target(points, sd * 130 ** (-0.2))
        x = np.array([0.3, -0.7])
        assert seq.stages[-1].log_f(x[None])[0] == pytest.approx(
            expected.log_f(x[None])[0], abs=1e-12
        )

    def test_stage_bandwidth_uses_revealed_data_only(self, rng):
        points = rng.standard_normal((60, 2)) * [1.0, 5.0]
        seq = blockwise_sequence("kde", points, 20)
        first = points[:20]
        expected = kde_target(first, first.std(axis=0, ddof=1) * 20 ** (-0.2))
        x = np.array([0.0, 0.0])
        assert seq.stages[0].log_f(x[None])[0] == pytest.approx(
            expected.log_f(x[None])[0], abs=1e-12
        )

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            blockwise_sequence("kde", np.empty((0, 2)), 100)

    def test_constraints_propagate(self, rng):
        from hsmc.targets import DROPWAVE_BOX

        points = rng.uniform(-2, 2, (64, 2))
        seq = blockwise_sequence("kde", points, 32, constraints=DROPWAVE_BOX)
        assert seq.stages[0].log_f(np.array([[3.0, 0.0]]))[0] == -np.inf


class TestTemperingSequence:
    def test_single_phi_equals_target(self, rng):
        f1 = gaussian([0.0], [4.0])
        f = gaussian([2.0], [1.0])
        seq = tempering_sequence(f1, f, [1.0])
        assert seq.n_stages == 1
        for _ in range(5):
            x = rng.standard_normal(1)
            assert seq.stages[0].log_f(x[None])[0] == f.log_f(x[None])[0]

    def test_four_stage_ladder(self, rng):
        f1 = gaussian([0.0], [4.0])
        f = gaussian([2.0], [1.0])
        seq = tempering_sequence(f1, f, [0.25, 0.5, 0.75, 1.0])
        assert seq.n_stages == 4
        x = rng.standard_normal(1)
        assert seq.stages[-1].log_f(x[None])[0] == f.log_f(x[None])[0]

    def test_monotonicity_enforced(self):
        f1, f = gaussian([0.0], [4.0]), gaussian([2.0], [1.0])
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
        seq = annealing_sequence(f, [1.0])
        x = rng.standard_normal(1)
        assert seq.stages[0].log_f(x[None])[0] == f.log_f(x[None])[0]

    def test_gaussian_power_variances(self):
        # N(0,1)^gamma is N(0, 1/gamma): check the log-kernel curvature
        f = gaussian([0.0], [1.0])
        seq = annealing_sequence(f, [1.0, 4.0, 16.0, 64.0])
        one = np.array([1.0])
        zero = np.array([0.0])
        for stage, gamma in zip(seq.stages, [1.0, 4.0, 16.0, 64.0]):
            diff = stage.log_f(one[None])[0] - stage.log_f(zero[None])[0]
            assert diff == pytest.approx(-gamma / 2)

    def test_validation(self):
        f = gaussian([0.0], [1.0])
        with pytest.raises(ValueError):
            annealing_sequence(f, [4.0, 1.0])
        with pytest.raises(ValueError):
            annealing_sequence(f, [-1.0, 2.0])
        with pytest.raises(ValueError):
            annealing_sequence(f, [])

    def test_high_gamma_concentrates_dropwave_on_grid(self):
        # at gamma=64 nearly all grid mass sits at the central bump
        target = dropwave()
        seq = annealing_sequence(target, [1.0, 4.0, 16.0, 64.0])
        xs = np.linspace(-2.5, 2.5, 101)
        grid = np.array([[x, y] for x in xs for y in xs])
        dens = np.exp(seq.stages[-1].log_f(grid) - seq.stages[-1].log_f(np.zeros((1, 2)))[0])
        radius = np.linalg.norm(grid, axis=1)
        assert dens[radius > 0.5].sum() / dens.sum() < 1e-6


class TestCorrectionWeights:
    def test_identical_targets_give_uniform_weights(self, rng):
        f = gaussian([0.0, 0.0], [1.0, 1.0])
        ens = Ensemble(rng.standard_normal((32, 2)))
        w, _ = correction_weights(ens, f, f.log_f(ens.positions), "theoretical_ratio")
        np.testing.assert_allclose(w / w.sum(), 1.0 / 32, atol=1e-12)

    def test_theoretical_ratio_values(self, rng):
        f0 = gaussian([0.0], [4.0])
        f1 = gaussian([1.0], [1.0])
        positions = rng.standard_normal((16, 1))
        ens = Ensemble(positions)
        w, log_next = correction_weights(ens, f1, f0.log_f(positions), "theoretical_ratio")
        np.testing.assert_array_equal(log_next, f1.log_f(positions))
        logw = f1.log_f(positions) - f0.log_f(positions)
        expected = np.exp(logw - logw.max())
        np.testing.assert_allclose(w, expected, rtol=1e-12)

    def test_loo_mode_matches_bruteforce(self, rng):
        f1 = gaussian([0.0, 0.0], [1.0, 1.0])
        positions = rng.standard_normal((40, 2))
        ens = Ensemble(positions)
        w, _ = correction_weights(ens, f1, None, "loo_kde_ratio")
        h = silverman_bandwidth(ens)
        logw = f1.log_f(positions) - loo_log_density_all(positions, h)
        expected = np.exp(logw - logw.max())
        np.testing.assert_allclose(w, expected, rtol=1e-9)

    def test_zero_density_particle_gets_zero_weight(self):
        box_target = dropwave()
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        ens = Ensemble(positions)
        w, _ = correction_weights(
            ens, box_target, gaussian([0.0, 0.0], [25.0, 25.0]).log_f(positions)
        )
        assert w[2] == 0.0
        assert w[0] > 0 and w[1] > 0

    def test_all_dead_raises(self):
        box_target = dropwave()
        positions = np.array([[3.0, 0.0], [4.0, 4.0]])
        ens = Ensemble(positions)
        with pytest.raises(DegenerateWeightsError):
            correction_weights(
                ens, box_target, gaussian([0.0, 0.0], [25.0, 25.0]).log_f(positions)
            )

    def test_loo_weights_permutation_equivariant(self, rng):
        f1 = gaussian([0.0, 0.0], [1.0, 1.0])
        positions = rng.standard_normal((24, 2))
        perm = rng.permutation(24)
        w, _ = correction_weights(Ensemble(positions), f1, None, "loo_kde_ratio")
        wp, _ = correction_weights(Ensemble(positions[perm]), f1, None, "loo_kde_ratio")
        np.testing.assert_allclose(wp, w[perm], rtol=1e-10)


class TestResample:
    def test_point_mass_gives_copies(self, rng):
        positions = rng.standard_normal((8, 2))
        ens = Ensemble(positions)
        weights = np.zeros(8)
        weights[3] = 5.0
        out = resample(ens, weights, RandomSource(2))
        np.testing.assert_array_equal(out.positions, np.tile(positions[3], (8, 1)))

    def test_multinomial_copy_counts(self, rng):
        # single resample of 10^4 uniform weights: copy counts behave like
        # Poisson(1); allow up to the ~1e-6 tail level
        n = 10_000
        ens = Ensemble(rng.standard_normal((n, 1)))
        out = resample(ens, np.ones(n), RandomSource(4))
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
            out = resample(ens, weights, root.derive(r))
            totals += np.bincount(out.positions[:, 0].astype(int), minlength=n)
        mean_counts = totals / reps
        expected = n * probs
        sd = np.sqrt(n * probs * (1 - probs) / reps)
        assert np.all(np.abs(mean_counts - expected) <= 3 * sd)

    def test_degenerate_weights_rejected(self, rng):
        ens = Ensemble(rng.standard_normal((4, 1)))
        with pytest.raises(DegenerateWeightsError):
            resample(ens, np.zeros(4), RandomSource(1))


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
        w, _ = correction_weights(ens, f1, f0.density.log_f(draws), "theoretical_ratio")
        pre_selection_mean = (w / w.sum()) @ ens.positions[:, 0]
        selected = resample(ens, w, RandomSource(6))
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
        seq = blockwise_sequence("kde", points, 60,
                                 initial=diag_gaussian_initial([0.0, 0.0], [3.0, 3.0]))
        base = SmcConfig(n_particles=32, n_groups=4, mutation=HmcConfig(1.0, 5, 0.05),
                         weight_mode="loo_kde_ratio", n_threads=1)
        threaded = SmcConfig(n_particles=32, n_groups=4, mutation=HmcConfig(1.0, 5, 0.05),
                             weight_mode="loo_kde_ratio", n_threads=4)
        a = run_smc(seq, base, RandomSource(9))
        b = run_smc(seq, threaded, RandomSource(9))
        for ea, eb in zip(a.ensembles, b.ensembles):
            np.testing.assert_array_equal(ea.positions, eb.positions)

    def test_report_row_per_group_and_iteration(self, rng):
        points = rng.standard_normal((90, 2))
        seq = blockwise_sequence("kde", points, 30,
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
        seq = TargetSequence((gaussian([0.0], [1.0]),))
        cfg = SmcConfig(n_particles=8, mutation=MhConfig(1.0))
        with pytest.raises(ValueError, match="initial"):
            run_smc(seq, cfg, RandomSource(0))

    def test_stages_replay_from_the_documented_streams(self, rng):
        # stage t of group j: correction from history[j][t-1], selection on
        # (seed, j, SELECTION_STREAM, t), mutation on (seed, j, MUTATION_STREAM, t)
        points = rng.standard_normal((60, 2))
        seq = blockwise_sequence("kde", points, 30,
                                 initial=diag_gaussian_initial([0.0, 0.0], [3.0, 3.0]))
        cfg = SmcConfig(n_particles=16, n_groups=2, mutation=HmcConfig(1.0, 5, 0.1),
                        weight_mode="theoretical_ratio")
        root = RandomSource(17)
        result = run_smc(seq, cfg, root)
        assert [len(h) for h in result.history] == [3, 3]
        for j in range(2):
            history = result.history[j]
            for t in (1, 2):
                f_t = seq.stages[t - 1]
                f_prev = seq.initial.density if t == 1 else seq.stages[t - 2]
                before = history[t - 1][0]
                w, _ = correction_weights(before, f_t, f_prev.log_f(before.positions))
                selected = resample(before, w, root.derive(j, SELECTION_STREAM, t))
                mutated, _, accepted, _ = mutate_ensemble(
                    f_t, selected, cfg.mutation, 1, root.derive(j, MUTATION_STREAM, t),
                    f_t.log_f(selected.positions),
                )
                np.testing.assert_array_equal(mutated.positions, history[t][0].positions)
                np.testing.assert_array_equal(accepted, history[t][1])
            assert result.ensembles[j] is history[-1][0]


def counting(target):
    """``target`` with the rows passed to log_f and grad_log_f counted."""
    counts = {"log_f": 0, "grad": 0}

    def log_f(pos):
        counts["log_f"] += len(pos)
        return target.log_f(pos)

    def grad_log_f(pos):
        counts["grad"] += len(pos)
        return target.grad_log_f(pos)

    return replace(target, log_f=log_f, grad_log_f=grad_log_f), counts


class TestEvaluationCounts:
    """Each density is evaluated once per point per stage."""

    N, T = 16, 4

    def run_counted(self, mutation, steps, mode):
        target, counts = counting(gaussian([0.5, -0.5], [1.0, 2.0]))
        seq = annealing_sequence(target, [0.25, 0.5, 0.75, 1.0],
                                 initial=diag_gaussian_initial([0.0, 0.0], [2.0, 2.0]))
        cfg = SmcConfig(n_particles=self.N, mutation=mutation, mutation_steps=steps,
                        weight_mode=mode)
        run_smc(seq, cfg, RandomSource(8))
        return counts

    @pytest.mark.parametrize("mode", ["theoretical_ratio", "loo_kde_ratio"])
    def test_hmc_stage(self, mode):
        # per stage: N log f rows at the correction; per step L N gradient
        # rows and N log f rows at the proposals; N start-gradient rows
        n, steps, leapfrog = self.N, 3, 5
        counts = self.run_counted(HmcConfig(1.0, leapfrog, 0.1), steps, mode)
        assert counts == {"log_f": self.T * (n + steps * n),
                          "grad": self.T * (n + steps * leapfrog * n)}

    @pytest.mark.parametrize("mode", ["theoretical_ratio", "loo_kde_ratio"])
    def test_mh_smc_makes_two_evaluations_per_particle_and_stage(self, mode):
        counts = self.run_counted(MhConfig(0.5), 1, mode)
        assert counts == {"log_f": self.T * 2 * self.N, "grad": 0}

    def test_mutation_hands_back_the_final_log_f(self, rng):
        target = gaussian([0.5, -0.5], [1.0, 2.0])
        ens = Ensemble(rng.standard_normal((self.N, 2)))
        for kernel in (HmcConfig(1.0, 5, 0.1), MhConfig(0.5)):
            result = mutate_ensemble(target, ens, kernel, 3, RandomSource(2),
                                     target.log_f(ens.positions))
            np.testing.assert_array_equal(result.log_f, target.log_f(result.ensemble.positions))


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
        with pytest.raises(ValueError):
            SmcConfig(n_particles=8, mutation=MhConfig(1.0), weight_mode="bogus")
        with pytest.raises(ValueError):
            SmcConfig(n_particles=8, mutation="not a kernel")

    def test_sequence_dim_mismatch(self):
        with pytest.raises(ValueError):
            TargetSequence((gaussian([0.0], [1.0]), gaussian([0.0, 0.0], [1.0, 1.0])))
