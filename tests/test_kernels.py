from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from conftest import leapfrog_proposal, reflect_into_box

from hsmc.core import (
    MUTATION_STREAM, Ensemble, RandomSource, TargetDensity, _chunk_bounds, _chunk_count,
)
from hsmc.kernels import HmcConfig, MhConfig, hmc_step, mh_step, mutate_ensemble
from hsmc import kde, kernels
from hsmc.kde import kde_target
from hsmc.kernels import _chains, _reflect_box, _stage_draws, _step
from hsmc.targets import (
    dropwave, gaussian, nonlinear_logit_loglik, rosenbrock, simulate_logit_data,
)


def fold_loop(q, p, lower, upper, max_folds=1024):
    """Reference reflection: fold at the upper wall, then at the lower wall,
    until the coordinate is inside.  Returns (q, p, number of folds)."""
    folds = 0
    for _ in range(max_folds):
        over = q > upper
        if over:
            q, p, folds = upper - (q - upper), -p, folds + 1
        under = q < lower
        if under:
            q, p, folds = lower + (lower - q), -p, folds + 1
        if not (over or under):
            break
    return q, p, folds


def flat_target(dim=2):
    return TargetDensity(dim, lambda p: np.zeros(p.shape[0]), np.zeros_like)


class TestConfigs:
    def test_hmc_validation(self):
        with pytest.raises(ValueError):
            HmcConfig(mass_diag=[1.0, -1.0])
        with pytest.raises(ValueError):
            HmcConfig(leapfrog_steps=0)
        for steps in (2.7, True, "3", None, np.inf):
            with pytest.raises(ValueError, match="leapfrog_steps must be an integer"):
                HmcConfig(leapfrog_steps=steps)
        assert HmcConfig(leapfrog_steps=np.int64(3)).leapfrog_steps == 3
        assert type(HmcConfig(leapfrog_steps=4.0).leapfrog_steps) is int
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.0)

    def test_mh_validation(self):
        with pytest.raises(ValueError):
            MhConfig(proposal_scale=0.0)

    def test_mass_is_a_frozen_copy(self):
        mass = np.array([1.0, 2.0])
        cfg = HmcConfig(mass_diag=mass)
        assert mass.flags.writeable and not cfg.mass_diag.flags.writeable
        mass[0] = 5.0
        np.testing.assert_array_equal(cfg.mass_diag, [1.0, 2.0])

    def test_mass_broadcast(self):
        cfg = HmcConfig(mass_diag=2.0)
        np.testing.assert_array_equal(cfg.mass_for(3), [2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            HmcConfig(mass_diag=[1.0, 2.0]).mass_for(3)


class TestMhStep:
    def test_flat_target_always_accepts(self):
        gen = RandomSource(3).generator()
        pos = np.zeros(2)
        for _ in range(50):
            out = mh_step(flat_target(), pos, MhConfig(1.0), gen)
            assert out.accepted and out.log_accept_prob == 0.0
            pos = out.new_position

    def test_rejection_keeps_position(self):
        # nearly-degenerate target with a huge proposal: rejections happen
        target = gaussian([0.0], [1e-8])
        gen = RandomSource(5).generator()
        rejected = 0
        for _ in range(50):
            out = mh_step(target, np.zeros(1), MhConfig(100.0), gen)
            if not out.accepted:
                rejected += 1
                np.testing.assert_array_equal(out.new_position, np.zeros(1))
                assert out.log_accept_prob < 0
        assert rejected > 10

    def test_invalid_start_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            mh_step(dropwave(), np.array([3.0, 0.0]), MhConfig(1.0), RandomSource(1).generator())

    def test_zero_density_proposal_rejected(self):
        # a box-constrained target auto-rejects proposals outside the box
        target = dropwave()
        gen = RandomSource(11).generator()
        for _ in range(100):
            out = mh_step(target, np.array([2.45, 0.0]), MhConfig(4.0), gen)
            assert np.isfinite(target.log_f(out.new_position[None])[0])


class TestReflectIntoBox:
    def test_single_fold_at_upper_wall(self):
        q, p = reflect_into_box(2.7, 1.0, -2.5, 2.5)
        assert q == pytest.approx(2.3, abs=1e-12)
        assert p == -1.0

    def test_inside_unchanged(self):
        assert reflect_into_box(1.0, -0.3, -2.5, 2.5) == (1.0, -0.3)

    def test_double_fold(self):
        # 2.3 folds to -0.3 at the top wall, then to 0.3 at the bottom wall
        q, p = reflect_into_box(2.3, 1.0, 0.0, 1.0)
        assert q == pytest.approx(0.3, abs=1e-12)
        assert p == 1.0

    @given(
        q=st.floats(-30.0, 30.0),
        p=st.floats(-5.0, 5.0, exclude_min=False),
        lo=st.floats(-3.0, 0.0),
        span=st.floats(0.5, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_result_in_bounds_and_energy_preserved(self, q, p, lo, span):
        hi = lo + span
        q2, p2 = reflect_into_box(q, p, lo, hi)
        assert lo <= q2 <= hi
        assert abs(p2) == abs(p)  # exact sign flips only

    @given(
        q=st.floats(-30.0, 30.0),
        p=st.floats(-5.0, 5.0),
        lo=st.floats(-3.0, 0.0),
        span=st.floats(0.5, 4.0),
        sides=st.sampled_from(["both", "upper only", "lower only"]),
    )
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_fold_loop(self, q, p, lo, span, sides):
        hi = lo + span
        if sides == "upper only":
            lo = -np.inf
        elif sides == "lower only":
            hi = np.inf
        ref_q, ref_p, folds = fold_loop(q, p, lo, hi)
        q2, p2 = reflect_into_box(q, p, lo, hi)
        if folds <= 1:
            assert (q2, p2) == (ref_q, ref_p)
        else:
            assert abs(q2 - ref_q) <= 1e-12
            # on a wall the loop's fold count depends on rounding
            assert np.sign(p2) == np.sign(ref_p) or min(abs(ref_q - lo), abs(ref_q - hi)) <= 1e-12

    def test_far_overshoot_folds_back(self):
        # 999,999.25 past the top wall of [0, 1]: an even number of folds
        q, p = reflect_into_box(1e6 + 0.25, 1.0, 0.0, 1.0)
        assert q == pytest.approx(0.25, abs=1e-9)
        assert p == 1.0

    def test_nonfinite_coordinates_stay_nonfinite(self):
        q, p = _reflect_box(
            np.array([[np.inf, np.nan, 2.5]]), np.ones((1, 3)), np.zeros(3), np.ones(3)
        )
        assert np.isposinf(q[0, 0]) and np.isnan(q[0, 1])
        assert q[0, 2] == 0.5  # two folds: 2.5 -> -0.5 -> 0.5
        np.testing.assert_array_equal(p, np.ones((1, 3)))


class TestHmcStep:
    def test_flat_target_drift_and_certain_acceptance(self):
        cfg = HmcConfig(mass_diag=[2.0, 0.5], leapfrog_steps=7, step_size=0.1)
        out = hmc_step(flat_target(), np.array([0.3, -0.2]), cfg, RandomSource(5).generator())
        gen = RandomSource(5).generator()
        momentum = np.sqrt(cfg.mass_for(2)) * gen.standard_normal(2)
        expected = np.array([0.3, -0.2]) + 7 * 0.1 * momentum / cfg.mass_for(2)
        np.testing.assert_allclose(out.new_position, expected, atol=1e-14)
        assert out.log_accept_prob == 0.0 and out.accepted

    def test_energy_error_small_on_unit_gaussian(self):
        # leapfrog energy drift is O(eps^2); at eps=0.01 it stays tiny
        target = gaussian([0.0], [1.0])
        cfg = HmcConfig(1.0, 10, 0.01)
        gen = np.random.default_rng(0)
        worst = 0.0
        for _ in range(300):
            q0 = gen.standard_normal(1)
            p0 = gen.standard_normal(1)
            q1, p1 = leapfrog_proposal(target, q0[None], p0[None], cfg)
            h0 = -target.log_f(q0[None])[0] + 0.5 * (p0**2).sum()
            h1 = -target.log_f(q1)[0] + 0.5 * (p1**2).sum()
            worst = max(worst, abs(h1 - h0))
        assert worst < 1e-3

    def test_leapfrog_reversibility(self):
        target = rosenbrock()
        cfg = HmcConfig(1.0, 20, 0.05)
        gen = np.random.default_rng(7)
        for _ in range(20):
            q0 = gen.standard_normal(2)
            p0 = gen.standard_normal(2)
            q1, p1 = leapfrog_proposal(target, q0[None], p0[None], cfg)
            q2, p2 = leapfrog_proposal(target, q1, p1, cfg)
            np.testing.assert_allclose(q2[0], q0, atol=1e-10)
            np.testing.assert_allclose(p2[0], p0, atol=1e-10)

    def test_leapfrog_volume_preservation(self):
        # numeric Jacobian of the (position, momentum) map on a quadratic
        # potential; the determinant must be 1 (before the final negation)
        target = gaussian([0.0], [1.0])
        cfg = HmcConfig(1.0, 12, 0.1)

        def phase_map(q, p):
            q1, p1 = leapfrog_proposal(target, np.array([[q]]), np.array([[p]]), cfg)
            return q1[0, 0], -p1[0, 0]

        h = 1e-5
        q0, p0 = 0.4, -0.8
        dq_dq = (phase_map(q0 + h, p0)[0] - phase_map(q0 - h, p0)[0]) / (2 * h)
        dq_dp = (phase_map(q0, p0 + h)[0] - phase_map(q0, p0 - h)[0]) / (2 * h)
        dp_dq = (phase_map(q0 + h, p0)[1] - phase_map(q0 - h, p0)[1]) / (2 * h)
        dp_dp = (phase_map(q0, p0 + h)[1] - phase_map(q0, p0 - h)[1]) / (2 * h)
        det = dq_dq * dp_dp - dq_dp * dp_dq
        assert abs(det - 1.0) < 1e-8

    def test_constrained_step_stays_in_box(self):
        target = dropwave()
        cfg = HmcConfig(1.0, 20, 0.05)
        gen = RandomSource(13).generator()
        pos = np.array([2.4, -2.4])
        for _ in range(200):
            out = hmc_step(target, pos, cfg, gen)
            pos = out.new_position
            assert target.constraints.contains(pos)

    def test_divergent_gradient_rejects_instead_of_crashing(self):
        # a target whose gradient explodes produces a rejected proposal
        target = TargetDensity(
            1, lambda p: np.zeros(p.shape[0]), lambda p: np.full_like(p, np.inf)
        )
        out = hmc_step(target, np.zeros(1), HmcConfig(1.0, 5, 0.1), RandomSource(3).generator())
        assert not out.accepted
        assert out.log_accept_prob == -np.inf
        np.testing.assert_array_equal(out.new_position, np.zeros(1))


class TestSinglePositionEdge:
    def test_config_type_checked(self):
        with pytest.raises(TypeError, match="MhConfig"):
            mh_step(rosenbrock(), np.zeros(2), HmcConfig(), RandomSource(1).generator())
        with pytest.raises(TypeError, match="HmcConfig"):
            hmc_step(rosenbrock(), np.zeros(2), MhConfig(), RandomSource(1).generator())

    def test_draw_order_is_normals_then_uniform(self):
        # each step draws dim standard normals, then one uniform, from the
        # chain's generator; replaying that order by hand gives the same bits
        target = rosenbrock()
        start = np.array([0.4, -0.3])
        hmc_cfg = HmcConfig(mass_diag=[2.0, 0.5], leapfrog_steps=5, step_size=0.1)
        mh_cfg = MhConfig(0.3)
        gen, ref = RandomSource(17).generator(), RandomSource(17).generator()
        for _ in range(5):
            out = hmc_step(target, start, hmc_cfg, gen)
            noise = ref.standard_normal(2)
            log_u = np.log(ref.uniform())
            q, _, _, acc, log_a = _step(
                target, start[None], target.log_f(start[None]), target.grad_log_f(start[None]),
                hmc_cfg, noise[None], np.array([log_u]),
            )
            np.testing.assert_array_equal(out.new_position, q[0])
            assert (out.accepted, out.log_accept_prob) == (acc[0], log_a[0])

            out = mh_step(target, start, mh_cfg, gen)
            noise = ref.standard_normal(2)
            log_u = np.log(ref.uniform())
            q, _, _, acc, log_a = _step(
                target, start[None], target.log_f(start[None]), None,
                mh_cfg, noise[None], np.array([log_u]),
            )
            np.testing.assert_array_equal(out.new_position, q[0])
            assert (out.accepted, out.log_accept_prob) == (acc[0], log_a[0])
            start = out.new_position

    def test_hmc_start_gradient_evaluated_when_not_given(self):
        # a step given no gradient evaluates it at the rows: same bits as
        # passing grad log f there
        target = rosenbrock()
        positions = np.array([[0.4, -0.3], [1.2, 0.9], [-0.5, 0.1]])
        cfg = HmcConfig(mass_diag=[2.0, 0.5], leapfrog_steps=5, step_size=0.1)
        gen = RandomSource(4).generator()
        noise, log_u = gen.standard_normal(positions.shape), np.log(gen.uniform(size=3))
        lf = target.log_f(positions)
        given = _step(target, positions, lf, target.grad_log_f(positions), cfg, noise, log_u)
        evaluated = _step(target, positions, lf, None, cfg, noise, log_u)
        for a, b in zip(given, evaluated):
            np.testing.assert_array_equal(a, b)


class TestChains:
    # start points: rosenbrock's origin, a dropwave corner whose trajectories
    # fold at the walls, and the 6-d gaussian burn-in race's far start
    CASES = {
        "rosenbrock": (rosenbrock, [0.0, 0.0]),
        "dropwave": (dropwave, [2.4, -2.4]),
        "gauss6": (lambda: gaussian([10.0] * 3 + [-10.0] * 3, [1.0] * 6), [-15.0] * 3 + [15.0] * 3),
    }

    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("kernel, step", [
        (MhConfig(0.5), mh_step), (HmcConfig(1.0, 10, 0.8), hmc_step),
    ], ids=["mh", "hmc"])
    @pytest.mark.parametrize("case", CASES)
    def test_batch_matches_each_chain_stepped_alone(self, monkeypatch, case, kernel, step,
                                                    chains):
        folds = []

        def counted_reflect_box(q, p, lower, upper):
            folds.append(int(((q > upper) | (q < lower)).sum()))
            return _reflect_box(q, p, lower, upper)

        monkeypatch.setattr(kernels, "_reflect_box", counted_reflect_box)
        make_target, start = self.CASES[case]
        target, start, steps = make_target(), np.array(start), 40
        root = RandomSource(31)
        noise, log_u = _stage_draws(root, chains, len(start), steps)
        states, accepted, _, _ = _chains(type(kernel), target, np.tile(start, (chains, 1)),
                                         kernel, noise, log_u)
        assert states.shape == (steps + 1, chains, len(start))
        assert accepted.shape == (steps + 1, chains) and accepted[0].all()
        for j in range(chains):
            gen, position = root.derive(j).generator(), start
            np.testing.assert_array_equal(states[0, j], start)
            for s in range(1, steps + 1):
                out = step(target, position, kernel, gen)
                np.testing.assert_array_equal(states[s, j], out.new_position)
                assert accepted[s, j] == out.accepted
                position = out.new_position
        # both outcomes occur, so carried values are checked after rejections too
        assert 0 < accepted[1:].sum() < chains * steps
        assert (sum(folds) > 0) == (case == "dropwave" and step is hmc_step)

    def test_zero_density_start_raises(self):
        noise, log_u = _stage_draws(RandomSource(1), 2, 2, 3)
        starts = np.array([[0.0, 0.0], [3.0, 0.0]])  # the second lies outside the box
        with pytest.raises(ValueError, match="non-finite"):
            _chains(MhConfig, dropwave(), starts, MhConfig(1.0), noise, log_u)

    def test_wrong_config_type_raises(self):
        noise, log_u = _stage_draws(RandomSource(1), 1, 2, 3)
        with pytest.raises(TypeError, match="expected an HmcConfig, got MhConfig"):
            _chains(HmcConfig, rosenbrock(), np.zeros((1, 2)), MhConfig(), noise, log_u)


class TestDetailedBalance:
    def test_two_level_target_matches_transition_oracle(self):
        # piecewise-constant density: 3 on [0,1), 1 on [1,2), zero outside.
        # empirical bin-to-bin transition frequencies of the chain must
        # match quadrature of the proposal-acceptance integral.
        log3 = np.log(3.0)

        def batch_log_f(p):
            x = p[:, 0]
            inside = (x >= 0.0) & (x < 2.0)
            return np.where(inside, np.where(x < 1.0, log3, 0.0), -np.inf)

        target = TargetDensity(1, batch_log_f, np.zeros_like)

        sigma = 0.7

        def rect_prob(x, lo, hi):
            return norm.cdf((hi - x) / sigma) - norm.cdf((lo - x) / sigma)

        # oracle: P(bin A -> bin B) for the stationary chain
        def oracle(frm, to, accept_ratio):
            lo, hi = frm
            val, _ = quad(lambda x: rect_prob(x, *to), lo, hi, limit=200)
            return accept_ratio * val / (hi - lo)

        p_ab = oracle((0.0, 1.0), (1.0, 2.0), 1.0 / 3.0)  # downhill
        p_ba = oracle((1.0, 2.0), (0.0, 1.0), 1.0)  # uphill always accepted

        # long vectorized chain started from the stationary distribution
        n_chains, n_steps = 1000, 20000
        gen = np.random.default_rng(123)
        u = gen.uniform(size=n_chains)
        x = np.where(u < 0.75, gen.uniform(0, 1, n_chains), gen.uniform(1, 2, n_chains))
        x = x[:, None]
        states = np.empty((n_steps + 1, n_chains), dtype=np.int8)
        states[0] = (x[:, 0] >= 1.0).astype(np.int8)
        lf = target.log_f(x)
        for step in range(n_steps):
            noise = gen.standard_normal((n_chains, 1))
            log_u = np.log(gen.uniform(size=n_chains))
            x, lf, _, _, _ = _step(target, x, lf, None, MhConfig(sigma**2), noise, log_u)
            states[step + 1] = (x[:, 0] >= 1.0).astype(np.int8)

        prev, curr = states[:-1].ravel(), states[1:].ravel()
        from_a = prev == 0
        from_b = prev == 1
        emp_ab = (curr[from_a] == 1).mean()
        emp_ba = (curr[from_b] == 0).mean()
        assert emp_ab == pytest.approx(p_ab, abs=1e-3)
        assert emp_ba == pytest.approx(p_ba, abs=1e-3)


class TestStageDraws:
    @pytest.mark.parametrize("dim", [1, 2, 6])
    @pytest.mark.parametrize("steps", [1, 5])
    def test_replays_each_particle_generator(self, dim, steps):
        # per step, particle i draws dim normals and then one uniform from
        # rng.derive(i).generator(); 512 particles draw enough normals that
        # some leave the ziggurat's fast path and take extra words, so a
        # counter or buffer carried over from another particle would show
        rng = RandomSource(2024, (3, MUTATION_STREAM, 7))
        noise, log_u = _stage_draws(rng, 512, dim, steps)
        assert noise.shape == (steps, 512, dim) and log_u.shape == (steps, 512)
        expected_noise = np.empty_like(noise)
        expected_u = np.empty((steps, 512))
        extra_words = False
        for i in range(512):
            gen = rng.derive(i).generator()
            for s in range(steps):
                expected_noise[s, i] = gen.standard_normal(dim)
                expected_u[s, i] = gen.uniform()
            state = gen.bit_generator.state
            words = 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"])
            extra_words |= words > steps * (dim + 1)
        assert extra_words
        np.testing.assert_array_equal(noise, expected_noise)
        np.testing.assert_array_equal(log_u, np.log(expected_u))


class TestMutateEnsemble:
    # both targets' rows are independent of their batch, the condition
    # under which a batch equals its rows stepped one at a time
    @pytest.mark.parametrize("make_target", [
        rosenbrock,
        lambda: nonlinear_logit_loglik(simulate_logit_data(60, (3.0, 3.0), RandomSource(3))),
    ], ids=["rosenbrock", "logit"])
    def test_matches_sequential_particle_stepping(self, rng, make_target):
        target = make_target()
        cfg = HmcConfig(1.0, 10, 0.05)
        ens = Ensemble(rng.standard_normal((16, 2)))
        root = RandomSource(99)
        result = mutate_ensemble(
            target, ens, cfg, 2, root.derive(MUTATION_STREAM, 3), target.log_f(ens.positions)
        )

        manual = ens.positions.copy()
        acc = 0
        for n in range(16):
            gen = root.derive(MUTATION_STREAM, 3, n).generator()
            pos = manual[n]
            for _ in range(2):
                out = hmc_step(target, pos, cfg, gen)
                pos = out.new_position
                acc += out.accepted
            manual[n] = pos
        np.testing.assert_array_equal(result.ensemble.positions, manual)
        assert result.acceptance_count == acc

    def test_mh_kernel_matches_sequential(self, rng):
        target = rosenbrock()
        cfg = MhConfig(0.2)
        ens = Ensemble(rng.standard_normal((8, 2)))
        root = RandomSource(42)
        result = mutate_ensemble(
            target, ens, cfg, 3, root.derive(MUTATION_STREAM, 1), target.log_f(ens.positions)
        )
        manual = ens.positions.copy()
        for n in range(8):
            gen = root.derive(MUTATION_STREAM, 1, n).generator()
            pos = manual[n]
            for _ in range(3):
                pos = mh_step(target, pos, cfg, gen).new_position
            manual[n] = pos
        np.testing.assert_array_equal(result.ensemble.positions, manual)

    @pytest.mark.parametrize("kernel", [HmcConfig(1.0, 5, 0.05), MhConfig(0.05)],
                             ids=["hmc", "mh"])
    def test_chunks_give_the_serial_bits_on_a_kde_target(self, rng, kernel):
        # 1000 points make blocks of 128 rows, and halves and thirds of 300
        # rows cut at 150, or at 100 and 200, on no block edge
        target = kde_target(rng.standard_normal((1000, 2)), [0.3, 0.4])
        assert kde._block_height(1000) == 128
        ens = Ensemble(rng.standard_normal((300, 2)))
        lf = target.log_f(ens.positions)
        source = RandomSource(5).derive(MUTATION_STREAM, 2)
        serial = mutate_ensemble(target, ens, kernel, 3, source, lf)
        with ThreadPoolExecutor(max_workers=3) as pool:
            for chunks in (2, 3):
                for executor in (pool, None):
                    split = mutate_ensemble(target, ens, kernel, 3, source, lf, executor, chunks)
                    np.testing.assert_array_equal(split.ensemble.positions,
                                                  serial.ensemble.positions)
                    np.testing.assert_array_equal(split.log_f, serial.log_f)
                    np.testing.assert_array_equal(split.accepted, serial.accepted)
                    assert split.acceptance_count == serial.acceptance_count

    @pytest.mark.parametrize("n, chunks, bounds", [
        (512, 2, [0, 256, 512]),
        (300, 2, [0, 150, 300]),
        (300, 3, [0, 100, 200, 300]),
        (400, 3, [0, 133, 267, 400]),
        (512, 1, [0, 512]),
        (5, 8, [0, 1, 2, 3, 4, 5]),  # cuts that round alike count once
    ])
    def test_chunk_bounds_are_nearly_equal(self, n, chunks, bounds):
        assert _chunk_bounds(n, chunks) == bounds

    @pytest.mark.parametrize("n, threads, chunks", [
        (512, 2, 2), (512, 64, 4), (10201, 3, 3), (255, 4, 1), (100, 8, 1), (256, 1, 1),
    ])
    def test_chunk_count_keeps_min_rows_a_chunk(self, n, threads, chunks):
        assert _chunk_count(n, threads) == chunks

    def test_zero_steps_rejected(self, rng):
        ens = Ensemble(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError):
            mutate_ensemble(rosenbrock(), ens, MhConfig(1.0), 0, RandomSource(1), np.zeros(4))

    def test_requires_random_source(self, rng):
        ens = Ensemble(rng.standard_normal((4, 2)))
        with pytest.raises(TypeError):
            mutate_ensemble(
                rosenbrock(), ens, MhConfig(1.0), 1, np.random.default_rng(0), np.zeros(4)
            )
