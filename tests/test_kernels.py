import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from conftest import leapfrog_proposal, reflect_into_box

from hsmc.core import MUTATION_STREAM, Ensemble, RandomSource, TargetDensity
from hsmc.kernels import HmcConfig, MhConfig, hmc_step, mh_step, mutate_ensemble
from hsmc.kernels import _hmc_batch, _mh_batch, _reflect_box
from hsmc.targets import dropwave, gaussian, rosenbrock


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
            mh_step(dropwave(), np.array([3.0, 0.0]), MhConfig(1.0), RandomSource(1))

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
        out = hmc_step(flat_target(), np.array([0.3, -0.2]), cfg, RandomSource(5))
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
        out = hmc_step(target, np.zeros(1), HmcConfig(1.0, 5, 0.1), RandomSource(3))
        assert not out.accepted
        assert out.log_accept_prob == -np.inf
        np.testing.assert_array_equal(out.new_position, np.zeros(1))


class TestSinglePositionEdge:
    def test_config_type_checked(self):
        with pytest.raises(TypeError, match="MhConfig"):
            mh_step(rosenbrock(), np.zeros(2), HmcConfig(), RandomSource(1))
        with pytest.raises(TypeError, match="HmcConfig"):
            hmc_step(rosenbrock(), np.zeros(2), MhConfig(), RandomSource(1))

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
            momentum = np.sqrt(hmc_cfg.mass_for(2)) * ref.standard_normal(2)
            log_u = np.log(ref.uniform())
            q, _, _, acc, log_a = _hmc_batch(
                target, start[None], target.log_f(start[None]), target.grad_log_f(start[None]),
                momentum[None], np.array([log_u]), hmc_cfg,
            )
            np.testing.assert_array_equal(out.new_position, q[0])
            assert (out.accepted, out.log_accept_prob) == (acc[0], log_a[0])

            out = mh_step(target, start, mh_cfg, gen)
            noise = ref.standard_normal(2)
            log_u = np.log(ref.uniform())
            q, _, acc, log_a = _mh_batch(
                target, start[None], target.log_f(start[None]), noise[None], np.array([log_u]), 0.3
            )
            np.testing.assert_array_equal(out.new_position, q[0])
            assert (out.accepted, out.log_accept_prob) == (acc[0], log_a[0])
            start = out.new_position


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
            x, lf, _, _ = _mh_batch(target, x, lf, noise, log_u, sigma**2)
            states[step + 1] = (x[:, 0] >= 1.0).astype(np.int8)

        prev, curr = states[:-1].ravel(), states[1:].ravel()
        from_a = prev == 0
        from_b = prev == 1
        emp_ab = (curr[from_a] == 1).mean()
        emp_ba = (curr[from_b] == 0).mean()
        assert emp_ab == pytest.approx(p_ab, abs=1e-3)
        assert emp_ba == pytest.approx(p_ba, abs=1e-3)


class TestMutateEnsemble:
    def test_matches_sequential_particle_stepping(self, rng):
        target = rosenbrock()
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
