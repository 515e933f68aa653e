import numpy as np
import pytest

from conftest import assert_gradient_matches

import hsmc
from hsmc.core import RandomSource
from hsmc.kde import kde_target
from hsmc.targets import (
    DROPWAVE_BOX,
    LogitData,
    dropwave,
    gaussian,
    geometric_bridge,
    nonlinear_logit_loglik,
    powered,
    rosenbrock,
    sample_dropwave_data,
    sample_smiley_data,
    simulate_logit_data,
    smiley,
)


def smiley_reference(x, y):
    """Direct evaluation of the three-bump mixture, written independently."""
    t1 = np.exp((-6.0 * (-((2.5 - x) ** 2) - 1.5 * y + 38.0) ** 2 - (2.5 - x) ** 2) / 5.0)
    t2 = np.exp((-6.0 * (-((x + 2.5) ** 2) - 1.5 * y + 38.0) ** 2 - (x + 2.5) ** 2) / 5.0)
    t3 = np.exp((-5.0 * (y - x * x) ** 2 - x * x) / 5.0)
    return t1 + t2 + t3


class TestRosenbrock:
    def test_at_origin(self):
        assert rosenbrock().log_f(np.array([[0.0, 0.0]]))[0] == 0.0

    def test_hand_value(self):
        # (y - x^2) = 0 leaves -x^2 / 8
        assert rosenbrock().log_f(np.array([[1.0, 1.0]]))[0] == pytest.approx(-0.125, abs=1e-15)

    def test_stationary_at_origin(self):
        np.testing.assert_allclose(rosenbrock().grad_log_f(np.array([[0.0, 0.0]]))[0], 0.0)

    def test_batch_shape(self, rng):
        pts = rng.standard_normal((7, 2))
        assert rosenbrock().log_f(pts).shape == (7,)
        assert rosenbrock().grad_log_f(pts).shape == (7, 2)


class TestGaussian:
    def test_gradient_zero_at_mode(self):
        mu = np.array([10.0, 10.0, 10.0, -10.0, -10.0, -10.0])
        t = gaussian(mu, np.ones(6))
        np.testing.assert_allclose(t.grad_log_f(mu[None])[0], np.zeros(6))

    def test_unit_normal_difference(self):
        t = gaussian([0.0], [1.0])
        diff = t.log_f(np.array([[1.0]]))[0] - t.log_f(np.array([[0.0]]))[0]
        assert diff == pytest.approx(-0.5, abs=1e-15)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian([0.0, 0.0], [1.0, 0.0])


class TestSmiley:
    def test_mirror_symmetry(self):
        t = smiley()
        assert t.log_f(np.array([[1.3, 2.7]]))[0] == pytest.approx(
            t.log_f(np.array([[-1.3, 2.7]]))[0], abs=1e-12
        )

    def test_matches_reference_formula(self, rng):
        t = smiley()
        assert t.log_f(np.array([[0.0, 0.0]]))[0] == pytest.approx(
            np.log(smiley_reference(0.0, 0.0)), abs=1e-12
        )
        for _ in range(25):
            x, y = rng.uniform([-4.0, -2.0], [4.0, 27.0])
            assert t.log_f(np.array([[x, y]]))[0] == pytest.approx(
                np.log(smiley_reference(x, y)), rel=1e-12
            )

    def test_gradient_matches_finite_differences(self, rng):
        pts = rng.uniform([-4.0, -2.0], [4.0, 26.0], size=(20, 2))
        assert_gradient_matches(smiley(), pts)


class TestDropwave:
    def test_peak_value(self):
        assert dropwave().log_f(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_radial_symmetry(self, rng):
        t = dropwave()
        for _ in range(20):
            a, b = rng.uniform(-2.4, 2.4, 2)
            assert t.log_f(np.array([[a, b]]))[0] == pytest.approx(
                t.log_f(np.array([[b, a]]))[0], abs=1e-12
            )

    def test_gradient_zero_at_origin(self):
        np.testing.assert_allclose(dropwave().grad_log_f(np.array([[0.0, 0.0]]))[0], 0.0)

    def test_box_attached(self):
        t = dropwave()
        assert t.constraints is not None
        assert t.log_f(np.array([[2.6, 0.0]]))[0] == -np.inf
        np.testing.assert_array_equal(t.constraints.lower, [-2.5, -2.5])


class TestNonlinearLogit:
    def test_flat_utility_gives_half_probability(self):
        # beta2 = 0 makes V identically zero, so every term is log(1/2)
        data = LogitData(np.array([1.0, 4.0, -1.5]), np.array([1.0, 0.0, 1.0]))
        t = nonlinear_logit_loglik(data)
        assert t.log_f(np.array([[3.0, 0.0]]))[0] == pytest.approx(-3.0 * np.log(2.0), abs=1e-12)

    def test_utility_hand_value(self):
        # V(3) at beta = (3, 3) is 2 sin(9); a single accepted offer at x=3
        # contributes V - log(1 + e^V)
        data = LogitData(np.array([3.0]), np.array([1.0]))
        t = nonlinear_logit_loglik(data)
        v = 2.0 * np.sin(9.0)
        assert v == pytest.approx(0.82424, abs=5e-6)
        assert t.log_f(np.array([[3.0, 3.0]]))[0] == pytest.approx(
            v - np.log1p(np.exp(v)), abs=1e-12
        )

    def test_far_beta1_probabilities_near_half(self, rng):
        offers = rng.uniform(-2.0, 8.0, 10)
        for x in offers:
            single = nonlinear_logit_loglik(LogitData([x], [1.0]))
            prob = np.exp(single.log_f(np.array([[1e6, 3.0]]))[0])
            assert abs(prob - 0.5) < 1e-6

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            LogitData(np.array([]), np.array([]))

    def test_offer_domain_checked(self):
        with pytest.raises(ValueError):
            LogitData(np.array([9.0]), np.array([1.0]))


class TestSimulateLogitData:
    def test_count_and_domain(self):
        data = simulate_logit_data(400, (3.0, 3.0), RandomSource(5))
        assert len(data) == 400
        assert data.offers.min() >= -2.0 and data.offers.max() <= 8.0

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_logit_data(0, (3.0, 3.0), RandomSource(5))

    def test_half_acceptance_when_utility_flat(self):
        # beta2 = 0 gives V = 0 everywhere, so choices are fair coin flips
        data = simulate_logit_data(100_000, (3.0, 0.0), RandomSource(11))
        assert abs(data.choices.mean() - 0.5) < 0.01

    def test_csv_roundtrip(self, tmp_path):
        data = simulate_logit_data(25, (3.0, 3.0), RandomSource(2))
        path = tmp_path / "logit.csv"
        data.to_csv(path)
        assert path.read_text().splitlines()[0] == "x,choice"
        back = LogitData.from_csv(path)
        np.testing.assert_array_equal(back.offers, data.offers)
        np.testing.assert_array_equal(back.choices, data.choices)


class TestPowered:
    def test_identity_at_one(self, rng):
        base = rosenbrock()
        t = powered(base, 1.0)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert t.log_f(x[None])[0] == base.log_f(x[None])[0]

    def test_doubling_hand_value(self):
        t = powered(rosenbrock(), 2.0)
        assert t.log_f(np.array([[1.0, 1.0]]))[0] == pytest.approx(-0.25, abs=1e-15)

    def test_exact_scaling_property(self, rng):
        base = dropwave()
        t = powered(base, 3.5)
        for _ in range(10):
            x = rng.uniform(-2.4, 2.4, 2)
            assert t.log_f(x[None])[0] == 3.5 * base.log_f(x[None])[0]

    def test_argmax_invariant_on_grid(self):
        xs = np.linspace(-2.4, 2.4, 33)
        grid = np.array([[x, y] for x in xs for y in xs])
        base = dropwave()
        hot = powered(base, 7.0)
        assert np.argmax(base.log_f(grid)) == np.argmax(hot.log_f(grid))

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            powered(rosenbrock(), 0.0)
        with pytest.raises(ValueError):
            powered(rosenbrock(), -2.0)

    def test_constraints_preserved(self):
        assert powered(dropwave(), 2.0).constraints is DROPWAVE_BOX


class TestGeometricBridge:
    def test_endpoints(self, rng):
        f1 = gaussian([0.0], [1.0])
        f = gaussian([2.0], [1.0])
        at0 = geometric_bridge(f1, f, 0.0)
        at1 = geometric_bridge(f1, f, 1.0)
        for _ in range(10):
            x = rng.standard_normal(1)
            assert at0.log_f(x[None])[0] == f1.log_f(x[None])[0]
            assert at1.log_f(x[None])[0] == f.log_f(x[None])[0]

    def test_midpoint_of_gaussians_has_mean_one(self):
        # the product of N(0,1)^.5 and N(2,1)^.5 is a Gaussian centred at 1
        bridge = geometric_bridge(gaussian([0.0], [1.0]), gaussian([2.0], [1.0]), 0.5)
        np.testing.assert_allclose(bridge.grad_log_f(np.array([[1.0]]))[0], 0.0, atol=1e-14)
        assert bridge.grad_log_f(np.array([[0.5]]))[0][0] > 0
        assert bridge.grad_log_f(np.array([[1.5]]))[0][0] < 0

    def test_parameter_validation(self):
        f1, f = gaussian([0.0], [1.0]), gaussian([2.0], [1.0])
        with pytest.raises(ValueError):
            geometric_bridge(f1, f, 1.5)
        with pytest.raises(ValueError):
            geometric_bridge(f1, gaussian([0.0, 0.0], [1.0, 1.0]), 0.5)

    def test_zero_density_never_nan(self):
        bridge = geometric_bridge(gaussian([0.0, 0.0], [1.0, 1.0]), dropwave(), 0.5)
        val = bridge.log_f(np.array([[3.0, 0.0]]))[0]
        assert val == -np.inf


class TestGradientProperty:
    @pytest.mark.parametrize(
        "name",
        ["rosenbrock", "gaussian", "smiley", "dropwave", "logit", "powered", "bridge"],
    )
    def test_all_targets_match_finite_differences(self, name, rng):
        if name == "rosenbrock":
            target, lo, hi = rosenbrock(), [-3, -1], [3, 6]
        elif name == "gaussian":
            target, lo, hi = gaussian([1.0, -2.0], [2.0, 0.5]), [-4, -6], [6, 2]
        elif name == "smiley":
            target, lo, hi = smiley(), [-4, -2], [4, 26]
        elif name == "dropwave":
            target, lo, hi = dropwave(), [-2.4, -2.4], [2.4, 2.4]
        elif name == "logit":
            data = simulate_logit_data(60, (3.0, 3.0), RandomSource(3))
            target, lo, hi = nonlinear_logit_loglik(data), [-1, -1], [6, 6]
        elif name == "powered":
            target, lo, hi = powered(smiley(), 2.5), [-4, -2], [4, 26]
        else:
            target, lo, hi = (
                geometric_bridge(gaussian([0.0, 5.0], [25.0, 100.0]), smiley(), 0.3),
                [-4, -2],
                [4, 26],
            )
        pts = rng.uniform(lo, hi, size=(100, 2))
        assert_gradient_matches(target, pts)


class TestBatchOnly:
    @pytest.mark.parametrize("name", ["rosenbrock", "kde", "powered", "bridge"])
    def test_single_position_rejected(self, name):
        target = {
            "rosenbrock": rosenbrock,
            "kde": lambda: kde_target([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5]),
            "powered": lambda: powered(dropwave(), 2.0),
            "bridge": lambda: geometric_bridge(gaussian([0.0, 0.0], [1.0, 1.0]), smiley(), 0.5),
        }[name]()
        for fn in (target.log_f, target.grad_log_f):
            with pytest.raises(ValueError, match=r"\(n, dim\) = \(n, 2\), got \(2,\)"):
                fn(np.zeros(2))
            with pytest.raises(ValueError, match=r"\(n, dim\) = \(n, 2\), got \(4, 3\)"):
                fn(np.zeros((4, 3)))


class TestRejectionSampling:
    def test_smiley_sample_is_on_the_three_components(self):
        pts = sample_smiley_data(512, RandomSource(4))
        assert pts.shape == (512, 2)
        logf = smiley().log_f(pts)
        # rejection can only return points with non-negligible density
        assert np.isfinite(logf).all() and logf.min() > -25.0

    def test_dropwave_sample_inside_box(self):
        pts = sample_dropwave_data(256, RandomSource(4))
        assert DROPWAVE_BOX.contains(pts).all()

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_smiley_data(0, RandomSource(4))
