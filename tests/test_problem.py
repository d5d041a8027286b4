import itertools
import math

import numpy as np
import pytest

from mrbsde import (
    BoundarySpec,
    ConfigError,
    DriverSpec,
    ForwardSDESpec,
    KappaSpec,
    ObstacleCurve,
    TerminalSpec,
    eval_boundary,
    eval_driver,
    validate_problem,
)
from tests.util import zero_problem


AFFINE_KEYS = ("const", "y", "z", "mean_y", "mean_z")


def named_check(checks, assumption):
    return next(c for c in checks if c.assumption == assumption)


def none_failed(checks):
    return all(c.status != "fail" for c in checks)


class TestHardFailures:
    def test_positive_beta_is_config_error(self):
        spec = zero_problem(boundary=BoundarySpec("linear-monotone", beta=0.5))
        with pytest.raises(ConfigError, match="beta"):
            validate_problem(spec, samples=200, seed=0)

    def test_nonpositive_horizon(self):
        spec = zero_problem(horizon=-1.0)
        with pytest.raises(ConfigError, match="horizon"):
            validate_problem(spec, samples=200, seed=0)

    def test_nan_horizon(self):
        spec = zero_problem(horizon=float("nan"))
        with pytest.raises(ConfigError, match="horizon"):
            validate_problem(spec, samples=200, seed=0)

    def test_nan_beta(self):
        spec = zero_problem(boundary=BoundarySpec("linear-monotone", beta=float("nan")))
        with pytest.raises(ConfigError, match="beta"):
            validate_problem(spec, samples=200, seed=0)

    def test_dimension_below_one(self):
        spec = zero_problem(brownian_dim=0)
        with pytest.raises(ConfigError, match="brownian_dim"):
            validate_problem(spec, samples=200, seed=0)

    def test_unsorted_tabulated_obstacle(self):
        obs = ObstacleCurve("tabulated", knots_t=(0.0, 0.8, 0.5, 1.0), knots_u=(0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ConfigError, match="increasing"):
            validate_problem(zero_problem(obstacle=obs), samples=200, seed=0)

    def test_infinite_beta(self):
        spec = zero_problem(boundary=BoundarySpec("linear-monotone", beta=-math.inf))
        with pytest.raises(ConfigError, match="beta"):
            validate_problem(spec, samples=200, seed=0)

    def test_unsorted_curve_clock(self):
        kappa = KappaSpec("curve", knots_t=(0.0, 1.0, 0.5), knots_v=(0.0, 1.0, 2.0))
        with pytest.raises(ConfigError, match="increasing"):
            validate_problem(zero_problem(kappa=kappa), samples=200, seed=0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: DriverSpec("zero", lipschitz_L_f=x),
            lambda x: BoundarySpec("zero", growth_L_g=x),
            lambda x: BoundarySpec("zero", psi=x),
            lambda x: TerminalSpec("direct-sampler", std=x),
            lambda x: KappaSpec("linear", rate=x),
            lambda x: KappaSpec("zero", h_scale=x),
            lambda x: ObstacleCurve("sine", amplitude=x),
            lambda x: ObstacleCurve("constant", value=x),
            lambda x: ObstacleCurve("tabulated", knots_t=(0.0, 1.0), knots_u=(0.0, x)),
            lambda x: TerminalSpec("direct-sampler", mean=x),
            lambda x: TerminalSpec("functional-of-forward", payoff="call", strike=x),
            lambda x: ForwardSDESpec(sigma=x),
            lambda x: DriverSpec("affine", {"const": x}),
            lambda x: KappaSpec("curve", knots_t=(0.0, 1.0), knots_v=(0.0, x)),
        ],
        ids=["lipschitz_L_f", "growth_L_g", "psi", "std", "rate", "h_scale", "amplitude", "value",
             "knots_u", "mean", "strike", "sigma", "coefficients", "knots_v"],
    )
    def test_nan_constant_is_rejected(self, build):
        build(1.0)
        for bad in (float("nan"), -math.inf, math.inf):
            with pytest.raises(ValueError, match="must be"):
                build(bad)

    def test_too_few_samples(self):
        with pytest.raises(ConfigError, match="samples"):
            validate_problem(zero_problem(), samples=99, seed=0)


class TestValidationReport:
    def test_zero_problem_all_checks_pass(self):
        report = validate_problem(zero_problem(), samples=500, seed=3)
        assert none_failed(report)
        assert named_check(report, "A2-monotonicity").status == "pass"
        assert named_check(report, "A5-exp-moment").status == "unverifiable"

    def test_declared_mean_below_terminal_obstacle_flagged(self):
        spec = zero_problem(obstacle=ObstacleCurve("constant", value=0.1))
        report = validate_problem(spec, samples=500, seed=3)
        check = named_check(report, "A3-terminal-vs-obstacle")
        assert check.status == "fail"
        assert not none_failed(report)

    def test_wrong_lipschitz_declaration_flagged(self):
        driver = DriverSpec("affine", {"mean_y": 1.0}, lipschitz_L_f=0.1)
        report = validate_problem(zero_problem(driver=driver), samples=500, seed=3)
        assert named_check(report, "A1-lipschitz").status == "fail"

    def test_nonmonotone_boundary_flagged(self):
        # beta declared far more negative than the actual slope delivers
        boundary = BoundarySpec("linear-monotone", beta=-0.1, growth_L_g=1.0)
        bad = BoundarySpec("linear-monotone", beta=-2.0, growth_L_g=3.0)
        ok_report = validate_problem(zero_problem(boundary=boundary), samples=500, seed=3)
        assert named_check(ok_report, "A2-monotonicity").status == "pass"
        bad_report = validate_problem(zero_problem(boundary=bad), samples=500, seed=3)
        # g(y) = -2y satisfies (dy)(dg) = -2(dy)^2 <= -2(dy)^2 exactly: still pass
        assert named_check(bad_report, "A2-monotonicity").status == "pass"

    def test_growth_violation_flagged(self):
        boundary = BoundarySpec("nonlinear-monotone", beta=-1.0, growth_L_g=0.5)
        report = validate_problem(zero_problem(boundary=boundary), samples=500, seed=3)
        assert named_check(report, "A2-growth").status == "fail"


class TestEvalDriver:
    def test_affine_all_zero_coefficients(self):
        spec = DriverSpec("affine", {})
        assert eval_driver(spec, 0.3, 1.7, np.array([2.0]), 0.4, np.array([0.9])) == 0.0

    def test_affine_mean_coordinate_identity(self):
        spec = DriverSpec("affine", {"mean_y": 1.0}, lipschitz_L_f=1.0)
        assert eval_driver(spec, 0.0, 0.0, np.array([0.0]), 0.5, np.array([0.0])) == 0.5

    def test_bounded_nonlinear_at_origin(self):
        spec = DriverSpec("bounded-nonlinear", {"sin_y": 1.0, "cos_my": 1.0}, lipschitz_L_f=2.0)
        assert eval_driver(spec, 0.0, 0.0, np.array([0.0]), 0.0, np.array([0.0])) == 1.0

    def test_broadcasts_over_particles(self):
        spec = DriverSpec("affine", {"y": 2.0, "z": 1.0}, lipschitz_L_f=3.0)
        y = np.array([1.0, 2.0])
        z = np.array([[3.0], [4.0]])
        out = eval_driver(spec, 0.0, y, z, 0.0, np.array([0.0]))
        np.testing.assert_allclose(out, [5.0, 8.0])

    @pytest.mark.parametrize(
        "keys", [keys for r in range(1, 6) for keys in itertools.combinations(AFFINE_KEYS, r)]
    )
    def test_affine_declared_terms_match_five_term_formula(self, keys):
        rng = np.random.default_rng(0)
        m = 64
        coeffs = {key: float(rng.normal()) for key in keys}
        y, z, m_y, m_z = rng.normal(0, 2, m), rng.normal(0, 2, (m, 2)), float(rng.normal()), rng.normal(0, 1, 2)
        c = {key: coeffs.get(key, 0.0) for key in AFFINE_KEYS}
        expected = c["const"] + c["y"] * y + c["z"] * z[:, 0] + c["mean_y"] * m_y + c["mean_z"] * m_z[0]
        out = eval_driver(DriverSpec("affine", coeffs), 0.0, y, z, m_y, m_z)
        assert out.shape == (m,)
        assert np.array_equal(out, expected)
        assert out.flags.writeable == bool({"y", "z"} & set(keys))  # constant sums are read-only views

    def test_referential_transparency(self):
        spec = DriverSpec("bounded-nonlinear", {"sin_y": 1.3, "cos_my": 0.7}, lipschitz_L_f=2.0)
        args = (0.2, 1.1, np.array([0.3]), -0.4, np.array([0.2]))
        first = eval_driver(spec, *args)
        assert all(eval_driver(spec, *args) == first for _ in range(5))


class TestEvalBoundary:
    def test_zero_family(self):
        assert eval_boundary(BoundarySpec("zero", beta=-1.0), 0.1, 3.0) == 0.0

    def test_linear_monotone(self):
        assert eval_boundary(BoundarySpec("linear-monotone", beta=-1.0), 0.1, 2.0) == -2.0

    def test_nonlinear_monotone_value_and_derivative_sign(self):
        spec = BoundarySpec("nonlinear-monotone", beta=-1.0, growth_L_g=30.0)
        assert eval_boundary(spec, 0.0, 1.0) == -2.0
        # derivative of beta y - y^3 stays <= beta on a grid
        ys = np.linspace(-3.0, 3.0, 601)
        h = 1e-6
        deriv = (eval_boundary(spec, 0.0, ys + h) - eval_boundary(spec, 0.0, ys - h)) / (2 * h)
        assert np.all(deriv <= spec.beta + 1e-6)

    def test_referential_transparency(self):
        spec = BoundarySpec("nonlinear-monotone", beta=-0.5, growth_L_g=30.0)
        first = eval_boundary(spec, 0.5, 1.234)
        assert all(eval_boundary(spec, 0.5, 1.234) == first for _ in range(5))


class TestSampledInvariants:
    def test_lipschitz_quotient_on_accepted_spec(self):
        spec = DriverSpec("affine", {"const": 0.2, "y": 0.3, "z": 0.1, "mean_y": 0.25, "mean_z": 0.15},
                          lipschitz_L_f=0.8)
        rng = np.random.default_rng(11)
        n = 10_000
        y1, y2, m1, m2 = rng.normal(0, 2, (4, n))
        z1, z2, mz1, mz2 = rng.normal(0, 2, (4, n, 1))
        lhs = np.abs(
            eval_driver(spec, 0.0, y1, z1, m1, mz1) - eval_driver(spec, 0.0, y2, z2, m2, mz2)
        )
        rhs = spec.lipschitz_L_f * (
            np.abs(y1 - y2) + np.abs(z1 - z2)[:, 0] + np.abs(m1 - m2) + np.abs(mz1 - mz2)[:, 0]
        )
        assert np.all(lhs <= rhs + 1e-12)

    def test_monotonicity_on_accepted_spec(self):
        spec = BoundarySpec("nonlinear-monotone", beta=-0.7, growth_L_g=30.0)
        rng = np.random.default_rng(12)
        y1, y2 = rng.normal(0, 2, (2, 10_000))
        lhs = (y1 - y2) * (eval_boundary(spec, 0.0, y1) - eval_boundary(spec, 0.0, y2))
        assert np.all(lhs <= spec.beta * (y1 - y2) ** 2 + 1e-12)


class TestObstacleCurve:
    def test_families(self):
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(ObstacleCurve("constant", value=2.0).evaluate(t), [2, 2, 2])
        np.testing.assert_allclose(ObstacleCurve("abs", center=0.5).evaluate(t), [0.5, 0, 0.5])
        np.testing.assert_allclose(
            ObstacleCurve("linear", intercept=1.0, slope=2.0).evaluate(t), [1, 2, 3]
        )
        tab = ObstacleCurve("tabulated", knots_t=(0.0, 1.0), knots_u=(0.0, 2.0))
        np.testing.assert_allclose(tab.evaluate(t), [0, 1, 2])

    def test_tabulated_extension_is_constant(self):
        tab = ObstacleCurve("tabulated", knots_t=(0.2, 0.8), knots_u=(1.0, 3.0))
        assert tab.evaluate(0.0) == 1.0
        assert tab.evaluate(1.0) == 3.0

    def test_kink_points(self):
        assert ObstacleCurve("abs", center=0.3).kink_points() == (0.3,)
        assert ObstacleCurve("sine", amplitude=1.0).kink_points() == ()
        tab = ObstacleCurve("tabulated", knots_t=(0.0, 0.4, 0.7, 1.0), knots_u=(0, 1, 0, 1))
        assert tab.kink_points() == (0.4, 0.7)


class TestTerminalPayoffs:
    def test_payoff_families(self):
        from mrbsde import TerminalSpec

        x = np.array([-1.0, 0.5, 2.0])
        call = TerminalSpec("functional-of-forward", payoff="call", strike=1.0)
        np.testing.assert_allclose(call.apply_payoff(x), [0.0, 0.0, 1.0])
        put = TerminalSpec("functional-of-forward", payoff="put", strike=1.0)
        np.testing.assert_allclose(put.apply_payoff(x), [2.0, 0.5, 0.0])
        square = TerminalSpec("functional-of-forward", payoff="square")
        np.testing.assert_allclose(square.apply_payoff(x), [1.0, 0.25, 4.0])
