import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrbsde import (
    BoundarySpec,
    ConvergenceSchedule,
    DriverSpec,
    ForwardCloud,
    ForwardSDESpec,
    KappaSpec,
    LengthMismatch,
    NotConverged,
    ObstacleCurve,
    RankDeficient,
    RegressionBasis,
    TimeGrid,
    implicit_mean_penalty,
    mollify_obstacle,
    regression_operator,
    simulate_forward,
    skorokhod_closed_form,
    solve_penalized,
    solve_reflected,
    stability_experiment,
)
from mrbsde import penalized
from tests.util import zero_problem

GRID = TimeGrid(1.0, 50)
SINE = ObstacleCurve("sine", amplitude=0.5)


def small_cloud(spec=None, M=4000, seed=11, grid=GRID):
    return simulate_forward(spec or zero_problem(), grid, M, seed)


def brownian_operator(cloud, degree=2):
    return regression_operator(cloud, RegressionBasis("brownian", degree))


def fit_on_positions(targets, positions, degree):
    """Fit ``targets`` on one step whose Brownian positions are ``positions``."""
    m = positions.shape[0]
    cloud = ForwardCloud(
        grid=TimeGrid(1.0, 1),
        seed=0,
        dB=np.zeros((1, m, 1)),
        brownian=np.stack([positions, positions])[:, :, None],
        kappa=np.zeros((2, m)),
        xi=np.zeros(m),
        mean_kappa=np.zeros(2),
    )
    return brownian_operator(cloud, degree).fit(0, targets)


class TestRegression:
    def test_projection_reproduces_constants(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(0, 1, 200)
        fitted, _ = fit_on_positions(np.full(200, 3.7), feats, 2)
        np.testing.assert_allclose(fitted, 3.7, atol=1e-10)

    def test_in_span_target_recovered(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(0, 1, 300)
        fitted, _ = fit_on_positions(feats, feats, 1)
        assert np.linalg.norm(fitted - feats) <= 1e-10

    def test_coefficients_match_pseudo_inverse(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(0, 1, 5)
        targets = 2.0 + 0.5 * feats + 0.01 * rng.normal(0, 1, 5)
        _, coef = fit_on_positions(targets, feats, 1)
        design = np.column_stack([np.ones(5), feats])
        expected = np.linalg.pinv(design) @ targets
        np.testing.assert_allclose(coef, expected, atol=1e-8)

    def test_fitted_mean_equals_target_mean(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(0, 1, 500)
        targets = rng.normal(0, 1, 500)
        fitted, _ = fit_on_positions(targets, feats, 2)
        assert abs(fitted.mean() - targets.mean()) <= 1e-12

    def test_rank_deficient_raises(self):
        feats = np.full(200, 2.0)  # rank-1 design at high degree
        with pytest.raises(RankDeficient):
            fit_on_positions(np.zeros(200), feats, 120)

    def test_needs_more_particles_than_basis_functions(self):
        with pytest.raises(ValueError):
            fit_on_positions(np.zeros(3), np.zeros(3), 2)

    def test_degenerate_constant_features_fall_back_to_mean(self):
        # t = 0 case: the Brownian position is identically zero
        targets = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
        fitted, _ = fit_on_positions(targets, np.zeros(5), 2)
        np.testing.assert_allclose(fitted, targets.mean(), atol=1e-9)


class TestImplicitMeanPenalty:
    def test_inactive_when_above_obstacle(self):
        assert implicit_mean_penalty(2.0, 1.0, 1000, 0.01) == 2.0

    def test_halfway_root_with_bisection_oracle(self):
        def fixed_point_gap(x, p, u, ndelta):
            return x - p - ndelta * max(u - x, 0.0)

        p, u, ndelta = 0.0, 1.0, 1.0
        lo, hi = -1.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if fixed_point_gap(mid, p, u, ndelta) < 0:
                lo = mid
            else:
                hi = mid
        root = implicit_mean_penalty(p, u, 1.0, 1.0)
        assert abs(root - 0.5) < 1e-12
        assert abs(root - 0.5 * (lo + hi)) < 1e-10

    def test_saturates_to_obstacle(self):
        x = implicit_mean_penalty(0.0, 1.0, 1e6, 1.0)
        assert abs(x - 1e6 / (1 + 1e6)) < 1e-12

    @given(
        p=st.floats(-100, 100),
        u=st.floats(-100, 100),
        n=st.floats(0, 1e7),
        delta=st.floats(0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_between_input_and_obstacle(self, p, u, n, delta):
        x = implicit_mean_penalty(p, u, n, delta)
        assert min(p, u) - 1e-9 <= x <= max(p, u) + 1e-9

    @given(
        p1=st.floats(-50, 50),
        dp=st.floats(0, 50),
        u=st.floats(-50, 50),
        nd=st.floats(0, 1e5),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_input(self, p1, dp, u, nd):
        lo = implicit_mean_penalty(p1, u, nd, 1.0)
        hi = implicit_mean_penalty(p1 + dp, u, nd, 1.0)
        assert hi >= lo - 1e-9  # slack for division rounding near the obstacle


class TestPenaltyIncrement:
    def test_consistency_with_implicit_step(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            u = rng.uniform(-2, 2)
            p = u - rng.uniform(0, 3)  # strictly below the obstacle
            n = rng.uniform(0, 1e4)
            delta = rng.uniform(0, 0.1)
            x = implicit_mean_penalty(p, u, n, delta)
            # the root's shift is the compensator increment n (x - u)^- delta
            assert abs((x - p) - n * max(u - x, 0.0) * delta) < 1e-12


class TestSolvePenalized:
    def test_zero_penalty_zero_drivers_is_conditional_expectation(self):
        spec = zero_problem()
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 10, GRID)
        sol = solve_penalized(spec, u_k, 0.0, cloud, brownian_operator(cloud, 1))
        assert np.all(sol.K == 0.0)
        np.testing.assert_allclose(sol.Y[-1], cloud.xi)
        # martingale mean: stays near the terminal sample mean
        assert np.max(np.abs(sol.mean_path - cloud.xi.mean())) <= 5 / np.sqrt(cloud.M)

    def test_slack_constraint_never_activates(self):
        spec = zero_problem()
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 10, GRID)
        op = brownian_operator(cloud)
        for n in (10.0, 1e3, 1e6):
            sol = solve_penalized(spec, u_k, n, cloud, op)
            assert np.all(sol.K == 0.0)

    def test_sine_mean_path_against_closed_form(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec, M=8000)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 500, cloud, brownian_operator(cloud))
        fine = np.linspace(0.0, 1.0, 50 * 200 + 1)
        mean_star, _ = skorokhod_closed_form(0.0, SINE.evaluate(fine))
        assert np.max(np.abs(sol.mean_path - mean_star[::200])) <= 0.03

    def test_penalty_increments_only_when_mean_below_obstacle(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 200, cloud, brownian_operator(cloud))
        dK = np.diff(sol.K)
        assert np.any(dK > 0)
        active = dK > 0
        # after the implicit step the mean sits strictly below u^k where K grew
        assert np.all(sol.mean_path[:-1][active] < u_k.values[:-1][active])
        assert np.all(dK >= 0)

    def test_deficit_non_increasing_as_level_doubles(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        op = brownian_operator(cloud)
        sups = []
        for n in (25, 50, 100, 200, 400, 800):
            sol = solve_penalized(spec, u_k, n, cloud, op)
            sups.append(float(np.max(np.maximum(u_k.values[:-1] - sol.mean_path[:-1], 0.0))))
        assert all(b <= a + 1e-3 for a, b in zip(sups, sups[1:]))

    def test_penalty_shift_is_common_to_all_particles(self):
        # y-independent driver, no boundary term: particle spreads match across levels
        spec = zero_problem(driver=DriverSpec("affine", {"mean_y": 0.5}, lipschitz_L_f=0.5),
                            obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        op = brownian_operator(cloud)
        lo = solve_penalized(spec, u_k, 50, cloud, op)
        hi = solve_penalized(spec, u_k, 800, cloud, op)
        spread_lo = lo.Y - lo.mean_path[:, None]
        spread_hi = hi.Y - hi.mean_path[:, None]
        np.testing.assert_allclose(spread_lo, spread_hi, atol=1e-10)

    def test_unconditional_stability_in_level(self):
        spec = zero_problem(obstacle=SINE)
        grid = TimeGrid(1.0, 100)
        cloud = simulate_forward(spec, grid, 2000, seed=2)
        u_k = mollify_obstacle(SINE, 30, grid)
        sol = solve_penalized(spec, u_k, 1e6, cloud, brownian_operator(cloud))
        assert np.all(np.isfinite(sol.Y)) and np.all(np.isfinite(sol.K))

    def test_terminal_row_is_exact_terminal_draw(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 20, GRID)
        sol = solve_penalized(spec, u_k, 100, cloud, brownian_operator(cloud))
        assert np.array_equal(sol.Y[-1], cloud.xi)
        assert sol.K[0] == 0.0
        np.testing.assert_allclose(sol.mean_path, sol.Y.mean(axis=1))

    def test_grid_mismatch_rejected(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_other = mollify_obstacle(SINE, 20, TimeGrid(1.0, 40))
        with pytest.raises(LengthMismatch):
            solve_penalized(spec, u_other, 100, cloud, brownian_operator(cloud))

    def test_nonlinear_driver_and_boundary_smoke(self):
        spec = zero_problem(
            driver=DriverSpec("bounded-nonlinear", {"sin_y": 0.2, "cos_my": 0.1},
                              lipschitz_L_f=0.3),
            boundary=BoundarySpec("nonlinear-monotone", beta=-0.5, growth_L_g=40.0),
            kappa=KappaSpec("linear", rate=0.5),
            obstacle=SINE,
        )
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 25, GRID)
        sol = solve_penalized(spec, u_k, 300, cloud, brownian_operator(cloud))
        assert np.all(np.isfinite(sol.Y)) and np.all(np.isfinite(sol.Z))
        dK = np.diff(sol.K)
        assert np.all(dK >= 0.0)
        active = dK > 0
        assert np.any(active)
        assert np.all(sol.mean_path[:-1][active] < u_k.values[:-1][active])

    def test_two_brownian_coordinates(self):
        # terminal draw loads only the first coordinate: E[Z_1] = 1, E[Z_2] = 0
        spec = zero_problem(obstacle=SINE, brownian_dim=2)
        cloud = simulate_forward(spec, GRID, 8000, seed=13)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 200, cloud, brownian_operator(cloud, 1))
        assert sol.Z.shape == (GRID.N + 1, 8000, 2)
        z_mean = sol.Z.mean(axis=1)
        band = 4.0 * sol.z_target_std.max() / np.sqrt(8000)
        assert np.max(np.abs(z_mean[:, 0] - 1.0)) <= band
        assert np.max(np.abs(z_mean[:, 1])) <= band


class TestRegressionOperator:
    def test_reused_operator_gives_bit_identical_solutions(self):
        spec = zero_problem(obstacle=SINE, kappa=KappaSpec("linear", rate=1.0),
                            boundary=BoundarySpec("linear-monotone", beta=-1.0))
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        shared = brownian_operator(cloud)
        for n in (25, 800):
            a = solve_penalized(spec, u_k, n, cloud, shared)
            b = solve_penalized(spec, u_k, n, cloud, brownian_operator(cloud))
            for field in ("Y", "Z", "K", "mean_path", "residual_y", "residual_z", "z_target_std"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_rank_deficient_basis_fails_at_the_first_step_of_the_first_pass(self, monkeypatch):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec, M=400)
        op = regression_operator(cloud, RegressionBasis("brownian", 120))
        steps = []
        design = penalized.RegressionOperator.design

        def recording(self, j):
            steps.append(j)
            return design(self, j)

        monkeypatch.setattr(penalized.RegressionOperator, "design", recording)
        with pytest.raises(RankDeficient):
            solve_penalized(spec, mollify_obstacle(SINE, 20, GRID), 100, cloud, op)
        assert steps == [GRID.N - 1]

    def test_unfittable_basis_fails_when_built(self):
        with pytest.raises(ValueError, match="more particles"):
            regression_operator(small_cloud(M=40), RegressionBasis("brownian", 40))
        with pytest.raises(ValueError, match="no forward state"):
            regression_operator(small_cloud(M=40), RegressionBasis("forward", 2))

    def test_forward_basis_reads_the_forward_state(self):
        spec = zero_problem(forward=ForwardSDESpec(x0=1.0, sigma=0.3))
        cloud = small_cloud(spec, M=500)
        op = regression_operator(cloud, RegressionBasis("forward", 2))
        assert op.features is cloud.forward_state
        design = op.design(7)
        assert np.array_equal(design[:, 1], cloud.forward_state[7])

    def test_operator_of_another_cloud_is_rejected(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 20, GRID)
        op = brownian_operator(cloud)
        solve_penalized(spec, u_k, 100, cloud.with_terminal(cloud.xi + 1.0), op)  # same features
        for other in (small_cloud(spec, seed=12), small_cloud(spec, M=3000)):
            with pytest.raises(LengthMismatch):
                solve_penalized(spec, u_k, 100, other, op)

    def test_gram_checked_once_per_step_per_cloud(self, monkeypatch):
        checks = []

        def counting(design):
            checks.append(design.shape)
            return checked_gram(design)

        checked_gram = penalized._checked_gram
        monkeypatch.setattr(penalized, "_checked_gram", counting)
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        schedule = ConvergenceSchedule(n_levels=(25, 50, 100), k_levels=(5, 10), deficit_tol=1e-9)
        with pytest.raises(NotConverged) as exc:
            solve_reflected(spec, cloud, schedule, RegressionBasis("brownian", 2))
        assert len(exc.value.trace) == 3  # three passes, one operator
        assert len(checks) == GRID.N

        checks.clear()
        u_k = mollify_obstacle(SINE, 20, GRID)
        stability_experiment(spec, cloud, (0.1, 0.05), u_k, 100, RegressionBasis("brownian", 2))
        assert len(checks) == GRID.N  # base and two perturbed passes
