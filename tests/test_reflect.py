import numpy as np
import pytest

from mrbsde import (
    BoundarySpec,
    ConvergenceSchedule,
    DriverSpec,
    KappaSpec,
    LengthMismatch,
    NotConverged,
    ObstacleCurve,
    PenalizedSolution,
    RegressionBasis,
    TimeGrid,
    flatness_residual,
    mollify_obstacle,
    recover_compensator,
    regression_operator,
    simulate_forward,
    skorokhod_closed_form,
    solve_penalized,
    solve_reflected,
)
from tests.util import zero_problem

GRID = TimeGrid(1.0, 50)
SINE = ObstacleCurve("sine", amplitude=0.5)
BASIS = RegressionBasis("brownian", 2)


def fake_solution(mean_path, T=1.0):
    """Minimal penalized solution carrying only what recovery needs."""
    mean_path = np.asarray(mean_path, dtype=float)
    n_steps = mean_path.size - 1
    grid = TimeGrid(T, n_steps)
    m = 3
    return PenalizedSolution(
        n=1.0,
        k=1,
        grid=grid,
        Y=np.tile(mean_path[:, None], (1, m)),
        Z=np.zeros((n_steps + 1, m, 1)),
        mean_path=mean_path,
        K=np.zeros(n_steps + 1),
        mean_f_dt=np.zeros(n_steps),
        mean_g_dkappa=np.zeros(n_steps),
        residual_y=np.zeros(n_steps),
        residual_z=np.zeros(n_steps),
        z_target_std=np.zeros((n_steps, 1)),
    )


class TestFlatnessResidual:
    def test_zero_compensator(self):
        mean = np.linspace(0, 1, 11)
        assert flatness_residual(mean, mean - 1.0, np.zeros(11)) == 0.0

    def test_deliberate_violation_accumulates_k_mass(self):
        times = np.linspace(0.0, 1.0, 101)
        u = np.sin(times)
        mean = u + 1.0
        res = flatness_residual(mean, u, times.copy())
        assert abs(res - 1.0) < 1e-12  # equals 1 * K(T) with K(t) = t

    def test_exact_sine_solution_is_flat_on_the_grid(self):
        times = np.linspace(0.0, 1.0, 101)
        u = SINE.evaluate(times)
        mean, K = skorokhod_closed_form(0.0, u)
        assert abs(flatness_residual(mean, u, K)) <= 1e-3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            flatness_residual(np.zeros(5), np.zeros(4), np.zeros(5))


class TestRecoverCompensator:
    def test_drift_free_formula_collapse(self):
        mean = np.array([1.0, 0.8, 0.7, 0.7, 0.5])
        rec = recover_compensator(fake_solution(mean))
        np.testing.assert_allclose(rec.K, mean[0] - mean, atol=1e-15)
        assert rec.K[0] == 0.0
        assert rec.warnings == ()

    def test_matches_accumulated_penalty_path_with_drivers_on(self):
        spec = zero_problem(
            driver=DriverSpec("affine", {"mean_y": 0.4, "const": 0.1}, lipschitz_L_f=0.5),
            boundary=BoundarySpec("linear-monotone", beta=-1.0),
            kappa=KappaSpec("linear", rate=1.0),
            obstacle=ObstacleCurve("sine", amplitude=0.25),
        )
        cloud = simulate_forward(spec, GRID, 3000, seed=9)
        u_k = mollify_obstacle(spec.obstacle, 25, GRID)
        sol = solve_penalized(spec, u_k, 300, cloud, regression_operator(cloud, BASIS))
        rec = recover_compensator(sol)
        assert np.max(np.abs(rec.K - sol.K)) <= 1e-10

    def test_unconstrained_run_recovers_zero(self):
        spec = zero_problem()
        cloud = simulate_forward(spec, GRID, 3000, seed=9)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 25, GRID)
        sol = solve_penalized(spec, u_k, 300, cloud, regression_operator(cloud, BASIS))
        rec = recover_compensator(sol)
        assert np.max(np.abs(rec.K)) <= 2.0 * float(np.max(sol.residual_y)) + 1e-12

    def test_monotonicity_violation_warns_without_clipping(self):
        mean = np.array([0.0, -1.0, -0.5, -0.5, -0.6])  # K = [0, 1, 0.5, 0.5, 0.6]: dips
        rec = recover_compensator(fake_solution(mean))
        assert len(rec.warnings) == 1
        assert "decreases" in rec.warnings[0]
        np.testing.assert_allclose(rec.K, [0.0, 1.0, 0.5, 0.5, 0.6])


class TestSolveReflected:
    def test_slack_obstacle_converges_at_first_level(self):
        spec = zero_problem()
        cloud = simulate_forward(spec, GRID, 2000, seed=4)
        refl = solve_reflected(spec, cloud, ConvergenceSchedule(), BASIS)
        assert len(refl.trace) == 1
        assert np.all(refl.solution.K == 0.0)
        assert np.max(np.abs(refl.K)) <= 1e-10  # recovered path carries cancellation dust
        assert refl.trace[0].n == 25

    def test_unreachable_tolerance_raises_with_trace(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 2000, seed=4)
        schedule = ConvergenceSchedule(n_levels=(25,), k_levels=(10, 20, 40), deficit_tol=1e-6,
                                       cauchy_tol=1e-6)
        with pytest.raises(NotConverged) as excinfo:
            solve_reflected(spec, cloud, schedule, BASIS)
        assert len(excinfo.value.trace) == 1
        assert excinfo.value.trace[0].n == 25

    def test_sine_compensator_near_closed_form(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 8000, seed=4)
        refl = solve_reflected(spec, cloud, ConvergenceSchedule(), BASIS)
        assert list(dict.fromkeys(rec.k for rec in refl.trace))[-1] == refl.trace[-1].k
        assert {rec.n for rec in refl.trace} <= set(ConvergenceSchedule().n_levels)
        fine = np.linspace(0.0, 1.0, 50 * 200 + 1)
        _, k_star = skorokhod_closed_form(0.0, SINE.evaluate(fine))
        assert abs(refl.K[int(0.75 * 50)] - k_star[int(0.75 * 10_000)]) <= 0.03
        assert abs(refl.K[-1] - 0.5) <= 0.03

    def test_cauchy_distances_decay_along_the_ladder(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 4000, seed=4)
        schedule = ConvergenceSchedule(deficit_tol=1e-9, cauchy_tol=1e-9, k_levels=(30,))
        try:
            solve_reflected(spec, cloud, schedule, BASIS)
            trace = None
        except NotConverged as exc:
            trace = exc.trace
        assert trace is not None
        cauchys = [r.cauchy_mean_dist for r in trace if r.cauchy_mean_dist is not None]
        assert len(cauchys) == 5
        assert all(b <= a + 1e-3 for a, b in zip(cauchys, cauchys[1:]))

    def test_level_reuse_shares_the_cloud(self):
        # distinct penalty levels on one cloud: differences are deterministic shifts
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 2000, seed=4)
        u_k = mollify_obstacle(SINE, 20, GRID)
        op = regression_operator(cloud, BASIS)
        a = solve_penalized(spec, u_k, 50, cloud, op)
        b = solve_penalized(spec, u_k, 100, cloud, op)
        diff = b.Y - a.Y
        assert np.max(np.abs(diff - diff.mean(axis=1, keepdims=True))) <= 1e-10

    def test_tabulated_obstacle_tracks_its_analytic_source(self):
        knots_t = tuple(np.linspace(0.0, 1.0, 21))
        knots_u = tuple(0.5 * np.sin(np.pi * np.asarray(knots_t)))
        tabulated = ObstacleCurve("tabulated", knots_t=knots_t, knots_u=knots_u)
        schedule = ConvergenceSchedule(k_levels=(10, 20, 40), deficit_tol=0.03, cauchy_tol=0.01)
        results = {}
        for obstacle in (SINE, tabulated):
            spec = zero_problem(obstacle=obstacle)
            cloud = simulate_forward(spec, GRID, 4000, seed=4)
            results[obstacle.family] = solve_reflected(spec, cloud, schedule, BASIS)
        gap = np.max(np.abs(results["sine"].mean_path - results["tabulated"].mean_path))
        assert gap <= 0.02  # interpolation error of the 21-knot table

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ConvergenceSchedule(n_levels=())
        with pytest.raises(ValueError):
            ConvergenceSchedule(n_levels=(50, 25))
        with pytest.raises(ValueError):
            ConvergenceSchedule(k_levels=(10, 10))
