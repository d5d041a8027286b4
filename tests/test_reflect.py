import dataclasses
import tracemalloc

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
    penalty_sweep,
    recover_compensator,
    simulate_forward,
    skorokhod_closed_form,
    solve_penalized,
    solve_reflected,
)
from mrbsde import reflect
from mrbsde.cli import build_config
from tests.util import full_pass, regression_statistics, zero_problem

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
        grid=grid,
        Y=np.tile(mean_path[:2, None], (1, m)),
        mean_path=mean_path,
        K=np.zeros(n_steps + 1),
        mean_f_dt=np.zeros(n_steps),
        mean_g_dkappa=np.zeros(n_steps),
        mean_z=np.zeros((n_steps + 1, 1)),
        mean_y2=mean_path**2,
        mean_z2=np.zeros(n_steps),
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
        K, warnings = recover_compensator(fake_solution(mean))
        np.testing.assert_allclose(K, mean[0] - mean, atol=1e-15)
        assert K[0] == 0.0
        assert warnings == ()

    def test_matches_accumulated_penalty_path_with_drivers_on(self):
        spec = zero_problem(
            driver=DriverSpec("affine", {"mean_y": 0.4, "const": 0.1}, lipschitz_L_f=0.5),
            boundary=BoundarySpec("linear-monotone", beta=-1.0),
            kappa=KappaSpec("linear", rate=1.0),
            obstacle=ObstacleCurve("sine", amplitude=0.25),
        )
        cloud = simulate_forward(spec, GRID, 3000, seed=9)
        u_k = mollify_obstacle(spec.obstacle, 25, GRID)
        sol = solve_penalized(spec, u_k, 300, cloud, BASIS)
        K, _ = recover_compensator(sol)
        assert np.max(np.abs(K - sol.K)) <= 1e-10

    def test_unconstrained_run_recovers_zero(self):
        spec = zero_problem()
        cloud = simulate_forward(spec, GRID, 3000, seed=9)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 25, GRID)
        sol = solve_penalized(spec, u_k, 300, cloud, BASIS)
        K, _ = recover_compensator(sol)
        residual_y = regression_statistics(full_pass(spec, u_k, 300, cloud, BASIS), cloud, BASIS)[0]
        assert np.max(np.abs(K)) <= 2.0 * float(np.max(residual_y)) + 1e-12

    def test_monotonicity_violation_warns_without_clipping(self):
        mean = np.array([0.0, -1.0, -0.5, -0.5, -0.6])  # K = [0, 1, 0.5, 0.5, 0.6]: dips
        K, warnings = recover_compensator(fake_solution(mean))
        assert len(warnings) == 1
        assert "decreases" in warnings[0]
        np.testing.assert_allclose(K, [0.0, 1.0, 0.5, 0.5, 0.6])


class TestSolveLoop:
    """A ``solve_reflected`` call accepts the pass a fresh call would run and holds no full solution."""

    FIELDS = ("Y", "mean_path", "K", "mean_f_dt", "mean_g_dkappa", "mean_z", "mean_y2", "mean_z2")
    SPEC = zero_problem(obstacle=SINE, boundary=BoundarySpec("linear-monotone", beta=-1.0),
                        kappa=KappaSpec("linear", rate=1.0))
    SCHEDULE = ConvergenceSchedule(k_levels=(10, 40))  # k = 10 converges but misses the obstacle gap

    @pytest.mark.parametrize("affine", [False, True], ids=["boundary", "affine-driver-2d"])
    def test_accepted_level_equals_a_fresh_pass(self, affine):
        spec = self.SPEC
        if affine:
            driver = DriverSpec("affine", {"const": 0.2, "y": -0.5, "z": 0.3, "mean_y": 0.5})
            spec = zero_problem(obstacle=SINE, driver=driver, brownian_dim=2)
        cloud = simulate_forward(spec, GRID, 2000, seed=4)
        refl = solve_reflected(spec, cloud, self.SCHEDULE, BASIS)
        accepted = refl.trace[-1]
        assert (refl.trace[0].k, accepted.k) == (10, 40) and accepted.n > self.SCHEDULE.n_levels[0]
        fresh = solve_penalized(spec, mollify_obstacle(SINE, accepted.k, GRID), accepted.n, cloud, BASIS)
        for field in self.FIELDS:
            got, want = getattr(refl.solution, field), getattr(fresh, field)
            assert np.array_equal(got, want), field
            assert np.array_equal(np.signbit(got), np.signbit(want)), field

    def test_one_pass_per_trace_row(self, monkeypatch):
        # the ladder runs a level only when the stopping rule asks for it
        cloud = simulate_forward(self.SPEC, GRID, 2000, seed=4)
        passes = []

        def counted(*args):
            passes.append(args[2])
            return solve_penalized(*args)

        monkeypatch.setattr(reflect, "solve_penalized", counted)
        refl = solve_reflected(self.SPEC, cloud, self.SCHEDULE, BASIS)
        assert passes == [rec.n for rec in refl.trace]
        assert len(passes) < len(self.SCHEDULE.k_levels) * len(self.SCHEDULE.n_levels)

    def test_trace_rows_are_the_leading_ladder_records(self):
        cloud = simulate_forward(self.SPEC, GRID, 2000, seed=4)
        trace = solve_reflected(self.SPEC, cloud, self.SCHEDULE, BASIS).trace
        ks = [rec.k for rec in trace]
        assert sorted(set(ks)) == list(self.SCHEDULE.k_levels)
        for k in self.SCHEDULE.k_levels:
            rows = [repr(dataclasses.replace(rec, wall_ms=0.0)) for rec in trace if rec.k == k]
            sweep = penalty_sweep(self.SPEC, mollify_obstacle(SINE, k, GRID), self.SCHEDULE.n_levels, cloud, BASIS)[0]
            assert rows == [repr(dataclasses.replace(rec, wall_ms=0.0)) for rec in sweep[: len(rows)]]

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_ladder_holds_no_level_beside_the_pass_it_runs(self, d):
        # The previous level lives on only as its mean path, so a ladder's
        # peak exceeds its first pass's by less than one particle row. At
        # M = 80000 a row (640 kB) outweighs mollify's 2^16-value blocks.
        spec = zero_problem(obstacle=SINE, brownian_dim=d)
        grid = TimeGrid(1.0, 20)
        cloud = simulate_forward(spec, grid, 80000, seed=3)
        u_k = mollify_obstacle(SINE, 20, grid)
        schedule = ConvergenceSchedule(n_levels=(25, 50, 100), k_levels=(20,), cauchy_tol=1e-300)  # every level runs
        tracemalloc.start()
        try:
            solve_penalized(spec, u_k, 25, cloud, BASIS)  # also fills the Gram cache
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(NotConverged) as exc:
                solve_reflected(spec, cloud, schedule, BASIS)
            ladder = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(exc.value.trace) == 3
        assert ladder - first < cloud.M * 8

    def test_a_warm_solve_holds_less_than_one_solution_array(self):
        cfg = build_config({"preset": "BOUNDARY", "numerics": {"M": 4000, "N": 50}})
        grid = TimeGrid(cfg.spec.horizon, cfg.N)
        cloud = simulate_forward(cfg.spec, grid, cfg.M, seed=3)
        solve_reflected(cfg.spec, cloud, cfg.schedule, cfg.basis)  # fills the Gram cache
        tracemalloc.start()
        try:
            refl = solve_reflected(cfg.spec, cloud, cfg.schedule, cfg.basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(refl.trace) > 1
        assert peak < (grid.N + 1) * cloud.M * 8


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
        a = full_pass(spec, u_k, 50, cloud, BASIS)
        b = full_pass(spec, u_k, 100, cloud, BASIS)
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
        gap = np.max(np.abs(results["sine"].solution.mean_path - results["tabulated"].solution.mean_path))
        assert gap <= 0.02  # interpolation error of the 21-knot table

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ConvergenceSchedule(n_levels=())
        with pytest.raises(ValueError):
            ConvergenceSchedule(n_levels=(50, 25))
        with pytest.raises(ValueError):
            ConvergenceSchedule(k_levels=(10, 10))

    @pytest.mark.parametrize(
        "tolerance", [{"deficit_tol": -1.0}, {"deficit_tol": 0.0}, {"cauchy_tol": float("nan")}]
    )
    def test_non_positive_or_nan_tolerance_is_rejected(self, tolerance):
        with pytest.raises(ValueError, match=next(iter(tolerance))):
            ConvergenceSchedule(**tolerance)
