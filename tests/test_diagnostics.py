import numpy as np
import pytest

from mrbsde import (
    NonPositiveError,
    ObstacleCurve,
    RegressionBasis,
    TerminalSpec,
    TimeGrid,
    apriori_report,
    deficit_metrics,
    mollify_obstacle,
    rate_fit,
    regression_operator,
    simulate_forward,
    solve_penalized,
    stability_experiment,
)
from tests.test_reflect import fake_solution
from tests.util import zero_problem

GRID = TimeGrid(1.0, 50)
SINE = ObstacleCurve("sine", amplitude=0.5)
BASIS = RegressionBasis("brownian", 2)


class TestRateFit:
    def test_exact_power_law(self):
        ns = np.array([10.0, 20.0, 40.0])
        fit = rate_fit(ns, 3.0 / ns)
        assert abs(fit.slope + 1.0) < 1e-12
        assert abs(fit.r_squared - 1.0) < 1e-12

    def test_constant_errors_have_zero_slope(self):
        fit = rate_fit([10, 20, 40, 80], [0.5, 0.5, 0.5, 0.5])
        assert abs(fit.slope) <= 1e-12
        assert fit.r_squared == 1.0

    def test_noisy_power_law_against_normal_equations(self):
        rng = np.random.default_rng(8)
        ns = np.array([10.0, 20.0, 40.0, 80.0, 160.0, 320.0])
        errs = (2.0 / ns) * (1.0 + 0.05 * rng.standard_normal(6))
        fit = rate_fit(ns, errs)
        assert -1.15 <= fit.slope <= -0.85
        # independent solve of the 2x2 normal equations
        x = np.log(ns)
        y = np.log(errs)
        a11, a12, a22 = x.size, x.sum(), (x * x).sum()
        b1, b2 = y.sum(), (x * y).sum()
        det = a11 * a22 - a12 * a12
        slope = (a11 * b2 - a12 * b1) / det
        intercept = (a22 * b1 - a12 * b2) / det
        assert abs(fit.slope - slope) < 1e-10
        assert abs(fit.intercept - intercept) < 1e-10

    def test_nonpositive_error_rejected(self):
        with pytest.raises(NonPositiveError):
            rate_fit([10, 20, 40], [0.1, 0.0, 0.01])

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            rate_fit([10, 20], [1.0, 0.5])


class TestDeficitMetrics:
    def test_unconstrained_run_is_zero(self):
        spec = zero_problem()
        cloud = simulate_forward(spec, GRID, 2000, seed=1)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 20, GRID)
        sol = solve_penalized(spec, u_k, 100, cloud, regression_operator(cloud, BASIS))
        assert deficit_metrics(sol, u_k, cloud.mean_kappa) == (0.0, 0.0)

    def test_synthetic_constant_deficit(self):
        u_k = mollify_obstacle(ObstacleCurve("constant", value=0.0), 20, GRID)
        sol = fake_solution(u_k.values - 0.1)
        sup_sq, integral_sq = deficit_metrics(sol, u_k, np.zeros(GRID.N + 1))
        assert abs(sup_sq - 0.01) < 1e-15
        assert abs(integral_sq - 0.01) < 1e-12  # 0.01 * T with a flat clock

    def test_clock_weighting(self):
        u_k = mollify_obstacle(ObstacleCurve("constant", value=0.0), 20, GRID)
        sol = fake_solution(u_k.values - 0.1)
        mean_kappa = np.linspace(0.0, 1.0, GRID.N + 1)  # doubles the measure
        _, integral_sq = deficit_metrics(sol, u_k, mean_kappa)
        assert abs(integral_sq - 0.02) < 1e-12

    def test_sine_sup_metric_strictly_decreasing_in_level(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 4000, seed=2)
        u_k = mollify_obstacle(SINE, 30, GRID)
        op = regression_operator(cloud, BASIS)
        sups = []
        for n in (25, 50, 100, 200, 400, 800):
            sol = solve_penalized(spec, u_k, n, cloud, op)
            sups.append(deficit_metrics(sol, u_k, cloud.mean_kappa)[0])
        assert all(b < a for a, b in zip(sups, sups[1:]))


class TestStabilityExperiment:
    def test_zero_perturbation_is_identically_zero(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 2000, seed=3)
        u_k = mollify_obstacle(SINE, 20, GRID)
        rows = stability_experiment(spec, cloud, (0.0,), u_k, 200, BASIS)
        assert rows[0].sup_mean_sq_dy == 0.0
        assert rows[0].integral_mean_sq_dz == 0.0

    def test_unconstrained_shift_propagates_exactly(self):
        spec = zero_problem(obstacle=ObstacleCurve("constant", value=-10.0))
        cloud = simulate_forward(spec, GRID, 2000, seed=3)
        u_k = mollify_obstacle(spec.obstacle, 20, GRID)
        rows = stability_experiment(spec, cloud, (0.25,), u_k, 200, BASIS)
        assert abs(rows[0].sup_mean_sq_dy - 0.25**2) <= 1e-10
        # the Z shift is only the in-sample projection of eps * dB / dt:
        # subordinate to the Y shift, vanishing with the particle count
        assert rows[0].integral_mean_sq_dz <= rows[0].sup_mean_sq_dy

    def test_quadratic_epsilon_scaling_on_sine(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 4000, seed=3)
        u_k = mollify_obstacle(SINE, 30, GRID)
        rows = stability_experiment(spec, cloud, (0.1, 0.05, 0.025), u_k, 800, BASIS)
        fit = rate_fit([r.epsilon for r in rows], [r.sup_mean_sq_dy for r in rows])
        assert 1.7 <= fit.slope <= 2.3

    def test_node_reductions_equal_full_difference_arrays(self):
        # the rows are reduced node by node; the reference forms dY and dZ whole
        spec = zero_problem(obstacle=SINE, brownian_dim=2)
        cloud = simulate_forward(spec, GRID, 10_000, seed=3)
        u_k = mollify_obstacle(SINE, 20, GRID)
        rows = stability_experiment(spec, cloud, (0.1, 0.05), u_k, 200, BASIS)
        op = regression_operator(cloud, BASIS)
        base = solve_penalized(spec, u_k, 200, cloud, op)
        for row in rows:
            pert = solve_penalized(spec, u_k, 200, cloud.with_terminal(cloud.xi + row.epsilon), op)
            dY, dZ = pert.Y - base.Y, pert.Z - base.Z
            assert row.sup_mean_sq_dy == float(np.max(np.mean(dY**2, axis=1)))
            assert row.integral_mean_sq_dz == float(
                np.sum(np.mean(np.sum(dZ[:-1] ** 2, axis=2), axis=1)) * GRID.dt
            )

    def test_duplicate_epsilons_rejected(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 2000, seed=3)
        u_k = mollify_obstacle(SINE, 20, GRID)
        with pytest.raises(ValueError):
            stability_experiment(spec, cloud, (0.1, 0.1), u_k, 200, BASIS)


class TestAprioriReport:
    def test_zero_problem_is_degenerate(self):
        spec = zero_problem(terminal=TerminalSpec("direct-sampler", mean=0.0, std=0.0,
                                                  declared_mean=0.0))
        cloud = simulate_forward(spec, GRID, 2000, seed=4)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 20, GRID)
        sol = solve_penalized(spec, u_k, 100, cloud, regression_operator(cloud, BASIS))
        rep = apriori_report(sol, spec, cloud)
        assert rep.degenerate
        assert rep.sup_mean_sq_y + rep.integral_mean_sq_z == 0.0

    def test_sine_components_finite_and_ratio_recorded(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 4000, seed=4)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 400, cloud, regression_operator(cloud, BASIS))
        rep = apriori_report(sol, spec, cloud)
        assert not rep.degenerate
        for value in (rep.sup_mean_sq_y, rep.integral_mean_sq_z, rep.terminal_sq,
                      rep.integral_f_origin_sq, rep.integral_psi_sq_dkappa,
                      rep.compensator_terminal_sq, rep.ratio):
            assert np.isfinite(value) and value >= 0.0
        lhs = rep.sup_mean_sq_y + rep.integral_mean_sq_z
        rhs = (rep.terminal_sq + rep.integral_f_origin_sq + rep.integral_psi_sq_dkappa
               + rep.compensator_terminal_sq)
        assert lhs <= rep.ratio * rhs + 1e-12

    def test_node_reductions_equal_full_squared_arrays(self):
        # the energies are reduced node by node; the reference squares Y and Z whole
        spec = zero_problem(obstacle=SINE, brownian_dim=2)
        cloud = simulate_forward(spec, GRID, 10_000, seed=4)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 400, cloud, regression_operator(cloud, BASIS))
        rep = apriori_report(sol, spec, cloud)
        assert sol.Z.shape[2] == 2
        assert rep.sup_mean_sq_y == float(np.max(np.mean(sol.Y**2, axis=1)))
        assert rep.integral_mean_sq_z == float(
            np.sum(np.mean(np.sum(sol.Z[:-1] ** 2, axis=2), axis=1)) * GRID.dt
        )

    def test_ratio_stable_under_doubling_particles(self):
        spec = zero_problem(obstacle=SINE)
        u_k = mollify_obstacle(SINE, 30, GRID)
        ratios = []
        for m in (10_000, 20_000):
            cloud = simulate_forward(spec, GRID, m, seed=4)
            sol = solve_penalized(spec, u_k, 400, cloud, regression_operator(cloud, BASIS))
            ratios.append(apriori_report(sol, spec, cloud).ratio)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.2
