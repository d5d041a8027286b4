import math
from pathlib import Path

import numpy as np
import pytest

from mrbsde import (
    BoundarySpec,
    ConfigError,
    ConstraintInfeasible,
    DriverSpec,
    KappaSpec,
    MeanProblem,
    NoSelfConvergence,
    ObstacleCurve,
    TerminalSpec,
    TimeGrid,
    implicit_mean_penalty,
    mean_reduction,
    reference_paths,
    skorokhod_closed_form,
    solve_mean_ode_reflected,
    unconstrained_mean_path,
)
from mrbsde.oracle import _penalized_backward
from mrbsde.cli import build_config
from tests.util import zero_problem

GOLDEN = Path(__file__).parent / "golden" / "affine_mean_reference.txt"
FINE = np.linspace(0.0, 1.0, 100_001)
SINE_HALF = ObstacleCurve("sine", amplitude=0.5)
FLAT = KappaSpec("zero").curve


class TestClosedForm:
    def test_slack_obstacle_gives_flat_solution(self):
        u = np.full(101, -2.0)
        mean, K = skorokhod_closed_form(1.0, u)
        assert np.all(K == 0.0)
        assert np.all(mean == 1.0)

    def test_sine_reference_values(self):
        mean, K = skorokhod_closed_form(0.0, SINE_HALF.evaluate(FINE))
        assert abs(K[-1] - 0.5) < 1e-9
        j75 = 75_000
        assert abs(K[j75] - 0.5 * (1.0 - math.sin(0.75 * math.pi))) < 1e-9
        assert abs(K[j75] - 0.14644660940672627) < 1e-9
        assert abs(mean[25_000] - 0.5) < 1e-9

    def test_touching_obstacle_needs_no_compensator(self):
        mean, K = skorokhod_closed_form(0.3, np.full(11, 0.3))
        assert np.all(K == 0.0)
        assert np.all(mean == 0.3)

    def test_infeasible_terminal(self):
        with pytest.raises(ConstraintInfeasible):
            skorokhod_closed_form(-1.0, SINE_HALF.evaluate(FINE) + 2.0)

    def test_solution_conditions_hold_discretely(self):
        u = SINE_HALF.evaluate(FINE)
        mean, K = skorokhod_closed_form(0.0, u)
        assert np.max(u - mean) <= 1e-12  # reflection
        assert np.all(np.diff(K) >= 0.0) and K[0] == 0.0
        flatness = np.sum((mean[:-1] - u[:-1]) * np.diff(K))
        assert abs(flatness) <= 1e-4
        # drift-free dynamics: mean increments match compensator increments
        np.testing.assert_allclose(np.diff(mean), -np.diff(K), atol=1e-12)

    def test_translation_equivariance(self):
        u = SINE_HALF.evaluate(FINE)
        mean0, k0 = skorokhod_closed_form(0.0, u)
        mean_c, k_c = skorokhod_closed_form(0.7, u + 0.7)
        np.testing.assert_allclose(k_c, k0, atol=1e-14)
        np.testing.assert_allclose(mean_c, mean0 + 0.7, atol=1e-14)

    def test_positive_scaling(self):
        u = SINE_HALF.evaluate(FINE)
        mean0, k0 = skorokhod_closed_form(0.0, u)
        mean_s, k_s = skorokhod_closed_form(0.0, 2.5 * u)
        np.testing.assert_allclose(k_s, 2.5 * k0, atol=1e-13)
        np.testing.assert_allclose(mean_s, 2.5 * mean0, atol=1e-13)

    def test_time_varying_base_mean(self):
        m = 0.5 * (1.0 - FINE)
        u = 0.25 * np.sin(np.pi * FINE)
        mean, K = skorokhod_closed_form(m, u)
        assert np.max(u - mean) <= 1e-12
        assert K[-1] > 0.0  # the linear decay dips below the sine bump


class TestMeanOde:
    def test_drift_free_matches_closed_form(self):
        problem = MeanProblem(
            drift=lambda t, y: 0.0, terminal_mean=0.0, obstacle=SINE_HALF, horizon=1.0, mean_kappa=FLAT
        )
        mean, K = solve_mean_ode_reflected(problem, n_fine=20_000)
        ref_mean, ref_k = skorokhod_closed_form(0.0, SINE_HALF.evaluate(np.linspace(0, 1, 20_001)))
        assert np.max(np.abs(mean - ref_mean)) <= 1e-4
        assert np.max(np.abs(K - ref_k)) <= 1e-4

    def test_linear_drift_exponential_solution(self):
        problem = MeanProblem(
            drift=lambda t, y: 0.5 * y,
            terminal_mean=1.0,
            obstacle=ObstacleCurve("constant", value=-10.0),
            horizon=1.0,
            mean_kappa=FLAT,
        )
        mean, K = solve_mean_ode_reflected(problem, n_fine=20_000)
        assert np.all(K == 0.0)
        assert abs(mean[0] - math.exp(0.5)) <= 1e-4
        assert abs(mean[0] - 1.6487212707001282) <= 1e-4

    def test_affine_case_matches_golden_file(self):
        cfg = build_config({"preset": "AFFINE"})
        problem, y_independent = mean_reduction(cfg.spec)
        assert not y_independent
        mean, K = solve_mean_ode_reflected(problem, n_fine=20_000)
        t_ref, mean_ref, k_ref = np.loadtxt(GOLDEN, skiprows=1).T
        np.testing.assert_allclose(mean[::200], mean_ref, atol=5e-10)
        np.testing.assert_allclose(K[::200], k_ref, atol=5e-10)

    def test_solution_conditions_hold_discretely(self):
        cfg = build_config({"preset": "AFFINE"})
        problem, _ = mean_reduction(cfg.spec)
        n_fine = 20_000
        mean, K = solve_mean_ode_reflected(problem, n_fine=n_fine)
        times = np.linspace(0.0, 1.0, n_fine + 1)
        u = problem.obstacle.evaluate(times)
        assert float(np.max(u[:-1] - mean[:-1])) <= 1e-6  # reflection deficit
        assert abs(np.sum((mean[:-1] - u[:-1]) * np.diff(K))) <= 1e-4  # flatness
        dt = 1.0 / n_fine
        drift = 0.5 * mean[1:] * dt
        resid = np.max(np.abs(mean[:-1] - mean[1:] - drift - np.diff(K)))
        assert resid <= 1e-4  # dynamics

    def test_self_refinement_rejects_unstable_drift(self):
        problem = MeanProblem(
            drift=lambda t, y: -5000.0 * y,
            terminal_mean=1.0,
            obstacle=ObstacleCurve("constant", value=-10.0),
            horizon=1.0,
            mean_kappa=FLAT,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoSelfConvergence):
            solve_mean_ode_reflected(problem, n_fine=1000)

    def test_preconditions(self):
        problem = MeanProblem(
            drift=lambda t, y: 0.0, terminal_mean=0.0, obstacle=SINE_HALF, horizon=1.0, mean_kappa=FLAT
        )
        with pytest.raises(ValueError):
            solve_mean_ode_reflected(problem, n_fine=999)
        bad = MeanProblem(
            drift=lambda t, y: 0.0,
            terminal_mean=-1.0,
            obstacle=ObstacleCurve("constant", value=0.5),
            horizon=1.0,
            mean_kappa=FLAT,
        )
        with pytest.raises(ConstraintInfeasible):
            solve_mean_ode_reflected(bad, n_fine=2000)


class TestMeanReduction:
    def test_presets_reduce_as_expected(self):
        sine, y_ind = mean_reduction(build_config({"preset": "SINE"}).spec)
        assert y_ind and sine.drift(0.3, 5.0) == 0.0
        affine, y_ind = mean_reduction(build_config({"preset": "AFFINE"}).spec)
        assert not y_ind and affine.drift(0.3, 2.0) == 1.0
        boundary, y_ind = mean_reduction(build_config({"preset": "BOUNDARY"}).spec)
        assert not y_ind and boundary.drift(0.3, 2.0) == -2.0
        zdrift, y_ind = mean_reduction(build_config({"preset": "ZDRIFT"}).spec)
        assert y_ind and zdrift.drift(0.3, 7.0) == 0.5

    def test_non_reducible_drivers(self):
        spec = zero_problem(driver=DriverSpec("bounded-nonlinear", {}, lipschitz_L_f=2.0))
        assert mean_reduction(spec) is None
        spec = zero_problem(
            kappa=KappaSpec("integral", h_kind="const", h_scale=1.0),
        )
        assert mean_reduction(spec) is None

    def test_unconstrained_path_for_constant_drift(self):
        zdrift, _ = mean_reduction(build_config({"preset": "ZDRIFT"}).spec)
        times = np.linspace(0.0, 1.0, 2001)
        m = unconstrained_mean_path(zdrift, times)
        np.testing.assert_allclose(m, 0.5 * (1.0 - times), atol=1e-12)


def plain_penalized_backward(problem, n_fine, n):
    """The reduced scheme written out: problem.drift and implicit_mean_penalty at every step, on numpy arrays."""
    times = np.linspace(0.0, problem.horizon, n_fine + 1)
    dt = problem.horizon / n_fine
    u_vals, dkap = problem.obstacle.evaluate(times), np.diff(problem.mean_kappa(times))
    y, dK = np.empty(n_fine + 1), np.empty(n_fine)
    y[n_fine] = problem.terminal_mean
    for j in range(n_fine - 1, -1, -1):
        p = float(y[j + 1]) + problem.drift(float(times[j + 1]), float(y[j + 1])) * dt
        y[j] = implicit_mean_penalty(p, float(u_vals[j]), n, dt + float(dkap[j]))
        dK[j] = y[j] - p
    return y, np.concatenate([[0.0], np.cumsum(dK)])


def plain_unconstrained_path(problem, times):
    y = np.empty(len(times))
    y[-1] = problem.terminal_mean
    for j in range(len(times) - 2, -1, -1):
        y[j] = float(y[j + 1]) + problem.drift(float(times[j + 1]), float(y[j + 1])) * float(times[j + 1] - times[j])
    return y


@pytest.mark.parametrize("preset", ["AFFINE", "BOUNDARY"])
def test_reduced_loops_are_the_plain_loops_to_the_bit(preset):
    problem, _ = mean_reduction(build_config({"preset": preset}).spec)
    for n in (1e6, math.inf):
        for got, want in zip(_penalized_backward(problem, 1000, n), plain_penalized_backward(problem, 1000, n)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    times = np.linspace(0.0, problem.horizon, 1001)
    got, want = unconstrained_mean_path(problem, times), plain_unconstrained_path(problem, times)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestReferencePaths:
    @pytest.mark.parametrize(
        "spec",
        [
            zero_problem(driver=DriverSpec("bounded-nonlinear", {}, lipschitz_L_f=2.0)),
            zero_problem(boundary=BoundarySpec("nonlinear-monotone", beta=-0.5, growth_L_g=40.0)),
            zero_problem(kappa=KappaSpec("integral", h_kind="const", h_scale=1.0)),
            zero_problem(terminal=TerminalSpec("functional-of-forward", payoff="identity")),
        ],
        ids=["bounded-nonlinear-driver", "nonlinear-monotone-boundary", "integral-clock", "forward-terminal"],
    )
    def test_no_mean_reduction_is_a_config_error(self, spec):
        with pytest.raises(ConfigError, match="mean-closed"):
            reference_paths(spec, TimeGrid(1.0, 50))

    def test_sine_is_the_closed_form_on_a_200_times_finer_grid(self):
        spec = build_config({"preset": "SINE"}).spec
        grid = TimeGrid(spec.horizon, 50)
        mean, K, kind = reference_paths(spec, grid)
        assert kind == "running-maximum closed form"
        problem, _ = mean_reduction(spec)
        fine = np.linspace(0.0, grid.T, 200 * grid.N + 1)
        base = unconstrained_mean_path(problem, fine)
        ref_mean, ref_k = skorokhod_closed_form(base, spec.obstacle.evaluate(fine))
        assert np.array_equal(mean, ref_mean[::200])
        assert np.array_equal(K, ref_k[::200])

    def test_affine_is_the_penalized_equation_at_level_1e6(self):
        spec = build_config({"preset": "AFFINE"}).spec
        grid = TimeGrid(spec.horizon, 50)
        mean, K, kind = reference_paths(spec, grid)
        assert kind == "self-refined penalized mean equation"
        problem, _ = mean_reduction(spec)
        # the doubled run of the self-check: twice the fine grid, twice the penalty level
        ref_mean, ref_k = _penalized_backward(problem, 2 * 200 * grid.N, 2 * 1e6)
        assert np.array_equal(mean, ref_mean[::400])
        assert np.array_equal(K, ref_k[::400])
