import math
import tracemalloc
from dataclasses import replace

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
    NonFinite,
    NotConverged,
    ObstacleCurve,
    RankDeficient,
    RegressionBasis,
    TerminalSpec,
    TimeGrid,
    implicit_mean_penalty,
    mollify_obstacle,
    simulate_forward,
    skorokhod_closed_form,
    solve_penalized,
    solve_reflected,
    stability_experiment,
)
from mrbsde import PRESETS, penalized
from mrbsde.cli import build_config
from mrbsde.problem import eval_boundary, eval_driver
from tests.util import FullPass, drive, full_pass, refit, regression_statistics, zero_problem

GRID = TimeGrid(1.0, 50)
SINE = ObstacleCurve("sine", amplitude=0.5)


def small_cloud(spec=None, M=4000, seed=11, grid=GRID):
    return simulate_forward(spec or zero_problem(), grid, M, seed)


def recording_build_design(monkeypatch):
    """Patch ``penalized.build_design`` to record the feature rows it is given."""
    seen = []
    build_design = penalized.build_design

    def recording(features, basis):
        seen.append(features)
        return build_design(features, basis)

    monkeypatch.setattr(penalized, "build_design", recording)
    return seen


def fit_on_positions(targets, positions, degree):
    """Fit ``targets`` on one step whose Brownian positions are ``positions``."""
    m = positions.shape[0]
    cloud = ForwardCloud(
        grid=TimeGrid(1.0, 1),
        dB=np.zeros((1, m, 1)),
        brownian=np.stack([positions, positions])[:, :, None],
        kappa=np.zeros((2, m)),
        xi=np.zeros(m),
        mean_kappa=np.zeros(2),
    )
    return refit(cloud, RegressionBasis("brownian", degree), 0, targets)


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
        u_k = mollify_obstacle(SINE, 20, GRID)
        with pytest.raises(ValueError):
            solve_penalized(zero_problem(), u_k, 0.0, small_cloud(M=3), RegressionBasis("brownian", 2))

    @pytest.mark.parametrize("kind", ["brownian", "forward", "constant"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_design_matches_column_stack_formula(self, kind, degree, d):
        feats = np.random.default_rng(4).normal(0, 1.5, (257, d))
        cols = [np.ones(257)]
        if kind != "constant":
            for c in range(d):
                acc = feats[:, c]
                for _ in range(degree):
                    cols.append(acc)
                    acc = acc * feats[:, c]
        expected = np.column_stack(cols)
        rows = [feats, feats[:, 0]] if d == 1 else [feats]  # a forward state row is 1-D
        for row in rows:
            design = penalized.build_design(row, RegressionBasis(kind, degree))
            assert np.array_equal(design, expected)
            assert design.flags.c_contiguous

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

    def test_infinite_level_is_the_projection_onto_the_obstacle(self):
        assert implicit_mean_penalty(0.25, 1.0, math.inf, 0.01) == 1.0
        assert implicit_mean_penalty(2.0, 1.0, math.inf, 0.01) == 2.0
        # a finite level whose n * delta overflows takes the same limit
        assert implicit_mean_penalty(0.25, 1.0, 1e308, 10.0) == 1.0

    def test_no_penalty_mass_at_infinite_level_leaves_the_input(self):
        assert implicit_mean_penalty(0.25, 1.0, math.inf, 0.0) == 0.25
        assert implicit_mean_penalty(0.25, 1.0, 0.0, math.inf) == 0.25

    @pytest.mark.parametrize(
        "n, delta", [(math.nan, 0.01), (1e6, math.nan), (math.nan, math.nan), (-1.0, 0.01), (1e6, -0.01)]
    )
    def test_negative_or_nan_level_or_mass_rejected(self, n, delta):
        with pytest.raises(ValueError, match="must be >= 0"):
            implicit_mean_penalty(0.25, 1.0, n, delta)
        with pytest.raises(ValueError, match="must be >= 0"):
            implicit_mean_penalty(2.0, 1.0, n, delta)  # a slack constraint too

    def test_finite_weight_is_the_weighted_average_to_the_bit(self):
        rng = np.random.default_rng(3)
        for n, delta in [(1e6, 0.0), (0.0, 0.02)] + [tuple(rng.uniform(0, [1e7, 0.1])) for _ in range(500)]:
            u = rng.uniform(-2, 2)
            p = u - rng.uniform(1e-9, 3)
            assert implicit_mean_penalty(p, u, n, delta) == (p + n * delta * u) / (1.0 + n * delta)
        assert implicit_mean_penalty(-0.5, 0.75, 1e308, 1e10) == 0.75

    def test_nan_level_in_a_pass_rejected(self):
        spec, u_k = zero_problem(obstacle=SINE), mollify_obstacle(SINE, 20, GRID)
        with pytest.raises(ValueError, match="must be >= 0"):
            solve_penalized(spec, u_k, math.nan, small_cloud(spec, M=2000), RegressionBasis("brownian", 2))

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
        basis = RegressionBasis("brownian", 1)
        sol = solve_penalized(spec, u_k, 0.0, cloud, basis)
        assert np.all(sol.K == 0.0)
        np.testing.assert_allclose(full_pass(spec, u_k, 0.0, cloud, basis).Y[-1], cloud.xi)
        # martingale mean: stays near the terminal sample mean
        assert np.max(np.abs(sol.mean_path - cloud.xi.mean())) <= 5 / np.sqrt(cloud.M)

    def test_slack_constraint_never_activates(self):
        spec = zero_problem()
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 10, GRID)
        basis = RegressionBasis("brownian", 2)
        for n in (10.0, 1e3, 1e6):
            sol = solve_penalized(spec, u_k, n, cloud, basis)
            assert np.all(sol.K == 0.0)

    def test_sine_mean_path_against_closed_form(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec, M=8000)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 500, cloud, RegressionBasis("brownian", 2))
        fine = np.linspace(0.0, 1.0, 50 * 200 + 1)
        mean_star, _ = skorokhod_closed_form(0.0, SINE.evaluate(fine))
        assert np.max(np.abs(sol.mean_path - mean_star[::200])) <= 0.03

    def test_penalty_increments_only_when_mean_below_obstacle(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 200, cloud, RegressionBasis("brownian", 2))
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
        basis = RegressionBasis("brownian", 2)
        sups = []
        for n in (25, 50, 100, 200, 400, 800):
            sol = solve_penalized(spec, u_k, n, cloud, basis)
            sups.append(float(np.max(np.maximum(u_k.values[:-1] - sol.mean_path[:-1], 0.0))))
        assert all(b <= a + 1e-3 for a, b in zip(sups, sups[1:]))

    def test_penalty_shift_is_common_to_all_particles(self):
        # y-independent driver, no boundary term: particle spreads match across levels
        spec = zero_problem(driver=DriverSpec("affine", {"mean_y": 0.5}, lipschitz_L_f=0.5),
                            obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        basis = RegressionBasis("brownian", 2)
        lo = full_pass(spec, u_k, 50, cloud, basis)
        hi = full_pass(spec, u_k, 800, cloud, basis)
        spread_lo = lo.Y - lo.mean_path[:, None]
        spread_hi = hi.Y - hi.mean_path[:, None]
        np.testing.assert_allclose(spread_lo, spread_hi, atol=1e-10)

    def test_infinite_level_keeps_the_mean_on_or_above_the_obstacle(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, math.inf, cloud, RegressionBasis("brownian", 2))
        gap = sol.mean_path[:-1] - u_k.values[:-1]
        assert np.all(gap >= -1e-12)
        dK = np.diff(sol.K)
        active = dK > 0
        assert np.any(active) and np.all(dK >= 0)
        # K grows only where the mean sits on the obstacle
        assert np.all(np.abs(gap[active]) <= 1e-12)

    def test_unconditional_stability_in_level(self):
        spec = zero_problem(obstacle=SINE)
        grid = TimeGrid(1.0, 100)
        cloud = simulate_forward(spec, grid, 2000, seed=2)
        u_k = mollify_obstacle(SINE, 30, grid)
        sol = full_pass(spec, u_k, 1e6, cloud, RegressionBasis("brownian", 2))
        assert np.all(np.isfinite(sol.Y)) and np.all(np.isfinite(sol.K))

    def test_terminal_row_is_exact_terminal_draw(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 20, GRID)
        sol = full_pass(spec, u_k, 100, cloud, RegressionBasis("brownian", 2))
        assert np.array_equal(sol.Y[-1], cloud.xi)
        assert sol.K[0] == 0.0
        assert np.array_equal(sol.mean_path, sol.Y.mean(axis=1))

    def test_grid_mismatch_rejected(self):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        u_other = mollify_obstacle(SINE, 20, TimeGrid(1.0, 40))
        with pytest.raises(LengthMismatch):
            solve_penalized(spec, u_other, 100, cloud, RegressionBasis("brownian", 2))

    @pytest.mark.parametrize("name, index", [("xi", 17), ("dB", (GRID.N - 1, 17, 0))])
    def test_one_non_finite_particle_raises(self, name, index):
        # A bad terminal draw poisons Y and Z; a bad last increment only Z.
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        bad = getattr(cloud, name).copy()
        bad[index] = np.nan
        u_k = mollify_obstacle(SINE, 20, GRID)
        with pytest.raises(NonFinite, match=f"step {GRID.N - 1}"):
            solve_penalized(spec, u_k, 100, replace(cloud, **{name: bad}), RegressionBasis("brownian", 2))

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
        sol = full_pass(spec, u_k, 300, cloud, RegressionBasis("brownian", 2))
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
        sol = solve_penalized(spec, u_k, 200, cloud, RegressionBasis("brownian", 1))
        assert sol.mean_z.shape == (GRID.N + 1, 2)
        z_mean = sol.mean_z
        full = full_pass(spec, u_k, 200, cloud, RegressionBasis("brownian", 1))
        assert_moments_match(sol, full)
        z_target_std = regression_statistics(full, cloud, RegressionBasis("brownian", 1))[2]
        band = 4.0 * z_target_std.max() / np.sqrt(8000)
        assert np.max(np.abs(z_mean[:, 0] - 1.0)) <= band
        assert np.max(np.abs(z_mean[:, 1])) <= band


def plain_driver(spec, y, z1, m_y, mz1):
    """The driver written out: an affine one adds its declared terms to const (0.0 by default) left to right."""
    c = spec.coefficients
    if spec.family == "bounded-nonlinear":
        return c.get("sin_y", 1.0) * np.sin(y) + c.get("cos_my", 1.0) * np.cos(m_y)
    out = c.get("const", 0.0)
    for key, arg in (("y", y), ("z", z1), ("mean_y", m_y), ("mean_z", mz1)):
        if key in c:
            out = out + c[key] * arg
    return np.broadcast_to(out, y.shape)


def reference_pass(spec, u_k, n, cloud, basis):
    """The backward pass written out plainly: every step forms f dt, g dkappa and the shift for every particle."""
    grid = cloud.grid
    N, M, d, dt = grid.N, cloud.M, cloud.d, grid.dt
    Y, Z = np.empty((N + 1, M)), np.empty((N + 1, M, d))
    mean_path, z_mean = np.empty(N + 1), np.empty((N, d))
    dK, mean_f_dt, mean_g_dkappa = np.zeros(N), np.zeros(N), np.zeros(N)
    Y[N] = cloud.xi
    mean_path[N] = Y[N].mean()
    for j in range(N - 1, -1, -1):
        targets = np.column_stack([Y[j + 1][:, None] * cloud.dB[j] / dt, Y[j + 1]])
        fitted = refit(cloud, basis, j, targets)[0]
        Z[j], cond_mean = fitted[:, :d], fitted[:, d]
        z_mean[j] = [np.add.reduce(col) / M for col in Z[j].T]  # each Z column summed on its own
        m_y, m_z = mean_path[j + 1], z_mean[min(j + 1, N - 1)]
        f_vals = plain_driver(spec.driver, cond_mean, Z[j][:, 0], m_y, m_z[0])
        g_dkap = eval_boundary(spec.boundary, grid.times[j], cond_mean) * (cloud.kappa[j + 1] - cloud.kappa[j])
        y0 = cond_mean + f_vals * dt + g_dkap
        p_val = float(y0.mean())
        delta = dt + float(cloud.mean_kappa[j + 1] - cloud.mean_kappa[j])
        dK[j] = implicit_mean_penalty(p_val, float(u_k.values[j]), n, delta) - p_val
        Y[j] = y0 + dK[j]
        mean_path[j] = Y[j].mean()
        mean_f_dt[j] = float(np.mean(f_vals)) * dt
        mean_g_dkappa[j] = float(np.mean(g_dkap))
    Z[N] = Z[N - 1]
    return FullPass(Y, Z, mean_path, np.concatenate([[0.0], np.cumsum(dK)]), mean_f_dt, mean_g_dkappa)


LEAN_GRID = TimeGrid(1.0, 12)
DRIVERS = {  # (driver, one value for every particle, Brownian coordinates)
    "zero": (DriverSpec("zero"), True, 1),
    "const": (DriverSpec("affine", {"const": 0.1}), True, 1),
    "y": (DriverSpec("affine", {"y": -0.5}), False, 1),
    "z": (DriverSpec("affine", {"z": 0.2}), False, 1),
    "mean_y": (DriverSpec("affine", {"mean_y": 0.5}), True, 1),
    "mean_z": (DriverSpec("affine", {"mean_z": -0.3}), True, 1),
    "mean_z-d2": (DriverSpec("affine", {"mean_z": -0.3}), True, 2),
    "affine-common": (DriverSpec("affine", {"const": 0.1, "mean_y": 0.5, "mean_z": -0.3}), True, 1),
    "affine-per-particle": (DriverSpec("affine", {"y": -0.5, "z": 0.2, "mean_y": 0.3}), False, 1),
    "sin-cos": (DriverSpec("bounded-nonlinear", {"sin_y": 0.2, "cos_my": 0.1}), False, 1),
}
BOUNDARIES = {
    "zero": BoundarySpec("zero", beta=-1.0),
    "linear": BoundarySpec("linear-monotone", beta=-1.0),
    "cubic": BoundarySpec("nonlinear-monotone", beta=-0.5, growth_L_g=40.0),
}
CLOCKS = {
    "zero": KappaSpec("zero"),
    "linear": KappaSpec("linear", rate=0.5),
    "integral": KappaSpec("integral", h_kind="square", h_scale=0.5),
}


def assert_bits_equal(a, b, field):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), field


def assert_same_bits(lean, ref):
    for field in FullPass._fields:
        assert_bits_equal(getattr(lean, field), getattr(ref, field), field)


def assert_moments_match(sol, full):
    """A solution's node-0 row and node moments are those of the full rows of the same pass."""
    for field in ("mean_path", "K", "mean_f_dt", "mean_g_dkappa"):
        assert_bits_equal(getattr(sol, field), getattr(full, field), field)
    assert_bits_equal(sol.Y, full.Y[:1], "Y")
    # mean Z is numpy's sum of each column of the working block, pairwise
    # and not row by row over a C-ordered (M, d) array
    m = full.Z.shape[1]
    assert_bits_equal(sol.mean_z, [[np.add.reduce(col) / m for col in z.T] for z in full.Z], "mean_z")
    assert_bits_equal(sol.mean_y2, [np.mean(y**2) for y in full.Y], "mean_y2")
    assert_bits_equal(sol.mean_z2, [np.mean(np.sum(z**2, axis=1)) for z in full.Z[:-1]], "mean_z2")


class TestLeanStep:
    """The pass skips the work whose result is already known, and every bit stays that of the plain pass."""

    @pytest.mark.parametrize("clock", sorted(CLOCKS))
    @pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_every_branch_matches_the_plain_pass(self, driver, boundary, clock):
        driver_spec, common, d = DRIVERS[driver]
        spec = zero_problem(driver=driver_spec, boundary=BOUNDARIES[boundary], kappa=CLOCKS[clock],
                            obstacle=SINE, forward=ForwardSDESpec(x0=0.5, sigma=0.3), brownian_dim=d)
        cloud = small_cloud(spec, M=600, grid=LEAN_GRID)
        basis = RegressionBasis("brownian", 2)
        u_k = mollify_obstacle(SINE, 20, LEAN_GRID)
        f_vals = eval_driver(driver_spec, 0.0, cloud.xi, cloud.dB[0], 0.1, np.zeros(d))
        assert (f_vals.strides[0] == 0) == common  # which driver branch the pass takes
        ref = reference_pass(spec, u_k, 200, cloud, basis)
        slack = np.diff(ref.K) == 0.0
        assert slack.any() and not slack.all()  # a slack and an active penalty step
        full = full_pass(spec, u_k, 200, cloud, basis)
        assert_same_bits(full, ref)
        assert_moments_match(solve_penalized(spec, u_k, 200, cloud, basis), full)

    @pytest.mark.parametrize("value", [-1.0, 0.5])
    def test_identically_zero_solution_keeps_its_zero_signs(self, value):
        # Y = 0 everywhere: every product and mean is a signed zero.
        obstacle = ObstacleCurve("constant", value=value)
        spec = zero_problem(terminal=TerminalSpec("direct-sampler", std=0.0, declared_mean=0.0), obstacle=obstacle)
        cloud = small_cloud(spec, M=600, grid=LEAN_GRID)
        u_k = mollify_obstacle(obstacle, 20, LEAN_GRID)
        basis = RegressionBasis("brownian", 2)
        full = full_pass(spec, u_k, 200, cloud, basis)
        assert_same_bits(full, reference_pass(spec, u_k, 200, cloud, basis))
        assert_moments_match(solve_penalized(spec, u_k, 200, cloud, basis), full)


def test_terminal_row_is_xi_plus_the_shift_to_the_bit():
    # each lockstep pass writes xi + eps into its own Y_N row; the base pass
    # copies xi and adds nothing, so its signed zeros survive
    cloud = small_cloud(zero_problem(), M=600, grid=LEAN_GRID)
    xi = cloud.xi.copy()
    xi[:3] = [-0.0, 0.0, -0.0]
    cloud = replace(cloud, xi=xi)
    u_k = mollify_obstacle(SINE, 20, LEAN_GRID)
    basis = RegressionBasis("brownian", 2)
    shifts = [None, 0.0, 0.1, -0.05]
    sweep = penalized._lockstep(zero_problem(), u_k, cloud, basis, [(200, eps) for eps in shifts])
    terminals = [next(sweep) for _ in shifts]
    for i, ((j, k, y_n, z), want) in enumerate(zip(terminals, [xi, xi + 0.0, xi + 0.1, xi - 0.05])):
        assert (j, k) == (LEAN_GRID.N, i) and z is None
        assert np.array_equal(y_n, want) and np.array_equal(np.signbit(y_n), np.signbit(want))


def test_a_step_at_two_coordinates_allocates_less_than_a_particle_row(monkeypatch):
    # Every node's design is built ahead of the pass and handed to it, so
    # the node design is not counted, and a zero driver and boundary make no
    # row of values; the pass's own and working rows are allocated before
    # node N is yielded. What a step itself allocates and frees must stay
    # below one row of M floats: Y dB / dt taken with a broadcast Y would
    # buffer an (M, 2) temporary.
    spec = zero_problem(obstacle=SINE, brownian_dim=2)
    cloud = small_cloud(spec, M=4000)
    u_k = mollify_obstacle(SINE, 20, GRID)
    basis = RegressionBasis("brownian", 2)
    penalized.solve_penalized(spec, u_k, 200, cloud, basis)  # fills the Gram cache
    designs = [penalized._build_node_design(cloud, basis, j) for j in range(GRID.N)]
    monkeypatch.setattr(penalized, "_build_node_design", lambda cloud, basis, j: designs[j])
    steps = penalized._lockstep(spec, u_k, cloud, basis, [(200, None)])
    next(steps)
    worst = 0
    tracemalloc.start()
    try:
        for _ in range(GRID.N):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            next(steps)
            worst = max(worst, tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert worst < cloud.M * 8


def test_a_pass_holds_its_rows_and_one_working_block():
    # A warm pass holds its Y row, M floats, a row of squares for its
    # moments, and the working rows: the (M, d + 1) targets its fit
    # overwrites, whose first d columns are its Z, and the node design,
    # (d + 1 + p) M floats, with a g * dkappa row only for a non-zero
    # boundary. One more row covers the node arrays and a step's
    # transients; a Z row of the pass's own, or a block of fitted values
    # beside the targets, exceeds that.
    spec = zero_problem(obstacle=SINE)
    grid = TimeGrid(1.0, 100)
    cloud = simulate_forward(spec, grid, 4000, seed=3)
    u_k = mollify_obstacle(SINE, 20, grid)
    basis = RegressionBasis("brownian", 2)
    d, p, g_dkappa = cloud.d, basis.size(cloud.d), spec.boundary.family != "zero"
    solve_penalized(spec, u_k, 200, cloud, basis)  # fills the Gram cache
    tracemalloc.start()
    try:
        solve_penalized(spec, u_k, 200, cloud, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 + 1 + (d + 1 + p + g_dkappa) + 1) * cloud.M * 8


FIT_BASES = [RegressionBasis("brownian", 1), RegressionBasis("brownian", 2), RegressionBasis("forward", 2),
             RegressionBasis("constant")]


@pytest.mark.parametrize("basis", FIT_BASES, ids=["brownian-1", "brownian-2", "forward-2", "constant"])
@pytest.mark.parametrize("d", [1, 2])
def test_a_fit_in_the_working_block_has_the_bits_of_the_c_ordered_fit(d, basis):
    # A step fits in a block that is F-ordered for two or more basis
    # functions. Its bits must follow the C-ordered design alone: a numpy
    # or BLAS whose products follow the block's layout fails here.
    spec = zero_problem(brownian_dim=d, forward=ForwardSDESpec(x0=1.0, sigma=0.3))
    p = basis.size(d)
    for M in (101, 4001, 20001):
        cloud = small_cloud(spec, M=M)
        for j in (0, 1, GRID.N // 2, GRID.N - 1):
            targets = np.empty((M, d + 1))  # C-ordered: Y dB / dt and Y, with Y = xi
            targets[:, :d] = cloud.xi[:, None] * cloud.dB[j] / GRID.dt
            targets[:, d] = cloud.xi
            design = penalized._build_node_design(cloud, basis, j)
            want_coef = np.linalg.solve(penalized._checked_gram(design), design.T @ targets)
            want = np.matmul(design, want_coef, out=np.empty((M, d + 1)))
            block = penalized._working_block((M, d + 1), p)
            assert block.flags.f_contiguous == (p > 1)
            block[...] = targets
            got, coef = penalized._fit(cloud, basis, j, block, design)
            assert got is block
            assert coef.tobytes() == want_coef.tobytes(), (M, j)
            assert got.tobytes() == want.tobytes(), (M, j)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 13])
def test_mean_sq_norm_has_the_bits_of_the_row_sum_form(d):
    rng = np.random.default_rng(d)
    for m in [1] * 200 + [7, 1000, 20_001]:  # a single row's mean is its sum, to the bit
        z = rng.normal(0.0, 1.0, (m, d)) * rng.choice([1e-160, 1e-3, 1.0, 1e3], (m, d))
        z[rng.random((m, d)) < 0.1] = 0.0
        z[rng.random((m, d)) < 0.1] = -0.0
        for rows in (z, -z, np.full((m, d), -0.0)):
            want = np.mean(np.sum(rows**2, axis=1))
            got = penalized._mean_sq_norm(rows, np.empty(m))
            assert got == want and np.signbit(got) == np.signbit(want)


class TestRegressionOperator:
    """Each cloud caches the checked Gram matrix of every (basis, step) it has fitted."""

    def test_reused_operator_gives_bit_identical_solutions(self):
        spec = zero_problem(obstacle=SINE, kappa=KappaSpec("linear", rate=1.0),
                            boundary=BoundarySpec("linear-monotone", beta=-1.0))
        cloud = small_cloud(spec)
        u_k = mollify_obstacle(SINE, 30, GRID)
        basis = RegressionBasis("brownian", 2)
        for n in (25, 800):
            a = full_pass(spec, u_k, n, cloud, basis)  # warm cache from the second level on
            b = full_pass(spec, u_k, n, replace(cloud, grams={}), basis)
            for field in FullPass._fields:
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
            assert_moments_match(solve_penalized(spec, u_k, n, replace(cloud, grams={}), basis), a)
            stats_a, stats_b = (regression_statistics(s, cloud, basis) for s in (a, b))
            assert all(np.array_equal(x, y) for x, y in zip(stats_a, stats_b))

    def test_rank_deficient_basis_fails_at_the_first_step_of_the_first_pass(self, monkeypatch):
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec, M=400)
        seen = recording_build_design(monkeypatch)
        with pytest.raises(RankDeficient):
            solve_penalized(spec, mollify_obstacle(SINE, 20, GRID), 100, cloud, RegressionBasis("brownian", 120))
        assert len(seen) == 1
        assert np.array_equal(seen[0], cloud.brownian[GRID.N - 1])
        assert not cloud.grams

    def test_unfittable_basis_fails_when_built(self, monkeypatch):
        seen = recording_build_design(monkeypatch)
        u_k = mollify_obstacle(SINE, 20, GRID)
        with pytest.raises(ValueError, match="more particles"):
            solve_penalized(zero_problem(), u_k, 100, small_cloud(M=40), RegressionBasis("brownian", 40))
        with pytest.raises(ValueError, match="no forward state"):
            solve_penalized(zero_problem(), u_k, 100, small_cloud(M=40), RegressionBasis("forward", 2))
        assert seen == []

    def test_forward_basis_reads_the_forward_state(self, monkeypatch):
        spec = zero_problem(forward=ForwardSDESpec(x0=1.0, sigma=0.3))
        cloud = small_cloud(spec, M=500)
        seen = recording_build_design(monkeypatch)
        penalized._build_node_design(cloud, RegressionBasis("forward", 2), 7)
        assert np.shares_memory(seen[0], cloud.forward_state)
        assert np.array_equal(seen[0], cloud.forward_state[7])

    def test_gram_checked_once_per_step_per_cloud(self, monkeypatch):
        checks = []

        def counting(design):
            checks.append(design.shape)
            return checked_gram(design)

        checked_gram = penalized._checked_gram
        monkeypatch.setattr(penalized, "_checked_gram", counting)
        spec = zero_problem(obstacle=SINE)
        cloud = small_cloud(spec)
        basis = RegressionBasis("brownian", 2)
        schedule = ConvergenceSchedule(n_levels=(25, 50, 100), k_levels=(5, 10), deficit_tol=1e-9)
        with pytest.raises(NotConverged) as exc:
            solve_reflected(spec, cloud, schedule, basis)
        assert len(exc.value.trace) == 3  # three passes, one cache
        assert len(checks) == GRID.N

        checks.clear()
        u_k = mollify_obstacle(SINE, 20, GRID)
        stability_experiment(spec, cloud, (0.1, 0.05), u_k, 100, basis)
        assert checks == []  # base and perturbed passes reuse the cloud's Grams
        stability_experiment(spec, replace(cloud, grams={}), (0.1, 0.05), u_k, 100, basis)
        assert len(checks) == GRID.N  # base and two perturbed passes on a fresh cache


EQUIVARIANT_LEVELS = (50.0, 800.0, math.inf)


def mean_level_recursion(spec, u_k, n, cloud, base):
    """Level n's mean path, K and mean Z from the n = 0 pass ``base``, for a shift-equivariant step.

    On such a step Y^n_j = Y^0_j + c_j for every particle, so
    zbar^n_j = zbar^0_j + c_{j+1} E_M[dB_j] / dt, and the mean of every
    fit is the mean of its targets (every basis has an intercept). The
    driver and boundary are evaluated at the means, and the penalty is the
    pass's own implicit root.
    """
    grid = cloud.grid
    N, dt = grid.N, grid.dt
    ybar, zbar, dK = np.empty(N + 1), np.empty((N + 1, cloud.d)), np.zeros(N)
    ybar[N] = np.add.reduce(cloud.xi) / cloud.M
    for j in range(N - 1, -1, -1):
        zbar[j] = base.mean_z[j] + (ybar[j + 1] - base.mean_path[j + 1]) * cloud.dB[j].mean(axis=0) / dt
        m_z = zbar[min(j + 1, N - 1)]
        f = float(eval_driver(spec.driver, grid.times[j], ybar[j + 1], zbar[j], ybar[j + 1], m_z))
        dkappa = cloud.kappa[j + 1, 0] - cloud.kappa[j, 0]  # a deterministic clock
        g = float(eval_boundary(spec.boundary, grid.times[j], ybar[j + 1])) * dkappa
        p_val = ybar[j + 1] + f * dt + g
        delta = dt + float(cloud.mean_kappa[j + 1] - cloud.mean_kappa[j])
        ybar[j] = implicit_mean_penalty(p_val, float(u_k.values[j]), n, delta)
        dK[j] = ybar[j] - p_val
    zbar[N] = zbar[N - 1]
    return ybar, np.concatenate([[0.0], np.cumsum(dK)]), zbar


def intercept_leak(cloud, basis, j):
    """Bound on |mean P_j(T) - mean T| / max|T| for step j's fit.

    A Gram regularized by lambda I (``_checked_gram``'s fudge) makes the mean
    of the fitted values the mean of the targets minus (lambda / M) coef_0,
    and |coef_0| <= ||D (G + lambda I)^-1 e_0||_1 max|T|. An unregularized
    Gram reproduces the target mean exactly: 0.
    """
    design = penalized._build_node_design(cloud, basis, j)
    gram = cloud.grams[basis, j]
    lam = float(np.max(np.diag(gram) - np.diag(design.T @ design)))
    if lam == 0.0:
        return 0.0
    row = np.linalg.solve(gram, np.eye(gram.shape[0])[0])
    return lam / cloud.M * float(np.sum(np.abs(design @ row)))


def run_equivariance_sweep(spec, cloud, basis, u_k):
    """The n = 0 pass and every level of ``EQUIVARIANT_LEVELS`` in one lockstep sweep.

    Returns the solutions, per node and pass the largest |Y_j|, and per
    node the largest spread across particles of Y^n_j - Y^0_j over levels,
    taken at the last pass's yield: each pass's row holds Y_j until that
    pass steps again.
    """
    N = cloud.grid.N
    passes = [(0.0, None)] + [(n, None) for n in EQUIVARIANT_LEVELS]
    max_y, spread, rows = np.empty((len(passes), N + 1)), np.empty(N + 1), [None] * len(passes)

    def record(j, i, y, z):
        rows[i] = y
        max_y[i, j] = np.max(np.abs(y))
        if i == len(passes) - 1:
            spread[j] = max(np.ptp(y - rows[0]) for y in rows[1:])

    solutions, _ = drive(penalized._lockstep(spec, u_k, cloud, basis, passes), record)
    return solutions, max_y, spread


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_shift_equivariant_levels_follow_the_mean_level_recursion(preset):
    """Every preset's step is shift-equivariant, so each level is the n = 0 pass shifted by one constant per node.

    The bound is fixed by a round-off argument before the run (u = 2^-53):
    - Local error of node j, in the mean path: each node mean the pass forms
      (the fit's Gram row and right-hand side, the penalty's argument, the
      new mean) is a sum of M terms, worst case M u of the summed
      magnitudes, and the fit adds p^2 u; eight such sums bound a step:
      8 (M + p^2) u S_j, with S_j = max |Y_{j+1}| + max |Y_j| over every
      pass. A regularized Gram adds the intercept leak of its fit times
      max |Y_{j+1}| (``intercept_leak``).
    - Propagation: the mean-level step is (1 + L dt)-Lipschitz in the two
      later means, L = |y| + |mean_y| + |beta| max dkappa / dt
      + |mean_z| max |E_M[dB]| / dt, and the penalty root is 1-Lipschitz,
      so the mean path is within E = e^{LT} (sum of local errors).
    - K telescopes to the mean path: K_j = ybar_0 - ybar_j - sum of the
      driver and boundary means, so K is within (3 + LT) E.
    - Mean Z at node j: both fits' round-off on targets of size
      S^z_j = max |Y_{j+1}| max |dB_j| / dt, the leak on c_{j+1} dB_j / dt,
      and the recursion's own mean path error times |E_M[dB_j]| / dt.
    The mean-z coupling of the driver adds |mean_z| dt times the mean-Z
    local error to the mean path's local error.
    """
    cfg = build_config({"preset": preset, "numerics": {"M": 4000, "N": 50}})
    spec, basis = cfg.spec, cfg.basis
    grid = TimeGrid(spec.horizon, cfg.N)
    cloud = simulate_forward(spec, grid, cfg.M, seed=7)
    u_k = mollify_obstacle(spec.obstacle, 20, grid)
    (base, *levels), max_y, _ = run_equivariance_sweep(spec, cloud, basis, u_k)

    N, M, dt, u = grid.N, cloud.M, grid.dt, np.finfo(float).eps / 2
    coef = spec.driver.coefficients
    beta = spec.boundary.beta if spec.boundary.family == "linear-monotone" else 0.0
    dkappa = np.diff(cloud.kappa[:, 0])
    mean_db = np.abs(cloud.dB.mean(axis=1)).max(axis=1) / dt  # (N,)
    max_db = np.abs(cloud.dB).max(axis=(1, 2)) / dt
    L = (abs(coef.get("y", 0.0)) + abs(coef.get("mean_y", 0.0)) + abs(beta) * float(np.max(dkappa)) / dt
         + abs(coef.get("mean_z", 0.0)) * float(np.max(mean_db)))
    p = basis.size(cloud.d)
    leak = np.array([intercept_leak(cloud, basis, j) for j in range(N)])
    rounding = 8 * (M + p * p) * u
    top = max_y.max(axis=0)  # (N+1,): the largest |Y_j| over the passes
    for n, sol in zip(EQUIVARIANT_LEVELS, levels):
        c = np.abs(sol.mean_path - base.mean_path)  # the level's shift per node
        local_z = 2 * rounding * top[1:] * max_db + leak * c[1:] * max_db
        local_y = (1 + L * dt) * leak * top[1:] + rounding * (top[1:] + top[:-1])
        local_y = local_y + abs(coef.get("mean_z", 0.0)) * dt * local_z
        tol_y = math.exp(L * spec.horizon) * float(np.sum(local_y))
        tol_z = np.append(local_z + tol_y * mean_db, 0.0)
        tol_z[N] = tol_z[N - 1]  # the terminal row is node N-1's
        ybar, K, zbar = mean_level_recursion(spec, u_k, n, cloud, base)
        assert sol.K[-1] > 0.0, n  # the penalty fires
        assert np.max(np.abs(sol.mean_path - ybar)) <= tol_y, n
        assert np.max(np.abs(sol.K - K)) <= (3 + L * spec.horizon) * tol_y, n
        assert np.all(np.abs(sol.mean_z - zbar).max(axis=1) <= tol_z), n


def test_a_driver_of_each_particles_z_is_not_shift_equivariant():
    # the recursion's premise fails: the levels' shift differs across particles
    cfg = build_config({"preset": "AFFINE", "numerics": {"M": 4000, "N": 50}})
    spec = replace(cfg.spec, driver=DriverSpec("affine", {"mean_y": 0.5, "z": 0.5}))
    grid = TimeGrid(spec.horizon, cfg.N)
    cloud = simulate_forward(spec, grid, cfg.M, seed=7)
    _, _, spread = run_equivariance_sweep(spec, cloud, cfg.basis, mollify_obstacle(spec.obstacle, 20, grid))
    assert np.max(spread) > 1e-6
