import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mrbsde import (
    BoundarySpec,
    DriverSpec,
    KappaSpec,
    LengthMismatch,
    LevelRecord,
    NonPositiveError,
    ObstacleCurve,
    RegressionBasis,
    TerminalSpec,
    TimeGrid,
    apriori_report,
    deficit_metrics,
    flatness_residual,
    mollify_obstacle,
    penalty_sweep,
    rate_fit,
    simulate_forward,
    solve_penalized,
    stability_experiment,
)
from mrbsde import paths, penalized, reflect
from mrbsde.cli import build_config
from tests.util import full_pass, zero_problem

GRID = TimeGrid(1.0, 50)
SINE = ObstacleCurve("sine", amplitude=0.5)
BASIS = RegressionBasis("brownian", 2)


def stability_budget(spec, cloud, k: int) -> int:
    """Bytes a stability sweep of the base pass and k perturbed ones may hold, in one process.

    The passes hold k + 1 Y rows and a copy of the base Z, (k + 1 + d) M
    floats. All passes share one working block and one node design: the
    targets their fits overwrite, whose first d columns are the Z, and the
    design, (d + 1 + p) M floats, with a g * dkappa row only for a non-zero
    boundary; the differences take (d + 1) M more. The rest does not grow
    with M. Per node: each pass's node moments (4 + d floats), the
    experiment's 2 k results, the cached Gram (p^2 floats) and under 1 KB of
    Python objects (the Gram's array and key, the sweep's node floats). Per
    step: the fit's small products, under 8 KB, and at d >= 2 the square of
    a later Z column, one row. A working row, a terminal, a Z row or a
    second Y row per pass exceeds that.
    """
    d, p, g_dkappa, row = cloud.d, BASIS.size(cloud.d), spec.boundary.family != "zero", cloud.M * 8
    own, shared, diffs = (k + 1) + d, d + 1 + p + g_dkappa, d + 1
    per_node = 8 * ((k + 1) * (4 + d) + 2 * k + p * p) + 1024
    per_step = 8 * 1024 + (row if d >= 2 else 0)
    return (own + shared + diffs) * row + cloud.grid.N * per_node + per_step


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
        sol = solve_penalized(spec, u_k, 100, cloud, BASIS)
        assert deficit_metrics(sol.mean_path, u_k, cloud.mean_kappa) == (0.0, 0.0)

    def test_synthetic_constant_deficit(self):
        u_k = mollify_obstacle(ObstacleCurve("constant", value=0.0), 20, GRID)
        sup_sq, integral_sq = deficit_metrics(u_k.values - 0.1, u_k, np.zeros(GRID.N + 1))
        assert abs(sup_sq - 0.01) < 1e-15
        assert abs(integral_sq - 0.01) < 1e-12  # 0.01 * T with a flat clock

    def test_clock_weighting(self):
        u_k = mollify_obstacle(ObstacleCurve("constant", value=0.0), 20, GRID)
        mean_kappa = np.linspace(0.0, 1.0, GRID.N + 1)  # doubles the measure
        _, integral_sq = deficit_metrics(u_k.values - 0.1, u_k, mean_kappa)
        assert abs(integral_sq - 0.02) < 1e-12

    def test_mean_path_off_the_obstacle_grid_is_rejected(self):
        u_k = mollify_obstacle(ObstacleCurve("constant", value=0.0), 20, GRID)
        with pytest.raises(LengthMismatch):
            deficit_metrics(np.zeros(GRID.N), u_k, np.zeros(GRID.N + 1))

    def test_sine_sup_metric_strictly_decreasing_in_level(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 4000, seed=2)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sups = []
        for n in (25, 50, 100, 200, 400, 800):
            sol = solve_penalized(spec, u_k, n, cloud, BASIS)
            sups.append(deficit_metrics(sol.mean_path, u_k, cloud.mean_kappa)[0])
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

    @pytest.mark.parametrize(
        "case",
        [
            dict(brownian_dim=1),
            dict(brownian_dim=2),
            dict(boundary=BoundarySpec("linear-monotone", beta=-1.0), kappa=KappaSpec("linear", rate=1.0)),
            dict(
                brownian_dim=2,
                boundary=BoundarySpec("linear-monotone", beta=-1.0),
                kappa=KappaSpec("linear", rate=1.0),
                driver=DriverSpec("affine", {"y": -0.5, "z": 0.3}),
            ),
            dict(driver=DriverSpec("affine", {"mean_y": 0.5})),
            dict(driver=DriverSpec("affine", {"mean_z": -0.3})),
        ],
        ids=[
            "zero-d1",
            "zero-d2",
            "linear-monotone-linear-clock",
            "linear-monotone-linear-clock-affine-d2",
            "affine-mean-y",
            "affine-mean-z",
        ],
    )
    def test_node_reductions_equal_full_difference_arrays(self, case):
        # the lockstep rows are reduced as each perturbed pass yields its
        # step, the passes sharing one working block, whose first d columns
        # are the Z of the pass that last fitted, and one node design; the
        # reference runs whole passes one after another, each on its own
        # cloud and workspace, and forms dY and dZ in full
        spec = zero_problem(obstacle=SINE, **case)
        cloud = simulate_forward(spec, GRID, 10_000, seed=3)
        u_k = mollify_obstacle(SINE, 20, GRID)
        rows = stability_experiment(spec, cloud, (0.1, 0.05), u_k, 200, BASIS)
        base = full_pass(spec, u_k, 200, cloud, BASIS)
        for row in rows:
            pert = full_pass(spec, u_k, 200, dataclasses.replace(cloud, xi=cloud.xi + row.epsilon), BASIS)
            dY, dZ = pert.Y - base.Y, pert.Z - base.Z
            assert row.sup_mean_sq_dy == float(np.max(np.mean(dY**2, axis=1)))
            assert row.integral_mean_sq_dz == float(
                np.sum(np.mean(np.sum(dZ[:-1] ** 2, axis=2), axis=1)) * GRID.dt
            )

    def test_lockstep_holds_less_than_one_solution_array(self):
        cfg = build_config({"preset": "BOUNDARY", "numerics": {"M": 4000, "N": 50}})
        grid = TimeGrid(cfg.spec.horizon, cfg.N)
        cloud = simulate_forward(cfg.spec, grid, cfg.M, seed=3)
        u_k = mollify_obstacle(cfg.spec.obstacle, 20, grid)
        stability_experiment(cfg.spec, cloud, (0.1, 0.05), u_k, 800, cfg.basis)  # fills the Gram cache
        tracemalloc.start()
        try:
            stability_experiment(cfg.spec, cloud, (0.1, 0.05), u_k, 800, cfg.basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (grid.N + 1) * cloud.M * 8

    @pytest.mark.parametrize("d", [1, 2])
    def test_lockstep_passes_on_a_fresh_cloud_share_its_positions(self, d):
        """Passes on a fresh cloud read its positions, and hold no more than ``stability_budget``.

        The positions' checkpoints and segment buffer exist before the sweep,
        and every pass reads the one segment the sweep rebuilds, so no
        position row is allocated during the trace. A segment and checkpoints
        per pass, a full path, or one more row per pass exceed the budget.
        """
        spec = zero_problem(obstacle=SINE, brownian_dim=d)
        grid = TimeGrid(1.0, 100)
        cloud = simulate_forward(spec, grid, 4000, seed=3)
        u_k = mollify_obstacle(SINE, 20, grid)
        eps = (0.1, 0.05, 0.025)
        bound = stability_budget(spec, cloud, len(eps))
        tracemalloc.start()
        try:
            stability_experiment(spec, cloud, eps, u_k, 200, BASIS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("d", [1, 2])
    def test_lockstep_passes_hold_their_rows_and_one_scratch(self, d):
        """The base pass and six perturbed ones on a fresh cloud hold no more than ``stability_budget``."""
        spec = zero_problem(obstacle=SINE, brownian_dim=d)
        grid = TimeGrid(1.0, 100)
        cloud = simulate_forward(spec, grid, 4000, seed=3)
        u_k = mollify_obstacle(SINE, 20, grid)
        eps = (0.2, 0.1, 0.05, 0.025, -0.05, -0.1)
        bound = stability_budget(spec, cloud, len(eps))
        tracemalloc.start()
        try:
            stability_experiment(spec, cloud, eps, u_k, 200, BASIS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_more_perturbation_holds_one_y_row(self, d):
        # A pass's Z is the working block's until the next pass fits, and the
        # experiment copies the base pass's alone, so six more perturbations
        # hold six Y rows, their node arrays and result rows (about 1.1
        # rows), with under one row of slack; a Z row per pass would add
        # 6 d rows.
        budget = 6 + 2
        spec = zero_problem(obstacle=SINE, brownian_dim=d)
        grid = TimeGrid(1.0, 100)
        cloud = simulate_forward(spec, grid, 4000, seed=3)
        u_k = mollify_obstacle(SINE, 20, grid)
        solve_penalized(spec, u_k, 200, cloud, BASIS)  # fills the Gram cache
        peaks = []
        for eps in [(0.1, 0.05, 0.025), (0.2, 0.1, 0.05, 0.025, 0.0125, -0.025, -0.05, -0.1, -0.2)]:
            tracemalloc.start()
            try:
                stability_experiment(spec, cloud, eps, u_k, 200, BASIS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < budget * cloud.M * 8

    def test_each_node_design_is_built_once_for_all_passes(self, monkeypatch):
        builds, build_design = [], penalized.build_design

        def counted(*args):
            builds.append(1)
            return build_design(*args)

        monkeypatch.setattr(penalized, "build_design", counted)
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 2000, seed=3)
        u_k = mollify_obstacle(SINE, 20, GRID)
        stability_experiment(spec, cloud, (0.1, 0.05, 0.025), u_k, 200, BASIS)
        assert len(builds) == GRID.N
        builds.clear()
        solve_penalized(spec, u_k, 200, cloud, BASIS)
        solve_penalized(spec, u_k, 400, cloud, BASIS)
        assert len(builds) == 2 * GRID.N  # a pass on its own still builds every node's design

    def test_duplicate_epsilons_rejected(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 2000, seed=3)
        u_k = mollify_obstacle(SINE, 20, GRID)
        with pytest.raises(ValueError):
            stability_experiment(spec, cloud, (0.1, 0.1), u_k, 200, BASIS)

    @pytest.mark.parametrize(
        "perturbations",
        [(), (0.1, math.nan), (0.1, math.inf), (-math.inf,)],
        ids=["empty", "nan", "inf", "-inf"],
    )
    def test_empty_or_non_finite_perturbations_rejected_before_any_pass(self, monkeypatch, perturbations):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 2000, seed=3)
        u_k = mollify_obstacle(SINE, 20, GRID)

        def no_pass(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(penalized, "_fit", no_pass)  # every step of every pass fits
        with pytest.raises(ValueError):
            stability_experiment(spec, cloud, perturbations, u_k, 200, BASIS)


def sequential_ladder(spec, u_k, levels, cloud):
    """(record, solution) of one ``solve_penalized`` pass per level, one after another.

    The records are built as ``solve_reflected`` builds its trace.
    """
    ladder, prev_mean = [], None
    for n in levels:
        sol = solve_penalized(spec, u_k, n, cloud, BASIS)
        ladder.append((reflect._level_record(u_k, n, sol, prev_mean, 0.0, cloud.mean_kappa), sol))
        prev_mean = sol.mean_path
    return ladder


class TestRatesLadder:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "boundary",
        [None, BoundarySpec("linear-monotone", beta=-1.0)],
        ids=["zero-boundary", "linear-monotone"],
    )
    @pytest.mark.parametrize(
        "driver",
        [None, DriverSpec("affine", {"const": 0.2, "y": -0.5, "z": 0.3, "mean_y": 0.5})],
        ids=["zero-driver", "affine"],
    )
    def test_streamed_levels_equal_passes_on_full_arrays(self, driver, boundary, d):
        # the a-priori node moments are reduced as the rows appear; the
        # reference runs each level as a pass over full arrays
        spec = zero_problem(
            obstacle=SINE, driver=driver, boundary=boundary, kappa=KappaSpec("linear", rate=1.0), brownian_dim=d
        )
        cloud = simulate_forward(spec, GRID, 4000, seed=5)
        u_k = mollify_obstacle(SINE, 20, GRID)
        levels = (25, 50, 100, 200)
        records, last = penalty_sweep(spec, u_k, levels, cloud, BASIS)
        prev_mean = None
        for record, n in zip(records, levels, strict=True):
            full = full_pass(spec, u_k, n, cloud, BASIS)
            sup_sq, integral_sq = deficit_metrics(full.mean_path, u_k, cloud.mean_kappa)
            expected = LevelRecord(
                k=u_k.level,
                n=n,
                sup_deficit=math.sqrt(sup_sq),
                sup_neg_sq=sup_sq,
                integral_neg_sq=integral_sq,
                cauchy_mean_dist=None if prev_mean is None else float(np.max(np.abs(full.mean_path - prev_mean))),
                flatness_residual=flatness_residual(full.mean_path, u_k.values, full.K),
                wall_ms=0.0,
            )
            assert dataclasses.replace(record, wall_ms=0.0) == expected
            prev_mean = full.mean_path
        report = apriori_report(last, spec, cloud)
        assert full.K[-1] > 0.0  # the penalty fires
        assert report.compensator_terminal_sq == float(full.K[-1] ** 2)
        assert report.sup_mean_sq_y == float(np.max(np.mean(full.Y**2, axis=1)))
        assert report.integral_mean_sq_z == float(
            np.sum(np.mean(np.sum(full.Z[:-1] ** 2, axis=2), axis=1)) * GRID.dt
        )

    def ladder_setup(self):
        spec = zero_problem(obstacle=SINE)
        return spec, mollify_obstacle(SINE, 20, GRID), simulate_forward(spec, GRID, 2000, seed=5)

    def test_levels_may_come_from_a_generator(self):
        spec, u_k, cloud = self.ladder_setup()
        levels = (25, 50, 100)
        records, last = penalty_sweep(spec, u_k, (n for n in levels), cloud, BASIS)
        expected, expected_last = penalty_sweep(spec, u_k, levels, cloud, BASIS)
        assert [rec.n for rec in records] == list(levels)
        assert [dataclasses.replace(rec, wall_ms=0.0) for rec in records] == [
            dataclasses.replace(rec, wall_ms=0.0) for rec in expected
        ]
        assert apriori_report(last, spec, cloud) == apriori_report(expected_last, spec, cloud)

    def test_nan_level_rejected(self):
        spec, u_k, cloud = self.ladder_setup()
        with pytest.raises(ValueError, match="must be >= 0"):
            penalty_sweep(spec, u_k, (25, math.nan), cloud, BASIS)

    def test_no_levels_is_rejected_before_any_pass(self, monkeypatch):
        spec, u_k, cloud = self.ladder_setup()

        def no_pass(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(penalized, "_fit", no_pass)  # every step of every pass fits
        with pytest.raises(ValueError, match="at least one level"):
            penalty_sweep(spec, u_k, (), cloud, BASIS)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "boundary",
        [None, BoundarySpec("linear-monotone", beta=-1.0)],
        ids=["zero-boundary", "linear-monotone"],
    )
    def test_lockstep_sweep_equals_the_sequential_ladder_to_the_bit(self, boundary, d):
        # the sweep steps every level on one set of working rows and reduces
        # the moments of its last pass alone; the reference runs one whole
        # pass per level
        spec = zero_problem(
            obstacle=SINE,
            boundary=boundary,
            kappa=KappaSpec("linear", rate=1.0),
            driver=DriverSpec("affine", {"const": 0.2, "y": -0.5, "z": 0.3, "mean_y": 0.5}),
            brownian_dim=d,
        )
        cloud = simulate_forward(spec, GRID, 4000, seed=5)
        u_k = mollify_obstacle(SINE, 20, GRID)
        levels = (25, 50, 100, 200, 400, 800)
        ladder = sequential_ladder(spec, u_k, levels, cloud)
        records, last = penalty_sweep(spec, u_k, levels, cloud, BASIS)
        # repr tells every float apart, signed zeros included
        assert [repr(dataclasses.replace(rec, wall_ms=0.0)) for rec in records] == [
            repr(dataclasses.replace(rec, wall_ms=0.0)) for rec, _ in ladder
        ]
        assert all(rec.wall_ms > 0.0 for rec in records)
        assert last.K[-1] > 0.0  # the penalty fires
        for field in dataclasses.fields(last):
            got, want = getattr(last, field.name), getattr(ladder[-1][1], field.name)
            assert got == want if field.name == "grid" else np.array_equal(got, want), field.name
        assert last.Y.shape == (1, cloud.M)
        assert repr(apriori_report(last, spec, cloud)) == repr(apriori_report(ladder[-1][1], spec, cloud))

    def test_a_sweep_builds_each_node_design_once(self, monkeypatch):
        builds, build_design = [], penalized.build_design

        def counted(*args):
            builds.append(1)
            return build_design(*args)

        monkeypatch.setattr(penalized, "build_design", counted)
        spec, u_k, cloud = self.ladder_setup()
        levels = (25, 50, 100, 200, 400, 800)
        penalty_sweep(spec, u_k, levels, cloud, BASIS)
        assert len(builds) == GRID.N
        builds.clear()
        sequential_ladder(spec, u_k, levels, cloud)
        assert len(builds) == len(levels) * GRID.N  # one pass after another

    def test_a_sweep_rebuilds_each_positions_segment_once(self, monkeypatch):
        rebuilds, running_sum = [], paths._running_sum

        def counted(*args):
            rebuilds.append(1)
            return running_sum(*args)

        spec, u_k, cloud = self.ladder_setup()
        monkeypatch.setattr(paths, "_running_sum", counted)
        s = math.isqrt(GRID.N)
        segments = len({j // s for j in range(GRID.N)})  # the segments of nodes N-1, ..., 0
        assert GRID.N // s == (GRID.N - 1) // s  # node N's segment holds node N-1
        levels = (25, 50, 100, 200, 400, 800)
        # each later pass of the sequential ladder starts over at node N-1
        runs = [
            (lambda: penalty_sweep(spec, u_k, levels, cloud, BASIS), segments - 1, "sweep"),
            (lambda: sequential_ladder(spec, u_k, levels, cloud), len(levels) * segments - 1, "sequential"),
        ]
        for run, expected, name in runs:
            cloud.brownian[GRID.N]  # a pass starts in node N's segment
            rebuilds.clear()
            run()
            assert len(rebuilds) == expected, name

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_more_level_holds_one_y_row(self, d):
        # every level's Z is the working block's until the next level fits:
        # six more levels hold their six Y rows and their node arrays, less
        # than one row more; a Z row per level would add 6 d rows
        spec = zero_problem(obstacle=SINE, brownian_dim=d)
        grid = TimeGrid(1.0, 100)
        cloud = simulate_forward(spec, grid, 4000, seed=3)
        u_k = mollify_obstacle(SINE, 20, grid)
        peaks = []
        for levels in [(25, 50, 100), (25, 50, 100, 200, 400, 800, 1600, 3200, 6400)]:
            tracemalloc.start()
            try:
                penalty_sweep(spec, u_k, levels, cloud, BASIS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < (6 + 1) * cloud.M * 8

    def test_ladder_holds_less_than_one_solution_array(self):
        cfg = build_config({"preset": "BOUNDARY", "numerics": {"M": 4000, "N": 50}})
        grid = TimeGrid(cfg.spec.horizon, cfg.N)
        cloud = simulate_forward(cfg.spec, grid, cfg.M, seed=3)
        u_k = mollify_obstacle(cfg.spec.obstacle, 20, grid)
        levels = cfg.schedule.n_levels
        penalty_sweep(cfg.spec, u_k, levels, cloud, cfg.basis)  # fills the Gram cache
        tracemalloc.start()
        try:
            penalty_sweep(cfg.spec, u_k, levels, cloud, cfg.basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (grid.N + 1) * cloud.M * 8


class TestAprioriReport:
    def test_zero_problem_is_degenerate(self):
        spec = zero_problem(terminal=TerminalSpec("direct-sampler", mean=0.0, std=0.0,
                                                  declared_mean=0.0))
        cloud = simulate_forward(spec, GRID, 2000, seed=4)
        u_k = mollify_obstacle(ObstacleCurve("constant", value=-1.0), 20, GRID)
        sol = solve_penalized(spec, u_k, 100, cloud, BASIS)
        rep = apriori_report(sol, spec, cloud)
        assert rep.degenerate
        assert rep.sup_mean_sq_y + rep.integral_mean_sq_z == 0.0

    def test_sine_components_finite_and_ratio_recorded(self):
        spec = zero_problem(obstacle=SINE)
        cloud = simulate_forward(spec, GRID, 4000, seed=4)
        u_k = mollify_obstacle(SINE, 30, GRID)
        sol = solve_penalized(spec, u_k, 400, cloud, BASIS)
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
        rep = apriori_report(solve_penalized(spec, u_k, 400, cloud, BASIS), spec, cloud)
        full = full_pass(spec, u_k, 400, cloud, BASIS)
        assert full.Z.shape[2] == 2
        assert rep.sup_mean_sq_y == float(np.max(np.mean(full.Y**2, axis=1)))
        assert rep.integral_mean_sq_z == float(
            np.sum(np.mean(np.sum(full.Z[:-1] ** 2, axis=2), axis=1)) * GRID.dt
        )

    def test_ratio_stable_under_doubling_particles(self):
        spec = zero_problem(obstacle=SINE)
        u_k = mollify_obstacle(SINE, 30, GRID)
        ratios = []
        for m in (10_000, 20_000):
            cloud = simulate_forward(spec, GRID, m, seed=4)
            sol = solve_penalized(spec, u_k, 400, cloud, BASIS)
            ratios.append(apriori_report(sol, spec, cloud).ratio)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.2
