"""Acceptance suite: every criterion at its stated tolerance, desk scale.

Each criterion prints one PASS/FAIL line (run with -s to stream them).
Heavy solves are shared through session fixtures; every numerical
comparison uses the tolerance stated up front, nothing is calibrated
after the fact.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from mrbsde import (
    ObstacleCurve,
    TimeGrid,
    deficit_metrics,
    mollify_obstacle,
    rate_fit,
    reference_paths,
    simulate_forward,
    solve_penalized,
    solve_reflected,
    stability_experiment,
)
from mrbsde.cli import build_config, main
from tests.util import full_pass, mean_path_consistent, regression_statistics

PRESET_NAMES = ("SINE", "AFFINE", "BOUNDARY", "ZDRIFT")
LADDER = (25, 50, 100, 200, 400, 800)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def closed_form_on_grid(spec, grid: TimeGrid):
    mean, K, kind = reference_paths(spec, grid)
    assert kind == "running-maximum closed form"
    return mean, K


@pytest.fixture(scope="session")
def preset_runs():
    """Default-schedule reflected solves for all four presets at seed 7."""
    runs = {}
    for name in PRESET_NAMES:
        cfg = build_config({"preset": name})
        grid = TimeGrid(cfg.spec.horizon, cfg.N)
        cloud = simulate_forward(cfg.spec, grid, cfg.M, cfg.seed)
        refl = solve_reflected(cfg.spec, cloud, cfg.schedule, cfg.basis)
        runs[name] = (cfg, cloud, refl)
    return runs


@pytest.fixture(scope="session")
def sine_setup():
    cfg = build_config({"preset": "SINE"})
    grid = TimeGrid(1.0, cfg.N)
    cloud = simulate_forward(cfg.spec, grid, cfg.M, 7)
    return cfg, grid, cloud


def test_criterion_1_sine_closed_form(sine_setup):
    cfg, grid, cloud = sine_setup
    doc = {"preset": "SINE", "schedule": {"n_levels": [1000], "k_levels": [50],
                                          "deficit_tol": 0.02, "cauchy_tol": 0.004}}
    run_cfg = build_config(doc)
    refl = solve_reflected(run_cfg.spec, cloud, run_cfg.schedule, run_cfg.basis)
    mean_star, k_star = closed_form_on_grid(run_cfg.spec, grid)
    assert abs(k_star[-1] - 0.5) < 1e-9
    assert abs(k_star[75] - 0.14644660940672627) < 1e-6
    mean_gap = float(np.max(np.abs(refl.solution.mean_path - mean_star)))
    k_gap = float(np.max(np.abs(refl.K - k_star)))
    ok = report(
        "C1 sine closed form",
        mean_gap <= 0.02 and k_gap <= 0.02,
        f"mean gap {mean_gap:.4f} <= 0.02, K gap {k_gap:.4f} <= 0.02 "
        f"(M=20000, N=100, n=1000, k=50, seed=7)",
    )
    assert ok


def test_criterion_2_reflected_ode_oracle(preset_runs):
    gaps = {}
    for name in ("AFFINE", "BOUNDARY"):
        cfg, _, refl = preset_runs[name]
        mean_ref, _, kind = reference_paths(cfg.spec, refl.solution.grid)
        assert kind == "self-refined penalized mean equation"
        gaps[name] = float(np.max(np.abs(refl.solution.mean_path - mean_ref)))
    ok = report(
        "C2 reflected-ODE oracle",
        all(g <= 0.03 for g in gaps.values()),
        ", ".join(f"{k} mean gap {v:.4f} <= 0.03" for k, v in gaps.items()),
    )
    assert ok


@pytest.fixture(scope="session")
def sine_ladder(sine_setup):
    """Penalty ladder on one SINE cloud at fixed mollification level."""
    cfg, grid, cloud = sine_setup
    u_k = mollify_obstacle(cfg.spec.obstacle, 40, grid)
    sup_vals, int_vals, cauchy_vals = [], [], []
    prev = None
    for n in LADDER:
        sol = solve_penalized(cfg.spec, u_k, n, cloud, cfg.basis)
        sup_sq, int_sq = deficit_metrics(sol.mean_path, u_k, cloud.mean_kappa)
        sup_vals.append(sup_sq)
        int_vals.append(int_sq)
        if prev is not None:
            cauchy_vals.append(float(np.max(np.abs(sol.mean_path - prev))))
        prev = sol.mean_path
    return sup_vals, int_vals, cauchy_vals


def test_criterion_3_penalty_error_rates(sine_ladder):
    sup_vals, int_vals, _ = sine_ladder
    sup_fit = rate_fit(LADDER, sup_vals)
    int_fit = rate_fit(LADDER, int_vals)
    ok = report(
        "C3 penalty error rates",
        sup_fit.slope <= -0.8
        and sup_fit.r_squared >= 0.9
        and int_fit.slope <= -1.6
        and int_fit.r_squared >= 0.9,
        f"sup slope {sup_fit.slope:.2f} <= -0.8 (R2 {sup_fit.r_squared:.3f}), "
        f"integral slope {int_fit.slope:.2f} <= -1.6 (R2 {int_fit.r_squared:.3f})",
    )
    assert ok


def test_penalty_levels_approach_the_infinite_level(sine_setup):
    # On the C3 cloud and obstacle, the ladder's mean paths close in on the
    # n = inf pass at least as fast as C4 asks of their Cauchy distances.
    cfg, grid, cloud = sine_setup
    u_k = mollify_obstacle(cfg.spec.obstacle, 40, grid)
    limit = solve_penalized(cfg.spec, u_k, math.inf, cloud, cfg.basis).mean_path
    dists = [float(np.max(np.abs(solve_penalized(cfg.spec, u_k, n, cloud, cfg.basis).mean_path - limit)))
             for n in LADDER]
    fit = rate_fit(LADDER, dists)
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert fit.slope <= -0.45 and fit.r_squared >= 0.9


def test_criterion_4_cauchy_rate(sine_ladder):
    _, _, cauchy_vals = sine_ladder
    fit = rate_fit(LADDER[: len(cauchy_vals)], cauchy_vals)
    ok = report(
        "C4 level Cauchy rate",
        fit.slope <= -0.45 and fit.r_squared >= 0.9,
        f"slope {fit.slope:.2f} <= -0.45 (R2 {fit.r_squared:.3f})",
    )
    assert ok


def test_criterion_5_flatness(preset_runs):
    residuals = {name: preset_runs[name][2].trace[-1].flatness_residual for name in PRESET_NAMES}
    ok = report(
        "C5 flatness",
        all(abs(r) <= 5e-3 for r in residuals.values()),
        ", ".join(f"{k} {v:+.1e}" for k, v in residuals.items()) + " (|.| <= 5e-3)",
    )
    assert ok


def test_criterion_6_reflection(preset_runs):
    deficits = {}
    for name in PRESET_NAMES:
        _, _, refl = preset_runs[name]
        deficits[name] = float(np.max(np.maximum(refl.obstacle.values - refl.solution.mean_path, 0.0)))
    ok = report(
        "C6 reflection",
        all(d <= 0.02 for d in deficits.values()),
        ", ".join(f"{k} {v:.4f}" for k, v in deficits.items()) + " (<= 0.02)",
    )
    assert ok


def test_criterion_7_seed_independence(preset_runs, sine_setup):
    cfg, grid, _ = sine_setup
    _, _, refl7 = preset_runs["SINE"]
    cloud8 = simulate_forward(cfg.spec, grid, cfg.M, 8)
    refl8 = solve_reflected(cfg.spec, cloud8, cfg.schedule, cfg.basis)
    bound = 10.0 / np.sqrt(cfg.M)
    mean_gap = float(np.max(np.abs(refl7.solution.mean_path - refl8.solution.mean_path)))
    k_gap = float(np.max(np.abs(refl7.K - refl8.K)))
    ok = report(
        "C7 seed independence",
        mean_gap <= bound and k_gap <= bound,
        f"mean gap {mean_gap:.4f}, K gap {k_gap:.4f} (<= {bound:.4f})",
    )
    assert ok


def test_criterion_8_stability_scaling(sine_setup):
    cfg, grid, cloud = sine_setup
    u_k = mollify_obstacle(cfg.spec.obstacle, 40, grid)
    rows = stability_experiment(cfg.spec, cloud, (0.1, 0.05, 0.025), u_k, 800, cfg.basis)
    fit = rate_fit([r.epsilon for r in rows], [r.sup_mean_sq_dy for r in rows])
    ok = report(
        "C8 stability scaling",
        1.7 <= fit.slope <= 2.3,
        f"log-log slope {fit.slope:.3f} in [1.7, 2.3]",
    )
    assert ok


def test_criterion_9_mollifier_convergence():
    grid = TimeGrid(1.0, 100)
    kink = ObstacleCurve("abs", center=0.5)
    gaps = {k: mollify_obstacle(kink, k, grid).sup_gap for k in (10, 20, 40, 80)}
    const = mollify_obstacle(ObstacleCurve("constant", value=-1.3), 9, grid)
    const_err = float(np.max(np.abs(const.values + 1.3)))
    ok = report(
        "C9 mollifier convergence",
        all(gaps[k] <= 1.0 / k for k in gaps) and const_err <= 1e-12,
        ", ".join(f"gap(k={k})={gaps[k]:.4f}<=1/{k}" for k in gaps)
        + f"; constant error {const_err:.1e} <= 1e-12",
    )
    assert ok


def test_criterion_10_z_path_sanity(preset_runs):
    cfg, cloud, refl = preset_runs["ZDRIFT"]
    grid = refl.solution.grid
    # mean-path comparison against the drifting running-maximum solution
    mean_star, _ = closed_form_on_grid(cfg.spec, grid)
    mean_gap = float(np.max(np.abs(refl.solution.mean_path - mean_star)))
    mean_ok = mean_gap <= 0.03

    # E[Z_t] consistency: with an intercept in the basis the estimator is the
    # sample mean of the integrand regression targets, so its CLT scale is the
    # targets' std / sqrt(M). Rows 0..N-1 are the regression nodes; the
    # terminal row copies row N-1 and carries no information of its own. The
    # targets come from the accepted level's pass rerun on the same cloud with
    # every row kept.
    rerun = full_pass(cfg.spec, refl.obstacle, refl.trace[-1].n, cloud, cfg.basis)
    assert np.array_equal(rerun.mean_path, refl.solution.mean_path)
    std = regression_statistics(rerun, cloud, cfg.basis)[2][:, 0]
    z_mean = refl.solution.mean_z[: std.size, 0]
    z = mean_path_consistent(z_mean, std / np.sqrt(cfg.M), 1.0, 0.9973)

    ok = report(
        "C10 Z-path sanity",
        mean_ok and z.ok,
        f"mean gap {mean_gap:.4f} <= 0.03 ({'ok' if mean_ok else 'FAIL'}); "
        f"E[Z] = 1 at {z.nodes} nodes: max|s| {z.max_abs:.2f} <= {z.z_star:.2f}, "
        f"sum s^2 {z.sum_sq:.1f} <= {z.chi2_bound:.1f} ({'ok' if z.ok else 'FAIL'})",
    )
    # alpha = 1 - 0.9973 is split evenly over the whole criterion: z* = Phi^-1(1 - a/2)
    # with a = 1 - (1 - alpha/2)^(1/N) (Sidak), chi^2 bound = chi^2_N quantile 1 - alpha/2.
    assert ok


def test_criterion_10_decision_can_fail():
    se = np.ones(100)
    s = np.tile([1.0, -1.0], 50)
    assert mean_path_consistent(1.0 + s, se, 1.0, 0.9973).ok
    outlier = s.copy()
    outlier[37] = 4.5
    v = mean_path_consistent(1.0 + outlier, se, 1.0, 0.9973)
    assert v.sum_sq <= v.chi2_bound and v.max_abs > v.z_star and not v.ok
    v = mean_path_consistent(2.0 + s, se, 1.0, 0.9973)
    assert v.max_abs <= v.z_star and v.sum_sq > v.chi2_bound and not v.ok


def _strip_wall_ms(path: Path):
    lines = path.read_bytes().decode().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_criterion_11_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    jobs = [("solve", name) for name in PRESET_NAMES] + [("rates", "SINE")]
    identical = True
    details = []
    for subcommand, preset in jobs:
        outs = {}
        for threads in (1, 4):
            out = root / f"{subcommand}-{preset}-t{threads}"
            rc = main(
                [subcommand, "--preset", preset, "--threads", str(threads), "--out", str(out)]
            )
            assert rc == 0
            outs[threads] = out
        same = True
        for fname in ("mean_path.csv", "report.json"):
            a, b = outs[1] / fname, outs[4] / fname
            if a.exists() != b.exists():
                same = False
            elif a.exists() and a.read_bytes() != b.read_bytes():
                same = False
        conv_a, conv_b = outs[1] / "convergence.csv", outs[4] / "convergence.csv"
        if conv_a.exists() and _strip_wall_ms(conv_a) != _strip_wall_ms(conv_b):
            same = False
        identical &= same
        details.append(f"{subcommand}/{preset}: {'identical' if same else 'DIFFER'}")
    ok = report(
        "C11 determinism",
        identical,
        "threads {1,4} byte-compare (wall_ms timing column excluded): " + "; ".join(details),
    )
    assert ok
