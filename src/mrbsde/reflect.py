"""Outer convergence loop over penalty and mollification levels.

Every penalty level at a fixed mollification level reuses one particle
cloud, so level-to-level differences measure the penalty parameter rather
than Monte Carlo noise. The mollification loop sits outside and stops once
the smooth obstacle is close enough to the raw one; the penalty loop sits
inside and stops on the deficit and mean-path Cauchy tolerances.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NotConverged
from .mollify import SmoothObstacle, mollify_obstacle
from .paths import ForwardCloud, TimeGrid
from .penalized import (
    PenalizedSolution,
    RegressionBasis,
    RegressionOperator,
    regression_operator,
    solve_penalized,
)
from .problem import ProblemSpec


@dataclass(frozen=True)
class ConvergenceSchedule:
    """Level ladders and stopping tolerances for the outer loop."""

    n_levels: tuple = (25, 50, 100, 200, 400, 800)
    k_levels: tuple[int, ...] = (10, 20, 40)
    deficit_tol: float = 0.02
    cauchy_tol: float = 0.004

    def __post_init__(self):
        object.__setattr__(self, "n_levels", tuple(self.n_levels))
        object.__setattr__(self, "k_levels", tuple(self.k_levels))
        if not self.n_levels or not self.k_levels:
            raise ValueError("schedules must be non-empty")
        if not all(n >= 0 for n in self.n_levels):
            raise ValueError("penalty levels n must be >= 0")
        if not all(k >= 1 for k in self.k_levels):
            raise ValueError("smoothing levels k must be >= 1")
        if any(b <= a for a, b in zip(self.n_levels, self.n_levels[1:])):
            raise ValueError("n schedule must be strictly increasing")
        if any(b <= a for a, b in zip(self.k_levels, self.k_levels[1:])):
            raise ValueError("k schedule must be strictly increasing")


@dataclass(frozen=True)
class LevelRecord:
    """Per-(k, n) convergence trace entry.

    ``sup_deficit`` ranges over the left-endpoint nodes the penalty acts
    on; the terminal node's deficit is a mollification-level artifact that
    only the k loop can shrink.
    """

    k: int
    n: float
    sup_deficit: float
    sup_neg_sq: float
    integral_neg_sq: float
    cauchy_mean_dist: float | None
    flatness_residual: float
    wall_ms: float


@dataclass(frozen=True)
class CompensatorRecovery:
    """Recovered compensator path plus any monotonicity warnings."""

    K: np.ndarray
    warnings: tuple


@dataclass(frozen=True)
class ReflectedSolution:
    """Accepted limit of the level iteration."""

    solution: PenalizedSolution
    obstacle: SmoothObstacle
    K: np.ndarray
    trace: tuple
    warnings: tuple

    @property
    def Y(self) -> np.ndarray:
        return self.solution.Y

    @property
    def Z(self) -> np.ndarray:
        return self.solution.Z

    @property
    def mean_path(self) -> np.ndarray:
        return self.solution.mean_path

    @property
    def grid(self) -> TimeGrid:
        return self.solution.grid


def flatness_residual(mean_path: np.ndarray, u_values: np.ndarray, K: np.ndarray) -> float:
    """Discrete Stieltjes sum sum_j (ybar_j - u_j) (K_{j+1} - K_j)."""
    mean_path = np.asarray(mean_path, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    K = np.asarray(K, dtype=float)
    if mean_path.shape != u_values.shape or mean_path.shape != K.shape:
        raise LengthMismatch(
            f"grid mismatch: mean {mean_path.shape}, u {u_values.shape}, K {K.shape}"
        )
    return float(np.sum((mean_path[:-1] - u_values[:-1]) * np.diff(K)))


def deficit_metrics(
    solution: PenalizedSolution, u_k: SmoothObstacle, mean_kappa: np.ndarray
) -> tuple[float, float]:
    """Sup and weighted-integral squares of the mean path's obstacle deficit.

    Returns (sup_j |y^-(t_j)|^2, sum_j |y^-(t_j)|^2 (dt + d mean_kappa_j)).
    Both range over the left-endpoint nodes j < N, the nodes the penalty
    measure touches: the terminal node carries the raw terminal-vs-obstacle
    datum, which no penalty level can move and which the bound under test
    has zero by its terminal condition.
    """
    mean_kappa = np.asarray(mean_kappa, dtype=float)
    if u_k.values.shape != solution.mean_path.shape or mean_kappa.shape != solution.mean_path.shape:
        raise LengthMismatch("solution, obstacle and mean_kappa must share the grid")
    neg = np.maximum(u_k.values[:-1] - solution.mean_path[:-1], 0.0)
    weights = solution.grid.dt + np.diff(mean_kappa)
    sup_sq = float(np.max(neg**2))
    integral_sq = float(np.sum(neg**2 * weights))
    return sup_sq, integral_sq


def recover_compensator(solution: PenalizedSolution) -> CompensatorRecovery:
    """Recover K from the mean path and the run's own drift averages.

    K_t = E[Y_0] - E[Y_t] - int_0^t E[f] ds - int_0^t E[g dkappa], with the
    expectations exactly as the backward pass evaluated them (stored per
    step in the solution), discretized with left endpoints. Monotonicity
    violations beyond tolerance are reported as warnings, never clipped.
    """
    mean = solution.mean_path
    drift_cum = np.concatenate([[0.0], np.cumsum(solution.mean_f_dt + solution.mean_g_dkappa)])
    K = mean[0] - mean - drift_cum
    K = K - K[0]  # exact zero at t_0 regardless of round-off
    warnings = []
    tol = 1e-8 * (1.0 + abs(float(K[-1])))
    drops = np.diff(K)
    worst = float(drops.min()) if drops.size else 0.0
    if worst < -tol:
        j = int(np.argmin(drops))
        warnings.append(
            f"recovered compensator decreases by {-worst:.3g} at step {j} (tolerance {tol:.3g})"
        )
    return CompensatorRecovery(K=K, warnings=tuple(warnings))


def penalty_ladder(
    spec: ProblemSpec,
    u_k: SmoothObstacle,
    n_levels,
    cloud: ForwardCloud,
    operator: RegressionOperator,
) -> Iterator[tuple[LevelRecord, PenalizedSolution]]:
    """Solve the penalized equation at each level n against u_k, yielding (record, solution).

    ``wall_ms`` times the backward pass alone; the Cauchy distance is to
    the previous level's mean path. The caller stops the ladder by leaving
    the loop: no level runs before it is asked for. Every level shares the
    caller's regression operator for ``cloud``.
    """
    prev_mean = None
    for n in n_levels:
        t0 = time.perf_counter()
        sol = solve_penalized(spec, u_k, n, cloud, operator)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        sup_sq, integral_sq = deficit_metrics(sol, u_k, cloud.mean_kappa)
        cauchy = float(np.max(np.abs(sol.mean_path - prev_mean))) if prev_mean is not None else None
        prev_mean = sol.mean_path
        record = LevelRecord(
            k=u_k.level,
            n=n,
            sup_deficit=math.sqrt(sup_sq),
            sup_neg_sq=sup_sq,
            integral_neg_sq=integral_sq,
            cauchy_mean_dist=cauchy,
            flatness_residual=flatness_residual(sol.mean_path, u_k.values, sol.K),
            wall_ms=wall_ms,
        )
        yield record, sol
        del sol  # a level the caller has dropped must not outlive it into the next pass


def solve_reflected(
    spec: ProblemSpec,
    cloud: ForwardCloud,
    schedule: ConvergenceSchedule,
    basis: RegressionBasis,
    quad_points: int = 64,
) -> ReflectedSolution:
    """Iterate penalty levels inside mollification levels until tolerance.

    The penalty loop at fixed k stops when the sup deficit against u^k is
    below deficit_tol and, once two levels exist, consecutive mean paths
    are cauchy_tol-close. The mollification loop stops when the smooth
    obstacle is within deficit_tol / 2 of the raw obstacle in sup norm.
    Raises NotConverged (with the trace attached) when a ladder runs out.
    One regression operator serves every level of both loops.
    """
    operator = regression_operator(cloud, basis)
    trace: list[LevelRecord] = []
    for k in schedule.k_levels:
        u_k = mollify_obstacle(spec.obstacle, k, cloud.grid, quad_points)
        for record, sol in penalty_ladder(spec, u_k, schedule.n_levels, cloud, operator):
            trace.append(record)
            if record.cauchy_mean_dist is not None:
                cauchy_ok = record.cauchy_mean_dist <= schedule.cauchy_tol
            else:
                # No pair to measure yet. A run whose penalty never fired is
                # exactly level-independent; a single-level schedule has no
                # pair by construction.
                cauchy_ok = sol.K[-1] == 0.0 or len(schedule.n_levels) == 1
            if record.sup_deficit <= schedule.deficit_tol and cauchy_ok:
                break
            del sol  # a rejected level's arrays are freed before the next pass
        else:
            raise NotConverged(
                f"penalty ladder exhausted at k={k} above tolerance "
                f"(deficit {schedule.deficit_tol:.3g}, cauchy {schedule.cauchy_tol:.3g})",
                trace=tuple(trace),
            )
        if u_k.sup_gap <= schedule.deficit_tol / 2.0:
            break
        del sol
    else:
        raise NotConverged(
            f"mollification ladder exhausted with obstacle gap {u_k.sup_gap:.3g} "
            f"above {schedule.deficit_tol / 2.0:.3g}",
            trace=tuple(trace),
        )

    recovery = recover_compensator(sol)
    return ReflectedSolution(
        solution=sol,
        obstacle=u_k,
        K=recovery.K,
        trace=tuple(trace),
        warnings=recovery.warnings,
    )
