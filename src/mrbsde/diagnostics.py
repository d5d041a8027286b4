"""Measurable counterparts of the convergence and stability estimates.

Rates are asserted as log-log slope inequalities with explicit slack,
never as equalities: the theory gives one-sided bounds and actual decay is
often faster. The a-priori ratio is tracked without a threshold because
its constant is existence-theoretic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonPositiveError
from .mollify import SmoothObstacle
from .paths import ForwardCloud
from .penalized import PenalizedSolution, RegressionBasis, regression_operator, solve_penalized
from .problem import ProblemSpec, eval_driver


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log level, log error)."""

    slope: float
    intercept: float
    r_squared: float


def rate_fit(levels, errors) -> RateFit:
    """Fit log(error) against log(level); exact on power-law data."""
    levels = np.asarray(levels, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if levels.shape != errors.shape or levels.ndim != 1:
        raise LengthMismatch(f"levels {levels.shape} and errors {errors.shape} must match")
    if levels.size < 3:
        raise ValueError(f"need at least 3 levels, got {levels.size}")
    if np.any(errors <= 0.0):
        raise NonPositiveError("errors must be strictly positive to fit; level converged below noise floor")
    x = np.log(levels)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(float(slope), float(intercept), r2)


@dataclass(frozen=True)
class StabilityRow:
    epsilon: float
    sup_mean_sq_dy: float
    integral_mean_sq_dz: float


def stability_experiment(
    spec: ProblemSpec,
    cloud: ForwardCloud,
    perturbations,
    u_k: SmoothObstacle,
    n: float,
    basis: RegressionBasis,
) -> tuple[StabilityRow, ...]:
    """Measure the solution shift under terminal perturbations xi -> xi + epsilon.

    Each epsilon pairs the base run with a perturbed run on the same cloud
    (common random numbers), so the reported differences isolate the
    perturbation; every run shares one regression operator. Rows are
    sorted by epsilon.
    """
    eps_list = sorted(float(e) for e in perturbations)
    if len(set(eps_list)) != len(eps_list):
        raise ValueError("perturbation values must be distinct")

    operator = regression_operator(cloud, basis)
    base = solve_penalized(spec, u_k, n, cloud, operator)
    dt = cloud.grid.dt
    rows = []
    for eps in eps_list:
        pert = solve_penalized(spec, u_k, n, cloud.with_terminal(cloud.xi + eps), operator)
        # Node by node, so no full-size difference array is ever formed.
        mean_sq_dy = [np.mean((py - by) ** 2) for py, by in zip(pert.Y, base.Y)]
        mean_sq_dz = [np.mean(np.sum((pz - bz) ** 2, axis=1)) for pz, bz in zip(pert.Z[:-1], base.Z[:-1])]
        del pert  # the next perturbed pass must not run while this one is alive
        rows.append(
            StabilityRow(
                epsilon=eps,
                sup_mean_sq_dy=float(np.max(mean_sq_dy)),
                integral_mean_sq_dz=float(np.sum(mean_sq_dz) * dt),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class AprioriReport:
    """Both sides of the a-priori energy inequality, tracked without a threshold."""

    sup_mean_sq_y: float
    integral_mean_sq_z: float
    terminal_sq: float
    integral_f_origin_sq: float
    integral_psi_sq_dkappa: float
    compensator_terminal_sq: float
    ratio: float
    degenerate: bool


def apriori_report(solution: PenalizedSolution, spec: ProblemSpec, cloud: ForwardCloud) -> AprioriReport:
    """Sample both sides of the energy bound; the ratio is a regression metric."""
    grid = solution.grid
    dt = grid.dt
    times = grid.times
    d = cloud.d

    # Node by node, so no full-size squared array is ever formed.
    sup_y2 = float(np.max([np.mean(y**2) for y in solution.Y]))
    int_z2 = float(np.sum([np.mean(np.sum(z**2, axis=1)) for z in solution.Z[:-1]]) * dt)
    e_xi2 = float(np.mean(cloud.xi**2))
    f0 = eval_driver(
        spec.driver, times[:-1], np.zeros(grid.N), np.zeros((grid.N, d)), 0.0, np.zeros(d)
    )
    int_f0 = float(np.sum(np.asarray(f0) ** 2) * dt)
    int_psi = float(spec.boundary.psi**2 * cloud.mean_kappa[-1])
    k_t2 = float(solution.K[-1] ** 2)

    rhs = e_xi2 + int_f0 + int_psi + k_t2
    lhs = sup_y2 + int_z2
    degenerate = rhs == 0.0
    ratio = float("nan") if degenerate else lhs / rhs
    return AprioriReport(
        sup_mean_sq_y=sup_y2,
        integral_mean_sq_z=int_z2,
        terminal_sq=e_xi2,
        integral_f_origin_sq=int_f0,
        integral_psi_sq_dkappa=int_psi,
        compensator_terminal_sq=k_t2,
        ratio=ratio,
        degenerate=degenerate,
    )
