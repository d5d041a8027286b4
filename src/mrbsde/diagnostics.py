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
from .penalized import (
    PenalizedSolution,
    RegressionBasis,
    _in_workers,
    _lockstep,
    _mean_sq_norm,
    _split,
    _worker_count,
)
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
    workers: int = 1,
) -> tuple[StabilityRow, ...]:
    """Measure the solution shift under terminal perturbations xi -> xi + epsilon.

    Each epsilon pairs the base run with a perturbed run on the same cloud
    (common random numbers), so the reported differences isolate the
    perturbation; every run shares the cloud's cached Gram matrices. The
    sorted epsilons run in ``workers`` processes at most (0: one per CPU),
    each taking a contiguous group of them; this process runs the last
    group. In each group the base pass and the group's perturbed passes step
    backward in lockstep, the base pass first at each step, each in its own
    Y row from its own terminal row xi + epsilon, taking turns in one
    working block and on one node design built once per node and worker.
    The base pass's Z is copied from the block once per node; the per-node
    moments of the differences are taken as each perturbed pass yields its
    step, in one Y and one Z difference row, so no full solution is held; no
    pass reduces its own moments. Rows sort by epsilon.
    """
    eps_list = sorted(float(e) for e in perturbations)
    if not eps_list or not np.all(np.isfinite(eps_list)):
        raise ValueError("the stability experiment needs at least one perturbation, all finite")
    if len(set(eps_list)) != len(eps_list):
        raise ValueError("perturbation values must be distinct")

    groups = _split(eps_list, _worker_count(workers, len(eps_list)))
    moments = _in_workers(lambda group: _difference_moments(spec, cloud, group, u_k, n, basis), groups)
    mean_sq_dy, mean_sq_dz = (np.concatenate(rows) for rows in zip(*moments))
    dt = cloud.grid.dt
    return tuple(
        StabilityRow(
            epsilon=eps,
            sup_mean_sq_dy=float(np.max(dy)),
            integral_mean_sq_dz=float(np.sum(dz) * dt),
        )
        for eps, dy, dz in zip(eps_list, mean_sq_dy, mean_sq_dz)
    )


def _difference_moments(spec, cloud, eps_list, u_k, n, basis):
    """Per-node E|dY|^2 and E|dZ|^2 rows of each of ``eps_list``'s perturbed passes against the base pass.

    Stored by node, so the max and the sum run in forward node order.
    """
    N, M, d = cloud.grid.N, cloud.M, cloud.d
    # The base pass (no shift), then each perturbed one.
    sweep = _lockstep(spec, u_k, cloud, basis, [(n, eps) for eps in [None, *eps_list]])

    mean_sq_dy = np.empty((len(eps_list), N + 1))
    mean_sq_dz = np.empty((len(eps_list), N))
    dy, dz, base_z = np.empty(M), np.empty((M, d)), np.empty((M, d))
    for j, i, y, z in sweep:
        if i == 0:
            base_y = y  # the base pass's row holds Y_j until its next step
            if z is not None:
                base_z[...] = z
            continue
        np.subtract(y, base_y, out=dy)
        mean_sq_dy[i - 1, j] = np.add.reduce(np.square(dy, out=dy)) / M
        if z is not None:
            mean_sq_dz[i - 1, j] = _mean_sq_norm(np.subtract(z, base_z, out=dz), dy)
    return mean_sq_dy, mean_sq_dz


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
    """Sample both sides of the energy bound from the pass's node moments; the ratio is a regression metric."""
    grid, dt, d = cloud.grid, cloud.grid.dt, cloud.d
    sup_y2 = float(np.max(solution.mean_y2))
    int_z2 = float(np.sum(solution.mean_z2) * dt)
    e_xi2 = float(np.mean(cloud.xi**2))
    f0 = eval_driver(
        spec.driver, grid.times[:-1], np.zeros(grid.N), np.zeros((grid.N, d)), 0.0, np.zeros(d)
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
