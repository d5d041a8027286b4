"""Shared builders and statistical checks for the test suite."""

import math
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from mrbsde import (
    BoundarySpec,
    DriverSpec,
    KappaSpec,
    ObstacleCurve,
    ProblemSpec,
    TerminalSpec,
)
from mrbsde import penalized


def zero_problem(obstacle=None, terminal=None, boundary=None, driver=None, kappa=None, **kw):
    """Drift-free scalar problem with a standard-normal terminal draw."""
    kw.setdefault("brownian_dim", 1)
    kw.setdefault("horizon", 1.0)
    return ProblemSpec(
        driver=driver or DriverSpec("zero"),
        boundary=boundary or BoundarySpec("zero", beta=-1.0),
        terminal=terminal or TerminalSpec("direct-sampler", mean=0.0, std=1.0, declared_mean=0.0),
        obstacle=obstacle or ObstacleCurve("constant", value=-1.0),
        kappa=kappa or KappaSpec("zero"),
        **kw,
    )


class FullPass(NamedTuple):
    """Every particle row of one backward pass, as :func:`full_pass` returns it."""

    Y: np.ndarray  # (N+1, M)
    Z: np.ndarray  # (N+1, M, d), the terminal row copied from step N-1
    mean_path: np.ndarray
    K: np.ndarray
    mean_f_dt: np.ndarray
    mean_g_dkappa: np.ndarray


def full_pass(spec, u_k, n, cloud, basis) -> FullPass:
    """The solver's backward pass at level n with every row kept.

    Copies each Y row and Z view that ``penalized._lockstep`` yields for the
    pass into full (N+1, M) Y and (N+1, M, d) Z arrays, so its rows are the
    rows ``solve_penalized`` steps through, by construction; only the
    per-particle checks need them.
    """
    N, M, d = cloud.grid.N, cloud.M, cloud.d
    Y, Z = np.empty((N + 1, M)), np.empty((N + 1, M, d))

    def keep(j, i, y, z):
        Y[j] = y
        if z is not None:  # no Z at node N
            Z[j] = z

    [sol], _ = drive(penalized._lockstep(spec, u_k, cloud, basis, [(n, None)]), keep)
    Z[N] = Z[N - 1]
    return FullPass(Y, Z, sol.mean_path, sol.K, sol.mean_f_dt, sol.mean_g_dkappa)


def drive(sweep, each):
    """Run a ``penalized._lockstep`` sweep, calling ``each(j, i, Y_j, Z_j)`` at every yield; return what the sweep returns."""
    while True:
        try:
            step = next(sweep)
        except StopIteration as done:
            return done.value
        each(*step)


def refit(cloud, basis, j, targets):
    """Fitted values and coefficients of ``targets`` on step j's design, as a backward step fits them.

    The fit overwrites a copy of ``targets`` in a working block of the
    layout a backward step fits in.
    """
    design = penalized._build_node_design(cloud, basis, j)
    work = penalized._working_block(np.shape(targets), basis.size(cloud.d))
    work[...] = targets
    return penalized._fit(cloud, basis, j, work, design)


class MeanPathVerdict(NamedTuple):
    """Outcome of :func:`mean_path_consistent`."""

    max_abs: float  # max_j |s_j|
    z_star: float  # simultaneous two-sided bound on |s_j|
    sum_sq: float  # sum_j s_j^2
    chi2_bound: float  # upper chi-square quantile for sum_sq
    nodes: int
    ok: bool


def mean_path_consistent(means, std_errors, truth, confidence: float) -> MeanPathVerdict:
    """Test that independent node estimates are all consistent with ``truth``.

    With s_j = (means_j - truth) / std_errors_j approximately i.i.d. N(0, 1)
    under the null, the false-alarm rate 1 - confidence is split evenly
    between two checks so that it holds for the whole family of nodes:
    max_j |s_j| <= z* (Sidak-corrected two-sided normal quantile over the
    nodes), which catches an isolated outlier, and sum_j s_j^2 <= the upper
    chi-square quantile with one degree of freedom per node (Wilson-Hilferty
    approximation), which catches a small bias shared by every node.
    """
    s = (np.asarray(means, dtype=float) - truth) / np.asarray(std_errors, dtype=float)
    n = s.size
    alpha = (1.0 - confidence) / 2.0  # per check
    per_node = -math.expm1(math.log1p(-alpha) / n)  # Sidak: 1 - (1 - alpha)^(1/n)
    z_star = NormalDist().inv_cdf(1.0 - per_node / 2.0)
    q = NormalDist().inv_cdf(1.0 - alpha)
    h = 2.0 / (9.0 * n)
    chi2_bound = n * (1.0 - h + q * math.sqrt(h)) ** 3
    max_abs = float(np.max(np.abs(s)))
    sum_sq = float(s @ s)
    return MeanPathVerdict(
        max_abs, z_star, sum_sq, chi2_bound, n, max_abs <= z_star and sum_sq <= chi2_bound
    )


def regression_statistics(sol, cloud, basis):
    """Per-step regression statistics of a :func:`full_pass`, recomputed after it.

    Refits step j's stacked targets [Y_{j+1} dB_j / dt, Y_{j+1}] exactly as
    the pass did and returns (residual_y (N,), residual_z (N,),
    z_target_std (N, d)): the rms residuals of the value and integrand
    targets and the sample std of the integrand targets.
    """
    d, dt = cloud.d, cloud.grid.dt
    residual_y, residual_z, z_target_std = [], [], []
    for j in range(cloud.grid.N):
        z_targets = sol.Y[j + 1][:, None] * cloud.dB[j] / dt
        stacked = np.column_stack([z_targets, sol.Y[j + 1]])
        resid = stacked - refit(cloud, basis, j, stacked)[0]
        residual_z.append(np.sqrt(np.mean(resid[:, :d] ** 2)))
        residual_y.append(np.sqrt(np.mean(resid[:, d] ** 2)))
        z_target_std.append(z_targets.std(axis=0))
    return np.array(residual_y), np.array(residual_z), np.array(z_target_std)
