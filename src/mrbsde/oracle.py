"""Deterministic reference solvers for problems whose mean path closes.

When the driver acts only through moment functionals, the boundary
coefficient is linear, and the clock is deterministic, the expectation of
the solution satisfies a one-dimensional reflected backward equation. These
solvers treat that reduced equation directly and are independent of the
particle pipeline, so they can serve as ground truth for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintInfeasible, NoSelfConvergence
from .penalized import implicit_mean_penalty
from .problem import ObstacleCurve, ProblemSpec


@dataclass(frozen=True)
class MeanProblem:
    """One-dimensional reduced problem for the mean path.

    ``drift`` is the dt-weighted reduced drift phi(t, ybar), including any
    linear boundary contribution beta * ybar * kappa'(t). ``mean_kappa``
    maps t to the deterministic clock mean and feeds the penalty measure
    d(s + E[kappa_s]); None means a flat clock.
    """

    drift: Callable[[float, float], float]
    terminal_mean: float
    obstacle: ObstacleCurve
    horizon: float
    mean_kappa: Callable[[np.ndarray], np.ndarray] | None = None


def skorokhod_closed_form(m, u_values: np.ndarray):
    """Minimal compensator and mean path for drift-free reflection.

    ``m`` is the unconstrained mean path: a constant, or an array on the
    same grid as ``u_values``. The backward running maximum
    K(T) - K(t) = max_{s in [t, T]} (u(s) - m(s))^+ is the unique
    non-decreasing K with K(0) = 0 meeting the constraint with a vanishing
    flatness integral.
    """
    u_values = np.asarray(u_values, dtype=float)
    m_arr = np.broadcast_to(np.asarray(m, dtype=float), u_values.shape)
    tol = 1e-12 * (1.0 + abs(float(u_values[-1])))
    if m_arr[-1] < u_values[-1] - tol:
        raise ConstraintInfeasible(
            f"terminal mean {m_arr[-1]:.6g} below obstacle terminal value {u_values[-1]:.6g}"
        )
    deficit = np.maximum(u_values - m_arr, 0.0)
    tail_max = np.maximum.accumulate(deficit[::-1])[::-1]
    K = tail_max[0] - tail_max
    mean_path = m_arr + tail_max
    return mean_path, K


def _penalized_backward(problem: MeanProblem, n_fine: int, n_penalty: float):
    times = np.linspace(0.0, problem.horizon, n_fine + 1)
    dt = problem.horizon / n_fine
    u_vals = problem.obstacle.evaluate(times)
    if problem.mean_kappa is None:
        dkap = np.zeros(n_fine)
    else:
        kbar = np.asarray(problem.mean_kappa(times), dtype=float)
        dkap = np.diff(kbar)
    y = np.empty(n_fine + 1)
    dK = np.empty(n_fine)
    y[n_fine] = problem.terminal_mean
    for j in range(n_fine - 1, -1, -1):
        p = y[j + 1] + problem.drift(times[j + 1], y[j + 1]) * dt
        y[j] = implicit_mean_penalty(p, float(u_vals[j]), n_penalty, dt + float(dkap[j]))
        dK[j] = y[j] - p
    K = np.concatenate([[0.0], np.cumsum(dK)])
    return y, K


def solve_mean_ode_reflected(problem: MeanProblem, n_penalty: float, n_fine: int = 20_000):
    """Penalized backward Euler for the reduced mean equation, self-checked.

    Runs the scheme at (n_fine, n_penalty) and at the doubled pair; rejects
    the result unless the two agree below 1e-4 in sup norm on the shared
    nodes. Returns the doubled run restricted to the requested grid.
    """
    if n_fine < 1_000:
        raise ValueError(f"n_fine must be >= 1000, got {n_fine}")
    if n_penalty < 10_000:
        raise ValueError(f"n_penalty must be >= 1e4, got {n_penalty}")
    u_terminal = float(problem.obstacle.evaluate(problem.horizon))
    if problem.terminal_mean < u_terminal - 1e-12 * (1.0 + abs(u_terminal)):
        raise ConstraintInfeasible("terminal mean below obstacle terminal value")

    y1, k1 = _penalized_backward(problem, n_fine, n_penalty)
    y2, k2 = _penalized_backward(problem, 2 * n_fine, 2 * n_penalty)
    gap = max(
        float(np.max(np.abs(y1 - y2[::2]))),
        float(np.max(np.abs(k1 - k2[::2]))),
    )
    if gap >= 1e-4:
        raise NoSelfConvergence(
            f"doubling the grid and penalty level moved the solution by {gap:.3g} >= 1e-4"
        )
    return y2[::2], k2[::2]


def mean_reduction(spec: ProblemSpec) -> tuple[MeanProblem, bool] | None:
    """Build the reduced mean problem for a spec, when one exists.

    Requires a zero/affine driver, zero/linear boundary, deterministic
    clock, and a direct-sampler terminal (whose integrand mean is the
    constant std / sqrt(T) in the first coordinate). Returns the problem
    and a flag telling whether the reduced drift is independent of the
    mean, in which case the running-maximum closed form applies. None when
    no reduction is available.
    """
    if spec.driver.family not in ("zero", "affine"):
        return None
    if spec.boundary.family not in ("zero", "linear-monotone"):
        return None
    if spec.kappa.family == "integral":
        return None
    if spec.terminal.mode != "direct-sampler":
        return None

    T = spec.horizon
    coeffs = spec.driver.coefficients if spec.driver.family == "affine" else {}
    c0 = coeffs.get("const", 0.0)
    cy = coeffs.get("y", 0.0) + coeffs.get("mean_y", 0.0)
    cz = coeffs.get("z", 0.0) + coeffs.get("mean_z", 0.0)
    mz_const = spec.terminal.std / math.sqrt(T)
    const_part = c0 + cz * mz_const

    kap = spec.kappa
    if kap.family == "zero":
        kappa_rate = None
    elif kap.family == "linear":
        kappa_rate = lambda t: kap.rate  # noqa: E731
    else:

        def kappa_rate(t, _h=1e-6 * T):
            lo, hi = max(t - _h, 0.0), min(t + _h, T)
            return (kap.curve(hi) - kap.curve(lo)) / (hi - lo)

    beta = spec.boundary.beta if spec.boundary.family == "linear-monotone" else 0.0

    def drift(t: float, y: float) -> float:
        out = const_part + cy * y
        if beta != 0.0 and kappa_rate is not None:
            out += beta * y * kappa_rate(t)
        return out

    y_independent = cy == 0.0 and (beta == 0.0 or kappa_rate is None)
    problem = MeanProblem(
        drift=drift,
        terminal_mean=spec.terminal.mean,
        obstacle=spec.obstacle,
        horizon=T,
        mean_kappa=kap.curve,
    )
    return problem, y_independent


def unconstrained_mean_path(problem: MeanProblem, times: np.ndarray) -> np.ndarray:
    """Backward integration of the reduced drift without the constraint."""
    times = np.asarray(times, dtype=float)
    y = np.empty(times.shape[0])
    y[-1] = problem.terminal_mean
    for j in range(times.shape[0] - 2, -1, -1):
        dt = times[j + 1] - times[j]
        y[j] = y[j + 1] + problem.drift(float(times[j + 1]), float(y[j + 1])) * dt
    return y
