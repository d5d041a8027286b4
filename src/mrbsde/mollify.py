"""Smooth obstacle approximations by convolution with a compactly supported bump.

The kernel is the standard normalized bump exp(-1/(1-x^2)) on (-1, 1),
scaled to the window [-1/k, 1/k]. Normalization uses the quadrature mass of
the kernel rather than its analytic mass, so constant obstacles are
reproduced exactly at any node count.

Only what the solver reads is computed: the smoothed values on the solver
grid, their level and their sup-gap to the obstacle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .paths import TimeGrid
from .problem import ObstacleCurve

_BLOCK_VALUES = 1 << 16  # kernel values evaluated at once: 512 KB per array


def bump(x: np.ndarray) -> np.ndarray:
    """Unnormalized bump exp(-1/(1-x^2)) on (-1, 1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


@dataclass(frozen=True)
class SmoothObstacle:
    """Mollified obstacle sampled on the solver grid.

    ``sup_gap`` is max_j |u^k(t_j) - u(t_j)|; for an L-Lipschitz obstacle it
    is bounded by L/k because the kernel window has radius 1/k.
    """

    level: int
    grid: TimeGrid
    values: np.ndarray
    sup_gap: float


def _panel_edges(t: float, radius: float, horizon: float, kinks: tuple) -> np.ndarray:
    """Kernel-window panel edges, split where the integrand loses smoothness.

    The integrand s -> u(clip(t - s, 0, T)) has derivative jumps where the
    clamp engages (s = t and s = t - T) and at the obstacle's own kinks
    (s = t - kink). Aligning panel edges there keeps each panel analytic,
    which Gauss-Legendre needs for its fast convergence.
    """
    breaks = [t, t - horizon] + [t - kink for kink in kinks]
    inner = [s for s in breaks if -radius < s < radius]
    return np.array(sorted({-radius, radius, *inner}))


def mollify_obstacle(
    u: ObstacleCurve, k: int, grid: TimeGrid, quad_points: int = 64
) -> SmoothObstacle:
    """Convolve the obstacle with the bump kernel at window radius 1/k.

    The obstacle is extended by u(0) left of 0 and u(T) right of T before
    convolution. Values come from a composite Gauss-Legendre rule with
    ``quad_points`` nodes per panel, divided by the rule's kernel mass.
    """
    if k < 1:
        raise ValueError(f"mollification level k must be >= 1, got {k}")
    if quad_points < 16:
        raise QuadratureError(
            f"need at least 16 quadrature nodes for the bump kernel, got {quad_points}"
        )

    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(quad_points)
    radius = 1.0 / k
    kinks = u.kink_points()
    times = grid.times
    values = np.empty(times.shape[0])

    # The kernel is evaluated for many nodes at once: nodes with the same
    # number of panel edges form one (nodes, panels * quad_points) block, at
    # most _BLOCK_VALUES values. Each node's sum and dot product are still
    # taken on its own contiguous row, so they keep a one-node loop's bits.
    edges = [_panel_edges(float(t), radius, grid.T, kinks) for t in times]
    for count in sorted({e.size for e in edges}):
        group = [j for j, e in enumerate(edges) if e.size == count]
        step = max(1, _BLOCK_VALUES // ((count - 1) * quad_points))
        for first in range(0, len(group), step):
            nodes = group[first : first + step]
            block = np.array([edges[j] for j in nodes])
            half = 0.5 * (block[:, 1:] - block[:, :-1])
            mid = 0.5 * (block[:, 1:] + block[:, :-1])
            s = (half[:, :, None] * gl_nodes + mid[:, :, None]).reshape(len(nodes), -1)
            w = (half[:, :, None] * gl_weights).reshape(len(nodes), -1)
            kernels = w * bump(k * s)
            samples = u.evaluate(np.clip(times[nodes, None] - s, 0.0, grid.T))
            for j, kernel, sample in zip(nodes, kernels, samples):
                values[j] = sample @ kernel / kernel.sum()

    if not np.all(np.isfinite(values)):
        raise QuadratureError("mollified obstacle produced non-finite values")

    exact = u.evaluate(times)
    return SmoothObstacle(
        level=k,
        grid=grid,
        values=values,
        sup_gap=float(np.max(np.abs(values - exact))),
    )
