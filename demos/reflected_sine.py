"""Solve the SINE benchmark and line its mean path up against the closed form.

The terminal draw has mean zero while the obstacle arches up to 0.5, so the
compensator must lift the early part of the mean path. With no driver and no
clock coefficient the exact solution is the backward running maximum of the
obstacle, which makes this the cleanest end-to-end check of the machinery.
"""

import numpy as np

from mrbsde import TimeGrid, simulate_forward, skorokhod_closed_form, solve_reflected
from mrbsde.cli import build_config
from mrbsde.oracle import mean_reduction, unconstrained_mean_path

cfg = build_config({"preset": "SINE", "numerics": {"M": 8000, "N": 100}})
grid = TimeGrid(cfg.spec.horizon, cfg.N)

print(f"simulating {cfg.M} particles on {cfg.N} steps (seed {cfg.seed}) ...")
cloud = simulate_forward(cfg.spec, grid, cfg.M, cfg.seed)
refl = solve_reflected(cfg.spec, cloud, cfg.schedule, cfg.basis)
final = refl.trace[-1]
print(f"converged at mollification level k={final.k}, penalty level n={final.n:.0f} "
      f"after {len(refl.trace)} level runs\n")

problem, _ = mean_reduction(cfg.spec)
fine = np.linspace(0.0, 1.0, 200 * cfg.N + 1)
mean_star, k_star = skorokhod_closed_form(
    unconstrained_mean_path(problem, fine), cfg.spec.obstacle.evaluate(fine)
)
mean_star, k_star = mean_star[::200], k_star[::200]

print(f"{'t':>5s} {'obstacle':>9s} {'mean':>9s} {'exact':>9s} {'K':>9s} {'K exact':>9s}")
for j in range(0, cfg.N + 1, 10):
    t = grid.times[j]
    print(f"{t:5.2f} {cfg.spec.obstacle.evaluate(t):9.4f} {refl.mean_path[j]:9.4f} "
          f"{mean_star[j]:9.4f} {refl.K[j]:9.4f} {k_star[j]:9.4f}")

print(f"\nsup |mean - exact| = {np.max(np.abs(refl.mean_path - mean_star)):.4f}")
print(f"sup |K - exact|    = {np.max(np.abs(refl.K - k_star)):.4f}")
print(f"flatness residual  = {final.flatness_residual:+.2e}")
