"""Stability of the solution map: terminal perturbations and seed changes.

Shifting the terminal draw by epsilon moves the solution by at most a
constant times epsilon in mean square; with common random numbers the
measured shift scales exactly quadratically in epsilon. Changing the seed
altogether perturbs the mean path only at the Monte Carlo scale 1/sqrt(M).
"""

import numpy as np

from mrbsde import (
    TimeGrid,
    mollify_obstacle,
    rate_fit,
    simulate_forward,
    solve_reflected,
    stability_experiment,
)
from mrbsde.cli import build_config

cfg = build_config({"preset": "SINE", "numerics": {"M": 8000, "N": 100}})
grid = TimeGrid(cfg.spec.horizon, cfg.N)
cloud = simulate_forward(cfg.spec, grid, cfg.M, cfg.seed)
u_k = mollify_obstacle(cfg.spec.obstacle, 40, grid)

rows = stability_experiment(cfg.spec, cloud, (0.1, 0.05, 0.025), u_k, 800, cfg.basis)
print(f"{'epsilon':>8s} {'sup_t E|dY|^2':>14s} {'int E|dZ|^2':>12s}")
for r in rows:
    print(f"{r.epsilon:8.3f} {r.sup_mean_sq_dy:14.3e} {r.integral_mean_sq_dz:12.3e}")
fit = rate_fit([r.epsilon for r in rows], [r.sup_mean_sq_dy for r in rows])
print(f"quadratic scaling: log-log slope {fit.slope:.3f} (2.0 expected)\n")

paths = {}
for seed in (7, 8):
    cl = simulate_forward(cfg.spec, grid, cfg.M, seed)
    paths[seed] = solve_reflected(cfg.spec, cl, cfg.schedule, cfg.basis)
gap_mean = np.max(np.abs(paths[7].solution.mean_path - paths[8].solution.mean_path))
gap_k = np.max(np.abs(paths[7].K - paths[8].K))
print(f"independent seeds 7 vs 8 at M={cfg.M}:")
print(f"  sup |mean7 - mean8| = {gap_mean:.4f}   (1/sqrt(M) = {1 / np.sqrt(cfg.M):.4f})")
print(f"  sup |K7 - K8|       = {gap_k:.4f}")
