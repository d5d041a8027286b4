"""Measure how fast the penalized solutions approach the reflected one.

One particle cloud is reused across the whole penalty ladder (common random
numbers), so the level-to-level differences below are the penalty error
itself, not resampling noise. The levels run as one lockstep sweep, as in
the `rates` subcommand: every pass advances one node at a time, so each
node's regression design is built once for all six levels. The sup and
integral deficits shrink like 1/n^2 on this problem and consecutive mean
paths contract like 1/n.
"""

from mrbsde import (
    TimeGrid,
    mollify_obstacle,
    penalty_sweep,
    rate_fit,
    simulate_forward,
)
from mrbsde.cli import build_config

cfg = build_config({"preset": "SINE", "numerics": {"M": 8000, "N": 100}})
grid = TimeGrid(cfg.spec.horizon, cfg.N)
cloud = simulate_forward(cfg.spec, grid, cfg.M, cfg.seed)
u_k = mollify_obstacle(cfg.spec.obstacle, 40, grid)

levels = (25, 50, 100, 200, 400, 800)
print(f"{'n':>5s} {'sup deficit^2':>14s} {'integral deficit^2':>19s} {'cauchy to n/2':>14s}")
records, _ = penalty_sweep(cfg.spec, u_k, levels, cloud, cfg.basis)
for rec in records:
    cauchy = rec.cauchy_mean_dist if rec.cauchy_mean_dist is not None else float("nan")
    print(f"{rec.n:5d} {rec.sup_neg_sq:14.3e} {rec.integral_neg_sq:19.3e} {cauchy:14.3e}")

for label, xs, ys in (
    ("sup deficit^2", levels, [rec.sup_neg_sq for rec in records]),
    ("integral deficit^2", levels, [rec.integral_neg_sq for rec in records]),
    ("mean-path cauchy", levels[:-1], [rec.cauchy_mean_dist for rec in records[1:]]),
):
    fit = rate_fit(xs, ys)
    print(f"{label:>19s}: slope {fit.slope:+.2f}  (R^2 {fit.r_squared:.4f})")
