"""Benchmark workloads: fixed cyclic lists of CLI operations made from a seed.

A workload is a pure function of its name and the benchmark seed. Each
operation is one ``mrbsde`` subcommand on one config document; the solver
seed of a call is either the document's own seed or one derived from the
benchmark seed, so the program only ever sees the generated inputs.

- ``ladder`` runs ``oracle-check`` on the four shipped presets exactly as
  shipped (M=20000, N=100, full level schedule, seed 7). The solver seed
  stays the shipped one because the number of ladder levels, and with it
  the work per cycle, depends on the cloud: other seeds change the work
  being timed and some stop the ladder above tolerance. The benchmark seed
  only rotates the order of the four operations.
- ``seed-sweep`` runs ``solve`` on the four presets with a small cloud
  (M=5000, N=200) and a one-level schedule, with a fresh solver seed for
  every call, so each cloud gets exactly one backward pass.
- ``perturb`` runs ``stability`` and ``rates`` on AFFINE and BOUNDARY with
  a large cloud (M=80000, N=100); both run a fixed number of passes, so the
  solver seed, derived once per operation from the benchmark seed, leaves
  the work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
PRESETS = ("SINE", "AFFINE", "BOUNDARY", "ZDRIFT")


@dataclass(frozen=True)
class Op:
    """One CLI call: a subcommand on a config document (without its output key)."""

    name: str
    subcommand: str
    document: dict
    M: int
    N: int
    seed: int | None  # fixed solver seed; None keeps the document's own seed


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple  # one cycle, in order
    fresh_seeds: bool  # a new solver seed for every call

    def call_seed(self, cycle: int, index: int) -> int | None:
        """Solver seed passed to the CLI for operation ``index`` of ``cycle``."""
        if self.fresh_seeds:
            return derive_seed(self.seed, cycle, index)
        return self.ops[index].seed


def derive_seed(*key: int) -> int:
    """A 32-bit solver seed that depends only on ``key``."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _ladder(seed: int) -> Workload:
    M, N = 20000, 100  # the presets' own numerics
    ops = [Op(f"oracle-check-{p}", "oracle-check", {"preset": p}, M, N, None) for p in PRESETS]
    shift = seed % len(ops)
    return Workload("ladder", seed, tuple(ops[shift:] + ops[:shift]), fresh_seeds=False)


def _seed_sweep(seed: int) -> Workload:
    M, N = 5000, 200
    doc = {"numerics": {"M": M, "N": N}, "schedule": {"n_levels": [800], "k_levels": [40]}}
    ops = tuple(Op(f"solve-{p}", "solve", {"preset": p, **doc}, M, N, None) for p in PRESETS)
    return Workload("seed-sweep", seed, ops, fresh_seeds=True)


def _perturb(seed: int) -> Workload:
    M, N = 80000, 100
    ops = []
    for p in ("AFFINE", "BOUNDARY"):
        for sub in ("stability", "rates"):
            ops.append(
                Op(
                    f"{sub}-{p}",
                    sub,
                    {"preset": p, "numerics": {"M": M, "N": N}},
                    M,
                    N,
                    derive_seed(seed, len(ops)),
                )
            )
    return Workload("perturb", seed, tuple(ops), fresh_seeds=False)


WORKLOADS = {"ladder": _ladder, "seed-sweep": _seed_sweep, "perturb": _perturb}


def make_workload(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; available: {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return WORKLOADS[name](seed)
