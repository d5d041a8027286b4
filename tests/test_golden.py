"""Small end-to-end runs pinned to committed artifact values.

The CSV artifacts carry 12 significant digits, so a change in any
floating-point summation order of the forward cloud or the backward pass
(a pairwise instead of a sequential mean, a GEMM at another shape or
layout) shows up here, not only in the benchmark's reference gate.
The two ``solve`` cases of ``GOLDEN`` were captured with the forward cloud
still stored particle-major, and the ``stability`` and ``rates`` cases with
every Brownian position still held in one full array; no case may ever be
recaptured to make this test pass.
"""

import json
import math
from pathlib import Path

import pytest

from mrbsde.cli import main

GOLDEN = Path(__file__).parent / "golden" / "solve_artifacts.json"
TOL = 1e-12

_SCHEDULE = {
    "n_levels": [25, 50, 100, 200, 400, 800],
    "k_levels": [10, 20, 40],
    "deficit_tol": 0.02,
    "cauchy_tol": 0.004,
}

CASES = {
    # linear clock, Brownian basis: six levels over two smoothing levels
    "boundary": (
        "solve",
        {"preset": "BOUNDARY", "numerics": {"M": 2000, "N": 20}, "schedule": _SCHEDULE, "seed": 11},
    ),
    # pathwise-integral clock along a forward state, forward-state basis
    "boundary-forward": (
        "solve",
        {
            "preset": "BOUNDARY",
            "numerics": {"M": 2000, "N": 20, "basis": "forward"},
            "problem": {
                "kappa": {"family": "integral", "h_kind": "square", "h_scale": 0.5},
                "forward": {"x0": 1.0, "drift_const": 0.1, "sigma": 0.3},
            },
            "schedule": _SCHEDULE,
            "seed": 11,
        },
    ),
    # a base pass and its perturbed passes stepped in lockstep on one two-dimensional cloud
    "stability": (
        "stability",
        {
            "preset": "AFFINE",
            "numerics": {"M": 2000, "N": 20},
            "problem": {"brownian_dim": 2},
            "schedule": _SCHEDULE,
            "seed": 11,
        },
    ),
    # six penalty levels streamed one pass at a time over one cloud
    "rates": (
        "rates",
        {"preset": "BOUNDARY", "numerics": {"M": 2000, "N": 20}, "schedule": _SCHEDULE, "seed": 11},
    ),
}


def _numeric_leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _numeric_leaves(val, f"{prefix}{key}.")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _numeric_leaves(val, f"{prefix}{i}.")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix[:-1], obj


def artifact_values(outdir: Path) -> dict:
    """Deterministic numbers of a run: the CSVs it wrote without ``wall_ms``, and report diagnostics."""
    values = {}
    for name in ("mean_path.csv", "convergence.csv"):
        if not (outdir / name).exists():
            continue
        header, *rows = (outdir / name).read_text(encoding="ascii").splitlines()
        cols = header.split(",")
        for j, row in enumerate(rows):
            for col, cell in zip(cols, row.split(",")):
                if col != "wall_ms":
                    values[f"{name}:{j}:{col}"] = float(cell)
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    values.update((f"report:{key}", val) for key, val in _numeric_leaves(report["diagnostics"]))
    return values


def run_case(name: str, tmp_path: Path) -> dict:
    subcommand, doc = CASES[name]
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({**doc, "output": str(tmp_path / name)}), encoding="utf-8")
    assert main([subcommand, "--config", str(config)]) == 0
    return artifact_values(tmp_path / name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_small_solve_matches_golden_artifacts(name, tmp_path):
    got = run_case(name, tmp_path)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert got.keys() == want.keys()
    diffs = [
        f"{key}: {got[key]!r} vs golden {want[key]!r}"
        for key in want
        if not (
            got[key] == want[key]
            or (math.isnan(got[key]) and math.isnan(want[key]))
            or abs(got[key] - want[key]) <= TOL * max(1.0, abs(want[key]))
        )
    ]
    assert not diffs, f"{len(diffs)} values moved, first: {diffs[0]}"
