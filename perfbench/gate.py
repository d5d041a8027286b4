"""Correctness gate for one benchmark operation's artifacts.

An operation passes when the CLI exited 0, ``report.json`` says ``ok``,
every artifact value is finite, the final sup deficit is within the
schedule's ``deficit_tol``, no compensator warning was raised, and, where a
reference snapshot exists for the operation and solver seed, every
deterministic artifact value matches it to ``TOL``. Timings (the
``wall_ms`` column) are not part of a snapshot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    passes: int = 0  # backward passes the artifacts account for
    wall_ms: list = field(default_factory=list)  # the program's own per-pass timings
    diagnostics: dict = field(default_factory=dict)


def reference_path(workload: str, op_name: str, seed: int | None) -> Path:
    tag = "shipped" if seed is None else str(seed)
    return REFERENCE_DIR / workload / f"{op_name}-seed{tag}.json"


def read_csv(path: Path):
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _numeric_leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _numeric_leaves(val, f"{prefix}{key}.")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _numeric_leaves(val, f"{prefix}{i}.")
    elif obj is None or (isinstance(obj, (int, float)) and not isinstance(obj, bool)):
        yield prefix[:-1], obj


def snapshot(outdir: Path) -> dict:
    """The deterministic content of an operation's artifacts."""
    snap = {}
    for name in ("mean_path.csv", "convergence.csv"):
        path = outdir / name
        if path.exists():
            header, rows = read_csv(path)
            keep = [i for i, h in enumerate(header) if h != "wall_ms"]
            snap[name] = {
                "header": [header[i] for i in keep],
                "rows": [[row[i] for i in keep] for row in rows],
            }
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    snap["diagnostics"] = dict(_numeric_leaves(report["diagnostics"]))
    return snap


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL * max(1.0, abs(b))


def compare(snap: dict, reference: dict) -> list:
    """Differences between a snapshot and its reference, as messages."""
    problems = []
    for name in ("mean_path.csv", "convergence.csv"):
        if (name in snap) != (name in reference):
            problems.append(f"{name} present in only one of run and reference")
            continue
        if name not in snap:
            continue
        got, ref = snap[name], reference[name]
        if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
            problems.append(f"{name} shape differs from reference")
            continue
        mismatches = [
            f"{name} row {j} {col}: {a!r} vs reference {b!r}"
            for j, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"]))
            for col, a, b in zip(ref["header"], row, ref_row)
            if not _close(a, b)
        ]
        if mismatches:
            problems.append(f"{mismatches[0]} (and {len(mismatches) - 1} more)")
    got, ref = snap["diagnostics"], reference["diagnostics"]
    if got.keys() != ref.keys():
        problems.append("report.json diagnostics keys differ from reference")
    else:
        problems += [
            f"report.json {key}: {got[key]!r} vs reference {ref[key]!r}"
            for key in ref
            if not _close(got[key], ref[key])
        ]
    return problems


def _all_finite(rows, skip=()) -> bool:
    return all(math.isfinite(v) for row in rows for i, v in enumerate(row) if i not in skip)


def check(outdir: Path, subcommand: str, rc: int, reference: Path | None = None) -> Outcome:
    """Gate one operation's artifacts; an empty ``problems`` list is a pass."""
    out = Outcome()
    if rc != 0:
        out.problems.append(f"exit code {rc}")
    try:
        _check_artifacts(out, outdir, subcommand, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        out.problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    return out


def _check_artifacts(out: Outcome, outdir: Path, subcommand: str, reference: Path | None) -> None:
    report_path = outdir / "report.json"
    if not report_path.exists():
        out.problems.append("no report.json")
        return
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["manifest"]["status"] != "ok":
        out.problems.append(f"status {report['manifest']['status']!r}: {report['manifest']['error']}")
        return
    diag = out.diagnostics = report["diagnostics"]
    deficit_tol = report["manifest"]["config"]["schedule"]["deficit_tol"]

    if subcommand in ("solve", "oracle-check"):
        _, rows = read_csv(outdir / "mean_path.csv")
        if not _all_finite(rows):
            out.problems.append("mean_path.csv has non-finite values")
        required = [diag.get("sup_deficit"), diag.get("flatness_residual"), diag.get("K_T")]
        if subcommand == "oracle-check":
            required += [diag["oracle"].get("mean_gap"), diag["oracle"].get("K_gap")]
        if any(v is None for v in required):
            out.problems.append("report.json has non-finite diagnostics")
        elif diag["sup_deficit"] > deficit_tol:
            out.problems.append(f"final sup_deficit {diag['sup_deficit']:.3g} > deficit_tol {deficit_tol}")
        if diag.get("compensator_warnings"):
            out.problems.append(f"compensator warnings: {diag['compensator_warnings']}")

    if subcommand == "stability":
        rows = diag["stability"]["rows"]
        if any(v is None for row in rows for v in row.values()):
            out.problems.append("report.json has non-finite stability rows")
        out.passes = len(rows) + 1  # the base pass plus one per perturbation
    else:
        header, rows = read_csv(outdir / "convergence.csv")
        cauchy, k_col = header.index("cauchy_mean_dist"), header.index("k")
        # The first level of each smoothing level has no predecessor to measure.
        first = [j == 0 or rows[j][k_col] != rows[j - 1][k_col] for j in range(len(rows))]
        if not _all_finite(rows, skip=(cauchy,)) or any(
            math.isnan(row[cauchy]) and not first[j] for j, row in enumerate(rows)
        ):
            out.problems.append("convergence.csv has non-finite values")
        elif subcommand == "rates" and math.sqrt(rows[-1][header.index("sup_neg_sq")]) > deficit_tol:
            out.problems.append(f"final sup deficit above deficit_tol {deficit_tol}")
        out.passes = len(rows)
        out.wall_ms = [row[header.index("wall_ms")] for row in rows]

    if reference is not None and reference.exists():
        out.problems += compare(snapshot(outdir), json.loads(reference.read_text(encoding="utf-8")))
