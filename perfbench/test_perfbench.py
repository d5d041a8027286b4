"""Tests of the benchmark itself: python3 -m pytest -q perfbench/test_perfbench.py"""

from __future__ import annotations

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import run
from gate import check, compare, reference_path, snapshot
from spans import Tracer, self_times
from workloads import DEFAULT_SEED, WORKLOADS, make_workload

cli = run.load_program()

TINY = {
    "preset": "SINE",
    "numerics": {"M": 1500, "N": 24},
    "schedule": {"n_levels": [25, 50, 100, 200], "k_levels": [8, 16], "deficit_tol": 0.05, "cauchy_tol": 0.02},
    "seed": 7,
}


def tiny_solve(tmp_path: Path) -> Path:
    outdir = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "output": str(outdir)}), encoding="utf-8")
    assert cli.main(["solve", "--config", str(config)]) == 0
    return outdir


def package_attributes() -> dict:
    pkg = importlib.import_module("mrbsde")
    modules = [pkg] + [importlib.import_module(m.name) for m in pkgutil.iter_modules(pkg.__path__, "mrbsde.")]
    return {(mod.__name__, attr): obj for mod in modules for attr, obj in vars(mod).items()}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 5.0, 9.0, 0, None],
        ["b.child", 6.0, 7.5, 2, None],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.5])


def test_tracer_records_nested_spans_and_restores_every_attribute(tmp_path):
    before = package_attributes()
    with Tracer("mrbsde", run.LAYERS, skip=run.UNTRACED, probes=run.PROBES) as tracer:
        import mrbsde.reflect

        assert mrbsde.reflect.solve_penalized is not before[("mrbsde.reflect", "solve_penalized")]
        assert mrbsde.penalized.implicit_mean_penalty is before[("mrbsde.penalized", "implicit_mean_penalty")]
        tiny_solve(tmp_path)
    after = package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][3] == -1
    passes = [s for s in spans if s[0] == "penalized.solve_penalized"]
    assert passes and all(spans[s[3]][0] == "reflect.solve_reflected" for s in passes)
    assert all(s[4] == 1500 * 24 for s in passes)
    assert names.count("penalized.build_design") == 24 * len(passes)
    assert all(spans[p][1] <= s[1] <= s[2] <= spans[p][2] for s in spans for p in [s[3]] if p >= 0)


def test_gate_passes_a_clean_run_and_rejects_a_perturbed_mean_path(tmp_path):
    outdir = tiny_solve(tmp_path)
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps(snapshot(outdir)), encoding="utf-8")
    clean = check(outdir, "solve", 0, reference)
    assert clean.problems == []
    assert clean.passes == len(clean.wall_ms) > 0

    path = outdir / "mean_path.csv"
    lines = path.read_text(encoding="ascii").splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    problems = check(outdir, "solve", 0, reference).problems
    assert problems and problems[0].startswith("mean_path.csv row 4 mean_Y")

    cells[1] = "nan"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert "mean_path.csv has non-finite values" in check(outdir, "solve", 0).problems


def test_gate_ignores_the_wall_ms_column(tmp_path):
    outdir = tiny_solve(tmp_path)
    snap = snapshot(outdir)
    assert "wall_ms" not in snap["convergence.csv"]["header"]
    path = outdir / "convergence.csv"
    header, *rows = path.read_text(encoding="ascii").splitlines()
    assert header.endswith(",wall_ms")
    rows = [row.rsplit(",", 1)[0] + ",12345" for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")
    assert compare(snapshot(outdir), snap) == []


def test_gate_fails_nonzero_exit_and_missing_artifacts(tmp_path):
    outdir = tiny_solve(tmp_path)
    assert check(outdir, "solve", 2).problems[0] == "exit code 2"
    assert "no report.json" in check(tmp_path / "missing", "solve", 0).problems
    (outdir / "convergence.csv").unlink()
    assert check(outdir, "solve", 0).problems[0].startswith("unreadable artifacts: FileNotFoundError")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_is_a_pure_function_of_the_seed(name):
    def calls(seed):
        w = make_workload(name, seed)
        return [(op, w.call_seed(c, i)) for c in range(3) for i, op in enumerate(w.ops)]

    assert calls(5) == calls(5)
    assert calls(5) != calls(6)
    for op, _ in calls(5):
        assert "output" not in op.document and "seed" not in op.document


def test_every_default_seed_operation_has_a_reference():
    for name in WORKLOADS:
        workload = make_workload(name, DEFAULT_SEED)
        for index, op in enumerate(workload.ops):
            assert reference_path(name, op.name, workload.call_seed(0, index)).is_file()


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_compare_flags_runs_from_different_environments():
    from compare import differences

    record = {"workload": "ladder", "trace": 0, "seconds": 30, "env": run.environment()}
    assert differences(record, json.loads(json.dumps(record))) == []
    other = json.loads(json.dumps(record))
    other["env"]["nproc"] += 1
    other["env"]["blas"]["threads"] = 99
    assert differences(record, other) == [
        f"env.blas.threads: {record['env']['blas']['threads']!r} vs 99",
        f"env.nproc: {record['env']['nproc']!r} vs {record['env']['nproc'] + 1!r}",
    ]
