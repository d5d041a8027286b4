"""mrbsde benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. A run repeats the workload's cycle of operations (see
``workloads.py``), each one an in-process ``mrbsde.cli.main`` call on a
generated config file, until ``--seconds`` have passed, and gates every
operation's artifacts (see ``gate.py``). Only the ``main`` calls are timed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics from the
traced ones, normalised per cycle, plus the tracing overhead. The last line
of standard output is the result as one JSON object; the lines before it
give the environment and each metric with its sample count. ``--record
PATH`` also writes every cycle's timings, RSS and trace summary as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from gate import check, reference_path  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_workload  # noqa: E402

LAYERS = ("problem", "paths", "mollify", "penalized", "reflect", "oracle", "diagnostics", "cli")
# Scalar helpers called once per time step (tens of thousands of times per
# oracle solve): a span would cost more than the call, so their time stays
# in the caller's self time.
UNTRACED = ("penalized.implicit_mean_penalty", "penalized.penalty_increment")
SETUP_REPEATS = 15
# setup_s is scaled to a host on which SETUP_PROBE's reference work takes this long.
SETUP_REFERENCE_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "cycle_ref_p50": "ref",
    "particle_steps_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "penalized.pass_s_p50": "s",
    "penalized.passes": "count",
    "penalized.design_builds": "count",
    "penalized.particle_steps_per_s": "1/s",
    "penalized.wall_ms_gap": "ms",
    "paths.simulate_s": "s",
    "paths.simulate_calls": "count",
    "paths.cloud_mb": "MB",
    "mollify.mollify_s": "s",
    "mollify.calls": "count",
    "problem.validate_s": "s",
    "diagnostics.apriori_s": "s",
    "diagnostics.stability_self_s": "s",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "reflect.levels": "count",
    "oracle.reference_s": "s",
    "process.cycle_s_p50": "s",
    "process.particle_steps_per_s": "1/s",
    "process.calibration_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
UNITS = {**END_TO_END, **PER_LAYER}

# Runs in a fresh interpreter with numpy loaded: time a fixed piece of Python
# work of the kind an import does (building frozen dataclasses, compiling and
# running function definitions), then importing the package and resolving
# every config.
SETUP_PROBE = """
import dataclasses, sys, time
import numpy
t0 = time.perf_counter()
for i in range(40):
    dataclasses.make_dataclass(f"C{i}", [("a", int), ("b", float, 0.0), ("c", str, ""), ("d", tuple, ())], frozen=True)
source = "\\n".join(f"def f{i}(x, y=1):\\n    return [x * y + {i} for _ in range(3)]" for i in range(300))
exec(compile(source, "<reference>", "exec"), {})
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mrbsde.cli import parse_config
for path in sys.argv[2:]:
    parse_config(path)
print(t1 - t0, time.perf_counter() - t1)
"""


def _cloud_mb(cloud) -> float:
    arrays = (cloud.dB, cloud.brownian, cloud.kappa, cloud.xi, cloud.mean_kappa, cloud.forward_state)
    return sum(a.nbytes for a in arrays if a is not None) / 2**20


PROBES = {
    "penalized.solve_penalized": lambda args, kwargs, sol: sol.grid.N * sol.Y.shape[1],
    "paths.simulate_forward": lambda args, kwargs, cloud: _cloud_mb(cloud),
    "cli.write_atomic": lambda args, kwargs, _: len(args[1] if len(args) > 1 else kwargs["data"]),
}


def load_program():
    """Import mrbsde from this checkout's ``src``; exit 2 when it is not there."""
    if not (SRC / "mrbsde" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mrbsde package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mrbsde.cli

    if not Path(mrbsde.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported mrbsde from {mrbsde.__file__}, not from {SRC}")
    return mrbsde.cli


def _blas():
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    get.restype = ctypes.c_int
                    info["threads"] = get()
                    conf = getattr(lib, f"{prefix}_get_config{suffix}")
                    conf.restype = ctypes.c_char_p
                    info["runtime"] = conf().decode()
                    return info
    return info


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _rss_mb() -> float | None:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """A fixed least-squares kernel, independent of mrbsde, timed between operations.

    On a shared virtual machine the host's speed can drift by tens of
    percent within seconds while the work stays the same; this kernel slows
    down with it. Dividing an
    operation's wall time by the mean of the calibrations just before and
    just after it removes most of that drift; the end-to-end times are in
    these units (``ref``). Like a backward pass, the kernel regresses on one
    (M,) slice per step and writes fresh (steps + 1, M) value arrays, at the
    workload's particle count M and with at most ``ROWS`` particle-rows.
    """

    ROWS = 2_000_000
    EVERY_S = 1.0  # seconds of operations between calibrations, at most one per operation

    def __init__(self, M: int, N: int):
        self.x = np.random.default_rng(0).standard_normal((min(N, max(1, self.ROWS // M)), M))
        self._kernel()  # the first call pays for page faults and lazy set-up

    def __call__(self) -> float:
        """Best of three kernel timings: the host's speed now, without one-off interruptions."""
        return min(self._kernel() for _ in range(3))

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        n, m = self.x.shape
        y, z = np.empty((n + 1, m)), np.empty((n + 1, m))
        y[n] = self.x[-1]
        for j in range(n - 1, -1, -1):
            x = self.x[j]
            design = np.column_stack([np.ones(m), x, x * x])
            targets = np.column_stack([y[j + 1] * x, y[j + 1]])
            fitted = design @ np.linalg.solve(design.T @ design, design.T @ targets)
            z[j] = fitted[:, 0]
            y[j] = fitted[:, 1] + 0.01 * x
        return time.perf_counter() - t0


def measure_setup(paths: list) -> list:
    """(reference work, mrbsde import and config resolution) seconds in fresh interpreters.

    On a shared virtual machine the set-up time alone moves by half between
    runs; its ratio to the reference work, timed just before in the same
    interpreter, moves by a few percent. ``setup_s`` is the median ratio times
    ``SETUP_REFERENCE_S``: the set-up time on a host that does the reference
    work in that time.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, paths)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        reference_s, setup_s = done.stdout.split()
        samples.append((float(reference_s), float(setup_s)))
    return samples


def write_configs(workload, workdir: Path) -> list:
    """One config file per operation; returns (config path, output directory) pairs."""
    files = []
    for index, op in enumerate(workload.ops):
        config_path = workdir / f"{index}-{op.name}.json"
        outdir = workdir / f"{index}-{op.name}"
        config_path.write_text(json.dumps({**op.document, "output": str(outdir)}), encoding="utf-8")
        files.append((config_path, outdir))
    return files


def run_op(cli, op, seed, config_path: Path, outdir: Path):
    """One timed CLI call. Any exception fails the operation; nothing is retried."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [op.subcommand, "--config", str(config_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    error = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation, recorded below
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    return rc, error, time.perf_counter() - t0, time.process_time() - c0


def _pass_gaps(spans, wall_ms) -> list:
    """Program-timed minus traced duration, in ms, of the ladder passes of one operation."""
    outer = ("reflect.solve_reflected", "cli.run_experiment")
    durations = [
        (end - start) * 1000.0
        for name, start, end, parent, _ in spans
        if name == "penalized.solve_penalized" and parent >= 0 and spans[parent][0] in outer
    ]
    if len(durations) != len(wall_ms):
        return []
    return [w - d for w, d in zip(wall_ms, durations)]


def run_cycle(cli, workload, cycle: int, files: list, traced: bool, calibrate: Calibration, start: float) -> dict:
    """Run one cycle; ``start`` is the calibration taken just before it."""
    record = {"cycle": cycle, "traced": traced, "ops": []}
    tracer = Tracer("mrbsde", LAYERS, skip=UNTRACED, probes=PROBES) if traced else None
    gaps = []
    calibrations = [start]
    uncalibrated = []  # operations run since the last calibration
    for index, (op, (config_path, outdir)) in enumerate(zip(workload.ops, files)):
        seed = workload.call_seed(cycle, index)
        if tracer is not None:
            first = len(tracer.spans)
            with tracer:
                rc, error, wall, cpu = run_op(cli, op, seed, config_path, outdir)
        else:
            rc, error, wall, cpu = run_op(cli, op, seed, config_path, outdir)
        outcome = check(outdir, op.subcommand, rc, reference_path(workload.name, op.name, seed))
        if error is not None:
            outcome.problems.insert(0, error)
        if tracer is not None:
            # Span parents index the whole list; the slice keeps this operation's.
            op_spans = [s[:3] + [s[3] - first if s[3] >= 0 else -1] + s[4:] for s in tracer.spans[first:]]
            gaps += _pass_gaps(op_spans, outcome.wall_ms)
        oracle = outcome.diagnostics.get("oracle", {})
        record["ops"].append(
            {
                "name": op.name,
                "seed": seed,
                "rc": rc,
                "wall_s": wall,
                "cpu_s": cpu,
                "ref_s": None,  # set at the next calibration
                "particle_steps": op.M * op.N * outcome.passes,
                "passes": outcome.passes,
                "oracle_mean_gap": oracle.get("mean_gap"),
                "oracle_K_gap": oracle.get("K_gap"),
                "problems": outcome.problems,
            }
        )
        uncalibrated.append(record["ops"][-1])
        if sum(o["wall_s"] for o in uncalibrated) >= calibrate.EVERY_S or index == len(workload.ops) - 1:
            calibrations.append(calibrate())
            for o in uncalibrated:
                o["ref_s"] = (calibrations[-2] + calibrations[-1]) / 2.0
            uncalibrated = []
    record["wall_s"] = sum(o["wall_s"] for o in record["ops"])
    record["cpu_s"] = sum(o["cpu_s"] for o in record["ops"])
    record["wall_ref"] = sum(o["wall_s"] / o["ref_s"] for o in record["ops"])
    record["calibration_s"] = calibrations
    record["rss_mb"] = _rss_mb()
    record["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        record["spans"] = tracer.spans
        record["pass_gaps_ms"] = gaps
    return record


def end_to_end_metrics(cycles: list, setup: list) -> dict:
    """The bounded metrics, each as (value, sample count)."""
    ops = [o for c in cycles for o in c["ops"]]
    return {
        "setup_s": (statistics.median(s / r for r, s in setup) * SETUP_REFERENCE_S, len(setup)),
        "cycle_ref_p50": (statistics.median(c["wall_ref"] for c in cycles), len(cycles)),
        "particle_steps_per_ref": (
            sum(o["particle_steps"] for o in ops) / sum(o["wall_s"] / o["ref_s"] for o in ops),
            len(ops),
        ),
        "peak_rss_mb": (_peak_rss_mb(), 1),
    }


def wall_metrics(cycles: list) -> dict:
    """The same cycle and throughput figures in seconds, before calibration."""
    ops = [o for c in cycles for o in c["ops"]]
    return {
        "process.cycle_s_p50": (statistics.median(c["wall_s"] for c in cycles), len(cycles)),
        "process.particle_steps_per_s": (
            sum(o["particle_steps"] for o in ops) / sum(o["wall_s"] for o in ops),
            len(ops),
        ),
        "process.calibration_s": (
            statistics.median(t for c in cycles for t in c["calibration_s"]),
            sum(len(c["calibration_s"]) for c in cycles),
        ),
    }


def layer_metrics(cycles: list) -> dict:
    """Per-layer metrics from the traced cycles' spans, per traced cycle, as (value, sample count)."""
    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]
    n = len(traced)
    spans = []
    for c in traced:  # concatenate, shifting parent indices
        base = len(spans)
        spans += [s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:] for s in c["spans"]]
    own = self_times(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in named(name)) / n

    def calls(name):
        return len(named(name)) / n

    passes = named("penalized.solve_penalized")
    pass_s = [spans[i][2] - spans[i][1] for i in passes]
    parse_s = 0.0
    for i in named("cli.main"):
        children = [s for s in spans if s[3] == i and s[0] == "cli.run_experiment"]
        parse_s += (children[0][1] if children else spans[i][2]) - spans[i][1]
    gaps = [g for c in traced for g in c["pass_gaps_ms"]]
    out = {
        "penalized.pass_s_p50": (statistics.median(pass_s) if pass_s else 0.0, len(pass_s)),
        "penalized.passes": (calls("penalized.solve_penalized"), n),
        "penalized.design_builds": (calls("penalized.build_design"), n),
        "penalized.particle_steps_per_s": (
            sum(spans[i][4] for i in passes) / sum(pass_s) if pass_s else 0.0,
            len(pass_s),
        ),
        "penalized.wall_ms_gap": (statistics.median(gaps) if gaps else 0.0, len(gaps)),
        "paths.simulate_s": (total("paths.simulate_forward"), n),
        "paths.simulate_calls": (calls("paths.simulate_forward"), n),
        "paths.cloud_mb": (max((spans[i][4] for i in named("paths.simulate_forward")), default=0.0), n),
        "mollify.mollify_s": (total("mollify.mollify_obstacle"), n),
        "mollify.calls": (calls("mollify.mollify_obstacle"), n),
        "problem.validate_s": (total("problem.validate_problem"), n),
        "diagnostics.apriori_s": (total("diagnostics.apriori_report"), n),
        "diagnostics.stability_self_s": (
            sum(own[i] for i in named("diagnostics.stability_experiment")) / n,
            n,
        ),
        "cli.parse_s": (parse_s / n, n),
        "cli.write_s": (total("cli.write_atomic"), n),
        "cli.bytes_written": (sum(spans[i][4] for i in named("cli.write_atomic")) / n, n),
        "reflect.levels": (
            sum(1 for i in passes if spans[i][3] >= 0 and spans[spans[i][3]][0] == "reflect.solve_reflected") / n,
            n,
        ),
        "oracle.reference_s": (
            sum(
                s[2] - s[1]
                for s in spans
                if s[0].startswith("oracle.") and s[3] >= 0 and spans[s[3]][0].startswith("cli.")
            )
            / n,
            n,
        ),
        "process.cpu_per_wall": (sum(c["cpu_s"] for c in plain) / sum(c["wall_s"] for c in plain), len(plain)),
        "trace.overhead_ratio": (
            statistics.median(c["wall_ref"] for c in traced) / statistics.median(c["wall_ref"] for c in plain),
            n,
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(t for s, t in zip(spans, own) if s[0].startswith(layer + ".")) / n, n)
    return out


def function_summary(cycles: list) -> dict:
    """Calls, total and self seconds per traced function, per traced cycle."""
    summary: dict = {}
    traced = [c for c in cycles if c["traced"]]
    for c in traced:
        for s, own in zip(c["spans"], self_times(c["spans"])):
            entry = summary.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1 / len(traced)
            entry["total_s"] += (s[2] - s[1]) / len(traced)
            entry["self_s"] += own / len(traced)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record as JSON to this path")
    args = parser.parse_args(argv)

    cli = load_program()
    workload = make_workload(args.workload, args.seed)
    env = environment()
    print("env " + json.dumps(env), flush=True)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        files = write_configs(workload, workdir)
        setup = [] if args.trace else measure_setup([p for p, _ in files])

        calibrate = Calibration(max(op.M for op in workload.ops), max(op.N for op in workload.ops))
        cycles = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(cycles) % 2 == 1
            start_calibration = cycles[-1]["calibration_s"][-1] if cycles else calibrate()
            cycles.append(run_cycle(cli, workload, len(cycles), files, traced, calibrate, start_calibration))
            c = cycles[-1]
            print(
                f"cycle {c['cycle']}{' traced' if traced else ''}: {c['wall_s']:.3f} s, "
                f"{c['wall_ref']:.1f} ref, calibration {statistics.median(c['calibration_s']) * 1000:.2f} ms, "
                f"rss {c['rss_mb']:.0f} MB, peak {c['peak_rss_mb']:.0f} MB",
                flush=True,
            )
            if (not args.trace or len(cycles) >= 2) and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [o for c in cycles for o in c["ops"]]
    failed = [o for o in ops if o["problems"]]
    for o in failed:
        print(f"FAILED {o['name']} seed={o['seed']}: {'; '.join(o['problems'])}", flush=True)
    # Untraced cycles' wall-time figures: per-layer metrics, and printed with the end-to-end ones.
    measured = wall_metrics([c for c in cycles if not c["traced"]])
    if args.trace:
        reported, measured = PER_LAYER, {**layer_metrics(cycles), **measured}
    else:
        reported, measured = END_TO_END, {**end_to_end_metrics(cycles, setup), **measured}
    for name, (value, count) in measured.items():
        print(f"{name} = {value:.6g} {UNITS[name]} (n={count})", flush=True)
    if setup:
        print(
            f"set-up wall time: reference work {statistics.median(r for r, _ in setup):.4f} s, "
            f"mrbsde import and configs {statistics.median(s for _, s in setup):.4f} s (n={len(setup)})",
            flush=True,
        )
    metrics = {name: measured[name] for name in reported}

    if args.record:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "setup_s": setup,
            "metrics": {k: {"value": v, "unit": UNITS[k], "n": n} for k, (v, n) in measured.items()},
            "cycles": [{k: v for k, v in c.items() if k != "spans"} for c in cycles],
            "functions": function_summary(cycles),
        }
        Path(args.record).write_text(json.dumps(record, indent=1), encoding="utf-8")

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
