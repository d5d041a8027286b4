"""Config ingestion, experiment orchestration, and artifact emission.

Config documents are JSON with sections problem / numerics / schedule plus
seed, threads, and output. Parsing is strict: the keys of each problem
component and of the schedule are the fields of its spec dataclass, an
absent key takes the dataclass default, unknown keys are errors, and every
number must be finite. Artifacts are written atomically and the manifest
is emitted even when a run fails, with a failed marker.

The thread-count knob is recorded nowhere in the artifacts: outputs are a
pure function of (problem, numerics, schedule, seed), so artifacts stay
byte-identical across thread counts. Timings (wall_ms) are the one
non-reproducible column.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import apriori_report, rate_fit, stability_experiment
from .errors import ConfigError, MrbsdeError, NonPositiveError, NotConverged, ParseError
from .mollify import mollify_obstacle
from .oracle import reference_paths
from .paths import TimeGrid, simulate_forward
from .penalized import RegressionBasis
from .presets import PRESETS, preset_config
from .problem import BoundarySpec, ProblemSpec, validate_problem
from .reflect import ConvergenceSchedule, penalty_sweep, solve_reflected

_STABILITY_EPS = (0.1, 0.05, 0.025)


# ---------------------------------------------------------------------------
# strict document -> object builders


def _check_keys(doc: dict, allowed, required, where: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"section {where} must be an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in doc:
            raise ParseError(f"missing key {key!r} in {where}")


def _num(val, where: str, integer: bool = False):
    """Check one config number: not a bool, finite, integral when asked."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(f"{where} must be a number, got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ParseError(f"{where} must be finite, got {val!r}")
    if integer:
        if val != int(val):
            raise ParseError(f"{where} must be an integer, got {val!r}")
        return int(val)
    return val


def _build(cls, where: str, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ParseError(f"invalid {where}: {exc}") from exc


# Keys a config must give although the dataclass has a default for them.
_REQUIRED = {
    ProblemSpec: ("driver", "boundary", "terminal", "obstacle", "kappa", "brownian_dim", "horizon"),
    BoundarySpec: ("family", "beta"),
    ConvergenceSchedule: ("n_levels", "k_levels", "deficit_tol", "cauchy_tol"),
}


def _value(tp, val, where: str):
    """Read one config value as the field annotation ``tp`` says."""
    if type(None) in typing.get_args(tp):  # an optional field: X | None
        return None if val is None else _value(typing.get_args(tp)[0], val, where)
    if dataclasses.is_dataclass(tp):
        return _section(tp, val, where)
    if tp is float:
        return float(_num(val, where))
    if tp is int:
        return _num(val, where, integer=True)
    if tp is str:
        if not isinstance(val, str):
            raise ParseError(f"{where} must be a string, got {val!r}")
        return val
    if tp is dict:
        if not isinstance(val, dict):
            raise ParseError(f"{where} must be an object")
        return {key: _num(v, f"{where}.{key}") for key, v in val.items()}
    if not isinstance(val, (list, tuple)):  # tuple, or tuple[int, ...] for integer entries
        raise ParseError(f"{where} must be an array")
    integer = typing.get_args(tp)[:1] == (int,)
    return tuple(_num(v, f"{where}[{i}]", integer) for i, v in enumerate(val))


@functools.cache
def _schema(cls) -> tuple[dict, tuple]:
    """Field annotations and required keys of a config section's dataclass."""
    required = _REQUIRED.get(cls) or tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return typing.get_type_hints(cls), required


def _section(cls, doc: dict, where: str):
    """Build dataclass ``cls`` from one config object.

    The keys are the dataclass fields and absent keys take the dataclass
    defaults; the fields without a default, and those ``_REQUIRED`` names,
    must be present.
    """
    types, required = _schema(cls)
    _check_keys(doc, types, required, where)
    return _build(cls, where, **{key: _value(types[key], val, f"{where}.{key}") for key, val in doc.items()})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run request."""

    spec: ProblemSpec
    M: int
    N: int
    basis: RegressionBasis
    quad_points: int
    schedule: ConvergenceSchedule
    seed: int
    output: str
    preset: str | None
    document: dict  # merged config document; echoed in the manifest


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def build_config(doc: dict) -> RunConfig:
    """Resolve a config document (with optional preset expansion) strictly."""
    _check_keys(
        doc,
        {"preset", "problem", "numerics", "schedule", "seed", "threads", "output"},
        set(),
        "config",
    )
    preset = doc.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ParseError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        merged = _deep_merge(preset_config(preset), {k: v for k, v in doc.items() if k != "preset"})
    else:
        merged = copy.deepcopy(doc)

    for section in ("problem", "numerics", "schedule"):
        if section not in merged:
            raise ParseError(f"missing section {section!r} in config")
    for scalar in ("seed", "output"):
        if scalar not in merged:
            raise ParseError(f"missing key {scalar!r} in config")

    spec = _section(ProblemSpec, merged["problem"], "problem")

    numerics = merged["numerics"]
    _check_keys(numerics, {"M", "N", "basis", "degree", "quad_points"}, {"M", "N", "basis"}, "numerics")
    m_particles = _num(numerics["M"], "numerics.M", integer=True)
    n_steps = _num(numerics["N"], "numerics.N", integer=True)
    if m_particles < 2:
        raise ConfigError(f"M must be >= 2, got {m_particles}")
    if n_steps < 2:
        raise ConfigError(f"N must be >= 2, got {n_steps}")
    basis = _build(
        RegressionBasis,
        "numerics.basis",
        kind=numerics["basis"],
        degree=_num(numerics.get("degree", 2), "numerics.degree", integer=True),
    )
    if basis.kind == "forward" and spec.forward is None:
        raise ConfigError("numerics.basis 'forward' needs forward SDE coefficients in the problem")
    n_basis = basis.size(spec.brownian_dim)
    if m_particles <= n_basis:
        raise ConfigError(f"M must exceed the {n_basis} regression basis functions, got {m_particles}")
    quad_points = _num(numerics.get("quad_points", 64), "numerics.quad_points", integer=True)

    schedule = _section(ConvergenceSchedule, merged["schedule"], "schedule")
    seed = _num(merged["seed"], "config.seed", integer=True)
    if not 0 <= seed < 2**64:
        raise ParseError(f"config.seed must be in [0, 2**64), got {seed}")
    _num(merged.get("threads", 0), "config.threads", integer=True)  # validated; never affects a run
    output = merged["output"]
    if not isinstance(output, str):
        raise ParseError("config key 'output' must be a string")

    return RunConfig(
        spec=spec,
        M=m_particles,
        N=n_steps,
        basis=basis,
        quad_points=quad_points,
        schedule=schedule,
        seed=seed,
        output=output,
        preset=preset,
        document=merged,
    )


def _load_json(path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    return doc


def parse_config(path) -> RunConfig:
    """Load and strictly resolve a JSON config file."""
    return build_config(_load_json(path))


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.12g}"


def write_atomic(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def _mean_path_csv(times, mean_y, mean_z, u_vals, uk_vals, K) -> bytes:
    header = ["t", "mean_Y"] + [f"mean_Z_{c + 1}" for c in range(mean_z.shape[1])] + ["u", "u_k", "K", "flatness_cum"]
    flat_cum = np.concatenate([[0.0], np.cumsum((mean_y[:-1] - uk_vals[:-1]) * np.diff(K))])
    return _csv(header, np.column_stack([times, mean_y, mean_z, u_vals, uk_vals, K, flat_cum]))


_CONVERGENCE_COLUMNS = ("k", "n", "sup_neg_sq", "integral_neg_sq", "cauchy_mean_dist", "flatness_residual", "wall_ms")


def _convergence_csv(records) -> bytes:
    return _csv(_CONVERGENCE_COLUMNS, ([getattr(rec, c) for c in _CONVERGENCE_COLUMNS] for rec in records))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _report_json(manifest: dict, diagnostics: dict) -> bytes:
    payload = _jsonable({"manifest": manifest, "diagnostics": diagnostics})
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# experiment dispatch


def _rate_summary(levels, values, name: str) -> dict:
    positive = [(lv, v) for lv, v in zip(levels, values) if v > 0.0]
    below = [lv for lv, v in zip(levels, values) if v <= 0.0]
    out: dict = {"below_noise_floor": below}
    if len(positive) >= 3:
        fit = rate_fit([lv for lv, _ in positive], [v for _, v in positive])
        out.update({"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared})
    else:
        out.update({"slope": None, "intercept": None, "r_squared": None})
        out["note"] = f"fewer than 3 positive {name} values; no fit"
    return out


def run_experiment(config: RunConfig, subcommand: str) -> dict:
    """Run one subcommand, emit its artifacts atomically, and return its diagnostics.

    The manifest lands in report.json in every case; failed runs carry
    status "failed" plus the error message alongside whatever partial
    tables were produced.
    """
    if subcommand not in ("solve", "rates", "stability", "oracle-check"):
        raise ValueError(f"unknown subcommand {subcommand!r}")

    outdir = Path(config.output)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {outdir} is not writable: {exc}") from exc

    echo = {k: v for k, v in config.document.items() if k not in ("threads", "output")}
    manifest = {
        "package": "mrbsde",
        "version": __version__,
        "subcommand": subcommand,
        "seed": config.seed,
        "preset": config.preset,
        "config": echo,
        "status": "ok",
        "error": None,
    }

    diagnostics: dict = {}
    try:
        checks = validate_problem(config.spec, samples=1000, seed=config.seed)
        failed = [c for c in checks if c.status == "fail"]
        if failed:
            raise ConfigError(
                "problem validation failed: " + "; ".join(f"{c.assumption}: {c.detail}" for c in failed)
            )
        diagnostics["validation"] = [dataclasses.asdict(c) for c in checks]

        grid = TimeGrid(config.spec.horizon, config.N)
        if subcommand == "oracle-check":  # before the solve, so a problem with no reference fails fast
            mean_o, k_o, kind = reference_paths(config.spec, grid)
        cloud = simulate_forward(config.spec, grid, config.M, config.seed)
        times = grid.times
        u_vals = config.spec.obstacle.evaluate(times)

        if subcommand in ("solve", "oracle-check"):
            refl = solve_reflected(config.spec, cloud, config.schedule, config.basis, config.quad_points)
            apri = apriori_report(refl.solution, config.spec, cloud)
            final = refl.trace[-1]
            diagnostics["final_level"] = {"k": final.k, "n": final.n}
            diagnostics["sup_deficit"] = final.sup_deficit
            diagnostics["flatness_residual"] = final.flatness_residual
            diagnostics["K_T"] = float(refl.K[-1])
            diagnostics["compensator_warnings"] = list(refl.warnings)
            diagnostics["apriori"] = dataclasses.asdict(apri)
            mean_path = refl.solution.mean_path
            write_atomic(
                outdir / "mean_path.csv",
                _mean_path_csv(times, mean_path, refl.solution.mean_z, u_vals, refl.obstacle.values, refl.K),
            )
            write_atomic(outdir / "convergence.csv", _convergence_csv(refl.trace))

            if subcommand == "oracle-check":
                diagnostics["oracle"] = {
                    "kind": kind,
                    "mean_gap": float(np.max(np.abs(mean_path - mean_o))),
                    "K_gap": float(np.max(np.abs(refl.K - k_o))),
                }

        elif subcommand == "rates":
            u_k = mollify_obstacle(config.spec.obstacle, max(config.schedule.k_levels), grid, config.quad_points)
            records, sol = penalty_sweep(config.spec, u_k, config.schedule.n_levels, cloud, config.basis)
            levels = [rec.n for rec in records]
            diagnostics["rates"] = {
                "k": u_k.level,
                "sup_neg_sq": _rate_summary(levels, [rec.sup_neg_sq for rec in records], "sup_neg_sq"),
                "integral_neg_sq": _rate_summary(
                    levels, [rec.integral_neg_sq for rec in records], "integral_neg_sq"
                ),
                "cauchy_mean_dist": _rate_summary(
                    levels[:-1], [rec.cauchy_mean_dist for rec in records[1:]], "cauchy"
                ),
            }
            diagnostics["apriori_ratio"] = apriori_report(sol, config.spec, cloud).ratio
            write_atomic(outdir / "convergence.csv", _convergence_csv(records))

        else:  # stability
            k = max(config.schedule.k_levels)
            n = max(config.schedule.n_levels)
            u_k = mollify_obstacle(config.spec.obstacle, k, grid, config.quad_points)
            rows = stability_experiment(config.spec, cloud, _STABILITY_EPS, u_k, n, config.basis)
            diagnostics["stability"] = {"k": k, "n": n, "rows": [dataclasses.asdict(r) for r in rows]}
            try:
                fit = rate_fit([r.epsilon for r in rows], [r.sup_mean_sq_dy for r in rows])
                diagnostics["stability"]["slope"] = fit.slope
                diagnostics["stability"]["r_squared"] = fit.r_squared
            except NonPositiveError:
                diagnostics["stability"]["slope"] = None
                diagnostics["stability"]["r_squared"] = None

    except Exception as exc:
        manifest["status"] = "failed"
        manifest["error"] = str(exc) if isinstance(exc, MrbsdeError) else f"{type(exc).__name__}: {exc}"
        if isinstance(exc, NotConverged) and exc.trace:
            write_atomic(outdir / "convergence.csv", _convergence_csv(exc.trace))
        write_atomic(outdir / "report.json", _report_json(manifest, diagnostics))
        raise

    write_atomic(outdir / "report.json", _report_json(manifest, diagnostics))
    return diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mrbsde",
        description="Mean-reflected McKean-Vlasov BSDE experiments",
    )
    parser.add_argument("subcommand", choices=["solve", "rates", "stability", "oracle-check"])
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--preset", help=f"preset name: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, help="worker count knob (0 = auto); never affects outputs")
    parser.add_argument("--out", help="override the output directory")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            doc = _load_json(args.config)
        elif args.preset is not None:
            doc = {}
        else:
            print("error: provide --config and/or --preset", file=sys.stderr)
            return 1

        if args.preset is not None:
            doc["preset"] = args.preset
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.threads is not None:
            doc["threads"] = args.threads
        if args.out is not None:
            doc["output"] = args.out

        config = build_config(doc)
        run_experiment(config, args.subcommand)
        return 0
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 2
    except MrbsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
