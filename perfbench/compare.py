"""Compare two run records written by ``run.py --record``.

    python3 perfbench/compare.py before.json after.json

Prints each metric of both runs with the after/before ratio, and flags the
comparison when the two runs differ in workload, trace mode or environment
(Python, numpy, BLAS and its thread count, cores, CPU model), since their
timings are then not comparable.
"""

from __future__ import annotations

import json
import sys


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{prefix}{key}.")
    else:
        yield prefix[:-1], obj


def differences(before: dict, after: dict) -> list:
    """What makes two records' timings incomparable, as messages."""
    out = [
        f"{key}: {before[key]!r} vs {after[key]!r}"
        for key in ("workload", "trace", "seconds")
        if before[key] != after[key]
    ]
    env_a, env_b = dict(_flatten(before["env"])), dict(_flatten(after["env"]))
    out += [
        f"env.{key}: {env_a.get(key)!r} vs {env_b.get(key)!r}"
        for key in sorted(env_a.keys() | env_b.keys())
        if env_a.get(key) != env_b.get(key)
    ]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for message in differences(before, after):
        print(f"DIFFERENT ENVIRONMENT {message}")
    for name, entry in before["metrics"].items():
        b = entry["value"]
        a = after["metrics"].get(name, {}).get("value")
        ratio = f"{a / b:.3f}" if a is not None and b else "n/a"
        print(f"{name:34s} {b:14.6g} {a if a is None else format(a, '14.6g'):>14} {ratio:>7} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
