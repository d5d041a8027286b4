"""Write the reference snapshots the gate compares operations against.

    python3 perfbench/capture_reference.py

Runs the first cycle of every workload at the default seed and stores each
operation's deterministic artifact content under ``perfbench/reference``.
Run it only at a commit whose outputs are the accepted reference; an
operation that fails the gate's other checks is not captured.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from gate import check, reference_path, snapshot
from workloads import DEFAULT_SEED, WORKLOADS, make_workload


def main() -> int:
    cli = run.load_program()
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="capture-", dir=scratch))
    failed = 0
    try:
        for name in WORKLOADS:
            workload = make_workload(name, DEFAULT_SEED)
            files = run.write_configs(workload, workdir)
            for index, (op, (config_path, outdir)) in enumerate(zip(workload.ops, files)):
                seed = workload.call_seed(0, index)
                rc, error, _, _ = run.run_op(cli, op, seed, config_path, outdir)
                problems = ([error] if error else []) + check(outdir, op.subcommand, rc).problems
                target = reference_path(name, op.name, seed)
                if problems:
                    failed += 1
                    print(f"not captured {target.name}: {'; '.join(problems)}", file=sys.stderr)
                    continue
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(json.dumps(snapshot(outdir), indent=0) + "\n", encoding="utf-8")
                print(f"captured {target.relative_to(run.HERE)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
