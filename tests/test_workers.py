"""The forked worker processes that ``rates`` and ``stability`` split their passes across."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mrbsde import MrbsdeError, NonFinite, TimeGrid, mollify_obstacle, penalty_sweep, simulate_forward
from mrbsde import diagnostics, penalized, stability_experiment
from mrbsde.cli import build_config, main

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
SRC = Path(penalized.__file__).resolve().parents[1]
IMPLICIT_MEAN_PENALTY = penalized.implicit_mean_penalty
# A child process's stdout is block-buffered only where Python's output is not unbuffered.
BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: every part runs in-process")
two_cpus = pytest.mark.skipif(CPUS < 2 or not hasattr(os, "fork"), reason="one worker: no child process")


def raise_non_finite(j):
    raise NonFinite(f"non-finite solution values at step {j}")


def small_case(preset, M=1500, N=30):
    cfg = build_config({"preset": preset, "numerics": {"M": M, "N": N}})
    grid = TimeGrid(cfg.spec.horizon, cfg.N)
    cloud = simulate_forward(cfg.spec, grid, cfg.M, cfg.seed)
    return cfg, cloud, mollify_obstacle(cfg.spec.obstacle, 20, grid)


class TestWorkerCount:
    def test_never_more_than_the_cpus_or_the_parts(self):
        assert penalized._worker_count(100000, 1000) == CPUS
        assert penalized._worker_count(0, 1000) == CPUS
        assert penalized._worker_count(100000, 2) == min(2, CPUS)
        assert penalized._worker_count(0, 1) == 1
        assert penalized._worker_count(1, 6) == 1

    @forks
    def test_zero_is_one_per_cpu_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7}, raising=False)
        assert penalized._worker_count(0, 6) == 4
        assert penalized._worker_count(3, 6) == 3
        assert penalized._worker_count(100000, 6) == 4
        assert penalized._worker_count(0, 3) == 3

    def test_without_fork_every_part_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert penalized._worker_count(0, 6) == 1
        assert penalized._worker_count(100000, 6) == 1

    def test_negative_is_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            penalized._worker_count(-1, 6)


@pytest.mark.parametrize("length", range(1, 8))
@pytest.mark.parametrize("count", [1, 2, 3])
def test_split_keeps_the_order_in_contiguous_groups_of_near_equal_length(length, count):
    items = list(range(length))
    groups = penalized._split(items, min(count, length))
    assert [x for group in groups for x in group] == items
    assert len(groups) == min(count, length)
    sizes = [len(group) for group in groups]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1 and sizes[-1] >= 1


class TestInWorkers:
    @two_cpus
    def test_the_last_part_runs_here_and_each_other_in_a_child(self):
        results = penalized._in_workers(lambda part: (part, os.getpid()), ["a", "b", "c"])
        assert [part for part, _ in results] == ["a", "b", "c"]
        pids = [pid for _, pid in results]
        assert pids[-1] == os.getpid() and len(set(pids)) == 3

    def test_one_part_runs_here_without_a_child(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert penalized._in_workers(lambda part: part * 2, [21]) == [42]

    @two_cpus
    @pytest.mark.parametrize("death, status", [(lambda: os._exit(3), "exit status 3"),
                                               (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9")])
    def test_a_child_that_ends_without_a_result_raises(self, death, status):
        parent = os.getpid()

        def part(p):
            if os.getpid() != parent:
                death()
            return p

        with pytest.raises(MrbsdeError, match=rf"worker process \d+ ended without a result \({status}\)"):
            penalized._in_workers(part, [1, 2])

    @two_cpus
    def test_an_interrupt_here_kills_and_reaps_every_child(self):
        def part(p):
            if p == "sleep":
                time.sleep(60)
            raise KeyboardInterrupt

        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            penalized._in_workers(part, ["sleep", "interrupt"])
        assert time.monotonic() - t0 < 30  # the sleeping child was killed, not waited for

    @two_cpus
    def test_children_leave_without_atexit_handlers_or_a_flush_of_inherited_stdio(self):
        script = (
            "import atexit, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from mrbsde import penalized\n"
            "atexit.register(print, 'atexit ran')\n"
            "print('buffered before the fork')\n"  # stdout is a pipe, so the line is still in the buffer
            "assert penalized._in_workers(lambda part: part, [1, 2, 3]) == [1, 2, 3]\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=BUFFERED
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "buffered before the fork\natexit ran\n"

    @two_cpus
    def test_an_orphaned_child_exits_at_its_write_to_the_closed_pipe(self):
        # The parent dies without reading; the child outlives it and then writes
        # more than a pipe holds. The run returns only once the child, which
        # holds the run's stdout, has exited, and neither process flushes it.
        script = (
            "import os, sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from mrbsde import penalized\n"
            "print('buffered before the fork')\n"
            "def part(p):\n"
            "    if p == 'child':\n"
            "        time.sleep(1.0)\n"
            "        return b'x' * (1 << 22)\n"
            "    os._exit(0)\n"
            "penalized._in_workers(part, ['child', 'parent'])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=BUFFERED
        )
        assert (done.returncode, done.stdout) == (0, "")


class TestFailures:
    """A split sweep raises the failure the serial sweep meets first: latest node, then lowest pass."""

    LEVELS = (25, 50, 100, 200)

    def failing_sweep(self, monkeypatch, fail, workers):
        """penalty_sweep where level n fails at node ``fail[n]``; returns (type, message) of what it raises."""
        cfg, cloud, u_k = small_case("AFFINE")
        N, calls = cloud.grid.N, {}

        def penalty(p_val, u_val, n, delta):
            j = N - 1 - calls.get(n, 0)  # each pass steps every node once, from N - 1 down
            calls[n] = calls.get(n, 0) + 1
            if fail.get(n) == j:
                raise ValueError(f"level {n} fails at node {j}")
            return IMPLICIT_MEAN_PENALTY(p_val, u_val, n, delta)

        monkeypatch.setattr(penalized, "implicit_mean_penalty", penalty)
        with pytest.raises(Exception) as excinfo:
            penalty_sweep(cfg.spec, u_k, self.LEVELS, cloud, cfg.basis, workers=workers)
        return type(excinfo.value), str(excinfo.value)

    @pytest.mark.parametrize(
        "fail, expected",
        [
            ({50: 10, 100: 20}, "level 100 fails at node 20"),  # a later node in a later group comes first
            ({50: 20, 100: 10}, "level 50 fails at node 20"),
            ({50: 20, 100: 20}, "level 50 fails at node 20"),  # one node: the lower pass
            ({25: 20, 50: 20, 200: 20}, "level 25 fails at node 20"),
            ({200: 29, 25: 3}, "level 200 fails at node 29"),
        ],
    )
    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_split_sweep_raises_the_serial_failure(self, monkeypatch, fail, expected, workers):
        serial = self.failing_sweep(monkeypatch, fail, 1)
        assert serial == (ValueError, expected)
        assert self.failing_sweep(monkeypatch, fail, workers) == serial

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_non_finite_pass_in_a_child_raises_as_in_the_serial_experiment(self, workers):
        # The sorted epsilons split as [-1e308, 0.05] and [0.1]: the overflowing
        # pass runs in the child, next to its own base pass.
        cfg, cloud, u_k = small_case("BOUNDARY")
        eps = (0.1, -1e308, 0.05)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite) as serial:
            stability_experiment(cfg.spec, cloud, eps, u_k, 800, cfg.basis)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite) as split:
            stability_experiment(cfg.spec, cloud, eps, u_k, 800, cfg.basis, workers=workers)
        assert str(split.value) == str(serial.value) == f"non-finite solution values at step {cloud.grid.N - 1}"


@pytest.mark.parametrize("preset", ["AFFINE", "BOUNDARY"])
def test_rates_and_stability_are_bit_identical_at_every_worker_count(preset):
    cfg, cloud, u_k = small_case(preset)
    levels, eps = (25, 50, 100, 200, 400), (0.1, 0.05, 0.025)

    def run(workers):
        records, last = penalty_sweep(cfg.spec, u_k, levels, cloud, cfg.basis, workers=workers)
        rows = stability_experiment(cfg.spec, cloud, eps, u_k, 800, cfg.basis, workers=workers)
        fields = [
            np.asarray([[r.sup_deficit, r.sup_neg_sq, r.integral_neg_sq, r.flatness_residual] for r in records]),
            np.asarray([r.cauchy_mean_dist for r in records[1:]]),
            np.asarray([[r.epsilon, r.sup_mean_sq_dy, r.integral_mean_sq_dz] for r in rows]),
        ]
        arrays = ("Y", "mean_path", "K", "mean_f_dt", "mean_g_dkappa", "mean_z", "mean_y2", "mean_z2")
        return [a.tobytes() for a in fields] + [getattr(last, name).tobytes() for name in arrays]

    serial = run(1)
    for workers in (2, 3):
        assert run(workers) == serial


class TestCli:
    def write_config(self, tmp_path, **doc):
        path = tmp_path / "config.json"
        document = {"preset": "BOUNDARY", "numerics": {"M": 1500, "N": 24}, "output": str(tmp_path / "out"), **doc}
        path.write_text(json.dumps(document), encoding="utf-8")
        return path

    @forks
    @pytest.mark.parametrize(
        "subcommand, parts", [("rates", 6), ("stability", 3), ("solve", 1), ("oracle-check", 1)]
    )
    @pytest.mark.parametrize("threads", [0, 1, 2, 100000])
    def test_a_run_starts_no_more_processes_than_cpus_or_parts(self, tmp_path, monkeypatch, subcommand, parts, threads):
        started, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                started.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        assert main([subcommand, "--config", str(self.write_config(tmp_path)), "--threads", str(threads)]) == 0
        workers = 1 if subcommand in ("solve", "oracle-check") else min(CPUS, parts, threads or CPUS)
        assert len(started) == workers - 1

    @two_cpus
    @pytest.mark.parametrize(
        "failure, error",
        [
            (lambda: os._exit(3), r"worker process \d+ ended without a result \(exit status 3\)"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), r"worker process \d+ ended without a result"),
            (lambda: raise_non_finite(7), "^non-finite solution values at step 7$"),
        ],
        ids=["exit", "killed", "failing-part"],
    )
    def test_a_failing_worker_fails_the_run_and_leaves_no_process(self, tmp_path, monkeypatch, failure, error):
        parent, difference_moments = os.getpid(), diagnostics._difference_moments

        def failing(*args):
            if os.getpid() != parent:
                failure()
            return difference_moments(*args)

        monkeypatch.setattr(diagnostics, "_difference_moments", failing)
        assert main(["stability", "--config", str(self.write_config(tmp_path)), "--threads", "2"]) == 1
        manifest = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["manifest"]
        assert manifest["status"] == "failed"
        assert re.search(error, manifest["error"])
