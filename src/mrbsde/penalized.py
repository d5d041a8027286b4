"""Backward-Euler particle scheme for the unconstrained penalized equation.

One backward step estimates the conditional expectation and the martingale
integrand by least-squares projection on a polynomial basis, applies the
driver and boundary terms explicitly, and then enforces the penalty
implicitly at the mean level through a closed-form root. The implicit
penalty is what removes any n * dt stability restriction: the level n can
grow without bound at a fixed grid.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import LengthMismatch, MrbsdeError, NonFinite, RankDeficient
from .mollify import SmoothObstacle
from .paths import ForwardCloud, TimeGrid
from .problem import ProblemSpec, _driver_terms, eval_boundary

_COND_LIMIT = 1e12
_COND_FUDGE_AT = 1e10
_TIKHONOV_REL = 1e-10

@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis for conditional expectations.

    kind 'forward' uses the forward state, 'brownian' the current Brownian
    position (all coordinates), 'constant' an intercept only. Every kind
    includes the intercept, so projections reproduce constants exactly and
    fitted values always average to the target mean.
    """

    kind: str = "brownian"
    degree: int = 2

    def __post_init__(self):
        if self.kind not in ("constant", "forward", "brownian"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def size(self, d: int) -> int:
        """Number of basis functions p on a cloud with ``d`` Brownian coordinates."""
        if self.kind == "constant":
            return 1
        return 1 + self.degree * (d if self.kind == "brownian" else 1)


def build_design(features: np.ndarray, basis: RegressionBasis) -> np.ndarray:
    """Design matrix: intercept plus per-coordinate powers 1..degree.

    Each power is the previous one times the coordinate, written straight
    into its column of one C-ordered array: the fits' last bits depend on
    that layout.
    """
    if basis.kind == "constant" or basis.degree == 0:
        return np.ones((features.shape[0], 1))
    feats = np.asarray(features, dtype=float)
    if feats.ndim == 1:
        feats = feats[:, None]
    m, d = feats.shape
    design = np.empty((m, 1 + d * basis.degree))
    design[:, 0] = 1.0
    for c in range(d):
        first = 1 + c * basis.degree
        design[:, first] = feats[:, c]
        for col in range(first + 1, first + basis.degree):
            np.multiply(design[:, col - 1], feats[:, c], out=design[:, col])
    return design


def _checked_gram(design: np.ndarray) -> np.ndarray:
    """Gram matrix of a design, with a fixed relative Tikhonov fudge when near-singular."""
    gram = design.T @ design
    n_basis = gram.shape[0]
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_FUDGE_AT:
        gram = gram + (_TIKHONOV_REL * np.trace(gram) / n_basis) * np.eye(n_basis)
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise RankDeficient(f"regularized Gram condition {cond:.3g} exceeds {_COND_LIMIT:.0e}")
    return gram


def _working_block(shape, n_basis: int) -> np.ndarray:
    """An empty block for a step's targets, F-ordered so that each column is contiguous.

    A fit's bits follow the C-ordered design, not an F-ordered block, unless
    one basis function makes ``design.T @ targets`` a matrix-vector product.
    """
    return np.empty(shape, order="C" if n_basis == 1 else "F")


def _fit(cloud: ForwardCloud, basis: RegressionBasis, j: int, targets: np.ndarray, design: np.ndarray):
    """Fit ``targets`` on step j's ``design`` of ``basis`` on ``cloud``, writing the fitted values over them.

    The checked Gram of the design is formed once per cloud and step and
    kept in ``cloud.grams`` for every later pass. Returns the fitted values
    and the coefficients.
    """
    gram = cloud.grams.get((basis, j))
    if gram is None:
        gram = cloud.grams[basis, j] = _checked_gram(design)
    coef = np.linalg.solve(gram, design.T @ targets)
    return np.matmul(design, coef, out=targets), coef


def _build_node_design(cloud: ForwardCloud, basis: RegressionBasis, j: int) -> np.ndarray:
    features = cloud.forward_state if basis.kind == "forward" else cloud.brownian
    return build_design(features[j], basis)


def implicit_mean_penalty(p_val: float, u_val: float, n: float, delta: float) -> float:
    """Root of x = p_val + n * delta * (x - u_val)^-.

    The map is strictly increasing in x so the root is unique: p_val itself
    when the constraint is slack, otherwise the weighted average
    (p_val + n * delta * u_val) / (1 + n * delta), which saturates at u_val
    as n * delta grows. At n * delta = inf the root is that limit,
    max(p_val, u_val): the mean-level projection onto the obstacle.
    """
    if not (n >= 0 and delta >= 0):  # also rejects NaN
        raise ValueError("n and delta must be >= 0")
    weight = n * delta
    if p_val >= u_val or weight != weight:  # slack, or inf * 0: a penalty with no weight
        return float(p_val)
    if weight == math.inf:
        return float(u_val)
    return float((p_val + weight * u_val) / (1.0 + weight))


@dataclass(frozen=True)
class PenalizedSolution:
    """Output of one penalized backward pass at levels (n, k).

    The pass steps in one Y row and takes each step's Z from the shared
    working block, so the solution keeps node moments, not particles: ``Y``
    is the pass's (1, M) row, the particles of node 0. ``mean_z`` carries the
    terminal row copied from the last regression step (no increment exists
    beyond T). ``mean_f_dt`` and ``mean_g_dkappa`` keep the per-step sample
    means of the driver and boundary contributions exactly as the scheme
    evaluated them, which makes the compensator recoverable to round-off
    from the mean path. ``mean_y2`` and ``mean_z2`` are None for a pass of a
    lockstep sweep that reduced them for another pass.
    """

    grid: TimeGrid
    Y: np.ndarray  # (1, M): node 0
    mean_path: np.ndarray  # (N+1,)
    K: np.ndarray  # (N+1,)
    mean_f_dt: np.ndarray  # (N,)
    mean_g_dkappa: np.ndarray  # (N,)
    mean_z: np.ndarray  # (N+1, d)
    mean_y2: np.ndarray | None  # (N+1,): E[Y_j^2]
    mean_z2: np.ndarray | None  # (N,): E|Z_j|^2


def solve_penalized(
    spec: ProblemSpec, u_k: SmoothObstacle, n: float, cloud: ForwardCloud, basis: RegressionBasis
) -> PenalizedSolution:
    """Run the backward induction from Y(T) = xi down to t = 0.

    Per step j: project Y_{j+1} * dB_j / dt and Y_{j+1} on the basis to get
    the integrand and the conditional mean, take the law moments from the
    step-(j+1) cloud, apply f and g explicitly at the conditional mean, and
    shift every particle by the implicit mean-level penalty increment. K is
    deterministic, so the shift is common to all particles. A basis that
    cannot be fitted on the cloud (a forward basis without a forward state,
    or no more particles than basis functions) fails before the first step.

    This is a lockstep sweep of one pass, whose node moments are reduced as
    each step yields its rows, so no pass holds a full solution.
    """
    return _drain(spec, u_k, cloud, basis, [(n, None)])[0][0]


def _drain(spec, u_k, cloud, basis, passes, moments=True):
    """Run a lockstep sweep of ``passes`` to its end; return each pass's solution and step time in ms.

    With ``moments``, the last pass's E[Y_j^2] and E|Z_j|^2 are reduced from
    its yields, in a row of squares allocated before the sweep's rows (peak
    RSS follows that heap order); without, no pass has node moments.
    """
    N, M, last = cloud.grid.N, cloud.M, len(passes) - 1
    if moments:
        mean_y2, mean_z2, sq = np.empty(N + 1), np.empty(N), np.empty(M)
    sweep = _lockstep(spec, u_k, cloud, basis, passes)
    while True:
        try:
            j, i, y, z = next(sweep)
        except StopIteration as done:
            solutions, step_ms = done.value
            if moments:
                solutions[-1] = replace(solutions[-1], mean_y2=mean_y2, mean_z2=mean_z2)
            return solutions, step_ms
        if moments and i == last:
            mean_y2[j] = np.add.reduce(np.square(y, out=sq)) / M
            if z is not None:
                mean_z2[j] = _mean_sq_norm(z, sq)


def _lockstep(spec, u_k, cloud, basis, passes):
    """Step ``passes``, each a (level n, terminal shift or None), backward in lockstep on one cloud.

    Each pass holds one (1, M) Y row, its Y_N being xi plus its shift (xi
    itself, sign bits included, with no shift); Y_j overwrites Y_{j+1} once
    step j has copied it into the targets. At each node j = N-1, ..., 0 the
    node's design is built once, and every pass in turn fits on it in one
    shared working block, whose first d columns the fit leaves as the step's
    Z. Yields (N, i, Y_N, None) for each pass i, then (j, i, Y_j, Z_j) after
    pass i's step: the Y row stays valid until pass i steps again, the Z view
    until the next pass fits. Returns each pass's PenalizedSolution, without
    node moments, and its own step time in ms, the first pass paying for the
    node's design. The driver's terms are resolved once per sweep, and a
    deterministic clock's dkappa and each node's penalty weight and obstacle
    value become floats every pass shares, so no step dispatches on the
    spec; a linear boundary writes beta E[Y|F] straight into the g * dkappa row.
    An error raised in a step carries the step's (node j, pass i) as
    ``_lockstep_step``, which ``_in_workers`` orders split sweeps' failures by.
    """
    if u_k.grid != cloud.grid:
        raise LengthMismatch("smooth obstacle grid does not match the cloud grid")
    if basis.kind == "forward" and cloud.forward_state is None:
        raise ValueError("forward basis requested but the cloud has no forward state")
    if cloud.M <= basis.size(cloud.d):
        raise ValueError(f"need more particles ({cloud.M}) than basis functions ({basis.size(cloud.d)})")
    N, M, d, dt, times = cloud.grid.N, cloud.M, cloud.d, cloud.grid.dt, cloud.grid.times

    # Each pass's own row and node arrays come first, the working rows after
    # them (peak RSS follows that heap order): (level, Y row, mean path,
    # mean Z, dK, mean f dt, mean g dkappa, 0.0 for the zero boundary).
    own = []
    for n, shift in passes:
        y_row = np.empty((1, M))
        mean_path, z_mean = np.empty(N + 1), np.empty((N + 1, d))
        y = y_row[0]
        y[...] = cloud.xi
        if shift is not None:
            y += shift
        mean_path[N] = np.add.reduce(y) / M
        own.append((n, y_row, mean_path, z_mean, np.zeros(N), np.zeros(N), np.zeros(N)))
    # Then the working rows the passes take turns in, dead once a step ends:
    # the (M, d+1) targets, which the fit overwrites with the step's Z and
    # conditional mean, and a g * dkappa row for a non-zero boundary, so no
    # step allocates particle arrays of its own. Every mean is numpy's own:
    # np.add.reduce over a row or a Z column, by the count.
    targets = _working_block((M, d + 1), basis.size(d))
    z, cond_mean = targets[:, :d], targets[:, d]
    has_boundary = spec.boundary.family != "zero"
    g_dkap = np.empty(M) if has_boundary else None
    # A common driver value's mean is numpy's sum of its M copies, which can
    # differ from it in the last bit; the zero driver's is 0.0, not taken.
    phi, common = _driver_terms(spec.driver)
    sum_f, linear_g = spec.driver.family != "zero", spec.boundary.family == "linear-monotone"
    f_one = np.empty(1)
    f_vals = np.broadcast_to(f_one, M)
    dkaps = np.diff(cloud.kappa[:, 0]).tolist() if cloud.kappa.strides[1] == 0 else None
    deltas, u_vals = (dt + np.diff(cloud.mean_kappa)).tolist(), u_k.values.tolist()
    step_ms = [0.0] * len(own)
    for i, (_, y_row, *_) in enumerate(own):
        yield N, i, y_row[0], None
    j = i = None
    try:
        for j in range(N - 1, -1, -1):
            t0 = time.perf_counter()
            # Drop the old design before the new one is built, so the two are never held at once.
            design = None
            design = _build_node_design(cloud, basis, j)
            for i, (n, y_row, mean_path, z_mean, dK, mean_f_dt, mean_g_dkappa) in enumerate(own):
                y = y_row[0]
                # Y dB / dt straight into the targets' Z columns, one at a time
                # (a broadcast Y would make numpy buffer an (M, d) temporary).
                # Y_{j+1} is dead once it is the last column: Y_j takes its row.
                for c in range(d):
                    np.multiply(y, cloud.dB[j, :, c], out=targets[:, c])
                np.divide(z, dt, out=z)
                cond_mean[...] = y
                _fit(cloud, basis, j, targets, design)
                z_mean[j] = np.add.reduce(z) / M

                # Law moments from the step-(j+1) cloud; Z beyond the last
                # regression step does not exist, so the first backward step
                # reuses its own Z.
                m_y, mz1 = float(mean_path[j + 1]), float(z_mean[min(j + 1, N - 1), 0])

                # Y_j = (cond_mean + f dt) + g dkappa, built in place in the row;
                # a common driver value and a deterministic dkappa are one float.
                if common:
                    f_one[0] = f = phi(None, None, m_y, mz1)
                    np.add(cond_mean, f * dt, out=y)
                else:
                    f_vals = phi(cond_mean, targets[:, 0], m_y, mz1)
                    np.multiply(f_vals, dt, out=y)
                    np.add(cond_mean, y, out=y)
                if sum_f:
                    mean_f_dt[j] = float(np.add.reduce(f_vals) / M) * dt
                if has_boundary:
                    if linear_g:
                        g_vals = np.multiply(cond_mean, spec.boundary.beta, out=g_dkap)
                    else:
                        g_vals = eval_boundary(spec.boundary, times[j], cond_mean)
                    dkap = dkaps[j] if dkaps is not None else cloud.kappa[j + 1] - cloud.kappa[j]
                    np.multiply(g_vals, dkap, out=g_dkap)
                    y += g_dkap
                    mean_g_dkappa[j] = float(np.add.reduce(g_dkap) / M)

                p_val = float(np.add.reduce(y) / M)
                dK[j] = dk = implicit_mean_penalty(p_val, u_vals[j], n, deltas[j]) - p_val
                y += dk
                mean_path[j] = np.add.reduce(y) / M

                # A non-finite value anywhere in a row makes its mean non-finite.
                if not (math.isfinite(mean_path[j]) and all(map(math.isfinite, z_mean[j]))):
                    raise NonFinite(f"non-finite solution values at step {j}")
                step_ms[i] += (time.perf_counter() - t0) * 1000.0
                yield j, i, y, z
                t0 = time.perf_counter()
    except Exception as exc:
        exc._lockstep_step = (j, i)
        raise

    solutions = []
    for _, y_row, mean_path, z_mean, dK, mean_f_dt, mean_g_dkappa in own:
        z_mean[N] = z_mean[N - 1]  # the terminal row: no increment exists beyond T
        K = np.concatenate([[0.0], np.cumsum(dK)])
        solutions.append(
            PenalizedSolution(cloud.grid, y_row, mean_path, K, mean_f_dt, mean_g_dkappa, z_mean, None, None)
        )
    return solutions, step_ms


def _mean_sq_norm(z: np.ndarray, out: np.ndarray) -> np.floating:
    """E|z|^2 over the rows of an (M, d) array, with the bits of ``np.mean(np.sum(z ** 2, axis=1))``.

    numpy adds fewer than 8 terms of a row left to right, so for d < 8 the
    squares of z's columns are added left to right into the (M,) row
    ``out`` and then averaged, without the reduction over a short last
    axis, which is slow. From 8 terms on numpy sums pairwise, and the
    reduction is numpy's own.
    """
    d = z.shape[1]
    if d >= 8:
        return np.mean(np.sum(z**2, axis=1))
    acc = np.square(z[:, 0], out=out)
    for c in range(1, d):
        acc += np.square(z[:, c])
    return np.add.reduce(acc) / acc.shape[0]  # np.mean's bits, without its Python overhead


def _worker_count(workers: int, parts: int) -> int:
    """How many processes run ``parts`` independent parts when ``workers`` are asked for.

    ``workers`` 0 means one per CPU this process may use and T means at most
    T; never more than those CPUs or the parts, and 1 where os.fork does not
    exist.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(parts, cpus, workers or cpus))


def _split(items: list, count: int) -> list:
    """``items`` in ``count`` contiguous groups, in order, the first groups one longer where they do not divide."""
    size, longer = divmod(len(items), count)
    bounds = [g * size + min(g, longer) for g in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _in_workers(fn, parts: list) -> list:
    """``[fn(part) for part in parts]``, the last part in this process and each other in a forked child.

    The children run their parts while this process runs the last one; each
    sends its outcome back, pickled, over a pipe of its own, and leaves
    through os._exit, so it runs no atexit handler and flushes no inherited
    stdio. A child whose parent has gone exits at its write to the closed
    pipe. Where parts fail, the failure raised is the one a single lockstep
    sweep over all the parts' passes, in order, would have met first: the
    one at the latest node, then in the earliest part, then at the lowest
    pass of that part (so each part is a contiguous run of that sweep's
    passes, and a pass that all parts share comes first in each). A child
    that ends without an outcome raises MrbsdeError. On any other error,
    KeyboardInterrupt included, the children still running are killed; no
    child outlives this call.
    """
    children = {}  # pid -> the read end of its pipe, as a file; in part order
    try:
        for part in parts[:-1]:
            read, write = os.pipe()
            with warnings.catch_warnings():
                # CPython >= 3.12 warns that fork() in a multi-threaded process may
                # deadlock the child. The other threads here are OpenBLAS's pool,
                # which OpenBLAS quiesces at fork (pthread_atfork) and restarts in the
                # child on demand, and no lock of this process is held across it.
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _child(fn, part, write, [read, *(pipe.fileno() for pipe in children.values())])
            os.close(write)
            children[pid] = open(read, "rb")
        outcomes = [None] * len(children) + [_attempt(fn, parts[-1])]
        for index, (pid, pipe) in enumerate(list(children.items())):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            try:
                outcomes[index] = pickle.loads(data)
            except Exception:  # no bytes, or a truncated pickle: the child died before it sent its outcome
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise MrbsdeError(f"worker process {pid} ended without a result ({how})") from None
    except BaseException:
        for pid, pipe in children.items():
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise
    failures = [(_failure_order(exc, index), exc) for index, (ok, exc) in enumerate(outcomes) if not ok]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [value for _, value in outcomes]


def _attempt(fn, part):
    """(True, fn(part)), or (False, the error) where it raises an Exception."""
    try:
        return True, fn(part)
    except Exception as exc:
        return False, exc


def _child(fn, part, write: int, inherited: list):
    """In a forked child: write the pickled outcome of ``fn(part)`` to the pipe ``write``, then exit.

    The child first closes the pipe read ends it ``inherited``: holding none,
    it meets a closed pipe at its write when its parent has gone.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        outcome = _attempt(fn, part)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an outcome pickle cannot carry
            data = pickle.dumps((False, MrbsdeError(f"a worker's outcome cannot be sent back: {exc!r}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _failure_order(exc: Exception, part: int) -> tuple:
    """Where a part's failure comes in a single sweep: later nodes first, failures before any step first of all."""
    j, i = getattr(exc, "_lockstep_step", (math.inf, -1))
    return -j, part, i
