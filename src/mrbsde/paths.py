"""Forward Monte Carlo machinery: particle clouds and clock paths.

All randomness flows through one Philox counter-based generator keyed by
the master seed and read in one fixed order: particle by particle, each
particle's steps and coordinates in turn. numpy's ziggurat normals take a
variable number of Philox words each, so no slot (particle, step,
coordinate) has a fixed counter offset; it is the fixed order that makes a
cloud a pure function of (spec, grid, M, seed) no matter how the consuming
code is scheduled. The variates are drawn particle by particle but stored
time-major, so that the backward pass reads each step's slice of the cloud
as one contiguous block.

The Brownian positions are the running sum of the increments, so the cloud
does not store them all: it keeps the increments, B at every s-th node
(s = floor(sqrt(N))) and at N, and one s-node segment that is rebuilt from
its checkpoint when a node outside it is read. A pass reads the nodes from
N - 1 down to 0, so it rebuilds each segment once, at the cost of N row
additions; the rebuilt rows repeat the additions that made them, so they
are bit-identical to a full running sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import SimulationError
from .problem import ProblemSpec

_BLOCK_VALUES = 1 << 16  # values per block of particles drawn at once: 512 KB


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j T / N on [0, T]."""

    T: float
    N: int

    def __post_init__(self):
        if not (0 < self.T < math.inf):
            raise ValueError(f"T must be finite and > 0, got {self.T}")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class ForwardCloud:
    """M simulated particles: increments, forward state, clock paths, terminal draws.

    The arrays are time-major: row j of ``dB``, ``brownian``, ``kappa`` and
    ``forward_state`` holds every particle at step j, contiguously.
    ``brownian[j]`` is node j's (M, d) row, read from a
    ``BrownianPositions`` (checkpoints and one rebuilt segment) on a
    simulated cloud; any array indexed by node works in its place.
    ``mean_kappa`` is the per-node sample mean of kappa, frozen here so the
    backward solver's penalty measure d(s + E[kappa_s]) does not move when
    particles are revisited. Passes stepped in lockstep over one cloud
    read one positions segment, so they rebuild each segment once.
    """

    grid: TimeGrid
    dB: np.ndarray  # (N, M, d)
    brownian: BrownianPositions | np.ndarray  # node j -> (M, d) cumulative sums, B_0 = 0
    kappa: np.ndarray  # (N+1, M), a read-only broadcast of one curve for a deterministic clock
    xi: np.ndarray  # (M,)
    mean_kappa: np.ndarray  # (N+1,)
    forward_state: np.ndarray | None = None  # (N+1, M) when a forward SDE is simulated
    # (basis, j) -> checked Gram of step j's design; features only, so every pass on the cloud shares it
    grams: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def M(self) -> int:
        return self.dB.shape[1]

    @property
    def d(self) -> int:
        return self.dB.shape[2]


def _running_sum(rows, increments, start=None) -> None:
    """Write ``start`` and its running sums with ``increments`` into ``rows``, in time order.

    rows[0] = start and rows[i + 1] = rows[i] + increments[i]; ``rows`` is
    any sequence of row views, one more than there are increments. With no
    ``start`` the sum runs from zero, and rows[1] is a copy of
    increments[0] (0 + x would turn a -0.0 into +0.0). Every Brownian
    position of a cloud is made by this loop, so a row rebuilt from a
    checkpoint repeats the additions that first made it. Row by row:
    ``np.cumsum`` along the leading axis of a time-major array walks each
    particle with a stride and takes about twice as long.
    """
    if start is None:
        rows[0][...] = 0.0
        if len(increments) == 0:
            return
        rows[1][...] = increments[0]
        rows, increments = rows[1:], increments[1:]
    else:
        rows[0][...] = start
    for i, inc in enumerate(increments):
        np.add(rows[i], inc, out=rows[i + 1])


def _partial_sums(increments: np.ndarray) -> np.ndarray:
    """Running sums over the leading (time) axis, from a zero first row, in time order."""
    out = np.empty((increments.shape[0] + 1,) + increments.shape[1:])
    _running_sum(out, increments)
    return out


class BrownianPositions:
    """Brownian positions B_0, ..., B_N of a cloud, held as checkpoints and one rebuilt segment.

    With s = floor(sqrt(N)), B is kept at nodes s, 2s, ... and at N (B_0 is
    zero), and ``positions[j]`` returns node j from one (s, M, d) segment
    buffer covering nodes a, ..., a + s - 1, a = s * (j // s). Reading a
    node outside the current segment rebuilds the buffer from the
    checkpoint at a with ``_running_sum``, so every row equals the full
    running sum ``_partial_sums(dB)[j]`` bit for bit. A returned row is a
    read-only view that stays valid until a node of another segment is
    read, so two threads must not read one cloud's positions at once.
    Together the checkpoints and the segment hold about 2 sqrt(N) rows
    where the full path would hold N + 1.
    """

    def __init__(self, dB: np.ndarray):
        N = dB.shape[0]
        self._stride = s = math.isqrt(N)
        nodes = list(range(s, N + 1, s))
        if nodes[-1] != N:
            nodes.append(N)
        self._dB = dB
        self._checkpoints = np.empty((len(nodes),) + dB.shape[1:])
        self._segment = np.empty((s,) + dB.shape[1:])
        self._start = None  # first node of the rows in the segment buffer, None when they are stale
        # One forward walk: each segment in turn, with the checkpoint after it
        # written by the same call as the rows before it.
        for i, node in enumerate(nodes):
            a = (node - 1) // s * s
            rows = [*self._segment[: node - a], self._checkpoints[i]]
            _running_sum(rows, dB[a:node], self._checkpoint(a))

    @property
    def nbytes(self) -> int:
        """Bytes the positions hold: the checkpoints and the segment buffer, not the shared increments."""
        return self._checkpoints.nbytes + self._segment.nbytes

    def _checkpoint(self, a: int) -> np.ndarray | None:
        return None if a == 0 else self._checkpoints[a // self._stride - 1]

    def __getitem__(self, j) -> np.ndarray:
        j = operator.index(j)
        N, s = self._dB.shape[0], self._stride
        if not 0 <= j <= N:
            raise IndexError(f"node {j} is outside 0..{N}")
        a = j // s * s
        if self._start != a:
            self._start = None  # a failed rebuild leaves no segment claimed
            length = min(s, N + 1 - a)
            _running_sum(self._segment[:length], self._dB[a : a + length - 1], self._checkpoint(a))
            self._start = a
        row = self._segment[j - a]
        row.flags.writeable = False
        return row


def _sequential_sums(kappa: np.ndarray) -> np.ndarray:
    """Sum of each row of ``kappa``, taken sequentially in particle order.

    That is the order a reduction over the particle-major layout used; a
    reduction along the contiguous row would sum pairwise and move the last
    digits. A deterministic clock is a broadcast of one curve (zero row
    stride), whose row sum depends only on the node's value, so it is taken
    once per distinct value, keyed by the value's bit pattern so +0.0 and
    -0.0 stay apart, and mapped back to the nodes.
    """
    if kappa.strides[1] != 0:
        return np.array([np.cumsum(row)[-1] for row in kappa])
    _, first, inverse = np.unique(kappa[:, 0].view(np.uint64), return_index=True, return_inverse=True)
    return np.array([np.cumsum(kappa[j])[-1] for j in first])[inverse]


def simulate_forward(spec: ProblemSpec, grid: TimeGrid, M: int, seed: int) -> ForwardCloud:
    """Simulate the forward inputs of the backward solver.

    Euler-Maruyama for the forward state when the terminal or the clock
    needs one; left-endpoint quadrature for the pathwise-integral clock.
    """
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    if grid.N < 2:
        raise ValueError(f"N must be >= 2, got {grid.N}")
    if spec.needs_forward and spec.forward is None:
        raise SimulationError("terminal/kappa family requires a forward SDE")

    N, d, dt = grid.N, spec.brownian_dim, grid.dt
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    # Consecutive particle blocks continue one variate stream, so the cloud
    # equals a single (M, N, d) draw, transposed. Every block is drawn into
    # one buffer, so the loop frees nothing and touches the same pages each
    # time.
    dB = np.empty((N, M, d))
    sqrt_dt = math.sqrt(dt)
    block = max(1, _BLOCK_VALUES // (N * d))
    buffer = np.empty((min(block, M), N, d))
    for start in range(0, M, block):
        draw = rng.standard_normal(out=buffer[: M - start])
        np.multiply(draw.transpose(1, 0, 2), sqrt_dt, out=dB[:, start : start + draw.shape[0]])
    del buffer, draw  # give the block back before the positions are allocated

    brownian = BrownianPositions(dB)

    forward_state = None
    if spec.forward is not None:
        fwd = spec.forward
        forward_state = np.empty((N + 1, M))
        forward_state[0] = fwd.x0
        for j in range(N):
            x = forward_state[j]
            forward_state[j + 1] = x + (fwd.drift_const + fwd.drift_lin * x) * dt + fwd.sigma * dB[j, :, 0]
            if not np.all(np.isfinite(forward_state[j + 1])):
                raise SimulationError(f"forward state non-finite at step {j + 1}")

    kap = spec.kappa
    if kap.family == "integral":
        kappa = _partial_sums(kap.eval_h(forward_state[:-1]) * dt)
    else:
        kappa = np.broadcast_to(kap.curve(grid.times)[:, None], (N + 1, M))
    mean_kappa = _sequential_sums(kappa) / M

    term = spec.terminal
    if term.mode == "direct-sampler":
        xi = term.sample_direct(brownian[N][:, 0], grid.T)
    else:
        xi = term.apply_payoff(forward_state[-1])

    return ForwardCloud(
        grid=grid,
        dB=dB,
        brownian=brownian,
        kappa=kappa,
        xi=np.asarray(xi, dtype=float),
        mean_kappa=mean_kappa,
        forward_state=forward_state,
    )

