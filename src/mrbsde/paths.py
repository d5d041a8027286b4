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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LengthMismatch, SimulationError
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
    ``mean_kappa`` is the per-node sample mean of kappa, frozen here so the
    backward solver's penalty measure d(s + E[kappa_s]) does not move when
    particles are revisited.
    """

    grid: TimeGrid
    dB: np.ndarray  # (N, M, d)
    brownian: np.ndarray  # (N+1, M, d), cumulative sums, B_0 = 0
    kappa: np.ndarray  # (N+1, M), a read-only broadcast of one curve for a deterministic clock
    xi: np.ndarray  # (M,)
    mean_kappa: np.ndarray  # (N+1,)
    forward_state: np.ndarray | None = None  # (N+1, M) when a forward SDE is simulated
    # (basis, j) -> checked Gram of step j's design; features only, so with_terminal copies share it
    grams: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def M(self) -> int:
        return self.dB.shape[1]

    @property
    def d(self) -> int:
        return self.dB.shape[2]

    def with_terminal(self, xi: np.ndarray) -> "ForwardCloud":
        """Same cloud with the terminal draws replaced (perturbation experiments)."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != self.xi.shape:
            raise LengthMismatch(f"terminal shape {xi.shape} != {self.xi.shape}")
        return replace(self, xi=xi)


def _partial_sums(increments: np.ndarray) -> np.ndarray:
    """Running sums over the leading (time) axis, from a zero first row, in time order.

    Row by row: ``np.cumsum`` along the leading axis of a time-major array
    walks each particle with a stride and takes about twice as long.
    """
    out = np.empty((increments.shape[0] + 1,) + increments.shape[1:])
    out[0] = 0.0
    out[1] = increments[0]
    for j in range(1, increments.shape[0]):
        np.add(out[j], increments[j], out=out[j + 1])
    return out


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
    del buffer, draw  # give the block back before brownian is allocated

    brownian = _partial_sums(dB)

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
    # Each row summed sequentially in particle order, as a reduction over the
    # particle-major layout did; a reduction along the contiguous row would
    # sum pairwise and move the last digits.
    mean_kappa = np.array([np.cumsum(row)[-1] for row in kappa]) / M

    term = spec.terminal
    if term.mode == "direct-sampler":
        xi = term.sample_direct(brownian[-1, :, 0], grid.T)
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

