import math
import tracemalloc

import numpy as np
import pytest

from mrbsde import (
    ForwardSDESpec,
    KappaSpec,
    SimulationError,
    TerminalSpec,
    TimeGrid,
    simulate_forward,
)
from mrbsde import paths
from tests.util import zero_problem


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(2.0, 4)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.dt == 0.5
        assert np.all(np.diff(grid.times) > 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon_is_rejected(self, horizon):
        with pytest.raises(ValueError, match="T must be"):
            TimeGrid(horizon, 10)


class TestSimulateForward:
    def test_deterministic_replay(self):
        spec = zero_problem()
        grid = TimeGrid(1.0, 8)
        a = simulate_forward(spec, grid, 64, seed=42)
        b = simulate_forward(spec, grid, 64, seed=42)
        assert np.array_equal(a.dB, b.dB)
        assert np.array_equal(a.kappa, b.kappa)
        assert np.array_equal(a.xi, b.xi)
        c = simulate_forward(spec, grid, 64, seed=43)
        assert not np.array_equal(a.dB, c.dB)

    def test_zero_kappa(self):
        cloud = simulate_forward(zero_problem(), TimeGrid(1.0, 8), 32, seed=0)
        assert np.all(cloud.kappa == 0.0)
        assert np.all(cloud.mean_kappa == 0.0)

    def test_linear_kappa_terminal_value(self):
        spec = zero_problem(kappa=KappaSpec("linear", rate=2.0))
        cloud = simulate_forward(spec, TimeGrid(1.0, 10), 16, seed=0)
        assert np.allclose(cloud.kappa[-1], 2.0)
        assert np.all(cloud.kappa[0] == 0.0)
        assert np.all(np.diff(cloud.mean_kappa) >= 0)

    def test_integral_kappa_nonnegative_nondecreasing(self):
        spec = zero_problem(
            kappa=KappaSpec("integral", h_kind="square", h_scale=0.5),
            forward=ForwardSDESpec(x0=1.0, sigma=0.3),
        )
        cloud = simulate_forward(spec, TimeGrid(1.0, 16), 64, seed=5)
        assert np.all(cloud.kappa[0] == 0.0)
        assert np.all(np.diff(cloud.kappa, axis=0) >= 0.0)

    def test_forward_state_reduces_to_brownian(self):
        spec = zero_problem(
            terminal=TerminalSpec("functional-of-forward", payoff="identity", declared_mean=0.0),
            forward=ForwardSDESpec(x0=0.0, drift_const=0.0, drift_lin=0.0, sigma=1.0),
        )
        cloud = simulate_forward(spec, TimeGrid(1.0, 8), 32, seed=1)
        for j in range(9):  # the positions are read node by node
            np.testing.assert_allclose(cloud.forward_state[j], cloud.brownian[j][:, 0], atol=1e-14)
        np.testing.assert_allclose(cloud.xi, cloud.brownian[8][:, 0])

    def test_direct_sampler_matches_declared_law(self):
        spec = zero_problem(terminal=TerminalSpec("direct-sampler", mean=1.5, std=2.0, declared_mean=1.5))
        cloud = simulate_forward(spec, TimeGrid(4.0, 8), 200_000, seed=9)
        assert abs(cloud.xi.mean() - 1.5) < 5 * 2.0 / np.sqrt(200_000)
        assert abs(cloud.xi.std() - 2.0) < 0.02

    def test_nonfinite_forward_raises(self):
        spec = zero_problem(
            terminal=TerminalSpec("functional-of-forward", payoff="identity"),
            forward=ForwardSDESpec(x0=1.0, drift_lin=1e200, sigma=0.0),
        )
        with np.errstate(over="ignore"), pytest.raises(SimulationError):
            simulate_forward(spec, TimeGrid(1.0, 4), 8, seed=0)

    @pytest.mark.parametrize(
        "spec",
        [
            zero_problem(terminal=TerminalSpec("functional-of-forward", payoff="identity")),
            zero_problem(kappa=KappaSpec("integral", h_kind="abs")),
        ],
        ids=["terminal", "integral-kappa"],
    )
    def test_missing_forward_sde_raises(self, spec):
        with pytest.raises(SimulationError, match="forward SDE"):
            simulate_forward(spec, TimeGrid(1.0, 4), 8, seed=0)

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            simulate_forward(zero_problem(), TimeGrid(1.0, 8), 1, seed=0)
        with pytest.raises(ValueError):
            simulate_forward(zero_problem(), TimeGrid(1.0, 1), 8, seed=0)

    def test_time_major_increments_equal_one_particle_major_draw(self):
        spec = zero_problem(brownian_dim=2)
        grid = TimeGrid(1.0, 6)
        m = 2 * (paths._BLOCK_VALUES // 12) + 7  # two full draw blocks and a partial third
        cloud = simulate_forward(spec, grid, m, seed=3)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        draw = rng.standard_normal((m, 6, 2)) * np.sqrt(grid.dt)
        assert cloud.dB.shape == (6, m, 2) and cloud.dB.flags.c_contiguous
        assert np.array_equal(cloud.dB, draw.transpose(1, 0, 2))
        positions = np.cumsum(draw, axis=1).transpose(1, 0, 2)
        for j in range(1, 7):  # the positions are read node by node
            assert np.array_equal(cloud.brownian[j], positions[j - 1])

    def test_mean_kappa_is_the_sequential_particle_sum(self):
        spec = zero_problem(
            kappa=KappaSpec("integral", h_kind="square", h_scale=0.5),
            forward=ForwardSDESpec(x0=1.0, sigma=0.3),
        )
        m = 5003
        cloud = simulate_forward(spec, TimeGrid(1.0, 16), m, seed=5)
        total = np.zeros(17)
        for particle in cloud.kappa.T:
            total = total + particle
        assert np.array_equal(cloud.mean_kappa, total / m)

    def test_deterministic_clock_is_a_read_only_view(self):
        m = 5003
        cloud = simulate_forward(zero_problem(kappa=KappaSpec("linear", rate=0.7)), TimeGrid(1.0, 16), m, seed=5)
        assert not cloud.kappa.flags.writeable
        total = np.zeros(17)
        for particle in np.array(cloud.kappa).T:
            total = total + particle
        assert np.array_equal(cloud.mean_kappa, total / m)

    @pytest.mark.parametrize(
        "kappa",
        [
            KappaSpec("zero"),
            KappaSpec("linear", rate=0.7),
            KappaSpec("curve", knots_t=(0.0, 0.25, 0.5, 1.0), knots_v=(0.0, 0.3, 0.3, 1.1)),
            KappaSpec("integral", h_kind="abs", h_scale=0.5),
        ],
        ids=["zero", "linear", "piecewise-curve", "integral"],
    )
    def test_mean_kappa_equals_a_cumsum_per_row(self, kappa):
        # a deterministic clock sums once per distinct curve value; the flat
        # piece of the curve repeats values across nodes
        spec = zero_problem(kappa=kappa, forward=ForwardSDESpec(x0=1.0, sigma=0.3))
        m = 5003
        cloud = simulate_forward(spec, TimeGrid(1.0, 16), m, seed=5)
        assert np.array_equal(cloud.mean_kappa, np.array([np.cumsum(r)[-1] for r in cloud.kappa]) / m)

    def test_sequential_sums_keep_signed_zeros_apart(self):
        curve = np.array([0.0, -0.0, 0.1, -0.0, 0.0, 0.1])
        sums = paths._sequential_sums(np.broadcast_to(curve[:, None], (6, 7)))
        assert np.array_equal(np.signbit(sums), np.signbit(curve))
        assert np.array_equal(sums, [np.cumsum(np.full(7, v))[-1] for v in curve])


def node_orders(N):
    return {
        "descending": range(N, -1, -1),
        "ascending": range(N + 1),
        "random": np.random.default_rng(N).permutation(N + 1),
    }


def position_rows(N, M, d):
    """Rows a cloud may hold for its increments and positions: N + 2 ceil(sqrt N) + 2, each M d floats."""
    return (N + 2 * math.ceil(math.sqrt(N)) + 2) * M * d * 8


class TestBrownianPositions:
    """The positions are held as checkpoints and one rebuilt segment, and read exactly as the full running sum."""

    @pytest.mark.parametrize("order", ["descending", "ascending", "random"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [2, 3, 16, 17, 100, 200])
    def test_every_node_equals_the_full_running_sum(self, N, d, order):
        cloud = simulate_forward(zero_problem(brownian_dim=d), TimeGrid(1.0, N), 5, seed=N)
        full = paths._partial_sums(cloud.dB)
        for j in node_orders(N)[order]:
            assert np.array_equal(cloud.brownian[j], full[j]), j

    def test_a_row_is_a_read_only_view_valid_until_another_segment_is_read(self):
        cloud = simulate_forward(zero_problem(), TimeGrid(1.0, 16), 5, seed=1)
        full = paths._partial_sums(cloud.dB)
        row = cloud.brownian[7]  # segments of s = 4 nodes: 4..7 now
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
        cloud.brownian[4]
        assert np.array_equal(row, full[7])
        cloud.brownian[12]  # rebuilds the buffer with nodes 12..15
        assert np.array_equal(row, full[15])

    @pytest.mark.parametrize("j", [-1, 17, 2.0])
    def test_nodes_outside_the_grid_are_rejected(self, j):
        cloud = simulate_forward(zero_problem(), TimeGrid(1.0, 16), 5, seed=1)
        with pytest.raises((IndexError, TypeError)):
            cloud.brownian[j]

    @pytest.mark.parametrize("d", [1, 2])
    def test_simulation_peak_and_held_bytes_are_bounded(self, d):
        # the increments, about 2 sqrt(N) position rows and one draw block:
        # a full (N+1)-row path on top of the increments exceeds the bound
        N, M = 100, 4000
        spec, grid = zero_problem(brownian_dim=d), TimeGrid(1.0, N)
        simulate_forward(spec, grid, 8, seed=0)  # imports done before tracing
        bound = position_rows(N, M, d) + paths._BLOCK_VALUES * 8
        tracemalloc.start()
        try:
            cloud = simulate_forward(spec, grid, M, seed=3)
            held, peak = tracemalloc.get_traced_memory()
            for j in range(N, -1, -1):
                cloud.brownian[j]
            held_after_reads = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak <= bound and held <= bound
        assert held_after_reads - held < M * d * 8  # reading every node keeps no row
        assert cloud.dB.nbytes + cloud.brownian.nbytes <= position_rows(N, M, d)
