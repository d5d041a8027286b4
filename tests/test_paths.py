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
        np.testing.assert_allclose(cloud.forward_state, cloud.brownian[:, :, 0], atol=1e-14)
        np.testing.assert_allclose(cloud.xi, cloud.brownian[-1, :, 0])

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
        assert np.array_equal(cloud.brownian[1:], np.cumsum(draw, axis=1).transpose(1, 0, 2))

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

    def test_with_terminal_replaces_only_xi(self):
        cloud = simulate_forward(zero_problem(), TimeGrid(1.0, 8), 32, seed=0)
        shifted = cloud.with_terminal(cloud.xi + 1.0)
        assert np.array_equal(shifted.dB, cloud.dB)
        np.testing.assert_allclose(shifted.xi, cloud.xi + 1.0)

