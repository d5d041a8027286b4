import numpy as np
import pytest

from mrbsde import ObstacleCurve, QuadratureError, TimeGrid, mollify_obstacle
from mrbsde import mollify
from mrbsde.mollify import _panel_edges, bump

GRID = TimeGrid(1.0, 100)


def simpson_kernel_average(u_fn, t: float, k: int, panels: int = 10_000) -> float:
    """Independent reference: composite-Simpson convolution with the bump kernel."""
    s = np.linspace(-1.0 / k, 1.0 / k, 2 * panels + 1)
    w = np.ones_like(s)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (s[-1] - s[0]) / (2 * panels)
    kernel = bump(k * s)
    vals = u_fn(np.clip(t - s, 0.0, 1.0))
    mass = np.sum(w * kernel) * h / 3.0
    return float(np.sum(w * kernel * vals) * h / 3.0 / mass)


def per_node_mollify(u, k: int, grid: TimeGrid, quad_points: int = 64):
    """The one-node-at-a-time quadrature: each node's panels, kernel and sums on their own."""
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(quad_points)
    values = np.empty(grid.N + 1)
    for j, t in enumerate(grid.times):
        edges = _panel_edges(float(t), 1.0 / k, grid.T, u.kink_points())
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        s = (half[:, None] * gl_nodes[None, :] + mid[:, None]).ravel()
        w = (half[:, None] * gl_weights[None, :]).ravel()
        kernel = w * bump(k * s)
        samples = u.evaluate(np.clip(t - s, 0.0, grid.T))
        values[j] = samples @ kernel / kernel.sum()
    return values


OBSTACLES = {
    "constant": ObstacleCurve("constant", value=-1.0),
    "sine": ObstacleCurve("sine", amplitude=0.5, omega=6.0),
    "abs": ObstacleCurve("abs", center=0.4),
    "linear": ObstacleCurve("linear", intercept=0.2, slope=-0.7),
    "tabulated": ObstacleCurve("tabulated", knots_t=(0.0, 0.3, 0.55, 1.0), knots_u=(0.0, 0.4, -0.2, 0.1)),
    "tabulated-9-knots": ObstacleCurve(
        "tabulated", knots_t=tuple(np.linspace(0.0, 1.0, 9)), knots_u=tuple(np.sin(5.0 * np.linspace(0.0, 1.0, 9)))
    ),
}


def lipschitz_constant(u) -> float:
    """The obstacle's Lipschitz constant on [0, 1], read off its family's parameters."""
    if u.family == "tabulated":
        return float(np.max(np.abs(np.diff(u.knots_u)) / np.diff(u.knots_t)))
    return {"constant": 0.0, "sine": abs(u.amplitude * u.omega), "abs": 1.0, "linear": abs(u.slope)}[u.family]


class TestMollifyBlocks:
    """Nodes are evaluated in blocks of equal panel count, with a one-node loop's bits."""

    @pytest.mark.parametrize("N", [16, 100, 200, 333])
    @pytest.mark.parametrize("name", OBSTACLES)
    def test_blocks_equal_the_per_node_loop(self, name, N):
        u, grid = OBSTACLES[name], TimeGrid(1.0, N)
        for k in (1, 3, 10, 20, 40, 200):
            sm = mollify_obstacle(u, k, grid)
            assert np.array_equal(sm.values, per_node_mollify(u, k, grid)), k

    def test_small_blocks_equal_the_per_node_loop(self, monkeypatch):
        monkeypatch.setattr(mollify, "_BLOCK_VALUES", 1000)  # a few nodes per block, and a partial last one
        u, grid = OBSTACLES["tabulated"], TimeGrid(1.0, 100)
        sm = mollify_obstacle(u, 10, grid)
        assert np.array_equal(sm.values, per_node_mollify(u, 10, grid))


class TestMollifyValues:
    def test_constant_reproduced_exactly(self):
        u = ObstacleCurve("constant", value=-1.3)
        sm = mollify_obstacle(u, 7, GRID)
        assert np.max(np.abs(sm.values + 1.3)) <= 1e-12
        assert sm.sup_gap <= 1e-12

    def test_linear_interior_symmetric_cancellation(self):
        u = ObstacleCurve("linear", intercept=0.0, slope=1.0)
        sm = mollify_obstacle(u, 10, GRID)
        j = 50  # t = 0.5, more than 1/k from both ends
        assert abs(sm.values[j] - 0.5) <= 1e-12

    def test_kink_value_against_simpson_oracle(self):
        u = ObstacleCurve("abs", center=0.5)
        sm = mollify_obstacle(u, 10, GRID)
        ref = simpson_kernel_average(u.evaluate, 0.5, 10)
        assert sm.values[50] > 0.0
        assert abs(sm.values[50] - ref) <= 1e-8

    def test_values_against_simpson_on_sine(self):
        u = ObstacleCurve("sine", amplitude=0.5)
        sm = mollify_obstacle(u, 20, GRID)
        for j in (0, 3, 50, 97, 100):
            ref = simpson_kernel_average(u.evaluate, GRID.times[j], 20)
            assert abs(sm.values[j] - ref) <= 1e-8


class TestMollifyProperties:
    @pytest.mark.parametrize(
        "u",
        [ObstacleCurve("abs", center=0.5), ObstacleCurve("sine", amplitude=0.5)],
        ids=["abs", "sine"],
    )
    def test_sup_gap_decreases_in_level(self, u):
        gaps = [mollify_obstacle(u, k, GRID).sup_gap for k in (5, 10, 20, 40, 80)]
        assert all(b <= a + 1e-8 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0] / 4.0

    def test_lipschitz_gap_bound(self):
        u = ObstacleCurve("abs", center=0.5)  # Lipschitz constant 1
        for k in (10, 20, 40, 80):
            assert mollify_obstacle(u, k, GRID).sup_gap <= 1.0 / k

    def test_monotone_obstacle_stays_monotone(self):
        u = ObstacleCurve("linear", intercept=-1.0, slope=2.0)
        sm = mollify_obstacle(u, 9, GRID)
        assert np.all(np.diff(sm.values) >= -1e-14)

    def test_values_inside_kernel_window_range(self):
        u = ObstacleCurve("sine", amplitude=0.5)
        k = 15
        sm = mollify_obstacle(u, k, GRID)
        for j in range(0, 101, 7):
            window = np.clip(GRID.times[j] + np.linspace(-1.0 / k, 1.0 / k, 2001), 0.0, 1.0)
            vals = u.evaluate(window)
            assert vals.min() - 1e-12 <= sm.values[j] <= vals.max() + 1e-12

    @pytest.mark.parametrize("name", OBSTACLES)
    def test_grid_slope_bounded_by_lipschitz_constant(self, name):
        # Convolution with a unit-mass kernel keeps the obstacle's Lipschitz
        # constant, and so does the clamp to [0, T]; the slack covers quadrature error.
        u = OBSTACLES[name]
        for N in (16, 100, 333):
            grid = TimeGrid(1.0, N)
            for k in (1, 3, 10, 25, 40, 200):
                slope = np.max(np.abs(np.diff(mollify_obstacle(u, k, grid).values))) / grid.dt
                assert slope <= lipschitz_constant(u) + 1e-9, (N, k, slope)


class TestMollifyErrors:
    def test_too_few_quadrature_nodes(self):
        with pytest.raises(QuadratureError):
            mollify_obstacle(ObstacleCurve("constant", value=0.0), 5, GRID, quad_points=15)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            mollify_obstacle(ObstacleCurve("constant", value=0.0), 0, GRID)
