"""Backward-Euler particle scheme for the unconstrained penalized equation.

One backward step estimates the conditional expectation and the martingale
integrand by least-squares projection on a polynomial basis, applies the
driver and boundary terms explicitly, and then enforces the penalty
implicitly at the mean level through a closed-form root. The implicit
penalty is what removes any n * dt stability restriction: the level n can
grow without bound at a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFinite, RankDeficient
from .mollify import SmoothObstacle
from .paths import ForwardCloud, TimeGrid
from .problem import ProblemSpec, eval_boundary, eval_driver

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
    """Design matrix: intercept plus per-coordinate powers 1..degree."""
    if basis.kind == "constant" or basis.degree == 0:
        return np.ones((features.shape[0], 1))
    feats = np.asarray(features, dtype=float)
    if feats.ndim == 1:
        feats = feats[:, None]
    m, d = feats.shape
    cols = [np.ones(m)]
    for c in range(d):
        p = feats[:, c]
        acc = p
        for _ in range(basis.degree):
            cols.append(acc)
            acc = acc * p
    return np.column_stack(cols)


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


def _fit(design: np.ndarray, gram: np.ndarray, targets: np.ndarray):
    """Fitted values and coefficients from the normal equations of a checked Gram."""
    coef = np.linalg.solve(gram, design.T @ targets)
    return design @ coef, coef


@dataclass(frozen=True, eq=False)
class RegressionOperator:
    """Per-step regression data of one (cloud, basis) pair, shared by every pass on it.

    ``grams[j]`` is the checked Gram matrix of step j's design, formed by
    the first pass that reaches step j from the design it builds there and
    reused by every later pass. The design itself is rebuilt each pass from
    the cloud's step-j feature row, so the operator holds no particle-sized
    array of its own; ``features`` is a reference to the cloud's array, not
    a copy. Nothing here depends on the penalty or smoothing level, the
    driver or the terminal, so one operator serves every level and every
    terminal perturbation of a cloud. Build it with
    :func:`regression_operator`.
    """

    basis: RegressionBasis
    grid: TimeGrid
    M: int
    features: np.ndarray | None  # cloud.brownian, cloud.forward_state, or None for an intercept
    grams: list  # N entries, None until a pass reaches the step

    def design(self, j: int) -> np.ndarray:
        return build_design(np.empty((self.M, 0)) if self.features is None else self.features[j], self.basis)

    def fit(self, j: int, targets: np.ndarray):
        """Fitted values and coefficients of ``targets`` on step j's design."""
        design = self.design(j)
        if self.grams[j] is None:
            self.grams[j] = _checked_gram(design)
        return _fit(design, self.grams[j], targets)

    def check_cloud(self, cloud: ForwardCloud) -> None:
        """Raise unless ``cloud`` has the grid, particle count and features this was built on."""
        if cloud.grid != self.grid or cloud.M != self.M:
            raise LengthMismatch("regression operator was built on another grid or particle count")
        if _feature_source(cloud, self.basis) is not self.features:
            raise LengthMismatch("regression operator was built on another cloud's features")


def _feature_source(cloud: ForwardCloud, basis: RegressionBasis) -> np.ndarray | None:
    if basis.kind == "constant" or basis.degree == 0:
        return None
    return cloud.forward_state if basis.kind == "forward" else cloud.brownian


def regression_operator(cloud: ForwardCloud, basis: RegressionBasis) -> RegressionOperator:
    """Regression operator of ``basis`` on ``cloud``, for every pass on that cloud.

    Fails here, before any backward pass, when the basis cannot be fitted:
    a forward basis on a cloud without a forward state, or no more
    particles than basis functions. A Gram matrix that stays singular after
    regularization raises ``RankDeficient`` in the first pass, at the first
    step whose Gram it forms.
    """
    if basis.kind == "forward" and cloud.forward_state is None:
        raise ValueError("forward basis requested but the cloud has no forward state")
    n_basis = basis.size(cloud.d)
    if cloud.M <= n_basis:
        raise ValueError(f"need more particles ({cloud.M}) than basis functions ({n_basis})")
    return RegressionOperator(basis, cloud.grid, cloud.M, _feature_source(cloud, basis), [None] * cloud.grid.N)


def implicit_mean_penalty(p_val: float, u_val: float, n: float, delta: float) -> float:
    """Root of x = p_val + n * delta * (x - u_val)^-.

    The map is strictly increasing in x so the root is unique: p_val itself
    when the constraint is slack, otherwise the weighted average
    (p_val + n * delta * u_val) / (1 + n * delta), which saturates at u_val
    as n * delta grows.
    """
    if n < 0 or delta < 0:
        raise ValueError("n and delta must be >= 0")
    if p_val >= u_val:
        return float(p_val)
    return float((p_val + n * delta * u_val) / (1.0 + n * delta))


@dataclass(frozen=True)
class PenalizedSolution:
    """Output of one penalized backward pass at levels (n, k).

    Z is stored on the full grid with the terminal row copied from the last
    regression step (no increment exists beyond T). ``mean_f_dt`` and
    ``mean_g_dkappa`` keep the per-step sample means of the driver and
    boundary contributions exactly as the scheme evaluated them, which is
    what makes the compensator recoverable to round-off from the mean path.
    """

    grid: TimeGrid
    Y: np.ndarray  # (N+1, M)
    Z: np.ndarray  # (N+1, M, d)
    mean_path: np.ndarray  # (N+1,)
    K: np.ndarray  # (N+1,)
    mean_f_dt: np.ndarray  # (N,)
    mean_g_dkappa: np.ndarray  # (N,)


def solve_penalized(
    spec: ProblemSpec,
    u_k: SmoothObstacle,
    n: float,
    cloud: ForwardCloud,
    operator: RegressionOperator,
) -> PenalizedSolution:
    """Run the backward induction from Y(T) = xi down to t = 0.

    Per step j: project Y_{j+1} * dB_j / dt and Y_{j+1} on the basis to get
    the integrand and the conditional mean, take the law moments from the
    step-(j+1) cloud, apply f and g explicitly at the conditional mean, and
    shift every particle by the implicit mean-level penalty increment. K is
    deterministic, so the shift is common to all particles. ``operator``
    must have been built on this cloud (or on one that differs only in its
    terminal draws); it supplies each step's design and checked Gram.
    """
    grid = cloud.grid
    if u_k.grid != grid:
        raise LengthMismatch("smooth obstacle grid does not match the cloud grid")
    operator.check_cloud(cloud)
    N, M, d, dt = grid.N, cloud.M, cloud.d, grid.dt
    times = grid.times

    Y = np.empty((N + 1, M))
    Z = np.zeros((N + 1, M, d))
    Y[N] = cloud.xi
    dK = np.zeros(N)
    mean_f_dt = np.zeros(N)
    mean_g_dkappa = np.zeros(N)

    for j in range(N - 1, -1, -1):
        z_targets = Y[j + 1][:, None] * cloud.dB[j] / dt  # (M, d)
        stacked = np.column_stack([z_targets, Y[j + 1]])
        fitted, _ = operator.fit(j, stacked)
        Z[j] = fitted[:, :d]
        cond_mean = fitted[:, d]

        # Law moments from the step-(j+1) cloud; Z beyond the last regression
        # step does not exist, so the first backward step reuses its own Z.
        m_y = float(Y[j + 1].mean())
        m_z = (Z[j + 1] if j + 1 < N else Z[j]).mean(axis=0)

        f_vals = eval_driver(spec.driver, times[j], cond_mean, Z[j], m_y, m_z)
        g_vals = eval_boundary(spec.boundary, times[j], cond_mean)
        dkap = cloud.kappa[j + 1] - cloud.kappa[j]
        y0 = cond_mean + f_vals * dt + g_vals * dkap

        p_val = float(y0.mean())
        delta = dt + float(cloud.mean_kappa[j + 1] - cloud.mean_kappa[j])
        shifted = implicit_mean_penalty(p_val, float(u_k.values[j]), n, delta)
        dK[j] = shifted - p_val
        Y[j] = y0 + dK[j]

        if not np.all(np.isfinite(Y[j])) or not np.all(np.isfinite(Z[j])):
            raise NonFinite(f"non-finite solution values at step {j}", step=j)

        mean_f_dt[j] = float(np.mean(f_vals)) * dt
        mean_g_dkappa[j] = float(np.mean(g_vals * dkap))

    Z[N] = Z[N - 1]
    K = np.concatenate([[0.0], np.cumsum(dK)])
    return PenalizedSolution(
        grid=grid,
        Y=Y,
        Z=Z,
        mean_path=Y.mean(axis=1),
        K=K,
        mean_f_dt=mean_f_dt,
        mean_g_dkappa=mean_g_dkappa,
    )
