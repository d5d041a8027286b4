"""Problem ingredients for the mean-reflected equation and sampled assumption checks.

A problem is assembled from five components: the driver f (through moment
functionals of the solution law), the monotone boundary coefficient g, the
terminal variable, the deterministic obstacle curve, and the non-decreasing
clock process. Each component declares the constants used by the validators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_DRIVER_FAMILIES = {
    "zero": frozenset(),
    "affine": frozenset({"const", "y", "z", "mean_y", "mean_z"}),
    "bounded-nonlinear": frozenset({"sin_y", "cos_my"}),
}

_BOUNDARY_FAMILIES = ("zero", "linear-monotone", "nonlinear-monotone")
_TERMINAL_MODES = ("direct-sampler", "functional-of-forward")
_PAYOFF_FAMILIES = ("identity", "call", "put", "square")
_OBSTACLE_FAMILIES = ("constant", "sine", "abs", "linear", "tabulated")
_KAPPA_FAMILIES = ("zero", "linear", "curve", "integral")
_H_KINDS = ("abs", "square", "const")


def _check_finite(owner, *names: str) -> None:
    """Raise a ValueError naming the first of ``owner``'s fields ``names`` that holds NaN or ±Infinity."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, dict):
            value = tuple(value.values())
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{type(owner).__name__}.{name} must be finite, got {getattr(owner, name)}")


def _as_float_map(name: str, coeffs: dict, allowed: frozenset) -> dict:
    out = {}
    for key, val in coeffs.items():
        if key not in allowed:
            raise ValueError(f"unknown coefficient {key!r} for {name} family")
        out[key] = float(val)
    return out


@dataclass(frozen=True)
class DriverSpec:
    """Driver f in moment-functional form phi(t, y, z, m_y, m_z).

    ``lipschitz_L_f`` is the declared Lipschitz constant in all four
    non-time arguments; the validator spot-checks it on random pairs.
    """

    family: str
    coefficients: dict = field(default_factory=dict)
    lipschitz_L_f: float = 0.0

    def __post_init__(self):
        if self.family not in _DRIVER_FAMILIES:
            raise ValueError(f"unknown driver family {self.family!r}")
        object.__setattr__(
            self,
            "coefficients",
            _as_float_map(self.family, self.coefficients, _DRIVER_FAMILIES[self.family]),
        )
        _check_finite(self, "coefficients", "lipschitz_L_f")
        if not (self.lipschitz_L_f >= 0):
            raise ValueError("lipschitz_L_f must be >= 0")


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary coefficient g with one-sided monotonicity constant beta < 0.

    ``psi`` is the (deterministic, constant) growth offset in
    |g(t, y)| <= psi + growth_L_g |y|.
    """

    family: str
    beta: float = -1.0
    growth_L_g: float = 1.0
    psi: float = 0.0

    def __post_init__(self):
        if self.family not in _BOUNDARY_FAMILIES:
            raise ValueError(f"unknown boundary family {self.family!r}")
        _check_finite(self, "growth_L_g", "psi")
        if not (self.growth_L_g > 0):
            raise ValueError("growth_L_g must be > 0")
        if not (self.psi >= 0):
            raise ValueError("psi must be >= 0")


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal variable.

    direct-sampler realizes xi = mean + std * B_T[0] / sqrt(T), an exact
    normal that stays measurable for the terminal sigma-field (an
    independent draw would break the martingale representation the
    backward solver relies on). functional-of-forward applies ``payoff``
    to the simulated forward terminal state.
    """

    mode: str
    mean: float = 0.0
    std: float = 1.0
    payoff: str = "identity"
    strike: float = 0.0
    declared_mean: float | None = None

    def __post_init__(self):
        if self.mode not in _TERMINAL_MODES:
            raise ValueError(f"unknown terminal mode {self.mode!r}")
        if self.mode == "direct-sampler" and not (self.std >= 0):
            raise ValueError("std must be >= 0")
        if self.payoff not in _PAYOFF_FAMILIES:
            raise ValueError(f"unknown payoff family {self.payoff!r}")
        _check_finite(self, "mean", "std", "strike", "declared_mean")

    def sample_direct(self, bt_terminal: np.ndarray, horizon: float) -> np.ndarray:
        return self.mean + self.std * bt_terminal / math.sqrt(horizon)

    def apply_payoff(self, x_terminal: np.ndarray) -> np.ndarray:
        if self.payoff == "identity":
            return np.asarray(x_terminal, dtype=float)
        if self.payoff == "call":
            return np.maximum(x_terminal - self.strike, 0.0)
        if self.payoff == "put":
            return np.maximum(self.strike - x_terminal, 0.0)
        return np.asarray(x_terminal, dtype=float) ** 2


@dataclass(frozen=True)
class ObstacleCurve:
    """Deterministic continuous obstacle on [0, T].

    Analytic families are evaluated directly; the tabulated form uses
    linear interpolation between knots (continuous by construction) with
    constant extension outside the knot range.
    """

    family: str
    value: float = 0.0
    amplitude: float = 0.0
    omega: float = math.pi
    center: float = 0.0
    intercept: float = 0.0
    slope: float = 0.0
    knots_t: tuple = ()
    knots_u: tuple = ()

    def __post_init__(self):
        if self.family not in _OBSTACLE_FAMILIES:
            raise ValueError(f"unknown obstacle family {self.family!r}")
        if self.family == "tabulated":
            object.__setattr__(self, "knots_t", tuple(float(t) for t in self.knots_t))
            object.__setattr__(self, "knots_u", tuple(float(u) for u in self.knots_u))
            if len(self.knots_t) != len(self.knots_u) or len(self.knots_t) < 2:
                raise ValueError("tabulated obstacle needs matching knot arrays of length >= 2")
        _check_finite(self, "value", "amplitude", "omega", "center", "intercept", "slope", "knots_t", "knots_u")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return np.full_like(t, self.value)
        if self.family == "sine":
            return self.amplitude * np.sin(self.omega * t)
        if self.family == "abs":
            return np.abs(t - self.center)
        if self.family == "linear":
            return self.intercept + self.slope * t
        return np.interp(t, self.knots_t, self.knots_u)

    def kink_points(self) -> tuple:
        """Derivative-jump locations; quadrature panels split there."""
        if self.family == "abs":
            return (self.center,)
        if self.family == "tabulated":
            return self.knots_t[1:-1]
        return ()


@dataclass(frozen=True)
class KappaSpec:
    """Non-decreasing clock process kappa with kappa_0 = 0.

    integral family accumulates h(X_s) ds by left-endpoint quadrature
    along the simulated forward state, with h >= 0 from a named family.
    """

    family: str
    rate: float = 0.0
    knots_t: tuple = ()
    knots_v: tuple = ()
    h_kind: str = "const"
    h_scale: float = 1.0

    def __post_init__(self):
        if self.family not in _KAPPA_FAMILIES:
            raise ValueError(f"unknown kappa family {self.family!r}")
        _check_finite(self, "rate", "h_scale")
        if self.family == "linear" and not (self.rate >= 0):
            raise ValueError("linear kappa rate must be >= 0")
        if self.family == "curve":
            object.__setattr__(self, "knots_t", tuple(float(t) for t in self.knots_t))
            object.__setattr__(self, "knots_v", tuple(float(v) for v in self.knots_v))
            if len(self.knots_t) != len(self.knots_v) or len(self.knots_t) < 2:
                raise ValueError("curve kappa needs matching knot arrays of length >= 2")
            _check_finite(self, "knots_t", "knots_v")
        if self.h_kind not in _H_KINDS:
            raise ValueError(f"unknown h kind {self.h_kind!r}")
        if not (self.h_scale >= 0):
            raise ValueError("h_scale must be >= 0")

    def curve(self, t) -> np.ndarray:
        """Deterministic clock kappa_t (zero, linear or curve family), with kappa_0 = 0."""
        t = np.asarray(t, dtype=float)
        if self.family == "linear":
            return self.rate * t
        if self.family == "curve":
            return np.interp(t, self.knots_t, self.knots_v) - np.interp(0.0, self.knots_t, self.knots_v)
        return np.zeros_like(t)

    def eval_h(self, x: np.ndarray) -> np.ndarray:
        if self.h_kind == "abs":
            return self.h_scale * np.abs(x)
        if self.h_kind == "square":
            return self.h_scale * np.asarray(x, dtype=float) ** 2
        return np.full_like(np.asarray(x, dtype=float), self.h_scale)


@dataclass(frozen=True)
class ForwardSDESpec:
    """Scalar forward diffusion dX = (a + b X) dt + sigma dB_1, X_0 = x0."""

    x0: float = 0.0
    drift_const: float = 0.0
    drift_lin: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _check_finite(self, "x0", "drift_const", "drift_lin", "sigma")


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one mean-reflected equation instance."""

    driver: DriverSpec
    boundary: BoundarySpec
    terminal: TerminalSpec
    obstacle: ObstacleCurve
    kappa: KappaSpec
    brownian_dim: int = 1
    horizon: float = 1.0
    forward: ForwardSDESpec | None = None

    @property
    def needs_forward(self) -> bool:
        return self.terminal.mode == "functional-of-forward" or self.kappa.family == "integral"


def eval_driver(spec: DriverSpec, t, y, z, m_y, m_z):
    """Evaluate phi(t, y, z, m_y, m_z). Pure; broadcasts over particle arrays.

    The last axis of ``z`` / ``m_z`` is the Brownian-coordinate axis; the
    affine z-coefficients act on the first coordinate.
    """
    z = np.asarray(z, dtype=float)
    z1 = z if z.ndim == 0 else z[..., 0]
    m_z = np.asarray(m_z, dtype=float)
    mz1 = m_z if m_z.ndim == 0 else m_z[..., 0]
    if spec.family == "zero":
        return np.zeros(np.broadcast_shapes(np.shape(y), np.shape(z1)))
    c = spec.coefficients
    if spec.family == "affine":
        return (
            c.get("const", 0.0)
            + c.get("y", 0.0) * np.asarray(y, dtype=float)
            + c.get("z", 0.0) * z1
            + c.get("mean_y", 0.0) * m_y
            + c.get("mean_z", 0.0) * mz1
        )
    return c.get("sin_y", 1.0) * np.sin(np.asarray(y, dtype=float)) + c.get("cos_my", 1.0) * np.cos(m_y)


def eval_boundary(spec: BoundarySpec, t, y):
    """Evaluate g(t, y). Pure; broadcasts over particle arrays."""
    y = np.asarray(y, dtype=float)
    if spec.family == "zero":
        return np.zeros_like(y)
    if spec.family == "linear-monotone":
        return spec.beta * y
    return spec.beta * y - y**3


@dataclass(frozen=True)
class ValidationCheck:
    assumption: str
    status: str  # pass | fail | unverifiable
    detail: str


def check_hard_constraints(spec: ProblemSpec) -> None:
    """Raise ConfigError for declarations that make the problem unusable."""
    if not (-math.inf < spec.boundary.beta < 0):
        raise ConfigError(f"beta must be < 0, got {spec.boundary.beta}")
    if not (0 < spec.horizon < math.inf):
        raise ConfigError(f"horizon T must be finite and > 0, got {spec.horizon}")
    if spec.brownian_dim < 1:
        raise ConfigError(f"brownian_dim must be >= 1, got {spec.brownian_dim}")
    for part, family in ((spec.obstacle, "tabulated"), (spec.kappa, "curve")):
        if part.family == family and np.any(np.diff(part.knots_t) <= 0):
            raise ConfigError(f"{type(part).__name__} family {family!r}: knots_t must be strictly increasing")
    if spec.needs_forward and spec.forward is None:
        raise ConfigError("terminal/kappa family requires forward SDE coefficients")


def validate_problem(spec: ProblemSpec, samples: int = 10_000, seed: int = 0) -> tuple[ValidationCheck, ...]:
    """Spot-check assumptions (A1)-(A5) on random samples.

    Hard declaration failures raise ConfigError; everything else becomes a
    pass/fail/unverifiable check whose detail names the worst sampled
    witness. Lipschitz and monotonicity over continuum domains cannot be
    proved by sampling, so a pass means no sampled counterexample.
    """
    if samples < 100:
        raise ConfigError(f"samples must be >= 100, got {samples}")
    check_hard_constraints(spec)

    rng = np.random.default_rng(seed)
    T = spec.horizon
    d = spec.brownian_dim
    checks: list[ValidationCheck] = []

    # (A1) Lipschitz quotient on random argument pairs.
    t_s = rng.uniform(0.0, T, samples)
    y1, y2 = rng.normal(0, 3, (2, samples))
    z1, z2 = rng.normal(0, 3, (2, samples, d))
    my1, my2 = rng.normal(0, 3, (2, samples))
    mz1, mz2 = rng.normal(0, 3, (2, samples, d))
    f1 = eval_driver(spec.driver, t_s, y1, z1, my1, mz1)
    f2 = eval_driver(spec.driver, t_s, y2, z2, my2, mz2)
    denom = (
        np.abs(y1 - y2)
        + np.linalg.norm(z1 - z2, axis=-1)
        + np.abs(my1 - my2)
        + np.linalg.norm(mz1 - mz2, axis=-1)
    )
    ok = denom > 1e-12
    quot = np.abs(f1 - f2)[ok] / denom[ok]
    worst_q = float(quot.max()) if quot.size else 0.0
    lip_ok = worst_q <= spec.driver.lipschitz_L_f * (1 + 1e-9) + 1e-12
    checks.append(
        ValidationCheck(
            "A1-lipschitz",
            "pass" if lip_ok else "fail",
            f"worst sampled quotient {worst_q:.6g} vs declared L_f {spec.driver.lipschitz_L_f:.6g}",
        )
    )

    f0 = eval_driver(spec.driver, t_s, np.zeros(samples), np.zeros((samples, d)), 0.0, np.zeros(d))
    origin_ok = bool(np.all(np.isfinite(f0)))
    checks.append(
        ValidationCheck(
            "A1-origin-finite",
            "pass" if origin_ok else "fail",
            "phi(t,0,0,0,0) finite on sampled grid" if origin_ok else "non-finite phi at origin",
        )
    )

    # (A2) one-sided monotonicity and growth. g == 0 kills the d-kappa term
    # entirely, so the strict-beta inequality is vacuous for that family.
    if spec.boundary.family == "zero":
        checks.append(ValidationCheck("A2-monotonicity", "pass", "g identically zero; condition vacuous"))
    else:
        g1 = eval_boundary(spec.boundary, t_s, y1)
        g2 = eval_boundary(spec.boundary, t_s, y2)
        margin = (y1 - y2) * (g1 - g2) - spec.boundary.beta * (y1 - y2) ** 2
        worst_m = float(margin.max())
        checks.append(
            ValidationCheck(
                "A2-monotonicity",
                "pass" if worst_m <= 1e-10 else "fail",
                f"worst (dy)(dg) - beta (dy)^2 = {worst_m:.6g}",
            )
        )
    g_y = eval_boundary(spec.boundary, t_s, y1)
    growth_margin = np.abs(g_y) - (spec.boundary.psi + spec.boundary.growth_L_g * np.abs(y1))
    worst_g = float(growth_margin.max())
    checks.append(
        ValidationCheck(
            "A2-growth",
            "pass" if worst_g <= 1e-10 else "fail",
            f"worst |g| - (psi + L_g |y|) = {worst_g:.6g} on sampled points",
        )
    )

    # (A3)/(A5) need simulated terminal draws and clock paths.
    from .paths import TimeGrid, simulate_forward  # deferred: paths imports this module

    spot_m = min(max(samples, 128), 4096)
    cloud = simulate_forward(spec, TimeGrid(T, 16), spot_m, seed=seed ^ 0x5EED)
    xi = cloud.xi
    xi_mean = float(xi.mean())
    band = 4.0 * float(xi.std()) / math.sqrt(spot_m)
    u_T = float(spec.obstacle.evaluate(T))
    if spec.terminal.declared_mean is not None:
        gap = abs(xi_mean - spec.terminal.declared_mean)
        checks.append(
            ValidationCheck(
                "A3-terminal-mean",
                "pass" if gap <= band + 1e-12 else "fail",
                f"sampled mean {xi_mean:.6g} vs declared {spec.terminal.declared_mean:.6g} (band {band:.3g})",
            )
        )
        a3_ok = spec.terminal.declared_mean >= u_T - 1e-12
        checks.append(
            ValidationCheck(
                "A3-terminal-vs-obstacle",
                "pass" if a3_ok else "fail",
                f"declared E[xi] {spec.terminal.declared_mean:.6g} vs u(T) {u_T:.6g}",
            )
        )
    else:
        checks.append(
            ValidationCheck("A3-terminal-mean", "unverifiable", f"no declared mean; sampled mean {xi_mean:.6g}")
        )
        if xi_mean - band >= u_T:
            status, note = "pass", "sampled mean clears u(T) beyond the sampling band"
        elif xi_mean + band < u_T:
            status, note = "fail", "sampled mean below u(T) beyond the sampling band"
        else:
            status, note = "unverifiable", "sampled mean within one band of u(T)"
        checks.append(ValidationCheck("A3-terminal-vs-obstacle", status, f"{note} (band {band:.3g})"))

    u_grid = spec.obstacle.evaluate(np.linspace(0.0, T, 512))
    checks.append(
        ValidationCheck(
            "A4-obstacle-continuity",
            "pass" if bool(np.all(np.isfinite(u_grid))) else "fail",
            "finite on dense grid; families are continuous by construction",
        )
    )

    kap = cloud.kappa  # (N+1, M)
    start_ok = bool(np.all(kap[0] == 0.0))
    mono_kappa = float(np.min(np.diff(kap, axis=0))) if kap.shape[0] > 1 else 0.0
    a5_ok = start_ok and mono_kappa >= -1e-12
    checks.append(
        ValidationCheck(
            "A5-kappa-monotone",
            "pass" if a5_ok else "fail",
            f"kappa_0 = 0: {start_ok}; smallest sampled increment {mono_kappa:.6g}",
        )
    )
    exp_spot = float(np.mean(np.exp(np.minimum(kap[-1], 700.0))))
    checks.append(
        ValidationCheck(
            "A5-exp-moment",
            "unverifiable",
            f"exponential moments for all mu > 0 not finite-sample checkable; spot E[e^kappa_T] = {exp_spot:.6g}",
        )
    )
    checks.append(
        ValidationCheck(
            "A1-exp-moment",
            "unverifiable",
            "exponential-weight integrability of phi(t,0,0,0,0) not finite-sample checkable",
        )
    )

    return tuple(checks)
