"""Solver library for generalized mean-reflected McKean-Vlasov BSDEs.

The pipeline: describe a problem (``problem``), simulate a forward particle
cloud (``paths``), smooth the obstacle (``mollify``), run the penalized
backward scheme (``penalized``), drive penalty and smoothing levels to
tolerance (``reflect``), and measure rates and stability against
independent references (``oracle``, ``diagnostics``).
"""

__version__ = "0.1.0"

from .diagnostics import (
    AprioriReport,
    RateFit,
    StabilityRow,
    apriori_report,
    rate_fit,
    stability_experiment,
)
from .errors import (
    ConfigError,
    ConstraintInfeasible,
    LengthMismatch,
    MrbsdeError,
    NoSelfConvergence,
    NonFinite,
    NonPositiveError,
    NotConverged,
    ParseError,
    QuadratureError,
    RankDeficient,
    SimulationError,
)
from .mollify import SmoothObstacle, mollify_obstacle
from .oracle import (
    MeanProblem,
    mean_reduction,
    reference_paths,
    skorokhod_closed_form,
    solve_mean_ode_reflected,
    unconstrained_mean_path,
)
from .paths import ForwardCloud, TimeGrid, simulate_forward
from .penalized import (
    PenalizedSolution,
    RegressionBasis,
    implicit_mean_penalty,
    solve_penalized,
)
from .presets import PRESETS, preset_config
from .problem import (
    BoundarySpec,
    DriverSpec,
    ForwardSDESpec,
    KappaSpec,
    ObstacleCurve,
    ProblemSpec,
    TerminalSpec,
    ValidationCheck,
    eval_boundary,
    eval_driver,
    validate_problem,
)
from .reflect import (
    ConvergenceSchedule,
    LevelRecord,
    ReflectedSolution,
    deficit_metrics,
    flatness_residual,
    penalty_sweep,
    recover_compensator,
    solve_reflected,
)
