"""pmpkit: controllability, reachable sets, and minimal-time extremals for
small control systems, with a bang-bang synthesis for the harmonic oscillator
and an indirect shooting solver for a nonlinear spring.
"""

__version__ = "0.1.0"

from .errors import (
    ChatteringError,
    IntegrationBlowUp,
    NumericalError,
    UnreachableTargetError,
)
from .ode import Trajectory, rk4_step
from .linsys import ControlSignal, LinearSystem, linearity_check, mat_exp, simulate
from .controllability import (
    KalmanMatrix,
    ReachHull,
    is_controllable,
    kalman_matrix,
    reach_hull,
    reach_support,
)
from .linear_tmin import (
    BangBangControl,
    TminOptions,
    TminSolution,
    bang_bang_from_adjoint,
    local_optimality_probe,
    solve_tmin,
)
from .nonlinear import (
    BoundaryManifold,
    ControlSystem,
    Extremal,
    ExtremalReport,
    LinearizedSystem,
    SpringShootOptions,
    SpringSolution,
    check_extremal,
    extremal_rhs,
    from_linear,
    hamiltonian,
    io_differential,
    io_differential_mpath,
    linearize,
    local_controllability,
    make_system,
    simulate_nonlinear,
    singularity_test,
    spring_tmin_shoot,
)

__all__ = [
    "__version__",
    "NumericalError",
    "IntegrationBlowUp",
    "ChatteringError",
    "UnreachableTargetError",
    "Trajectory",
    "rk4_step",
    "LinearSystem",
    "ControlSignal",
    "mat_exp",
    "simulate",
    "linearity_check",
    "KalmanMatrix",
    "ReachHull",
    "kalman_matrix",
    "is_controllable",
    "reach_support",
    "reach_hull",
    "BangBangControl",
    "TminSolution",
    "TminOptions",
    "solve_tmin",
    "bang_bang_from_adjoint",
    "local_optimality_probe",
    "ControlSystem",
    "Extremal",
    "ExtremalReport",
    "LinearizedSystem",
    "BoundaryManifold",
    "SpringShootOptions",
    "SpringSolution",
    "hamiltonian",
    "extremal_rhs",
    "simulate_nonlinear",
    "linearize",
    "io_differential",
    "io_differential_mpath",
    "singularity_test",
    "local_controllability",
    "check_extremal",
    "spring_tmin_shoot",
    "make_system",
    "from_linear",
]
