"""Nonlinear Pontryagin machinery: Hamiltonian flows, linearization of the
input-output map, singular-control detection, extremal residual checks, and
the indirect shooting solver for the time-optimal nonlinear spring.

An extremal is a state/adjoint/control triple with cost multiplier p0 <= 0.
The adjoint solves p' = -dH/dx; along a time-minimal extremal of an
autonomous system the pointwise-maximized Hamiltonian vanishes identically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from . import controllability, kernels, ode
from .errors import ChatteringError
from .linear_tmin import SolveStats, shoot2d
from .linsys import ControlSignal, LinearSystem
from .ode import Trajectory

__all__ = [
    "ControlSystem",
    "Extremal",
    "LinearizedSystem",
    "BoundaryManifold",
    "SpringParams",
    "SpringSolution",
    "SpringShootOptions",
    "ExtremalReport",
    "SingularityResult",
    "hamiltonian",
    "extremal_rhs",
    "simulate_nonlinear",
    "linearize",
    "io_differential",
    "io_differential_mpath",
    "singularity_test",
    "local_controllability",
    "equilibrium_linearization",
    "check_extremal",
    "spring_tmin_shoot",
    "make_system",
    "from_linear",
    "REGISTRY",
]


def _fd_jacobian(fun, argindex: int, out_dim: int):
    """Central-difference Jacobian in the selected argument of fun(x, u)."""

    def jac(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        base = np.atleast_1d(np.asarray(fun(x, u), dtype=float))
        arg = (x, u)[argindex]
        J = np.empty((out_dim, len(arg)))
        for i in range(len(arg)):
            h = 1e-6 * (1.0 + abs(float(arg[i])))
            hi = arg.copy()
            lo = arg.copy()
            hi[i] += h
            lo[i] -= h
            args_hi = (hi, u) if argindex == 0 else (x, hi)
            args_lo = (lo, u) if argindex == 0 else (x, lo)
            f_hi = np.atleast_1d(np.asarray(fun(*args_hi), dtype=float))
            f_lo = np.atleast_1d(np.asarray(fun(*args_lo), dtype=float))
            J[:, i] = (f_hi - f_lo) / (2.0 * h)
        return J if out_dim > 1 else J
    return jac


@dataclass(frozen=True)
class ControlSystem:
    """Nonlinear dynamics f, running cost f0, their Jacobians, control set.

    ``omega`` is an (m, 2) box per channel or None for an unbounded control
    set.  Missing Jacobians fall back to central differences with step
    1e-6 * (1 + |x_i|).  ``control_affine`` declares f and f0 affine in u, so
    that the Hamiltonian's maximum over the box lies at a vertex.

    ``vectorized`` declares that f, f0 and the four Jacobians also take N
    samples at once: states as an (n, N) array and controls as (m, N), one
    sample per column.  They then return component-first results with the
    samples last: f (n, N), f0 (N,), df_dx (n, n, N), df_du (n, m, N),
    df0_dx (n, N) and df0_du (m, N).  A running cost or Jacobian that does
    not depend on the sample may come back in its single-sample shape and
    is broadcast.  Each column must carry the bits of
    the single-sample call, so the batched route of ``check_extremal`` gives
    the report of its per-sample loop; the finite-difference Jacobians are
    single-sample only.
    """

    n: int
    m: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f0: Callable[[np.ndarray, np.ndarray], float]
    df_dx: Optional[Callable] = None
    df_du: Optional[Callable] = None
    df0_dx: Optional[Callable] = None
    df0_du: Optional[Callable] = None
    omega: Optional[np.ndarray] = None
    control_affine: bool = False
    vectorized: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.vectorized and None in (self.df_dx, self.df_du, self.df0_dx, self.df0_du):
            raise ValueError("a vectorized system must supply all four Jacobians")
        if self.omega is not None:
            om = np.asarray(self.omega, dtype=float)
            if om.shape != (self.m, 2) or not np.all(om[:, 0] < om[:, 1]):
                raise ValueError("omega must be an (m, 2) box with lower < upper")
            object.__setattr__(self, "omega", om)
        if self.df_dx is None:
            object.__setattr__(self, "df_dx", _fd_jacobian(self.f, 0, self.n))
        if self.df_du is None:
            object.__setattr__(self, "df_du", _fd_jacobian(self.f, 1, self.n))
        if self.df0_dx is None:
            object.__setattr__(
                self, "df0_dx",
                lambda x, u, _j=_fd_jacobian(self.f0, 0, 1): _j(x, u)[0])
        if self.df0_du is None:
            object.__setattr__(
                self, "df0_du",
                lambda x, u, _j=_fd_jacobian(self.f0, 1, 1): _j(x, u)[0])


@dataclass
class Extremal:
    """Candidate PMP solution: trajectory, adjoint, multiplier, control."""

    trajectory: Trajectory
    adjoint: Trajectory
    p0: float
    control: Optional[ControlSignal]
    problem_kind: str = "free-time"

    def __post_init__(self):
        if self.problem_kind not in ("free-time", "fixed-time"):
            raise ValueError("problem_kind must be 'free-time' or 'fixed-time'")
        if self.p0 > 0:
            raise ValueError("p0 must be <= 0")


@dataclass(frozen=True)
class BoundaryManifold:
    """Affine constraint manifold: base point plus tangent directions."""

    base_point: np.ndarray
    tangent_basis: np.ndarray  # (k, n); empty = single point

    @classmethod
    def point(cls, x) -> "BoundaryManifold":
        x = np.asarray(x, dtype=float).reshape(-1)
        return cls(x, np.empty((0, len(x))))

    @classmethod
    def affine(cls, x, basis) -> "BoundaryManifold":
        x = np.asarray(x, dtype=float).reshape(-1)
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        if basis.shape[1] != len(x):
            raise ValueError("tangent basis dimension mismatch")
        if len(basis) and np.linalg.matrix_rank(basis) < len(basis):
            raise ValueError("tangent basis must be linearly independent")
        return cls(x, basis)


@dataclass(frozen=True)
class SpringParams:
    """Mass-spring data for m x'' + k1 (x - l) + k2 (x - l)^3 = u."""

    m_mass: float = 1.0
    k1: float = 1.0
    k2: float = 2.0
    l: float = 0.0

    def __post_init__(self):
        if self.m_mass <= 0:
            raise ValueError("m_mass must be positive")


def hamiltonian(sys: ControlSystem, x, p, p0: float, u) -> float:
    """H(x, p, p0, u) = <p, f(x, u)> + p0 * f0(x, u)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(p @ np.asarray(sys.f(x, u), dtype=float) + p0 * sys.f0(x, u))


def hamiltonian_du(sys: ControlSystem, x, p, p0: float, u) -> np.ndarray:
    """Gradient of the Hamiltonian in the control, dH/du."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return np.asarray(sys.df_du(x, u), dtype=float).T @ p \
        + p0 * np.asarray(sys.df0_du(x, u), dtype=float).reshape(-1)


def extremal_rhs(sys: ControlSystem, x, p, u, p0: float = -1.0):
    """Right-hand sides (x', p') of the extremal equations.

    x' = dH/dp = f(x, u) and p' = -dH/dx = -df_dx^T p - p0 * df0_dx.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xdot = np.asarray(sys.f(x, u), dtype=float)
    pdot = -np.asarray(sys.df_dx(x, u), dtype=float).T @ p \
        - p0 * np.asarray(sys.df0_dx(x, u), dtype=float).reshape(-1)
    return xdot, pdot


# ---------------------------------------------------------------------------
# built-in systems


def _pow(a, k: int):
    """a ** k as a float64 scalar computes it (the C library's pow), for a
    scalar or entry by entry.  numpy's array power, squaring included, can
    round the last bit differently, and a column of a vectorized system must
    match the single-sample call."""
    if not isinstance(a, np.ndarray):
        return a ** k
    return np.array([v ** k for v in a.ravel()]).reshape(a.shape)


def _matvec(M: np.ndarray, v) -> np.ndarray:
    """M @ v for one vector v, or for each column of a (k, N) array v as N
    matrix-vector products (stacked matmul): a matrix-matrix product
    rounds differently."""
    if getattr(v, "ndim", 1) < 2:
        return M @ v
    return (M @ v.T[..., None])[..., 0].T


def _spring_system(k2: float) -> ControlSystem:
    k2 = float(k2)

    def f(x, u):
        return np.array([x[1], -x[0] - k2 * _pow(x[0], 3) + u[0]])

    def df_dx(x, u):
        a = -1.0 - 3.0 * k2 * _pow(np.asarray(x)[0], 2)
        J = np.zeros((2, 2) + a.shape)
        J[0, 1] = 1.0
        J[1, 0] = a
        return J

    return ControlSystem(
        n=2, m=1, f=f,
        f0=lambda x, u: 1.0,
        df_dx=df_dx,
        df_du=lambda x, u: np.array([[0.0], [1.0]]),
        df0_dx=lambda x, u: np.zeros(2),
        df0_du=lambda x, u: np.zeros(1),
        omega=np.array([[-1.0, 1.0]]),
        control_affine=True,
        vectorized=True,
    )


REGISTRY: Dict[str, Callable[..., ControlSystem]] = {
    "linear_oscillator": lambda: _spring_system(0.0),
    "nonlinear_spring": lambda k2=2.0: _spring_system(k2),
}


def make_system(name: str, **params) -> ControlSystem:
    """Instantiate a registered built-in control system by name."""
    if name not in REGISTRY:
        raise ValueError(f"unknown system '{name}'; known: {sorted(REGISTRY)}")
    return REGISTRY[name](**params)


def from_linear(sys: LinearSystem, time_cost: bool = True) -> ControlSystem:
    """Wrap X' = A X + B u as a ControlSystem (running cost 1 by default)."""
    A, B = sys.A, sys.B
    return ControlSystem(
        n=sys.n, m=sys.m,
        f=lambda x, u: _matvec(A, x) + _matvec(B, u),
        f0=(lambda x, u: 1.0) if time_cost else (lambda x, u: 0.0),
        df_dx=lambda x, u: A,
        df_du=lambda x, u: B,
        df0_dx=lambda x, u: np.zeros(sys.n),
        df0_du=lambda x, u: np.zeros(sys.m),
        omega=None if sys.control_bounds is None else sys.control_bounds.copy(),
        control_affine=True,
        vectorized=True,
    )


# ---------------------------------------------------------------------------
# reference integration and linearization


def _node_times(T: float, breakpoints: np.ndarray, n_steps: int) -> np.ndarray:
    """Roughly uniform nodes on [0, T] containing every control breakpoint."""
    h_target = T / n_steps
    knots = [0.0]
    for s in breakpoints:
        if 1e-14 * T < s < T * (1 - 1e-14):
            knots.append(float(s))
    knots.append(T)
    knots = np.unique(knots)
    nodes = [np.zeros(1)]
    for a, b in zip(knots[:-1], knots[1:]):
        n_sub = max(1, int(math.ceil((b - a) / h_target - 1e-12)))
        nodes += [a + (b - a) * np.arange(1, n_sub) / n_sub, [b]]
    return np.concatenate(nodes)


def _reference_pass(sys: ControlSystem, x0: np.ndarray, times: np.ndarray,
                    cell_u: np.ndarray):
    """Classical RK4 of x' = f(x, u) over the nodes ``times``, holding the
    control ``cell_u[k]`` on cell k.

    Returns the node states (N, n), the inner stage states x + h/2 k1,
    x + h/2 k2 and x + h k3 of every step (N - 1, 3, n), and the index of
    the step after which the state first became non-finite (None if it
    never did); the arrays then end with that step.  The stage arithmetic
    is that of ``ode.rk4_step``, so the states match it bit for bit.
    """
    f = sys.f
    N = len(times)
    xs = np.empty((N, len(x0)))
    stages = np.empty((N - 1, 3, len(x0)))
    xs[0] = x = x0
    for k, h in enumerate(np.diff(times).tolist()):
        v = cell_u[k]
        S = stages[k]
        k1 = np.asarray(f(x, v), dtype=float)
        S[0] = x + 0.5 * h * k1
        k2 = np.asarray(f(S[0], v), dtype=float)
        S[1] = x + 0.5 * h * k2
        k3 = np.asarray(f(S[1], v), dtype=float)
        S[2] = x + h * k3
        k4 = np.asarray(f(S[2], v), dtype=float)
        xs[k + 1] = x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            return xs[:k + 2], stages[:k + 1], k
    return xs, stages, None


def _cell_controls(u: ControlSignal, times: np.ndarray) -> np.ndarray:
    """The control held on each cell [times[k], times[k + 1]]."""
    return u.evaluate(0.5 * (times[:-1] + times[1:]))


def simulate_nonlinear(sys: ControlSystem, x0, u: ControlSignal, T: float,
                       n_steps: int = 2000) -> Trajectory:
    """RK4 integration of x' = f(x, u) with steps aligned to control breakpoints."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (sys.n,):
        raise ValueError(f"x0 must have dimension {sys.n}")
    if T <= 0:
        return Trajectory(np.array([0.0]), x0.reshape(1, -1))
    times = _node_times(T, u.breakpoints, n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        states, _, blown = _reference_pass(sys, x0, times, _cell_controls(u, times))
    if blown is not None:
        raise ode.blowup_error(times[blown])
    return Trajectory(times, states)


@dataclass
class LinearizedSystem:
    """Linearization A(t), B(t) along a reference pair plus fundamental matrix M."""

    times: np.ndarray
    At: np.ndarray        # (N, n, n)
    Bt: np.ndarray        # (N, n, m)
    M: np.ndarray         # (N, n, n), M(0) = identity
    reference: Trajectory
    control: ControlSignal
    system: ControlSystem
    x0: np.ndarray

    @property
    def T(self) -> float:
        return float(self.times[-1])


def _variational_pass(sys: ControlSystem, x0: np.ndarray, times: np.ndarray,
                      cell_u: np.ndarray):
    """``_reference_pass`` plus each step's RK4 propagator of y' = A(t) y,
    Phi = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A1, K2 = A2 (I + h/2 K1),
    K3 = A3 (I + h/2 K2), K4 = A4 (I + h K3), formed for all steps at once.

    Returns the node states (N, n), each step's start node and inner stage
    states (K, 4, n), A1..A4 = df/dx at them (K, 4, n, n), Phi (K, n, n) and
    the blow-up index; K = N - 1 unless the state blew up.
    """
    n = sys.n
    xs, stages, blown = _reference_pass(sys, x0, times, cell_u)
    df_dx = sys.df_dx
    points = np.concatenate([xs[:len(stages), None], stages], axis=1)
    A = np.array([[df_dx(p, v) for p in P] for P, v in zip(points, cell_u)],
                 dtype=float).reshape(len(stages), 4, n, n)
    h = np.diff(times)[:len(stages), None, None]
    eye = np.eye(n)
    K1 = A[:, 0]
    K2 = A[:, 1] @ (eye + 0.5 * h * K1)
    K3 = A[:, 2] @ (eye + 0.5 * h * K2)
    K4 = A[:, 3] @ (eye + h * K3)
    Phi = eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return xs, points, A, Phi, blown


def linearize(sys: ControlSystem, u_ref: ControlSignal, x0, T: float,
              n_steps: int = 4000) -> LinearizedSystem:
    """Linearize along the RK4 reference trajectory from x0 under u_ref.

    A(t) = df/dx and B(t) = df/du are sampled at the nodes with the
    right-continuous control.  The fundamental matrix M' = A(t) M, M(0) = I,
    is the RK4 of the variational equation at the reference's stage states,
    M(t_{k+1}) = Phi_k M(t_k) with the step propagators of
    ``_variational_pass``: the joint RK4 of (x, M) with the M stages
    regrouped, so x is the same and M differs from it by roundoff only.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    times = _node_times(T, u_ref.breakpoints, n_steps)
    n, m = sys.n, sys.m
    cell_u = _cell_controls(u_ref, times)
    with np.errstate(over="ignore", invalid="ignore"):
        xs, _, A, Phi, blown = _variational_pass(sys, x0, times, cell_u)
        M = np.empty((len(xs), n, n))
        M[0] = np.eye(n)
        for k in range(len(Phi)):
            np.matmul(Phi[k], M[k], out=M[k + 1])
    finite = np.isfinite(M).all(axis=(1, 2))
    if not finite.all():
        blown = int(np.argmin(finite)) - 1
    if blown is not None:
        raise ode.blowup_error(times[blown])
    node_u = u_ref.evaluate(times)
    # a cell's first stage is its start node, so A(t_k) is already known
    # wherever the node control is the cell's: all but the last node and the
    # breakpoints that _node_times dropped next to 0 or T
    At = np.empty((len(times), n, n))
    At[:-1] = A[:, 0]
    for k in np.append(np.flatnonzero((node_u[:-1] != cell_u).any(axis=1)), len(times) - 1):
        At[k] = np.asarray(sys.df_dx(xs[k], node_u[k]), dtype=float).reshape(n, n)
    df_du = sys.df_du
    Bt = np.array([df_du(x, v) for x, v in zip(xs, node_u)],
                  dtype=float).reshape(len(times), n, m)
    return LinearizedSystem(times, At, Bt, M, Trajectory(times, xs), u_ref, sys, x0)


def io_differential(lin: LinearizedSystem, v: ControlSignal,
                    T: Optional[float] = None) -> np.ndarray:
    """Differential of the input-output map applied to v: y_v(T).

    The RK4 of y' = A(t) y + B(t) v, y(0) = 0, on its own node grid as
    y_{k+1} = Phi_k y_k + F_k: the step propagators of ``_variational_pass``
    plus the forcing of v over the cell at the same stage states.  This is
    the joint RK4 of (x, y) regrouped, equal to it up to roundoff.
    """
    T = lin.T if T is None else float(T)
    if T > lin.T * (1 + 1e-12):
        raise ValueError("T exceeds the linearization horizon")
    sys = lin.system
    n, m = sys.n, sys.m
    times = _node_times(T, np.union1d(lin.control.breakpoints, v.breakpoints),
                        max(len(lin.times) - 1, 1))
    cell_u = _cell_controls(lin.control, times)
    with np.errstate(over="ignore", invalid="ignore"):
        xs, points, A, Phi, blown = _variational_pass(sys, lin.x0, times, cell_u)
        # B v at the stage states and the forcing's RK4 stages G1 = B1 v,
        # G2 = A2 h/2 G1 + B2 v, G3 = A3 h/2 G2 + B3 v, G4 = A4 h G3 + B4 v
        Bv = np.array([[np.asarray(sys.df_du(p, u), dtype=float).reshape(n, m) @ w
                        for p in P] for P, u, w in
                       zip(points, cell_u, _cell_controls(v, times))],
                      dtype=float).reshape(len(Phi), 4, n, 1)
        h = np.diff(times)[:len(Phi), None, None]
        G1 = Bv[:, 0]
        G2 = A[:, 1] @ (0.5 * h * G1) + Bv[:, 1]
        G3 = A[:, 2] @ (0.5 * h * G2) + Bv[:, 2]
        G4 = A[:, 3] @ (h * G3) + Bv[:, 3]
        F = (h / 6.0) * (G1 + 2.0 * G2 + 2.0 * G3 + G4)
        ys = np.zeros((len(xs), n, 1))
        for k in range(len(Phi)):
            ys[k + 1] = Phi[k] @ ys[k] + F[k]
    finite = np.isfinite(ys).all(axis=(1, 2))
    if not finite.all():
        blown = int(np.argmin(finite)) - 1
    if blown is not None:
        raise ode.blowup_error(times[blown])
    return ys[-1, :, 0]


def io_differential_mpath(lin: LinearizedSystem, v: ControlSignal,
                          T: Optional[float] = None) -> np.ndarray:
    """y_v(T) through the fundamental-matrix formula M(T) int M^-1 B v ds."""
    T = lin.T if T is None else float(T)
    if T > lin.T * (1 + 1e-12):
        raise ValueError("T exceeds the linearization horizon")
    sys = lin.system
    n = sys.n
    times = _node_times(T, np.union1d(lin.control.breakpoints, v.breakpoints),
                        max(len(lin.times) - 1, 1))
    x = lin.x0.copy()
    M = np.eye(n)
    q = np.zeros(n)
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        mid = 0.5 * (times[k] + times[k + 1])
        u_k = lin.control.evaluate(mid)
        v_k = v.evaluate(mid)
        z = np.concatenate([x, M.reshape(-1), q])

        def rhs(t, zz, uu=u_k, vv=v_k):
            xx = zz[:n]
            MM = zz[n:n + n * n].reshape(n, n)
            Ax = np.asarray(sys.df_dx(xx, uu), dtype=float)
            Bx = np.asarray(sys.df_du(xx, uu), dtype=float).reshape(n, sys.m)
            qdot = np.linalg.solve(MM, Bx @ vv)
            return np.concatenate([
                np.asarray(sys.f(xx, uu), dtype=float),
                (Ax @ MM).reshape(-1),
                qdot,
            ])

        z = ode.rk4_step(rhs, times[k], z, h)
        x = z[:n]
        M = z[n:n + n * n].reshape(n, n)
        q = z[n + n * n:]
    return M @ q


@dataclass(frozen=True)
class SingularityResult:
    status: str                   # "regular" | "singular"
    rank: int
    singular_values: np.ndarray   # eigenvalues of the linearized Gramian
    gramian: np.ndarray

    @property
    def regular(self) -> bool:
        return self.status == "regular"


def singularity_test(lin: LinearizedSystem, T: Optional[float] = None,
                     tol: float = 1e-10) -> SingularityResult:
    """Rank test of the linearized controllability Gramian on [0, T].

    W = int_0^T Phi(T,s) B(s) B(s)^T Phi(T,s)^T ds with Phi(T,s) =
    M(T) M^-1(s); the differential of the input-output map is surjective iff
    W has full rank, i.e. the reference control is regular.
    """
    T = lin.T if T is None else float(T)
    mask = lin.times <= T * (1 + 1e-12)
    times = lin.times[mask]
    if abs(times[-1] - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must coincide with a stored linearization node")
    n = lin.system.n
    G = np.linalg.solve(lin.M[:len(times)], lin.Bt[:len(times)])
    P = np.einsum("kij,klj->kil", G, G)  # (N, n, n) integrand M^-1 B B^T M^-T
    # composite trapezoid handles the breakpoint-split (nonuniform) nodes
    w = np.diff(times)
    S = 0.5 * np.einsum("k,kij->ij", w, P[:-1] + P[1:])
    M_T = lin.M[len(times) - 1]
    W = M_T @ S @ M_T.T
    W = 0.5 * (W + W.T)
    eigvals = np.linalg.eigvalsh(W)[::-1]
    lam_max = float(eigvals[0]) if eigvals[0] > 0 else 0.0
    rank = int(np.count_nonzero(eigvals > tol * lam_max)) if lam_max > 0 else 0
    status = "regular" if rank == n else "singular"
    return SingularityResult(status, rank, eigvals, W)


def equilibrium_linearization(sys: ControlSystem) -> LinearSystem:
    """(A, B) = (df/dx, df/du) at the equilibrium (0, 0), with the control
    box as bounds."""
    x0 = np.zeros(sys.n)
    u0 = np.zeros(sys.m)
    residual = np.asarray(sys.f(x0, u0), dtype=float)
    if np.linalg.norm(residual) > 1e-12:
        raise ValueError(
            f"(0, 0) is not an equilibrium: f(0,0) = {residual.tolist()}"
        )
    A = np.asarray(sys.df_dx(x0, u0), dtype=float)
    B = np.asarray(sys.df_du(x0, u0), dtype=float).reshape(sys.n, sys.m)
    return LinearSystem(A, B, None if sys.omega is None else sys.omega.copy())


def local_controllability(sys: ControlSystem) -> bool:
    """Kalman test of the linearization at the equilibrium (0, 0)."""
    return controllability.is_controllable(equilibrium_linearization(sys))


# ---------------------------------------------------------------------------
# extremal verification


@dataclass
class ExtremalReport:
    """Named residuals of the maximum-principle conditions."""

    state_residual: float
    adjoint_residual: float
    max_condition_residual: float
    hamiltonian_residual: float
    stationarity_residual: Optional[float]
    transversality_initial: float
    transversality_final: float
    nontriviality_margin: float
    abnormal: bool

    def passes(self, tol: float = 1e-6) -> bool:
        checks = [
            self.state_residual <= tol,
            self.adjoint_residual <= tol,
            self.max_condition_residual <= tol,
            self.hamiltonian_residual <= tol,
            self.transversality_initial <= tol,
            self.transversality_final <= tol,
            self.nontriviality_margin > 0,
        ]
        if self.stationarity_residual is not None:
            checks.append(self.stationarity_residual <= tol)
        return all(checks)

    def to_json_dict(self) -> dict:
        return {
            "state_residual": self.state_residual,
            "adjoint_residual": self.adjoint_residual,
            "max_condition_residual": self.max_condition_residual,
            "hamiltonian_residual": self.hamiltonian_residual,
            "stationarity_residual": self.stationarity_residual,
            "transversality_initial": self.transversality_initial,
            "transversality_final": self.transversality_final,
            "nontriviality_margin": self.nontriviality_margin,
            "abnormal": self.abnormal,
        }


def _control_candidates(sys: ControlSystem, x, p, p0: float, u_now: np.ndarray):
    """Hamiltonian-maximizing candidates over a box: vertices plus any
    interior stationary points found by per-channel sign bracketing.  For a
    control-affine system dH/du does not depend on u, so the bracketing
    cannot find a sign change and is skipped."""
    om = sys.omega
    candidates = [np.asarray(u_now, dtype=float)]
    for vertex in itertools.product(*[(om[j, 0], om[j, 1]) for j in range(sys.m)]):
        candidates.append(np.array(vertex))
    if sys.control_affine:
        return candidates
    for j in range(sys.m):
        lo, hi = om[j]
        grid = np.linspace(lo, hi, 17)

        def phi(vj):
            u_try = np.asarray(u_now, dtype=float).copy()
            u_try[j] = vj
            return hamiltonian_du(sys, x, p, p0, u_try)[j]

        vals = np.array([phi(v) for v in grid])
        signs = np.sign(vals)
        roots = list(grid[vals == 0.0])     # stationary points on a node
        for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
            a, b = grid[i], grid[i + 1]
            fa = vals[i]
            for _ in range(50):
                mid = 0.5 * (a + b)
                fm = phi(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append(0.5 * (a + b))
        for root in roots:
            u_try = np.asarray(u_now, dtype=float).copy()
            u_try[j] = root
            candidates.append(u_try)
    return candidates


def _loop_residuals(sys: ControlSystem, times, X, P, p0: float,
                    control: Optional[ControlSignal]):
    """(state, adjoint, max-condition and stationarity residuals, max_v H at
    every sample), one cell and one sample at a time."""

    def u_at(t: float) -> np.ndarray:
        if control is None:
            return np.zeros(sys.m)
        return np.atleast_1d(control.evaluate(t))

    # (a) ODE defects of the joint extremal system
    state_res = 0.0
    adjoint_res = 0.0
    n = sys.n
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        if h <= 0:
            continue
        v = u_at(0.5 * (times[k] + times[k + 1]))

        def rhs(t, z, vv=v):
            xd, pd = extremal_rhs(sys, z[:n], z[n:], vv, p0)
            return np.concatenate([xd, pd])

        z_pred = ode.rk4_step(rhs, times[k], np.concatenate([X[k], P[k]]), h)
        state_res = max(state_res, float(np.linalg.norm(z_pred[:n] - X[k + 1]) / h))
        adjoint_res = max(adjoint_res, float(np.linalg.norm(z_pred[n:] - P[k + 1]) / h))

    # (b)-(d) pointwise conditions
    max_cond = 0.0
    stationarity: Optional[float] = None
    maxH = np.empty(len(times))
    if sys.omega is None:
        stationarity = 0.0
    for k, t in enumerate(times):
        u_now = u_at(t)
        H_u = hamiltonian(sys, X[k], P[k], p0, u_now)
        if sys.omega is None:
            stationarity = max(stationarity, float(np.linalg.norm(
                hamiltonian_du(sys, X[k], P[k], p0, u_now))))
            maxH[k] = H_u
        else:
            best = H_u
            for cand in _control_candidates(sys, X[k], P[k], p0, u_now):
                best = max(best, hamiltonian(sys, X[k], P[k], p0, cand))
            maxH[k] = best
            max_cond = max(max_cond, best - H_u)
    return state_res, adjoint_res, max_cond, stationarity, maxH


def _per_sample(value, ndim: int) -> np.ndarray:
    """A vectorized system's result with the samples on the first axis, each
    sample's block contiguous like a single-sample result.  A result of the
    single-sample rank ``ndim`` is common to all samples and is returned as
    it is, to broadcast."""
    a = np.asarray(value, dtype=float)
    return a if a.ndim == ndim else np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _batched_residuals(sys: ControlSystem, times, X, P, p0: float,
                       control: Optional[ControlSignal]):
    """``_loop_residuals`` for a vectorized system whose maximum over the
    control set needs no interior search, with every cell and every sample
    at once.  Each product is the loop's own, on operands laid out like the
    loop's vectors: one matrix-vector product per sample (stacked matmul),
    and np.vecdot for dot products and norms.  So the residuals are the
    loop's to the bit."""
    n, m = sys.n, sys.m
    h = np.diff(times)
    cells = np.flatnonzero(h > 0)
    h = h[cells, None]
    if control is None:
        cell_u, node_u = np.zeros((len(cells), m)), np.zeros((len(times), m))
    else:
        cell_u = control.evaluate(0.5 * (times[:-1] + times[1:]))[cells]
        node_u = control.evaluate(times)

    def worst(r) -> float:
        # the loop's running max from 0.0, which passes over NaN
        return float(np.fmax.reduce(r, initial=0.0))

    def rhs(Z):
        x, p, u = Z[:, :n].T, Z[:, n:], cell_u.T
        pdot = (-_per_sample(sys.df_dx(x, u), 2).swapaxes(-1, -2) @ p[..., None])[..., 0] \
            - p0 * _per_sample(sys.df0_dx(x, u), 1)
        return np.concatenate([_per_sample(sys.f(x, u), 1), pdot], axis=1)

    # (a) one RK4 step per cell with the stage arithmetic of ode.rk4_step
    Z = np.concatenate([X[:-1], P[:-1]], axis=1)[cells]
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(Z)
        k2 = rhs(Z + 0.5 * h * k1)
        k3 = rhs(Z + 0.5 * h * k2)
        k4 = rhs(Z + h * k3)
        Z = Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    blown = ~np.isfinite(Z).all(axis=1)
    if blown.any():
        raise ode.blowup_error(times[cells[np.argmax(blown)]])
    dx = Z[:, :n] - X[cells + 1]
    dp = Z[:, n:] - P[cells + 1]
    state_res = worst(np.sqrt(np.vecdot(dx, dx)) / h[:, 0])
    adjoint_res = worst(np.sqrt(np.vecdot(dp, dp)) / h[:, 0])

    # (b)-(d) pointwise conditions
    def hamiltonians(u):
        return np.vecdot(P, _per_sample(sys.f(X.T, u.T), 1)) \
            + p0 * _per_sample(sys.f0(X.T, u.T), 0)

    H_u = hamiltonians(node_u)
    if sys.omega is None:
        g = (_per_sample(sys.df_du(X.T, node_u.T), 2).swapaxes(-1, -2) @ P[..., None])[..., 0] \
            + p0 * _per_sample(sys.df0_du(X.T, node_u.T), 1)
        return state_res, adjoint_res, 0.0, worst(np.sqrt(np.vecdot(g, g))), H_u
    best = H_u
    for vertex in itertools.product(*sys.omega.tolist()):
        H_v = hamiltonians(np.tile(vertex, (len(times), 1)))
        best = np.where(H_v > best, H_v, best)
    return state_res, adjoint_res, worst(best - H_u), None, best


def check_extremal(sys: ControlSystem, ext: Extremal,
                   m0: Optional[BoundaryManifold] = None,
                   m1: Optional[BoundaryManifold] = None) -> ExtremalReport:
    """Residual report of the maximum-principle conditions along an extremal.

    Covers the extremal ODEs (RK4 defect per unit time on cells aligned to
    the control breakpoints), the pointwise maximum condition over the
    control box, the free-time zero / fixed-time constancy of max_v H, the
    Hestenes stationarity condition for unbounded control sets,
    transversality against affine boundary manifolds, and the nontriviality
    margin of the multiplier pair.  A vectorized system whose maximum needs
    no interior search (control-affine, or no control box) is checked at
    every sample at once; the report is the per-sample loop's.
    """
    times = ext.trajectory.times
    X = ext.trajectory.states
    P = ext.adjoint.states
    span = max(float(times[-1] - times[0]), 1.0)
    if len(ext.adjoint.times) != len(times) or \
            np.abs(ext.adjoint.times - times).max() > 1e-9 * span:
        raise ValueError("grid mismatch between trajectory and adjoint")
    p0 = float(ext.p0)
    control = ext.control
    if control is not None:
        for s in control.breakpoints[1:-1]:
            k = int(np.searchsorted(times, s))
            near = min(
                abs(times[min(k, len(times) - 1)] - s),
                abs(times[max(k - 1, 0)] - s),
            )
            if near > 1e-9 * span:
                raise ValueError(
                    f"grid mismatch: control breakpoint {s} is not a trajectory sample"
                )

    if len(times) < 2:
        # zero-length horizon: every interval condition is vacuous, only the
        # endpoint conditions carry content
        state_res = adjoint_res = max_cond = ham_res = 0.0
        stationarity = 0.0 if sys.omega is None else None
    else:
        batched = sys.vectorized and (sys.control_affine or sys.omega is None)
        state_res, adjoint_res, max_cond, stationarity, maxH = (
            _batched_residuals if batched else _loop_residuals)(sys, times, X, P, p0, control)
        if ext.problem_kind == "free-time":
            ham_res = float(np.abs(maxH).max())
        else:
            ham_res = float(np.abs(maxH - np.median(maxH)).max())

    # (e) transversality against the affine manifolds
    trans0 = 0.0
    trans1 = 0.0
    if m0 is not None and len(m0.tangent_basis):
        trans0 = float(np.abs(m0.tangent_basis @ P[0]).max())
    if m1 is not None and len(m1.tangent_basis):
        trans1 = float(np.abs(m1.tangent_basis @ P[-1]).max())

    # (f) nontriviality of (p, p0)
    margin = float(np.sqrt((P ** 2).sum(axis=1) + p0 ** 2).min())

    return ExtremalReport(
        state_residual=state_res,
        adjoint_residual=adjoint_res,
        max_condition_residual=max_cond,
        hamiltonian_residual=ham_res,
        stationarity_residual=stationarity,
        transversality_initial=trans0,
        transversality_final=trans1,
        nontriviality_margin=margin,
        abnormal=(p0 == 0.0),
    )


# ---------------------------------------------------------------------------
# indirect shooting for the time-optimal nonlinear spring


@dataclass(frozen=True)
class SpringShootOptions:
    n_alphas: int = 720
    n_steps: int = 4000
    t_max: float = 20.0
    endpoint_tol: Optional[float] = None    # default 1e-8 * (1 + |target|)
    max_newton: int = 50
    max_seeds: int = 24
    refine_rounds: int = 2
    abnormal_tol: float = 1e-6


@dataclass
class SpringSolution:
    """Shooting result for the spring steered to rest at the origin."""

    T_star: float
    alpha: float
    switch_times: np.ndarray      # forward-time switch instants
    endpoint_error: float
    target: np.ndarray
    p0: float
    report: ExtremalReport
    stats: Optional[SolveStats] = None     # the shooting search's counts

    def to_json_dict(self) -> dict:
        return {
            "T": self.T_star,
            "alpha": self.alpha,
            "switch_times": [float(s) for s in self.switch_times],
            "endpoint_error": self.endpoint_error,
        }


_SCAN_CACHE: Dict[Tuple[float, int, float, int], Tuple[np.ndarray, np.ndarray]] = {}


def _scan_states(k2: float, n_alphas: int, t_max: float, n_steps: int,
                 round_idx: int):
    """(alphas, (x, y) of the reversed flow at every alpha and grid time) on
    the n_alphas << round_idx angles of a refinement round.  Only round 0's
    table is cached across solves: the later ones are 2, 4, ... times larger
    and only hard targets reach them."""
    key = (float(k2), int(n_alphas), float(t_max), int(n_steps))
    if round_idx == 0 and key in _SCAN_CACHE:
        return _SCAN_CACHE[key]
    n = n_alphas << round_idx
    alphas = 2.0 * math.pi * np.arange(n) / n
    table = alphas, kernels.spring_scan(float(k2), alphas, t_max / n_steps, n_steps)
    if round_idx == 0:
        if len(_SCAN_CACHE) > 4:
            _SCAN_CACHE.clear()
        _SCAN_CACHE[key] = table
    return table


def _reversed_endpoint(k2: float, alpha: float, t: float, h_nom: float):
    """(x, y) of the reversed flow at time t and its 2x2 Jacobian in (alpha, t)."""
    z, _, _, n_switch, J = kernels.spring_integrate(k2, alpha, t, h_nom)
    if n_switch < 0:
        raise ChatteringError("switching cap exceeded in reversed-spring integration")
    return z[:2], J[:2]


def _integrate_reversed_ode(k2: float, alpha: float, t_end: float, h_nom: float):
    """(times, states(4), switch_times) of the reversed extremal system from
    the origin on [0, t_end]: RK4 on a grid restarted at every switch, with
    each p_y zero crossing bisected on its step and sampled.  It shares no
    code with ``kernels``, so the kernel tests compare against it."""
    z = np.array([0.0, 0.0, math.sin(alpha), math.cos(alpha)])
    s = 1.0 if z[3] > 0 else (-1.0 if z[3] < 0 else (1.0 if z[2] > 0 else -1.0))

    def rhs(tt, zz):
        return np.array([-zz[1], zz[0] + k2 * zz[0] ** 3 - s,
                         -zz[3] * (1.0 + 3.0 * k2 * zz[0] ** 2), zz[2]])

    t = 0.0
    times, states, switches = [t], [z], []
    while t < t_end - 1e-12 * t_end:
        # a fresh grid from t (0 or the last switch); switches located to tol
        span = t_end - t
        step = min(h_nom, span)
        tol = min(0.49, max(1e-12, 1e-10 * t_end / step)) * step
        side = np.sign(z[3])
        while t < t_end - 1e-14 * span:
            h = min(step, t_end - t)
            z_new = ode.rk4_step(rhs, t, z, h)
            if side == 0:
                # started on a zero: adopt the first definite sign
                side = np.sign(z_new[3])
            elif np.sign(z_new[3]) != side:
                # bisect [lo, hi]: p_y keeps its sign at lo and not at hi
                lo, hi = 0.0, h
                for _ in range(min(math.ceil(math.log2(max(h / tol, 2.0))), 80)):
                    if hi - lo <= tol:
                        break
                    mid = 0.5 * (lo + hi)
                    if np.sign(ode.rk4_step(rhs, t, z, mid)[3]) == side:
                        lo = mid
                    else:
                        hi = mid
                t_switch = t + hi
                switches.append(t_switch)
                if len(switches) > 10000:
                    raise ChatteringError("more than 10000 control switches",
                                          event_count=len(switches))
                if t_switch - t > 1e-14 * span:
                    z = ode.rk4_step(rhs, t, z, hi)
                    times.append(t_switch)
                    states.append(z)
                t = t_switch
                s = -s
                break
            t = t_end if t_end - (t + h) < 1e-14 * span else t + h
            z = z_new
            times.append(t)
            states.append(z)
        else:  # reached t_end with no further switch
            break
    return np.array(times), np.array(states), np.array(switches)


def spring_tmin_shoot(params: Union[SpringParams, float], target,
                      options: Optional[SpringShootOptions] = None):
    """Minimal-time steering of the nonlinear spring to rest at the origin.

    Integrates the time-reversed extremal system from the origin with the
    terminal adjoint parameterized by an angle, scans the (alpha, t) grid for
    states near the requested initial point, refines by damped Newton on the
    two-component residual (``linear_tmin.shoot2d``), and returns the
    forward-time solution together with its extremal and a residual report.
    """
    if isinstance(params, SpringParams):
        if not (abs(params.m_mass - 1.0) <= 1e-12 and abs(params.k1 - 1.0) <= 1e-12
                and abs(params.l) <= 1e-12):
            raise ValueError("spring_tmin_shoot expects normalized parameters "
                             "m=1, k1=1, l=0")
        k2 = float(params.k2)
    else:
        k2 = float(params)
    if k2 < 0:
        raise ValueError("k2 must be nonnegative")
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape != (2,) or not np.all(np.isfinite(target)):
        raise ValueError("target must be a finite 2-vector")
    opts = options or SpringShootOptions()
    tol = opts.endpoint_tol
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.linalg.norm(target)))
    sys = _spring_system(k2)

    if np.linalg.norm(target) <= tol:
        return _trivial_spring_solution(sys, target)

    h_nom = opts.t_max / opts.n_steps

    def scan(round_idx: int):
        alphas, xy = _scan_states(k2, opts.n_alphas, opts.t_max, opts.n_steps, round_idx)
        # squares summed in place, without an (alphas, steps, 2) temporary;
        # bit-identical to np.linalg.norm(xy - target, axis=2)
        D = xy[..., 0] - target[0]
        D *= D
        dy2 = xy[..., 1] - target[1]
        dy2 *= dy2
        D += dy2
        return np.sqrt(D, out=D), alphas, h_nom

    def residual(alpha: float, t: float):
        xy, J = _reversed_endpoint(k2, alpha, t, h_nom)
        return xy - target, lambda: J

    t_star, alpha_star, stats = shoot2d(scan, residual, opts.t_max, tol, opts.max_newton,
                                        opts.max_seeds, opts.refine_rounds)

    # authoritative re-integration through the independent reference route
    n_final = max(800, int(math.ceil(t_star / h_nom)))
    ts, zs, switch_s = _integrate_reversed_ode(k2, alpha_star, t_star,
                                               t_star / n_final)
    endpoint_error = float(np.linalg.norm(zs[-1, :2] - target))

    # forward-time extremal: t = t_star - s
    times_f = t_star - ts[::-1]
    times_f[0] = 0.0
    times_f[-1] = t_star
    states_f = zs[::-1, :2].copy()
    adjoint_f = zs[::-1, 2:4].copy()
    switches_f = np.sort(t_star - switch_s) if len(switch_s) else np.empty(0)
    switches_f = switches_f[(switches_f > 1e-12 * t_star)
                            & (switches_f < t_star * (1 - 1e-12))]

    # cost multiplier: free time forces max_v H = 0, and at the rest point
    # max_v H = |p_y(t*)| + p0, so p0 = -|cos alpha|; rescale to p0 = -1
    # unless the extremal is abnormal
    cos_a = abs(math.cos(alpha_star))
    if cos_a > opts.abnormal_tol:
        p0 = -1.0
        adjoint_f = adjoint_f / cos_a
    else:
        p0 = 0.0

    knots = np.concatenate([[0.0], switches_f, [t_star]])
    mids = 0.5 * (knots[:-1] + knots[1:])
    seg_sign = np.sign(np.interp(mids, times_f, adjoint_f[:, 1]))
    seg_sign[seg_sign == 0] = 1.0
    control = ControlSignal(knots, seg_sign.reshape(-1, 1))

    ext = Extremal(
        trajectory=Trajectory(times_f, states_f),
        adjoint=Trajectory(times_f.copy(), adjoint_f),
        p0=p0,
        control=control,
        problem_kind="free-time",
    )
    report = check_extremal(sys, ext,
                            m0=BoundaryManifold.point(target),
                            m1=BoundaryManifold.point(np.zeros(2)))
    solution = SpringSolution(
        T_star=t_star,
        alpha=alpha_star % (2.0 * math.pi),
        switch_times=switches_f,
        endpoint_error=endpoint_error,
        target=target.copy(),
        p0=p0,
        report=report,
        stats=stats,
    )
    return solution, ext


def _trivial_spring_solution(sys: ControlSystem, target: np.ndarray):
    p = np.array([0.0, 1.0])
    ext = Extremal(
        trajectory=Trajectory(np.array([0.0]), target.reshape(1, -1)),
        adjoint=Trajectory(np.array([0.0]), p.reshape(1, -1)),
        p0=-1.0,
        control=None,
        problem_kind="free-time",
    )
    report = check_extremal(sys, ext,
                            m0=BoundaryManifold.point(target),
                            m1=BoundaryManifold.point(np.zeros(2)))
    solution = SpringSolution(
        T_star=0.0, alpha=0.0, switch_times=np.empty(0),
        endpoint_error=float(np.linalg.norm(target)),
        target=target.copy(), p0=-1.0, report=report,
    )
    return solution, ext
