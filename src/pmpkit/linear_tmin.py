"""Time-optimal bang-bang synthesis for planar bounded-control linear systems.

The minimal time T = inf{t > 0 : x1 reachable from x0 in time t} puts x1 on
the reachable-set boundary, where the control is u(t) = sign<eta(t), B> for
some nontrivial adjoint.  For n = 2 the adjoint ray is parameterized by an
angle, so the solver scans (theta, T) on a coarse grid and refines promising
cells by damped Newton iteration on the two-component endpoint residual.
That driver, ``shoot2d``, also solves the nonlinear spring in ``nonlinear``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import _bang
from .controllability import is_controllable
from .errors import ChatteringError, UnreachableTargetError
from .linsys import ControlSignal, LinearSystem, mat_exp, simulate, _propagators
from .ode import Trajectory

__all__ = [
    "BangBangControl",
    "TminSolution",
    "TminOptions",
    "bang_bang_from_adjoint",
    "solve_tmin",
    "check_tmin_system",
    "local_optimality_probe",
    "ProbeReport",
]


@dataclass(frozen=True)
class BangBangControl:
    """Bang-bang switching structure: alternating signs per channel."""

    switch_times: np.ndarray                 # merged, strictly increasing, in (0, T)
    initial_sign_per_channel: np.ndarray     # (m,) in {-1, 0, +1}; 0 = silent channel
    horizon: float
    channel_switch_times: Optional[Tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        st = np.asarray(self.switch_times, dtype=float).reshape(-1)
        signs = np.asarray(self.initial_sign_per_channel, dtype=float).reshape(-1)
        if len(st) > 1 and not np.all(np.diff(st) > 0):
            raise ValueError("switch_times must be strictly increasing")
        if len(st) and (st[0] <= 0 or st[-1] >= self.horizon):
            raise ValueError("switch_times must lie inside (0, horizon)")
        if not np.all(np.isin(signs, (-1.0, 0.0, 1.0))):
            raise ValueError("initial signs must be -1, 0 or +1")
        channels = self.channel_switch_times
        if channels is None:
            channels = (st,) * len(signs) if len(signs) == 1 else None
        if channels is None:
            raise ValueError("channel_switch_times required for multi-channel controls")
        channels = tuple(np.asarray(c, dtype=float).reshape(-1) for c in channels)
        if len(channels) != len(signs):
            raise ValueError("one switch-time list per channel required")
        object.__setattr__(self, "switch_times", st)
        object.__setattr__(self, "initial_sign_per_channel", signs)
        object.__setattr__(self, "channel_switch_times", channels)

    @property
    def m(self) -> int:
        return len(self.initial_sign_per_channel)

    def to_control_signal(self) -> Optional[ControlSignal]:
        if self.horizon <= 0:
            return None
        return _bang.control_from_channels(
            self.horizon, self.channel_switch_times, self.initial_sign_per_channel
        )


@dataclass
class TminSolution:
    """Result of the minimal-time synthesis."""

    T_star: float
    control: BangBangControl
    eta0: np.ndarray
    endpoint_error: float
    theta: float
    x0: np.ndarray
    x1: np.ndarray
    trajectory: Optional[Trajectory] = None
    adjoint: Optional[Trajectory] = None

    def to_json_dict(self) -> dict:
        return {
            "T": self.T_star,
            "theta": self.theta,
            "switch_times": [float(s) for s in self.control.switch_times],
            "endpoint_error": self.endpoint_error,
        }


@dataclass(frozen=True)
class TminOptions:
    n_angles: int = 720
    t_grid: int = 500
    t_max: Optional[float] = None
    endpoint_tol: Optional[float] = None   # default 1e-6 * (1 + |x1|)
    max_newton: int = 50
    max_seeds: int = 24
    refine_rounds: int = 2
    sample_step: Optional[float] = None    # dense sampling of the returned trajectory


def bang_bang_from_adjoint(sys: LinearSystem, eta0, T: float, x0=None,
                           sample_step: Optional[float] = None):
    """Adjoint-driven bang-bang control, its state and adjoint trajectories.

    The adjoint is propagated exactly as eta(t)^T = eta(0)^T e^{-tA}; switch
    times are the zeros of the closed-form switching function located by
    ``_bang.bang_profile``; the state starts at x0 (default 0).
    """
    eta0 = np.asarray(eta0, dtype=float).reshape(-1)
    if eta0.shape != (sys.n,) or np.linalg.norm(eta0) == 0.0:
        raise ValueError("eta0 must be a nonzero n-vector")
    if sys.control_bounds is None or not np.allclose(
        sys.control_bounds, np.tile([-1.0, 1.0], (sys.m, 1)), atol=1e-12
    ):
        raise ValueError("bang-bang synthesis requires control bounds [-1, 1]")
    x0 = np.zeros(sys.n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)

    profile = _bang.bang_profile(sys, eta0, T)
    traj = simulate(sys, x0, profile.control, T, max_sample_step=sample_step)
    etas = profile.sampler.eta(traj.times)
    adjoint = Trajectory(traj.times.copy(), etas)
    return profile.control, traj, adjoint


# ---------------------------------------------------------------------------
# fast endpoint evaluation used by the (theta, T) scan refinement


def _fast_endpoint(sys: LinearSystem, decomp, x0: np.ndarray, theta: float,
                   T: float) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint x(T) of the theta-adjoint bang-bang control and its exact
    Jacobian [dx/dtheta, dx/dT].

    dx/dT = A x(T) + B u(T-).  A switch t_i of channel j, a zero of g_j, moves
    by dt_i/dtheta = -g_theta / g_t (non-finite where g_t = 0) and shifts x(T)
    by e^{(T - t_i)A} B_j (u_j^- - u_j^+) per unit time; the propagators of x
    carry these jumps to T.
    """
    c, s = math.cos(theta), math.sin(theta)
    profile = _bang.bang_profile(sys, np.array([c, s]), T, decomp=decomp)
    control = profile.control
    knots = control.breakpoints
    d_eta = _bang.AdjointSampler(sys.A, np.array([-s, c]), decomp=decomp)
    AB = sys.A @ sys.B
    kick = np.zeros((len(knots), sys.n))      # jump of dx/dtheta at each knot
    for j, ts in enumerate(profile.channel_switch_times):
        du = 2.0 * profile.initial_signs[j] * (-1.0) ** np.arange(len(ts))
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = (d_eta.eta(ts) @ sys.B[:, j]) / (profile.sampler.eta(ts) @ AB[:, j])
        k = np.searchsorted(knots, ts, side="right") - 1
        np.add.at(kick, k, np.outer(du * dt, sys.B[:, j]))
    x = x0.copy()
    dx_dth = np.zeros(sys.n)
    for k, (a, b, v) in enumerate(zip(knots[:-1], knots[1:], control.values)):
        E, w = _propagators(sys.A, sys.B @ v, b - a)
        x = E @ x + w
        dx_dth = E @ (dx_dth + kick[k])
    dx_dth += kick[-1]
    return x, np.column_stack([dx_dth, sys.A @ x + sys.B @ control.values[-1]])


# ---------------------------------------------------------------------------


def check_tmin_system(sys: LinearSystem) -> None:
    """Raise ValueError unless solve_tmin accepts sys (planar, unit box, controllable)."""
    if sys.n != 2:
        raise ValueError(f"solve_tmin supports planar systems (n = 2) only, got n = {sys.n}")
    if sys.control_bounds is None or not np.allclose(
        sys.control_bounds, np.tile([-1.0, 1.0], (sys.m, 1)), atol=1e-12
    ):
        raise ValueError("solve_tmin requires control bounds [-1, 1]")
    if not is_controllable(sys):
        raise ValueError("solve_tmin requires a controllable pair (A, B)")


def solve_tmin(sys: LinearSystem, x0, x1,
               options: Optional[TminOptions] = None) -> TminSolution:
    """Minimal-time transfer x0 -> x1 by angle-grid shooting with Newton polish.

    Scans adjoint angles theta (eta0 = (cos theta, sin theta)) against a
    uniform time grid, seeds damped Newton iterations on the 2-equation
    residual X_{u_theta}(T) - x1 at the most promising cells, and returns the
    smallest-time root (ties broken by smallest theta).
    """
    opts = options or TminOptions()
    check_tmin_system(sys)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if x0.shape != (2,) or x1.shape != (2,):
        raise ValueError("x0 and x1 must be 2-vectors")

    endpoint_tol = opts.endpoint_tol
    if endpoint_tol is None:
        endpoint_tol = 1e-6 * (1.0 + float(np.linalg.norm(x1)))

    if np.linalg.norm(x1 - x0) <= endpoint_tol:
        control = BangBangControl(np.empty(0), np.ones(sys.m), 0.0,
                                  channel_switch_times=(np.empty(0),) * sys.m)
        point = Trajectory(np.array([0.0]), x0.reshape(1, -1))
        return TminSolution(0.0, control, np.array([1.0, 0.0]),
                            float(np.linalg.norm(x1 - x0)), 0.0, x0, x1,
                            trajectory=point,
                            adjoint=Trajectory(np.array([0.0]), np.array([[1.0, 0.0]])))

    T_max = opts.t_max
    if T_max is None:
        T_max = 4.0 * math.pi * (1.0 + float(np.linalg.norm(x0)) + float(np.linalg.norm(x1)))
    decomp = _bang.adjoint_decomp(sys.A)

    def scan(round_idx: int):
        return _scan_candidates(sys, x0, x1, T_max, opts.n_angles << round_idx,
                                opts.t_grid << round_idx)

    def residual(theta: float, T: float):
        x, J = _fast_endpoint(sys, decomp, x0, theta, T)
        return x - x1, lambda: J

    T_star, theta_star = shoot2d(scan, residual, T_max, endpoint_tol, opts.max_newton,
                                 opts.max_seeds, opts.refine_rounds)

    eta0 = np.array([math.cos(theta_star), math.sin(theta_star)])
    profile = _bang.bang_profile(sys, eta0, T_star, decomp=decomp)
    traj = simulate(sys, x0, profile.control, T_star, max_sample_step=opts.sample_step)
    adjoint = Trajectory(traj.times.copy(), profile.sampler.eta(traj.times))
    merged = np.unique(np.concatenate(profile.channel_switch_times))
    bb = BangBangControl(merged, profile.initial_signs, T_star,
                         channel_switch_times=profile.channel_switch_times)
    err = float(np.linalg.norm(traj.endpoint - x1))
    return TminSolution(T_star, bb, eta0, err, theta_star % (2.0 * math.pi),
                        x0, x1, trajectory=traj, adjoint=adjoint)


def _scan_candidates(sys: LinearSystem, x0, x1, T_max: float,
                     n_angles: int, t_grid: int):
    """Coarse (theta, T) sweep: (D, thetas, h) with D[q, k] = |x(k h) - x1|
    under the theta_q-adjoint bang-bang control."""
    h = T_max / t_grid
    E_h = mat_exp(sys.A, h)
    aug = np.zeros((sys.n + sys.m, sys.n + sys.m))
    aug[: sys.n, : sys.n] = sys.A
    aug[: sys.n, sys.n:] = sys.B
    F_h = mat_exp(aug, h)[: sys.n, sys.n:]

    thetas = 2.0 * math.pi * np.arange(n_angles) / n_angles
    etas0 = np.column_stack([np.cos(thetas), np.sin(thetas)])

    # W_k = e^{-t_k A} B sampled by striding; switching signs on cell left edges
    D_step = mat_exp(sys.A, -h)
    W = np.empty((t_grid + 1, sys.n, sys.m))
    W[0] = sys.B
    for k in range(t_grid):
        W[k + 1] = D_step @ W[k]
    G = np.einsum("qi,kij->qkj", etas0, W)      # (Q, t_grid+1, m)
    U = np.sign(G[:, :-1, :])
    if np.any(U[:, 0, :] == 0):
        U[:, 0, :][U[:, 0, :] == 0] = 1.0
    for k in range(1, t_grid):
        zero = U[:, k, :] == 0
        if np.any(zero):
            U[:, k, :][zero] = U[:, k - 1, :][zero]

    X = np.tile(np.asarray(x0, dtype=float), (n_angles, 1))
    D = np.empty((n_angles, t_grid + 1))
    D[:, 0] = np.linalg.norm(X - x1, axis=1)
    for k in range(t_grid):
        X = X @ E_h.T + U[:, k, :] @ F_h.T
        D[:, k + 1] = np.linalg.norm(X - x1, axis=1)
    return D, thetas, h


# ---------------------------------------------------------------------------
# 2-D indirect shooting in (adjoint angle, final time), shared with the
# nonlinear spring solver


def nearest_minima(D: np.ndarray, angles: np.ndarray, h: float, count: int):
    """The ``count`` local minima in time of D[angle, step], as
    (distance, angle, time) tuples ordered by distance, then time, then angle.

    A minimum is a sample no larger than both time neighbours; the last
    sample counts when D still falls into it.
    """
    interior = (D[:, 1:-1] <= D[:, :-2]) & (D[:, 1:-1] <= D[:, 2:])
    qs, ks = np.nonzero(interior)
    ks = ks + 1
    tail = np.nonzero(D[:, -1] < D[:, -2])[0]
    qs = np.concatenate([qs, tail])
    ks = np.concatenate([ks, np.full(len(tail), D.shape[1] - 1)])
    dist = D[qs, ks]
    order = np.lexsort((angles[qs], ks * h, dist))[:count]
    return [(float(dist[i]), float(angles[qs[i]]), float(ks[i] * h))
            for i in order]


def shoot2d(scan, residual, t_max: float, tol: float, max_newton: int,
            max_seeds: int, refine_rounds: int) -> Tuple[float, float]:
    """Smallest-time root (T, angle in [0, 2 pi)) of a 2-equation shooting
    residual, ties broken by smallest angle.

    Round r calls scan(r) -> (D, angles, h), a distance table on a grid of
    step h, and runs ``_newton2`` from its ``max_seeds`` nearest local minima
    (T capped at t_max + h), skipping seeds later than the best root so far
    by more than max(0.5, 10 h).  The first round with a root ends the
    search.  With no root after 1 + refine_rounds rounds, raises
    UnreachableTargetError carrying the nearest seed of the last round.
    """
    roots: List[Tuple[float, float, float]] = []  # (T, angle, err)
    for round_idx in range(1 + refine_rounds):
        D, angles, h = scan(round_idx)
        seeds = nearest_minima(D, angles, h, max_seeds)
        best_T = math.inf
        for _, angle_s, T_s in seeds:
            if T_s > best_T + max(0.5, 10.0 * h):
                continue
            try:    # the spring residual raises past its switch cap
                sol = _newton2(residual, angle_s, T_s, t_max + h, tol, max_newton)
            except ChatteringError:
                continue
            if sol is None:
                continue
            angle_r, T_r, err = sol
            roots.append((T_r, angle_r % (2.0 * math.pi), err))
            best_T = min(best_T, T_r)
        if roots:
            break
    else:
        dist, angle, T = seeds[0] if seeds else (math.inf, math.nan, math.nan)
        raise UnreachableTargetError(
            f"target not reached within horizon {t_max:.6g}; closest scan "
            f"approach {dist:.6g} at angle={angle:.6g}, t={T:.6g}",
            best_residual=dist,
            best_candidate=(angle, T),
        )

    # smallest T wins; among (numerically) equal T, smallest angle
    key = [(round(T / 1e-9) * 1e-9, round(a / 1e-9) * 1e-9) for T, a, _ in roots]
    T_star, angle_star, _ = roots[min(range(len(roots)), key=lambda i: key[i])]
    return T_star, angle_star


def _newton2(residual, theta: float, T: float, T_cap: float,
             tol: float, max_iter: int):
    """Damped 2-D Newton on residual(theta, T) -> (r, jacobian), where
    jacobian() returns the 2x2 Jacobian at that point and is called only at
    accepted iterates; None on failure, including a singular or non-finite J."""
    th, t = float(theta), float(T)
    r, jac = residual(th, t)
    err = float(np.linalg.norm(r))
    target = 0.01 * tol
    for _ in range(max_iter):
        if err <= target:
            break
        J = jac()
        if not np.all(np.isfinite(J)):
            return None
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(9):
            th_new = th + lam * step[0]
            t_new = min(max(t + lam * step[1], 1e-9), T_cap)
            r_new, jac_new = residual(th_new, t_new)
            err_new = float(np.linalg.norm(r_new))
            if err_new < err:
                th, t, r, jac, err = th_new, t_new, r_new, jac_new, err_new
                break
            lam *= 0.5
        else:
            break
    if err <= tol:
        return th, t, err
    return None


@dataclass
class ProbeReport:
    n_probes: int
    failures: List[dict]

    @property
    def passed(self) -> bool:
        return not self.failures


def local_optimality_probe(sys: LinearSystem, sol: TminSolution, x1,
                           n_probes: int = 20, delta: float = 1e-3) -> ProbeReport:
    """Perturb switch times and confirm no faster arrival at the target.

    Each probe shifts every switch time by +-delta, re-simulates from the
    solution's initial state and records a failure if the perturbed
    trajectory reaches x1 strictly earlier than T_star.
    """
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    rng = np.random.default_rng(0)
    T = sol.T_star
    failures: List[dict] = []
    if T <= 0:
        return ProbeReport(n_probes, failures)
    tol = max(sol.endpoint_error, 1e-6 * (1.0 + float(np.linalg.norm(x1))))
    time_tol = max(delta * 0.1, 1e-9 * T)

    for i in range(n_probes):
        channels = []
        for ch in sol.control.channel_switch_times:
            shift = delta * rng.choice((-1.0, 1.0), size=len(ch))
            moved = np.sort(np.clip(ch + shift, 1e-9 * T, T * (1 - 1e-9)))
            moved = moved[np.concatenate(([True], np.diff(moved) > 1e-12 * T))] \
                if len(moved) > 1 else moved
            channels.append(moved)
        control = _bang.control_from_channels(
            T, channels, sol.control.initial_sign_per_channel
        )
        traj = simulate(sys, sol.x0, control, T, max_sample_step=T / 2000)
        dists = np.linalg.norm(traj.states - x1, axis=1)
        early = (traj.times < T - time_tol) & (dists <= tol)
        if np.any(early):
            k = int(np.nonzero(early)[0][0])
            failures.append({
                "probe": i,
                "hit_time": float(traj.times[k]),
                "distance": float(dists[k]),
            })
    return ProbeReport(n_probes, failures)
