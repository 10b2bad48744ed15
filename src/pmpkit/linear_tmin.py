"""Time-optimal bang-bang synthesis for planar bounded-control linear systems.

The minimal time T = inf{t > 0 : x1 reachable from x0 in time t} puts x1 on
the reachable-set boundary, where the control is u(t) = sign<eta(t), B> for
some nontrivial adjoint.  For n = 2 the adjoint ray is parameterized by an
angle, so the solver scans (theta, T) on a coarse grid and refines promising
cells by damped Newton iteration on the two-component endpoint residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import _bang
from .controllability import is_controllable
from .errors import UnreachableTargetError
from .linsys import ControlSignal, LinearSystem, mat_exp, simulate, _propagators
from .ode import Trajectory

__all__ = [
    "BangBangControl",
    "TminSolution",
    "TminOptions",
    "bang_bang_from_adjoint",
    "solve_tmin",
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
                   T: float) -> np.ndarray:
    """Exact endpoint of the theta-adjoint bang-bang control at horizon T."""
    eta0 = np.array([math.cos(theta), math.sin(theta)])
    control = _bang.bang_profile(sys, eta0, T, decomp=decomp).control
    x = x0.copy()
    for a, b, v in zip(control.breakpoints[:-1], control.breakpoints[1:], control.values):
        E, w = _propagators(sys.A, sys.B @ v, b - a)
        x = E @ x + w
    return x


# ---------------------------------------------------------------------------


def solve_tmin(sys: LinearSystem, x0, x1,
               options: Optional[TminOptions] = None) -> TminSolution:
    """Minimal-time transfer x0 -> x1 by angle-grid shooting with Newton polish.

    Scans adjoint angles theta (eta0 = (cos theta, sin theta)) against a
    uniform time grid, seeds damped Newton iterations on the 2-equation
    residual X_{u_theta}(T) - x1 at the most promising cells, and returns the
    smallest-time root (ties broken by smallest theta).
    """
    opts = options or TminOptions()
    if sys.n != 2:
        raise ValueError("solve_tmin supports planar systems (n = 2) only")
    if sys.control_bounds is None or not np.allclose(
        sys.control_bounds, np.tile([-1.0, 1.0], (sys.m, 1)), atol=1e-12
    ):
        raise ValueError("solve_tmin requires control bounds [-1, 1]")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if x0.shape != (2,) or x1.shape != (2,):
        raise ValueError("x0 and x1 must be 2-vectors")
    if not is_controllable(sys):
        raise ValueError("solve_tmin requires a controllable pair (A, B)")

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

    def residual(theta: float, T: float) -> np.ndarray:
        return _fast_endpoint(sys, decomp, x0, theta, T) - x1

    roots: List[Tuple[float, float, float]] = []  # (T, theta, err)
    n_angles, t_grid = opts.n_angles, opts.t_grid
    for round_idx in range(1 + opts.refine_rounds):
        seeds = _scan_candidates(sys, x0, x1, T_max, n_angles, t_grid)
        h_scan = T_max / t_grid
        best_T = math.inf
        for dist, theta_s, T_s in seeds[: opts.max_seeds]:
            if T_s > best_T + max(0.5, 10.0 * h_scan):
                continue
            sol = _newton2(residual, theta_s, T_s, T_max + h_scan,
                           endpoint_tol, opts.max_newton)
            if sol is None:
                continue
            theta_r, T_r, err = sol
            roots.append((T_r, theta_r % (2.0 * math.pi), err))
            best_T = min(best_T, T_r)
        if roots:
            break
        n_angles *= 2
        t_grid *= 2

    if not roots:
        best = min(_scan_candidates(sys, x0, x1, T_max, n_angles, t_grid),
                   default=(math.inf, 0.0, 0.0))
        raise UnreachableTargetError(
            f"unreachable within horizon T_max={T_max:.6g}; "
            f"closest scan approach {best[0]:.6g}",
            best_residual=best[0],
        )

    # smallest T wins; among (numerically) equal T, smallest theta
    key = [(round(T / 1e-9) * 1e-9, round(th / 1e-9) * 1e-9) for T, th, _ in roots]
    order = sorted(range(len(roots)), key=lambda i: key[i])
    T_star, theta_star, _ = roots[order[0]]

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
    """Coarse (theta, T) sweep; returns cells sorted by endpoint distance."""
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

    interior = (D[:, 1:-1] <= D[:, :-2]) & (D[:, 1:-1] <= D[:, 2:])
    qs, ks = np.nonzero(interior)
    ks = ks + 1
    tail = np.nonzero(D[:, -1] < D[:, -2])[0]
    qs = np.concatenate([qs, tail])
    ks = np.concatenate([ks, np.full(len(tail), t_grid)])
    dist = D[qs, ks]
    order = np.lexsort((thetas[qs], ks * h, dist))
    return [(float(dist[i]), float(thetas[qs[i]]), float(ks[i] * h))
            for i in order]


def _newton2(residual, theta: float, T: float, T_cap: float,
             tol: float, max_iter: int):
    """Damped 2d Newton with finite-difference Jacobian; None on failure."""
    th, t = float(theta), float(T)
    r = residual(th, t)
    err = float(np.linalg.norm(r))
    target = 0.01 * tol
    for _ in range(max_iter):
        if err <= target:
            break
        d_th = 1e-7
        d_t = 1e-7 * max(1.0, t)
        J = np.column_stack([
            (residual(th + d_th, t) - residual(th - d_th, t)) / (2 * d_th),
            (residual(th, t + d_t) - residual(th, max(t - d_t, 1e-12))) /
            (t + d_t - max(t - d_t, 1e-12)),
        ])
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        improved = False
        for _ in range(9):
            th_new = th + lam * step[0]
            t_new = min(max(t + lam * step[1], 1e-9), T_cap)
            r_new = residual(th_new, t_new)
            err_new = float(np.linalg.norm(r_new))
            if err_new < err:
                th, t, r, err = th_new, t_new, r_new, err_new
                improved = True
                break
            lam *= 0.5
        if not improved:
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
