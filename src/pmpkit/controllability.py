"""Kalman rank test and support-function reachable-set approximation.

The reachable set of a bounded-control linear system is compact and convex,
so it is described from outside by support hyperplanes.  Each support point
is attained by a bang-bang extremal control u(t) = sign<eta(t), B> driven by
an adjoint arriving at the chosen direction; its switch times are the
closed-form zeros of ``_bang.bang_profile``, so support points and hulls
require a planar system (n = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import _bang
from .linsys import ControlSignal, LinearSystem, mat_exp, simulate

__all__ = [
    "KalmanMatrix",
    "kalman_matrix",
    "is_controllable",
    "SupportResult",
    "reach_support",
    "ReachHull",
    "reach_hull",
]


@dataclass(frozen=True)
class KalmanMatrix:
    """Controllability matrix (B | AB | ... | A^{n-1}B) with its rank data."""

    C: np.ndarray
    rank: int
    singular_values: np.ndarray


def kalman_matrix(sys: LinearSystem) -> KalmanMatrix:
    """Build the controllability matrix and its singular-value rank."""
    blocks = [sys.B]
    for _ in range(sys.n - 1):
        blocks.append(sys.A @ blocks[-1])
    C = np.hstack(blocks)
    sv = np.linalg.svd(C, compute_uv=False)
    smax = float(sv[0]) if len(sv) else 0.0
    tol = sys.n * smax * 1e-12
    rank = int(np.count_nonzero(sv > tol))
    return KalmanMatrix(C=C, rank=rank, singular_values=sv)


def is_controllable(sys: LinearSystem) -> bool:
    """True iff the Kalman matrix has full rank n."""
    return kalman_matrix(sys).rank == sys.n


class SupportResult(NamedTuple):
    point: np.ndarray
    value: float
    control: ControlSignal
    degenerate_channels: Tuple[int, ...]


def _require_unit_box(sys: LinearSystem) -> None:
    if sys.control_bounds is None or not np.allclose(
        sys.control_bounds, np.tile([-1.0, 1.0], (sys.m, 1)), atol=1e-12
    ):
        raise ValueError("reachable-set operations require control bounds [-1, 1] per channel")


def reach_support(sys: LinearSystem, x0, T: float, eta_T) -> SupportResult:
    """Support point and value of the reachable set in direction eta_T.

    The adjoint is carried backward from eta(T) = eta_T, the bang-bang
    control takes the switching-function sign channel-wise, and the state is
    simulated exactly.  Channels whose switching function vanishes
    identically are reported and held at 0.  Requires n = 2.
    """
    _require_unit_box(sys)
    eta_T = np.asarray(eta_T, dtype=float).reshape(-1)
    if eta_T.shape != (sys.n,):
        raise ValueError(f"eta_T must have dimension {sys.n}")
    nrm = float(np.linalg.norm(eta_T))
    if nrm == 0.0:
        raise ValueError("eta_T must be nonzero")
    eta_T = eta_T / nrm
    if T <= 0:
        raise ValueError("T must be positive")

    # eta(t)^T = eta_T^T e^{(T-t)A}, so the forward initial value is
    # eta(0) = e^{T A^T} eta_T
    eta0 = mat_exp(sys.A.T, T) @ eta_T
    profile = _bang.bang_profile(sys, eta0, T)
    traj = simulate(sys, x0, profile.control, T)
    point = traj.endpoint
    return SupportResult(
        point=point,
        value=float(eta_T @ point),
        control=profile.control,
        degenerate_channels=profile.degenerate_channels,
    )


@dataclass(frozen=True)
class ReachHull:
    """Outer support-function description of a reachable set."""

    horizon: float
    directions: np.ndarray      # (K, n) unit rows
    support_points: np.ndarray  # (K, n)
    support_values: np.ndarray  # (K,)
    degenerate: Tuple[Tuple[int, ...], ...] = ()

    def certificate_margin(self) -> float:
        """max over (i, j) of <d_i, p_j> - v_i; convexity wants <= ~1e-8."""
        inner = self.directions @ self.support_points.T  # (K, K)
        return float((inner - self.support_values[:, None]).max())

    def contains(self, point, tol: float = 1e-8) -> bool:
        point = np.asarray(point, dtype=float).reshape(-1)
        return bool(np.all(self.directions @ point <= self.support_values + tol))

    def violation(self, point) -> float:
        """Largest support-inequality violation of the point (<= 0 inside)."""
        point = np.asarray(point, dtype=float).reshape(-1)
        return float((self.directions @ point - self.support_values).max())

    def to_json_dict(self) -> dict:
        return {
            "T": self.horizon,
            "directions": self.directions.tolist(),
            "points": self.support_points.tolist(),
            "values": self.support_values.tolist(),
        }


def reach_hull(sys: LinearSystem, x0, T: float, K: int = 64,
               directions: Optional[np.ndarray] = None) -> ReachHull:
    """Sample the support function in K directions (uniform angles by default)."""
    if directions is None:
        if sys.n != 2:
            raise ValueError(f"reachable-set hulls need a planar system (n = 2), got n = {sys.n}")
        if K < 3:
            raise ValueError("K >= 3 required")
        angles = 2.0 * math.pi * np.arange(K) / K
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != sys.n:
            raise ValueError("directions must have shape (K, n)")
        if directions.shape[0] < 3:
            raise ValueError("K >= 3 required")
        norms = np.linalg.norm(directions, axis=1)
        if np.any(norms == 0):
            raise ValueError("directions must be nonzero")
        directions = directions / norms[:, None]

    points = np.empty((len(directions), sys.n))
    values = np.empty(len(directions))
    degenerate = []
    for i, d in enumerate(directions):
        res = reach_support(sys, x0, T, d)
        points[i] = res.point
        values[i] = res.value
        degenerate.append(res.degenerate_channels)
    return ReachHull(
        horizon=T,
        directions=directions,
        support_points=points,
        support_values=values,
        degenerate=tuple(degenerate),
    )
