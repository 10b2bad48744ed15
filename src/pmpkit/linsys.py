"""Linear control systems: representation and exact piecewise simulation.

The state equation is X' = A X + B u with u piecewise constant.  On each
constant-control interval the state is propagated exactly through the
augmented-matrix exponential, so simulation error reduces to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .ode import Trajectory, blowup_error

__all__ = [
    "LinearSystem",
    "ControlSignal",
    "Trajectory",
    "mat_exp",
    "simulate",
    "linearity_check",
]

# diagonal Pade coefficients of order 7 (integer-normalized)
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)
_PADE_THETA = 0.5


@dataclass(frozen=True)
class LinearSystem:
    """Time-invariant linear control system X' = A X + B u.

    ``control_bounds`` is an (m, 2) array of per-channel intervals, or None
    for an unbounded control set.
    """

    A: np.ndarray
    B: np.ndarray
    control_bounds: Optional[np.ndarray] = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must have as many rows as A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("system matrices must be finite")
        bounds = self.control_bounds
        if bounds is not None:
            bounds = np.asarray(bounds, dtype=float)
            if bounds.shape != (B.shape[1], 2):
                raise ValueError("control_bounds must have shape (m, 2)")
            if not np.all(bounds[:, 0] < bounds[:, 1]):
                raise ValueError("control_bounds require lower < upper")
        for name, val in (("A", A), ("B", B), ("control_bounds", bounds)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "bounds": None if self.control_bounds is None else self.control_bounds.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LinearSystem":
        return cls(np.asarray(d["A"], dtype=float),
                   np.asarray(d["B"], dtype=float),
                   None if d.get("bounds") is None else np.asarray(d["bounds"], dtype=float))


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control on [breakpoints[0], breakpoints[-1]].

    ``breakpoints`` holds the K+1 knots including both endpoints;
    ``values`` holds one control vector per interval (K, m).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bp) - 1:
            raise ValueError("need one control value per interval")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("control data must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def t0(self) -> float:
        return float(self.breakpoints[0])

    @property
    def t1(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, value, t1: float, t0: float = 0.0) -> "ControlSignal":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(np.array([t0, t1]), v.reshape(1, -1))

    def mismatch(self, m: int, T: float,
                 bounds: Optional[np.ndarray] = None) -> Optional[Tuple[str, str]]:
        """The first way this signal fails as an m-channel control on [0, T]
        (and inside ``bounds``, when given), as (part, message) with part
        "channels", "cover" or "bounds"; None when it fits."""
        if self.m != m:
            return "channels", f"expected {m} control channel(s), got {self.m}"
        span = max(T, 1.0)
        if self.t0 > 1e-12 * span or self.t1 < T - 1e-12 * span:
            return "cover", f"control signal must cover [0, T] = [0, {T:g}]"
        if bounds is not None:
            outside = ((self.values < bounds[:, 0] - 1e-12)
                       | (self.values > bounds[:, 1] + 1e-12))
            if outside.any():
                k = int(np.flatnonzero(outside.any(axis=1))[0])
                return "bounds", (f"control value outside the control bounds "
                                  f"{bounds.tolist()} on interval {k}")
        return None

    def evaluate(self, t) -> np.ndarray:
        """Right-continuous evaluation; the first value extends before t0 and
        the final value beyond t1.  An array of times gives one row each."""
        # searching the interior knots counts the intervals that start at or
        # before t, which is already the clamped interval index
        return self.values[np.searchsorted(self.breakpoints[1:-1], t, side="right")]

    @staticmethod
    def linear_combination(a: float, u1: "ControlSignal",
                           b: float, u2: "ControlSignal") -> "ControlSignal":
        """a*u1 + b*u2 on their (required common) domain."""
        span = max(abs(u1.t1 - u1.t0), 1.0)
        if abs(u1.t0 - u2.t0) > 1e-12 * span or abs(u1.t1 - u2.t1) > 1e-12 * span:
            raise ValueError("control signals must share their domain")
        if u1.m != u2.m:
            raise ValueError("control signals must share their channel count")
        knots = np.union1d(u1.breakpoints, u2.breakpoints)
        keep = np.concatenate(([True], np.diff(knots) > 1e-15 * span))
        knots = knots[keep]
        mids = 0.5 * (knots[:-1] + knots[1:])
        vals = a * u1.evaluate(mids) + b * u2.evaluate(mids)
        return ControlSignal(knots, vals)


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{tA} by scaling-and-squaring with a Pade kernel."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("mat_exp requires a square matrix")
    if not (np.all(np.isfinite(A)) and math.isfinite(t)):
        raise ValueError("mat_exp requires finite entries")
    N = A * t
    n = N.shape[0]
    eye = np.eye(n)
    norm = float(np.abs(N).sum(axis=0).max()) if n else 0.0
    s = 0
    if norm > _PADE_THETA:
        s = int(math.ceil(math.log2(norm / _PADE_THETA)))
        N = N / (2.0 ** s)
    b = _PADE7
    N2 = N @ N
    N4 = N2 @ N2
    N6 = N4 @ N2
    U = N @ (b[7] * N6 + b[5] * N4 + b[3] * N2 + b[1] * eye)
    V = b[6] * N6 + b[4] * N4 + b[2] * N2 + b[0] * eye
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _propagators(A: np.ndarray, c: np.ndarray, h: float):
    """Exact step maps (E, w) with x(h) = E x(0) + w for x' = A x + c."""
    n = A.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A
    aug[:n, n] = c
    Phi = mat_exp(aug, h)
    return Phi[:n, :n], Phi[:n, n]


@np.errstate(over="ignore", invalid="ignore")
def simulate(sys: LinearSystem, x0, u: ControlSignal, T: float,
             max_sample_step: Optional[float] = None) -> Trajectory:
    """Propagate the state exactly across each constant-control interval.

    ``max_sample_step`` adds equally spaced samples inside each interval
    (still exactly propagated); by default only interval endpoints are kept.
    A non-finite state raises ``IntegrationBlowUp``.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (sys.n,):
        raise ValueError(f"x0 must have dimension {sys.n}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return Trajectory(np.array([0.0]), x0.reshape(1, -1))
    bad = u.mismatch(sys.m, T, sys.control_bounds)
    if bad is not None:
        raise ValueError(bad[1])
    span = max(T, 1.0)

    # clip the knot list to [0, T]
    knots = [0.0]
    for s in u.breakpoints:
        if 1e-14 * span < s < T - 1e-14 * span:
            knots.append(float(s))
    knots.append(T)

    times = [0.0]
    states = [x0.copy()]
    x = x0.copy()
    for a, bnd in zip(knots[:-1], knots[1:]):
        v = u.evaluate(0.5 * (a + bnd))
        length = bnd - a
        n_sub = 1
        if max_sample_step is not None and max_sample_step > 0:
            n_sub = max(1, int(math.ceil(length / max_sample_step - 1e-12)))
        h = length / n_sub
        E, w = _propagators(sys.A, sys.B @ v, h)
        for i in range(n_sub):
            x = E @ x + w
            t_i = bnd if i == n_sub - 1 else a + (i + 1) * h
            times.append(t_i)
            states.append(x.copy())
    times, states = np.array(times), np.array(states)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise blowup_error(times[int(np.argmin(finite)) - 1])
    return Trajectory(times, states)


def linearity_check(sys: LinearSystem, u1: ControlSignal, u2: ControlSignal,
                    a: float, b: float, T: float) -> float:
    """Residual of endpoint linearity in the control, from x0 = 0.

    Requires an unbounded control set: with bounds the endpoint map from the
    origin is no longer closed under linear combinations.
    """
    if sys.control_bounds is not None:
        raise ValueError("linearity_check requires an unbounded control set")
    zero = np.zeros(sys.n)
    uc = ControlSignal.linear_combination(a, u1, b, u2)
    xc = simulate(sys, zero, uc, T).endpoint
    x1 = simulate(sys, zero, u1, T).endpoint
    x2 = simulate(sys, zero, u2, T).endpoint
    return float(np.linalg.norm(xc - a * x1 - b * x2))
