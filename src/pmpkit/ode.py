"""One classical RK4 step, the error it raises on a non-finite state, and
the time-stamped ``Trajectory`` that the solvers return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationBlowUp

RHS = Callable[[float, np.ndarray], np.ndarray]


@dataclass
class Trajectory:
    """Time-stamped states."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise ValueError("times and states must have matching lengths")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def rk4_step(rhs: RHS, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step from (t, x) over h."""
    if h <= 0:
        raise ValueError("rk4_step requires h > 0")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(rhs(t, x), dtype=float)
    k2 = np.asarray(rhs(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(rhs(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(rhs(t + h, x + h * k3), dtype=float)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise blowup_error(t)
    return out


def blowup_error(t: float) -> IntegrationBlowUp:
    """The error for a state that became non-finite in the step from t."""
    return IntegrationBlowUp(
        f"integration blew up: non-finite state after step at t={float(t)!r}"
    )
