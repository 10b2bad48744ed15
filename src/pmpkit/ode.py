"""Fixed-step explicit integration with bisection-based event localization.

The integrator walks a uniform grid with classical RK4 and, when an event
specification is given, refines every sign change of the scalar switching
function to a small fraction of the step by bisection.  Integration restarts
exactly at each located event time, so a control discontinuity sitting at the
event never straddles a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ChatteringError, IntegrationBlowUp

RHS = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TimeGrid:
    """Integration window [t0, t1] walked with a nominal step."""

    t0: float
    t1: float
    step: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.t0, self.t1, self.step)):
            raise ValueError("TimeGrid fields must be finite")
        if self.t1 <= self.t0:
            raise ValueError("TimeGrid requires t1 > t0")
        if self.step <= 0:
            raise ValueError("TimeGrid requires step > 0")
        # tiny slack so step = (t1 - t0) survives roundoff
        if self.step > (self.t1 - self.t0) * (1 + 1e-12):
            raise ValueError("TimeGrid requires step <= t1 - t0")


@dataclass(frozen=True)
class EventSpec:
    """Scalar switching function whose sign changes are localized.

    ``localization_tolerance`` is relative to the grid step: a located event
    time differs from the true zero crossing by at most
    ``localization_tolerance * step``.
    """

    switching_function: Callable[[float, np.ndarray], float]
    localization_tolerance: float = 2e-7

    def __post_init__(self):
        if not 0 < self.localization_tolerance < 1:
            raise ValueError("localization_tolerance must lie in (0, 1)")


@dataclass
class Trajectory:
    """Time-stamped states, optionally with matching adjoint samples."""

    times: np.ndarray
    states: np.ndarray
    adjoints: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise ValueError("times and states must have matching lengths")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.adjoints is not None:
            self.adjoints = np.atleast_2d(np.asarray(self.adjoints, dtype=float))
            if len(self.adjoints) != len(self.times):
                raise ValueError("adjoints must match times in length")

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


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def integrate_with_events(
    rhs: RHS,
    grid: TimeGrid,
    x0: np.ndarray,
    event: Optional[EventSpec] = None,
    max_events: int = 10000,
    stop_at_first_event: bool = False,
) -> Tuple[Trajectory, List[float]]:
    """Integrate ``rhs`` over the grid, localizing switching-function zeros.

    Returns the sampled trajectory (cell endpoints plus event times) and the
    sorted list of located event times.  After an event the stepping restarts
    from the event time, so no step straddles a located crossing.
    """
    x = np.asarray(x0, dtype=float).copy()
    t = grid.t0
    span = grid.t1 - grid.t0
    times = [t]
    states = [x.copy()]
    events: List[float] = []

    prev_sign = 0
    if event is not None:
        prev_sign = _sign(event.switching_function(t, x))
    tol_abs = (event.localization_tolerance * grid.step) if event else 0.0

    while t < grid.t1 - 1e-14 * span:
        h = min(grid.step, grid.t1 - t)
        x_prop = rk4_step(rhs, t, x, h)
        if event is None:
            t = grid.t1 if grid.t1 - (t + h) < 1e-14 * span else t + h
            x = x_prop
            times.append(t)
            states.append(x.copy())
            continue

        new_sign = _sign(event.switching_function(t + h, x_prop))
        if prev_sign == 0:
            # started on a zero: adopt the first definite sign, no event
            prev_sign = new_sign
            crossed = False
        else:
            crossed = new_sign == -prev_sign or new_sign == 0

        if not crossed:
            t = grid.t1 if grid.t1 - (t + h) < 1e-14 * span else t + h
            x = x_prop
            times.append(t)
            states.append(x.copy())
            continue

        # bisection bracket [lo, hi] in step offsets; g(lo) keeps prev_sign,
        # g(hi) has flipped (or vanished)
        lo, hi = 0.0, h
        n_iter = max(1, int(math.ceil(math.log2(max(h / max(tol_abs, 1e-300), 2.0)))))
        for _ in range(min(n_iter, 80)):
            if hi - lo <= tol_abs:
                break
            mid = 0.5 * (lo + hi)
            g_mid = event.switching_function(t + mid, rk4_step(rhs, t, x, mid))
            if _sign(g_mid) == prev_sign:
                lo = mid
            else:
                hi = mid
        t_event = t + hi
        x_event = rk4_step(rhs, t, x, hi)

        events.append(t_event)
        if len(events) > max_events:
            raise ChatteringError(
                f"more than {max_events} switching events located; "
                "possible chattering",
                event_count=len(events),
            )
        prev_sign = -prev_sign
        t = t_event
        x = x_event
        if t - times[-1] > 1e-14 * span:
            times.append(t)
            states.append(x.copy())
        if stop_at_first_event:
            break

    return Trajectory(np.array(times), np.array(states)), events
