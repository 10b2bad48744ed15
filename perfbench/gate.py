"""Correctness gate: every output checked through a route pmpkit does not use.

Each check reads the file a scenario wrote and returns ``(status, cause)``:

* ``ok``: the output agrees with its oracle;
* ``wrong``: the output contradicts its oracle, or is missing or unreadable;
* ``failed``: the operation did not succeed and reported it: a documented
  numerical failure (exit 3).

The oracles are closed forms and a standalone scalar RK4; none of them calls
into pmpkit.
"""

from __future__ import annotations

import json
import math
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

Result = Tuple[str, Optional[str]]
OK: Result = ("ok", None)


# ---------------------------------------------------------------------------
# oscillator geometry: x' = y, y' = -x + u turns clockwise around (u, 0)


def rotate(point, center, angle):
    """Clockwise rotation of ``point`` by ``angle`` around ``center``."""
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = point[0] - center[0], point[1] - center[1]
    return (center[0] + c * dx + s * dy, center[1] - s * dx + c * dy)


def two_arc_time(eps: float) -> float:
    """Minimal time from (eps, 0) to the origin, 0 < eps <= 2.

    The path runs u = -1 on the circle of radius 1 + eps around (-1, 0), then
    u = +1 on the unit circle around (1, 0) that passes through the origin.
    """
    x_s = eps * (eps + 2.0) / 4.0
    y_s = -math.sqrt(max((1.0 + eps) ** 2 - (x_s + 1.0) ** 2, 0.0))
    first = math.atan2(-y_s, x_s + 1.0)
    second = (math.atan2(y_s, x_s - 1.0) - math.pi) % (2.0 * math.pi)
    return first + second


def _abs_sin_integral(u: float) -> float:
    """Integral of |sin| from 0 to u."""
    k = math.floor(u / math.pi)
    return 2.0 * k + 1.0 - math.cos(u - k * math.pi)


def oscillator_support(x0: Sequence[float], T: float, d: Sequence[float]) -> float:
    """Support value of the oscillator's reachable set at T in direction d.

    max <d, x(T)> = <d, e^{TA} x0> + int_0^T |<d, e^{tA} b>| dt, and for the
    oscillator <d, e^{tA} b> = sin(t + phi) with phi = atan2(d2, d1).
    """
    c, s = math.cos(T), math.sin(T)
    drift = d[0] * (c * x0[0] + s * x0[1]) + d[1] * (-s * x0[0] + c * x0[1])
    phi = math.atan2(d[1], d[0])
    return drift + _abs_sin_integral(T + phi) - _abs_sin_integral(phi)


def _piece_value(control: dict, t: float) -> float:
    """Right-continuous value of a config's piecewise control at t."""
    bps = control["breakpoints"]
    values = control["values"]
    k = 0
    while k + 1 < len(values) and t >= bps[k + 1]:
        k += 1
    v = values[k]
    return float(v[0] if isinstance(v, list) else v)


# ---------------------------------------------------------------------------
# spring dynamics x'' + x + k2 x^3 = u, integrated by a standalone RK4


def _spring_rk4(k2: float, x: float, y: float, u: float, h: float, n: int):
    for _ in range(n):
        k1x, k1y = y, -x - k2 * x ** 3 + u
        x2, y2 = x + 0.5 * h * k1x, y + 0.5 * h * k1y
        k2x, k2y = y2, -x2 - k2 * x2 ** 3 + u
        x3, y3 = x + 0.5 * h * k2x, y + 0.5 * h * k2y
        k3x, k3y = y3, -x3 - k2 * x3 ** 3 + u
        x4, y4 = x + h * k3x, y + h * k3y
        k4x, k4y = y4, -x4 - k2 * x4 ** 3 + u
        x += (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return x, y


def _read_csv(path: str):
    """(header, rows) of a pmpkit CSV, skipping '#' metadata lines."""
    with open(path) as handle:
        lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


# ---------------------------------------------------------------------------
# per-command checks


def _check_tmin_linear(sc: dict, path: str) -> Result:
    with open(path) as handle:
        out = json.load(handle)
    cfg = sc["config"]
    x0, x1 = cfg["x0"], cfg["x1"]
    T, theta = float(out["T"]), float(out["theta"])
    switches = [float(s) for s in out["switch_times"]]
    tol = 1e-6 * (1.0 + math.hypot(*x1))
    if T <= 0.0:
        return "wrong", f"T* = {T}"
    # the oscillator adjoint rotates: <eta(t), B> = sin(theta - t), so the
    # control switches at t = theta (mod pi) and follows that sign
    first = theta % math.pi
    zeros = [first + j * math.pi for j in range(int(max(T - first, 0.0) // math.pi) + 1)]
    expected = [t for t in zeros if 1e-9 * T < t < T * (1 - 1e-9)]
    written = [t for t in switches if 1e-9 * T < t < T * (1 - 1e-9)]
    if len(expected) != len(written) or any(abs(a - b) > 1e-7
                                            for a, b in zip(expected, written)):
        return "wrong", "switch times off the adjoint zeros"
    x = tuple(x0)
    knots = [0.0] + switches + [T]
    for a, b in zip(knots[:-1], knots[1:]):
        u = 1.0 if math.sin(theta - 0.5 * (a + b)) > 0 else -1.0
        x = rotate(x, (u, 0.0), b - a)
    miss = math.hypot(x[0] - x1[0], x[1] - x1[1])
    if miss > tol:
        return "wrong", f"rotation replay misses x1 by {miss:.2e}"
    eps = sc["expect"].get("two_arc_eps")
    if eps is not None and abs(T - two_arc_time(eps)) > 1e-6:
        return "wrong", f"T* off the two-arc closed form by {abs(T - two_arc_time(eps)):.2e}"
    return OK


def _check_reach(sc: dict, path: str) -> Result:
    cfg = sc["config"]
    if path.endswith(".csv"):
        header, rows = _read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        dirs = rows[:, [col["d1"], col["d2"]]]
        values = rows[:, col["value"]]
    else:
        with open(path) as handle:
            out = json.load(handle)
        dirs = np.asarray(out["directions"], dtype=float)
        values = np.asarray(out["values"], dtype=float)
    if len(values) != cfg["K"]:
        return "wrong", f"{len(values)} support values for K={cfg['K']}"
    worst = max(abs(v - oscillator_support(cfg["x0"], cfg["T"], d))
                for d, v in zip(dirs, values))
    if worst > 1e-6:
        return "wrong", f"support value off the closed form by {worst:.2e}"
    return OK


def _check_linearize(sc: dict, path: str) -> Result:
    cfg = sc["config"]
    k2 = float(cfg["system"]["k2"])
    _, rows = _read_csv(path)
    t = rows[:, 0]
    if abs(t[-1] - cfg["T"]) > 1e-9 * cfg["T"]:
        return "wrong", "reference does not end at T"
    x, y = cfg["x0"]
    worst = 0.0
    # two RK4 substeps per written interval; the written nodes include every
    # control breakpoint, so each interval sees one control value
    for k in range(len(t) - 1):
        u = _piece_value(cfg["control"], 0.5 * (t[k] + t[k + 1]))
        x, y = _spring_rk4(k2, x, y, u, 0.5 * (t[k + 1] - t[k]), 2)
        worst = max(worst, abs(x - rows[k + 1, 1]), abs(y - rows[k + 1, 2]))
    if worst > 1e-7:
        return "wrong", f"reference trajectory off an independent RK4 by {worst:.2e}"
    return OK


def _check_simulate(sc: dict, path: str) -> Result:
    cfg = sc["config"]
    T = float(cfg["T"])
    _, rows = _read_csv(path)
    t = rows[:, 0]
    if len(t) < T / cfg["max_sample_step"] or abs(t[-1] - T) > 1e-9 * T:
        return "wrong", f"{len(t)} samples do not cover [0, T] at the requested step"
    bps = list(cfg["control"]["breakpoints"])
    vals = cfg["control"]["values"]
    exact = np.empty((len(t), 2))
    start = np.array(cfg["x0"], dtype=float)
    for k, (a, b) in enumerate(zip(bps[:-1], bps[1:])):
        u = float(vals[k][0])
        sel = (t >= a) & (t <= b)
        ang = t[sel] - a
        c, s = np.cos(ang), np.sin(ang)
        dx, dy = start[0] - u, start[1]
        exact[sel, 0] = u + c * dx + s * dy
        exact[sel, 1] = -s * dx + c * dy
        start = np.array(rotate(start, (u, 0.0), b - a))
    worst = float(np.abs(exact - rows[:, 1:3]).max())
    if worst > 1e-8:
        return "wrong", f"trajectory off the rotation replay by {worst:.2e}"
    return OK


def _check_kalman(sc: dict, path: str) -> Result:
    with open(path) as handle:
        out = json.load(handle)
    rank = sc["expect"]["rank"]
    n = len(sc["config"]["system"]["A"])
    if out["rank"] != rank or out["controllable"] != (rank == n):
        return "wrong", f"rank {out['rank']}, constructed rank {rank}"
    return OK


def _check_tmin_spring(sc: dict, path: str) -> Result:
    with open(path) as handle:
        out = json.load(handle)
    cfg = sc["config"]
    k2 = float(cfg["k2"])
    target = cfg["target"]
    T, alpha = float(out["T"]), float(out["alpha"])
    switches = [float(s) for s in out["switch_times"]]
    # the last arc runs u = sign p_y at arrival = sign(cos alpha); arcs alternate
    last = math.cos(alpha) or math.sin(alpha)
    u = math.copysign(1.0, last) * (-1.0) ** len(switches)
    x, y = target
    knots = [0.0] + switches + [T]
    for a, b in zip(knots[:-1], knots[1:]):
        n = max(1, math.ceil((b - a) / 2e-3))
        x, y = _spring_rk4(k2, x, y, u, (b - a) / n, n)
        u = -u
    miss = math.hypot(x, y)
    if miss > 1e-6:
        return "wrong", f"forward replay misses the origin by {miss:.2e}"
    return OK


_CHECKS = {
    "tmin-linear": _check_tmin_linear,
    "reach": _check_reach,
    "linearize": _check_linearize,
    "simulate": _check_simulate,
    "kalman": _check_kalman,
    "tmin-spring": _check_tmin_spring,
}


def check(sc: dict, out_dir: str, exit_code: int) -> Result:
    """Gate one scenario: its exit status, then its output against the oracle.

    Exit 3 is the CLI's documented numerical failure: the operation failed
    and said so.  Every generated config is valid, so exit 2 (config error)
    or any other status (a traceback) is a wrong outcome.
    """
    if exit_code == 3:
        return "failed", "exit 3 (numerical failure)"
    if exit_code != 0:
        return "wrong", f"exit {exit_code}"
    path = os.path.join(out_dir, sc["config"]["output_path"])
    try:
        return _CHECKS[sc["command"]](sc, path)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"unreadable output: {type(exc).__name__}: {exc}"


def check_all(scenarios: List[dict], records: List[dict], out_dir: str) -> List[Result]:
    by_id = {sc["id"]: sc for sc in scenarios}
    return [check(by_id[rec["id"]], out_dir, rec["exit"]) for rec in records]
