"""Hot numerical kernels for the nonlinear spring shooting solver.

The time-reversed extremal system

    x' = -y
    y' = x + k2*x^3 - s        (s = sign of p_y, the control)
    px' = -py * (1 + 3*k2*x^2)
    py' = px

is integrated from the origin over a dense (alpha, t) grid during the scan
(``spring_scan``) and by an event-accurate single-trajectory routine during
Newton refinement (``spring_integrate``).

The loops are written for numba's ``njit``.  Without numba, or with
PMPKIT_NO_NUMBA=1, the ``njit`` shim returns them unchanged and they run as
plain python.  ``spring_integrate`` wraps the one loop either way.  The scan
also has a numpy implementation vectorised over alpha, ``spring_scan_py``,
which ``spring_scan`` selects without numba; ``spring_scan_jit`` drives the
loop and stays importable for benchmarking and tests.
"""

from __future__ import annotations

import math
import os

import numpy as np

NUMBA_DISABLED = bool(os.environ.get("PMPKIT_NO_NUMBA"))
try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by PMPKIT_NO_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


_MAX_SWITCH = 64


@njit(cache=True)
def _scan_core(k2, alphas, h, n_steps, out):
    for q in range(alphas.shape[0]):
        a = alphas[q]
        x = 0.0
        y = 0.0
        px = math.sin(a)
        py = math.cos(a)
        s = 1.0 if py > 0 else (-1.0 if py < 0 else (1.0 if px > 0 else -1.0))
        out[q, 0, 0] = x
        out[q, 0, 1] = y
        for k in range(n_steps):
            k1x = -y
            k1y = x + k2 * x * x * x - s
            k1px = -py * (1.0 + 3.0 * k2 * x * x)
            k1py = px

            x2 = x + 0.5 * h * k1x
            y2 = y + 0.5 * h * k1y
            px2 = px + 0.5 * h * k1px
            py2 = py + 0.5 * h * k1py
            k2x = -y2
            k2y = x2 + k2 * x2 * x2 * x2 - s
            k2px = -py2 * (1.0 + 3.0 * k2 * x2 * x2)
            k2py = px2

            x3 = x + 0.5 * h * k2x
            y3 = y + 0.5 * h * k2y
            px3 = px + 0.5 * h * k2px
            py3 = py + 0.5 * h * k2py
            k3x = -y3
            k3y = x3 + k2 * x3 * x3 * x3 - s
            k3px = -py3 * (1.0 + 3.0 * k2 * x3 * x3)
            k3py = px3

            x4 = x + h * k3x
            y4 = y + h * k3y
            px4 = px + h * k3px
            py4 = py + h * k3py
            k4x = -y4
            k4y = x4 + k2 * x4 * x4 * x4 - s
            k4px = -py4 * (1.0 + 3.0 * k2 * x4 * x4)
            k4py = px4

            x += (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y += (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            px += (h / 6.0) * (k1px + 2.0 * k2px + 2.0 * k3px + k4px)
            py += (h / 6.0) * (k1py + 2.0 * k2py + 2.0 * k3py + k4py)
            if py > 0.0:
                s = 1.0
            elif py < 0.0:
                s = -1.0
            out[q, k + 1, 0] = x
            out[q, k + 1, 1] = y


def spring_scan_jit(k2: float, alphas: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """(len(alphas), n_steps+1, 2) scan states via the compiled kernel."""
    alphas = np.ascontiguousarray(alphas, dtype=np.float64)
    out = np.empty((len(alphas), n_steps + 1, 2))
    _scan_core(float(k2), alphas, float(h), int(n_steps), out)
    return out


def spring_scan_py(k2: float, alphas: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Vectorized-over-alpha fallback of the scan kernel (same stepping)."""
    alphas = np.asarray(alphas, dtype=np.float64)
    Q = len(alphas)
    x = np.zeros(Q)
    y = np.zeros(Q)
    px = np.sin(alphas)
    py = np.cos(alphas)
    s = np.sign(py)
    s[s == 0] = np.sign(px[s == 0])
    s[s == 0] = 1.0
    out = np.empty((Q, n_steps + 1, 2))
    out[:, 0, 0] = x
    out[:, 0, 1] = y

    def f(x, y, px, py, s):
        return (-y,
                x + k2 * x ** 3 - s,
                -py * (1.0 + 3.0 * k2 * x ** 2),
                px)

    for k in range(n_steps):
        k1 = f(x, y, px, py, s)
        k2_ = f(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1],
                px + 0.5 * h * k1[2], py + 0.5 * h * k1[3], s)
        k3 = f(x + 0.5 * h * k2_[0], y + 0.5 * h * k2_[1],
               px + 0.5 * h * k2_[2], py + 0.5 * h * k2_[3], s)
        k4 = f(x + h * k3[0], y + h * k3[1],
               px + h * k3[2], py + h * k3[3], s)
        x = x + (h / 6.0) * (k1[0] + 2 * k2_[0] + 2 * k3[0] + k4[0])
        y = y + (h / 6.0) * (k1[1] + 2 * k2_[1] + 2 * k3[1] + k4[1])
        px = px + (h / 6.0) * (k1[2] + 2 * k2_[2] + 2 * k3[2] + k4[2])
        py = py + (h / 6.0) * (k1[3] + 2 * k2_[3] + 2 * k3[3] + k4[3])
        flip = py != 0
        s = np.where(flip, np.sign(py), s)
        out[:, k + 1, 0] = x
        out[:, k + 1, 1] = y
    return out


@njit(cache=True)
def _rk4_frozen(k2, x, y, px, py, s, h):
    k1x = -y
    k1y = x + k2 * x * x * x - s
    k1px = -py * (1.0 + 3.0 * k2 * x * x)
    k1py = px

    x2 = x + 0.5 * h * k1x
    y2 = y + 0.5 * h * k1y
    px2 = px + 0.5 * h * k1px
    py2 = py + 0.5 * h * k1py
    k2x = -y2
    k2y = x2 + k2 * x2 * x2 * x2 - s
    k2px = -py2 * (1.0 + 3.0 * k2 * x2 * x2)
    k2py = px2

    x3 = x + 0.5 * h * k2x
    y3 = y + 0.5 * h * k2y
    px3 = px + 0.5 * h * k2px
    py3 = py + 0.5 * h * k2py
    k3x = -y3
    k3y = x3 + k2 * x3 * x3 * x3 - s
    k3px = -py3 * (1.0 + 3.0 * k2 * x3 * x3)
    k3py = px3

    x4 = x + h * k3x
    y4 = y + h * k3y
    px4 = px + h * k3px
    py4 = py + h * k3py
    k4x = -y4
    k4y = x4 + k2 * x4 * x4 * x4 - s
    k4px = -py4 * (1.0 + 3.0 * k2 * x4 * x4)
    k4py = px4

    return (x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            px + (h / 6.0) * (k1px + 2.0 * k2px + 2.0 * k3px + k4px),
            py + (h / 6.0) * (k1py + 2.0 * k2py + 2.0 * k3py + k4py))


@njit(cache=True)
def _integrate_core(k2, alpha, t_end, h_nom, switches):
    x = 0.0
    y = 0.0
    px = math.sin(alpha)
    py = math.cos(alpha)
    s = 1.0 if py > 0 else (-1.0 if py < 0 else (1.0 if px > 0 else -1.0))
    t = 0.0
    n_switch = 0
    eps = 1e-12 * t_end if t_end > 0 else 0.0
    while t < t_end - eps:
        h = h_nom if t + h_nom <= t_end else t_end - t
        nx, ny, npx, npy = _rk4_frozen(k2, x, y, px, py, s, h)
        if npy * s < 0.0:
            lo = 0.0
            hi = h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                _, _, _, pym = _rk4_frozen(k2, x, y, px, py, s, mid)
                if pym * s < 0.0:
                    hi = mid
                else:
                    lo = mid
            nx, ny, npx, npy = _rk4_frozen(k2, x, y, px, py, s, hi)
            t = t + hi
            if n_switch < switches.shape[0]:
                switches[n_switch] = t
            n_switch += 1
            if n_switch > switches.shape[0]:
                return x, y, px, py, t, -1
            s = -s
        else:
            t = t_end if t_end - (t + h) < eps else t + h
        x, y, px, py = nx, ny, npx, npy
    return x, y, px, py, t, n_switch


def spring_integrate(k2: float, alpha: float, t_end: float, h_nom: float):
    """Event-accurate endpoint of the reversed system from the origin.

    Returns (z = (x, y, px, py), the time reached, switch times, switch
    count); past ``_MAX_SWITCH`` switches it stops with count -1 and no times.
    """
    switches = np.empty(_MAX_SWITCH)
    x, y, px, py, t, n_switch = _integrate_core(
        float(k2), float(alpha), float(t_end), float(h_nom), switches
    )
    return np.array([x, y, px, py]), t, switches[:max(n_switch, 0)].copy(), n_switch


spring_scan = spring_scan_jit if HAS_NUMBA else spring_scan_py


def warm_up() -> None:
    """Trigger kernel compilation so timed sections see steady-state speed."""
    spring_scan(2.0, np.array([0.0, math.pi]), 0.01, 4)
    spring_integrate(2.0, math.pi, 0.05, 0.01)
