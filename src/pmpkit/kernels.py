"""Hot numerical kernels for the nonlinear spring shooting solver.

The time-reversed extremal system

    x' = -y
    y' = x + k2*x^3 - s        (s = sign of p_y, the control)
    px' = -py * (1 + 3*k2*x^2)
    py' = px

is integrated from the origin over a dense (alpha, t) grid during the scan
(``spring_scan``) and by an event-accurate single-trajectory routine during
Newton refinement (``spring_integrate``).  The latter also returns the
endpoint's sensitivity [dz/dalpha, dz/dt], the Jacobian of the shooting
residual: the loop carries the alpha-tangent through the differentiated RK4
steps and the saltation jump at each switch.

``_rk4_frozen``, one RK4 step with the sign frozen, holds the stage
arithmetic, and ``_rk4_tangent`` is its derivative.  The step uses only sums
and products, so it runs unchanged on scalars and on numpy arrays.  The loops
are written for numba's ``njit``; without numba they run as plain python.  Both
scans step through ``_rk4_frozen``: ``spring_scan_jit`` per alpha in the
loop ``_scan_core``, ``spring_scan_py`` on all alphas at once as arrays.
``spring_scan`` picks the first with numba and the second without.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

    def njit(cache):
        return lambda func: func


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
            x, y, px, py = _rk4_frozen(k2, x, y, px, py, s, h)
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
    """The scan with all alphas stepped at once as arrays (same steps)."""
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
    for k in range(n_steps):
        x, y, px, py = _rk4_frozen(k2, x, y, px, py, s, h)
        s = np.where(py != 0, np.sign(py), s)
        out[:, k + 1, 0] = x
        out[:, k + 1, 1] = y
    return out


@njit(cache=True)
def _rk4_frozen(k2, x, y, px, py, s, h):
    """One RK4 step of the reversed system with s held fixed (scalars or arrays)."""
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
def _rk4_tangent(k2, x, y, px, py, s, dx, dy, dpx, dpy, h):
    """``_rk4_frozen`` step together with its derivative along the tangent
    (dx, dy, dpx, dpy); the base state is computed exactly as there (the
    hoisted factors associate as the products they replace)."""
    hh = 0.5 * h
    h6 = h / 6.0
    three_k2 = 3.0 * k2
    six_k2 = 6.0 * k2
    c1 = 1.0 + three_k2 * x * x
    k1x = -y
    k1y = x + k2 * x * x * x - s
    k1px = -py * c1
    k1py = px
    d1x = -dy
    d1y = c1 * dx
    d1px = -dpy * c1 - six_k2 * x * py * dx
    d1py = dpx

    x2 = x + hh * k1x
    y2 = y + hh * k1y
    px2 = px + hh * k1px
    py2 = py + hh * k1py
    dx2 = dx + hh * d1x
    dy2 = dy + hh * d1y
    dpx2 = dpx + hh * d1px
    dpy2 = dpy + hh * d1py
    c2 = 1.0 + three_k2 * x2 * x2
    k2x = -y2
    k2y = x2 + k2 * x2 * x2 * x2 - s
    k2px = -py2 * c2
    k2py = px2
    d2x = -dy2
    d2y = c2 * dx2
    d2px = -dpy2 * c2 - six_k2 * x2 * py2 * dx2
    d2py = dpx2

    x3 = x + hh * k2x
    y3 = y + hh * k2y
    px3 = px + hh * k2px
    py3 = py + hh * k2py
    dx3 = dx + hh * d2x
    dy3 = dy + hh * d2y
    dpx3 = dpx + hh * d2px
    dpy3 = dpy + hh * d2py
    c3 = 1.0 + three_k2 * x3 * x3
    k3x = -y3
    k3y = x3 + k2 * x3 * x3 * x3 - s
    k3px = -py3 * c3
    k3py = px3
    d3x = -dy3
    d3y = c3 * dx3
    d3px = -dpy3 * c3 - six_k2 * x3 * py3 * dx3
    d3py = dpx3

    x4 = x + h * k3x
    y4 = y + h * k3y
    px4 = px + h * k3px
    py4 = py + h * k3py
    dx4 = dx + h * d3x
    dy4 = dy + h * d3y
    dpx4 = dpx + h * d3px
    dpy4 = dpy + h * d3py
    c4 = 1.0 + three_k2 * x4 * x4
    k4x = -y4
    k4y = x4 + k2 * x4 * x4 * x4 - s
    k4px = -py4 * c4
    k4py = px4
    d4x = -dy4
    d4y = c4 * dx4
    d4px = -dpy4 * c4 - six_k2 * x4 * py4 * dx4
    d4py = dpx4

    return (x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            px + h6 * (k1px + 2.0 * k2px + 2.0 * k3px + k4px),
            py + h6 * (k1py + 2.0 * k2py + 2.0 * k3py + k4py),
            dx + h6 * (d1x + 2.0 * d2x + 2.0 * d3x + d4x),
            dy + h6 * (d1y + 2.0 * d2y + 2.0 * d3y + d4y),
            dpx + h6 * (d1px + 2.0 * d2px + 2.0 * d3px + d4px),
            dpy + h6 * (d1py + 2.0 * d2py + 2.0 * d3py + d4py))


@njit(cache=True)
def _integrate_core(k2, alpha, t_end, h_nom, switches):
    """Endpoint, time reached, switch count, alpha-tangent and final sign.

    The tangent (dx, dy, dpx, dpy) = dz/dalpha starts at (0, 0, cos a,
    -sin a) and is stepped with the differentiated RK4 map.  At a p_y zero,
    located on the base state alone, the switch time moves with alpha and
    the jump 2s of y' adds the saltation term 2 s dpy / px to dy.
    """
    x = 0.0
    y = 0.0
    px = math.sin(alpha)
    py = math.cos(alpha)
    dx = 0.0
    dy = 0.0
    dpx = py
    dpy = -px
    s = 1.0 if py > 0 else (-1.0 if py < 0 else (1.0 if px > 0 else -1.0))
    t = 0.0
    n_switch = 0
    eps = 1e-12 * t_end if t_end > 0 else 0.0
    while t < t_end - eps:
        h = h_nom if t + h_nom <= t_end else t_end - t
        nx, ny, npx, npy, ndx, ndy, ndpx, ndpy = _rk4_tangent(
            k2, x, y, px, py, s, dx, dy, dpx, dpy, h)
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
            nx, ny, npx, npy, ndx, ndy, ndpx, ndpy = _rk4_tangent(
                k2, x, y, px, py, s, dx, dy, dpx, dpy, hi)
            ndy += 2.0 * s * ndpy / npx
            t = t + hi
            if n_switch < switches.shape[0]:
                switches[n_switch] = t
            n_switch += 1
            if n_switch > switches.shape[0]:
                return x, y, px, py, t, -1, dx, dy, dpx, dpy, s
            s = -s
        else:
            t = t_end if t_end - (t + h) < eps else t + h
        x, y, px, py = nx, ny, npx, npy
        dx, dy, dpx, dpy = ndx, ndy, ndpx, ndpy
    return x, y, px, py, t, n_switch, dx, dy, dpx, dpy, s


def spring_integrate(k2: float, alpha: float, t_end: float, h_nom: float):
    """Event-accurate endpoint of the reversed system from the origin.

    Returns (z = (x, y, px, py), the time reached, switch times, switch
    count, J); past ``_MAX_SWITCH`` switches it stops with count -1 and no
    times.  J is the 4x2 sensitivity [dz/dalpha, dz/dt_end] of the endpoint:
    the alpha column is the tangent carried by the loop, the t column the
    right-hand side at the endpoint.
    """
    switches = np.empty(_MAX_SWITCH)
    k2 = float(k2)
    x, y, px, py, t, n_switch, dx, dy, dpx, dpy, s = _integrate_core(
        k2, float(alpha), float(t_end), float(h_nom), switches
    )
    J = np.array([[dx, -y],
                  [dy, x + k2 * x * x * x - s],
                  [dpx, -py * (1.0 + 3.0 * k2 * x * x)],
                  [dpy, px]])
    return (np.array([x, y, px, py]), t, switches[:max(n_switch, 0)].copy(),
            n_switch, J)


spring_scan = spring_scan_jit if HAS_NUMBA else spring_scan_py


def warm_up() -> None:
    """Trigger kernel compilation so timed sections see steady-state speed."""
    spring_scan(2.0, np.array([0.0, math.pi]), 0.01, 4)
    spring_integrate(2.0, math.pi, 0.05, 0.01)
