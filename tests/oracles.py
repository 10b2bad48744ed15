"""Independent oracles used by the test suite.

Everything here is computed through routes the library does not use (scipy
expm, quadrature Gramians, closed-form circle geometry, a standalone RK4
generator) so agreement is evidence rather than tautology.
"""

import math

import numpy as np
import scipy.linalg


def expm_oracle(A, t=1.0):
    return scipy.linalg.expm(t * np.asarray(A, dtype=float))


def gramian_controllable(A, B, T=1.0, n_nodes=401, rel_tol=1e-10):
    """Controllability via the rank of W(T) = int_0^T e^{sA} B B^T e^{sA^T} ds.

    Simpson quadrature on a fixed grid, with W kept in factored form
    W = F F^T (columns of F are sqrt(w_k) e^{s_k A} B).  Ranking F instead
    of W avoids squaring the conditioning: eigenvalues of W are the squares
    of F's singular values, so an honestly controllable but ill-conditioned
    pair would fall below any safe eigenvalue cut.  Independent of the
    Kalman-matrix route under test.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if n_nodes % 2 == 0:
        n_nodes += 1
    s = np.linspace(0.0, T, n_nodes)
    h = s[1] - s[0]
    E_h = scipy.linalg.expm(h * A)
    G = np.empty((n_nodes, n, B.shape[1]))
    G[0] = B
    for k in range(1, n_nodes):
        G[k] = E_h @ G[k - 1]
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    F = (np.sqrt(w * h / 3.0)[:, None, None] * G).transpose(1, 0, 2)
    sv = np.linalg.svd(F.reshape(n, -1), compute_uv=False)
    if sv[0] <= 0:
        return False
    rank = int(np.count_nonzero(sv > rel_tol * sv[0]))
    return rank == n


def support_value_oracle(A, B, x0, T, d, n_nodes=20001):
    """Support function of the reachable set by direct quadrature.

    max <d, x(T)> = <d, e^{TA} x0> + int_0^T sum_j |<d, e^{(T-s)A} b_j>| ds
    for the control box [-1, 1]^m.  Simpson on a fine grid; the integrand has
    kinks at sign changes so the grid must be fine.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    if n_nodes % 2 == 0:
        n_nodes += 1
    s = np.linspace(0.0, T, n_nodes)
    h = s[1] - s[0]
    # g(s) = B^T e^{(T-s)A^T} d, marched backward from s = T
    E_h = scipy.linalg.expm(h * A.T)
    q = np.empty((n_nodes, A.shape[0]))
    q[-1] = d
    for k in range(n_nodes - 2, -1, -1):
        q[k] = E_h @ q[k + 1]
    integrand = np.abs(q @ B).sum(axis=1)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    drift = float(d @ (scipy.linalg.expm(T * A) @ x0))
    return drift + (h / 3.0) * float(w @ integrand)


# ---------------------------------------------------------------------------
# planar oscillator geometry (x' = y, y' = -x + u, u = +-1)


def rotate(point, center, angle):
    """Clockwise rotation by `angle` around `center` (the oscillator flow)."""
    c, s = math.cos(angle), math.sin(angle)
    dx = point[0] - center[0]
    dy = point[1] - center[1]
    return np.array([center[0] + c * dx + s * dy,
                     center[1] - s * dx + c * dy])


def two_arc_time(eps):
    """Minimal time steering (eps, 0) -> (0, 0) for 0 < eps <= 2.

    The last arc must run u = +1 on the circle through the origin centered
    at (1, 0); the first arc runs u = -1 on the circle of radius 1 + eps
    centered at (-1, 0).  Intersecting the two circles gives the switching
    point, and arc angles are read off as clockwise rotations.
    """
    if not 0 < eps <= 2:
        raise ValueError("closed form valid for 0 < eps <= 2")
    x_s = eps * (eps + 2.0) / 4.0
    y_sq = (1.0 + eps) ** 2 - (x_s + 1.0) ** 2
    y_s = -math.sqrt(max(y_sq, 0.0))
    delta1 = math.atan2(-y_s, x_s + 1.0)  # clockwise angle around (-1, 0)
    theta_p = math.atan2(y_s, x_s - 1.0)
    delta2 = (theta_p - math.pi) % (2.0 * math.pi)  # clockwise to the origin
    return delta1 + delta2, (x_s, y_s), (delta1, delta2)


def clockwise_angle(center, p, q):
    """Angle in [0, 2 pi) of the clockwise rotation around center taking p to q."""
    a_p = math.atan2(p[1] - center[1], p[0] - center[0])
    a_q = math.atan2(q[1] - center[1], q[0] - center[0])
    return (a_p - a_q) % (2.0 * math.pi)


def one_switch_time(x0, x1, first_sign):
    """Time and arcs of the fastest oscillator path x0 -> x1 that runs
    u = first_sign and then u = -first_sign, both arcs shorter than pi.

    The first arc turns x0 clockwise around (s, 0), the second turns the
    switching point around (-s, 0) into x1, so the switching point is an
    intersection of the two circles.  Returns (T, switch point, (delta1,
    delta2)), or None when no intersection gives two arcs shorter than pi.
    """
    s = float(first_sign)
    c1, c2 = (s, 0.0), (-s, 0.0)
    r1 = math.hypot(x0[0] - c1[0], x0[1])
    r2 = math.hypot(x1[0] - c2[0], x1[1])
    # the centres lie 2 apart on the x axis: the intersections sit at
    # distance along from c1 towards c2 and height +-sqrt(r1^2 - along^2)
    along = (r1 ** 2 - r2 ** 2 + 4.0) / 4.0
    if along ** 2 > r1 ** 2:
        return None
    height = math.sqrt(r1 ** 2 - along ** 2)
    best = None
    for y in (height, -height):
        p = (s - s * along, y)
        delta1 = clockwise_angle(c1, x0, p)
        delta2 = clockwise_angle(c2, p, x1)
        if 0.0 < delta1 < math.pi and 0.0 < delta2 < math.pi:
            if best is None or delta1 + delta2 < best[0]:
                best = (delta1 + delta2, p, (delta1, delta2))
    return best


def two_arc_selfcheck(eps):
    """Exact rotation replay of the two-arc path; returns the endpoint error."""
    _, (x_s, y_s), (delta1, delta2) = two_arc_time(eps)
    switch = rotate((eps, 0.0), (-1.0, 0.0), delta1)
    if not np.allclose(switch, [x_s, y_s], atol=1e-12):
        return float("inf")
    end = rotate(switch, (1.0, 0.0), delta2)
    return float(np.hypot(end[0], end[1]))


# ---------------------------------------------------------------------------
# reversed spring flow (independent generator for shooting targets)


def spring_backward_state(k2, alpha, tau, n_steps=40000):
    """Reversed extremal flow from the origin: RK4 with per-step sign choice.

    Returns (state4, switch_times) where state4 = (x, y, p_x, p_y) at time
    tau and switch times are the p_y sign changes seen on the grid.
    """
    z = np.array([0.0, 0.0, math.sin(alpha), math.cos(alpha)])
    h = tau / n_steps
    s = 1.0 if z[3] > 0 else (-1.0 if z[3] < 0 else (1.0 if z[2] > 0 else -1.0))
    switches = []

    def rhs(z, s):
        return np.array([
            -z[1],
            z[0] + k2 * z[0] ** 3 - s,
            -z[3] * (1.0 + 3.0 * k2 * z[0] ** 2),
            z[2],
        ])

    for i in range(n_steps):
        new_sign = np.sign(z[3])
        if new_sign != 0 and new_sign != s:
            s = float(new_sign)
            switches.append(i * h)
        k1 = rhs(z, s)
        k2_ = rhs(z + 0.5 * h * k1, s)
        k3 = rhs(z + 0.5 * h * k2_, s)
        k4 = rhs(z + h * k3, s)
        z = z + (h / 6.0) * (k1 + 2 * k2_ + 2 * k3 + k4)
    return z, switches
