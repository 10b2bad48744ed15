"""Internal helpers for adjoint-driven bang-bang control construction.

The adjoint of X' = A X + B u satisfies eta' = -A^T eta, so the switching
function of channel j is g_j(t) = <eta(t), B_j>, known in closed form through
eta(t)^T = eta0^T e^{-tA}.  Switch times are the zeros of g_j, bracketed on a
node grid and bisected on the closed form; the control takes the sign of g_j
between switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .linsys import ControlSignal, LinearSystem, mat_exp

# a channel whose switching function never rises above this relative floor is
# degenerate: the sign formula is undefined and the channel is forced to 0
_DEGENERATE_REL = 1e-13


def adjoint_decomp(A: np.ndarray):
    """Eigendecomposition (w, V, Vinv) of A if reliably diagonalizable, else None."""
    A = np.asarray(A, dtype=float)
    try:
        w, V = np.linalg.eig(A)
        Vinv = np.linalg.inv(V)
        cond = np.linalg.norm(V, 2) * np.linalg.norm(Vinv, 2)
        recon = (V * w) @ Vinv
        scale = max(1.0, float(np.abs(A).max()))
        if cond < 1e8 and np.abs(recon - A).max() <= 1e-10 * scale:
            return (w, V, Vinv)
    except np.linalg.LinAlgError:
        pass
    return None


_AUTO = object()


class AdjointSampler:
    """Evaluates the adjoint eta(t)^T = eta0^T e^{-tA}.

    Uses the eigendecomposition of A when it is reliably diagonalizable,
    falling back to per-time matrix exponentials otherwise.
    """

    def __init__(self, A: np.ndarray, eta0: np.ndarray, decomp=_AUTO):
        self.A = np.asarray(A, dtype=float)
        self.eta0 = np.asarray(eta0, dtype=float)
        self._eig = adjoint_decomp(self.A) if decomp is _AUTO else decomp

    def eta(self, t) -> np.ndarray:
        """Adjoint rows eta(t) for scalar or array t; shape (..., n)."""
        t = np.asarray(t, dtype=float)
        if self._eig is not None:
            w, V, Vinv = self._eig
            coef = self.eta0 @ V  # (n,) complex
            phases = np.exp(-np.multiply.outer(t, w))  # (..., n)
            out = (coef * phases) @ Vinv
            return np.real(out)
        ts = np.atleast_1d(t)
        rows = np.empty((len(ts), len(self.eta0)))
        for i, ti in enumerate(ts):
            rows[i] = self.eta0 @ mat_exp(self.A, -float(ti))
        return rows.reshape(t.shape + (len(self.eta0),))


@dataclass
class BangProfile:
    """Per-channel switching structure of a bang-bang control."""

    horizon: float
    channel_switch_times: Tuple[np.ndarray, ...]
    initial_signs: np.ndarray            # (m,) entries in {-1, 0, +1}; 0 = degenerate
    degenerate_channels: Tuple[int, ...]
    control: ControlSignal
    sampler: AdjointSampler


def control_from_channels(horizon: float, channel_switch_times: Sequence[np.ndarray],
                          initial_signs: np.ndarray) -> ControlSignal:
    """Piecewise-constant control from per-channel switch times and signs.

    Each channel alternates from its initial sign at its own switch times; a
    channel with initial sign 0 stays silent (degenerate switching function).
    """
    channel_switch_times = [np.asarray(c, dtype=float).reshape(-1)
                            for c in channel_switch_times]
    initial_signs = np.asarray(initial_signs, dtype=float).reshape(-1)
    m = len(initial_signs)
    knots = np.concatenate([np.array([0.0, horizon])] + channel_switch_times)
    knots = np.unique(knots)
    knots = knots[(knots >= 0.0) & (knots <= horizon)]
    keep = np.concatenate(([True], np.diff(knots) > 1e-13 * max(horizon, 1.0)))
    knots = knots[keep]
    mids = 0.5 * (knots[:-1] + knots[1:])
    values = np.zeros((len(mids), m))
    for j in range(m):
        if initial_signs[j] == 0.0:
            continue
        flips = np.searchsorted(channel_switch_times[j], mids)
        values[:, j] = initial_signs[j] * np.where(flips % 2 == 0, 1.0, -1.0)
    return ControlSignal(knots, values)


def bang_profile(sys: LinearSystem, eta0: np.ndarray, T: float,
                 decomp=_AUTO) -> BangProfile:
    """Locate each channel's switch times on [0, T] and build the control.

    g_j is sampled on at least 16 nodes per half-period of the adjoint
    (801 to 20001 nodes); each sign change between neighbouring nodes is
    bisected on the closed form, and a node where g_j is exactly 0 between
    opposite signs is taken as the zero itself.  A pair of zeros closer than
    the node spacing can be missed, since g_j need not change sign on any
    node in between.
    """
    eta0 = np.asarray(eta0, dtype=float).reshape(-1)
    if eta0.shape != (sys.n,):
        raise ValueError(f"eta0 must have dimension {sys.n}")
    if np.linalg.norm(eta0) == 0.0:
        raise ValueError("eta0 must be nonzero")
    if T <= 0:
        raise ValueError("T must be positive")

    sampler = AdjointSampler(sys.A, eta0, decomp=decomp)
    if sampler._eig is not None:
        omega = max(1.0, max(abs(w.imag) for w in sampler._eig[0]))
    else:
        omega = max(1.0, float(np.abs(sys.A).max()) * sys.n)
    n_nodes = min(20001, max(801, int(16 * T * omega / math.pi) + 1))
    ts = np.linspace(0.0, T, n_nodes)
    G = sampler.eta(ts) @ sys.B                 # (n_nodes, m)

    channel_switches: List[np.ndarray] = []
    initial_signs = np.zeros(sys.m)
    degenerate: List[int] = []

    for j in range(sys.m):
        Bj = sys.B[:, j]
        g = G[:, j]
        g_scale = max(1.0, float(np.linalg.norm(eta0)) * max(1.0, float(np.linalg.norm(Bj))))
        g_max = float(np.abs(g).max())
        if g_max <= _DEGENERATE_REL * g_scale:
            degenerate.append(j)
            channel_switches.append(np.empty(0))
            continue

        # sign changes between consecutive nonzero nodes; b > a + 1 means g
        # is exactly 0 on the node(s) between them
        s = np.sign(g)
        nz = np.flatnonzero(s)
        change = s[nz[:-1]] * s[nz[1:]] < 0
        a, b = nz[:-1][change], nz[1:][change]
        lo, hi, g_lo = ts[a], ts[b], g[a]
        if len(a):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                g_mid = sampler.eta(mid) @ Bj
                left = (g_mid > 0) == (g_lo > 0)
                lo = np.where(left, mid, lo)
                g_lo = np.where(left, g_mid, g_lo)
                hi = np.where(left, hi, mid)
        zeros = np.where(b > a + 1, ts[(a + b) // 2], 0.5 * (lo + hi))
        channel_switches.append(zeros[(zeros > 1e-12 * T) & (zeros < T * (1 - 1e-12))])

        first = np.nonzero(np.abs(g) > 1e-9 * g_max)[0]
        initial_signs[j] = np.sign(g[first[0]]) if len(first) else 1.0

    control = control_from_channels(T, channel_switches, initial_signs)
    return BangProfile(
        horizon=T,
        channel_switch_times=tuple(channel_switches),
        initial_signs=initial_signs,
        degenerate_channels=tuple(degenerate),
        control=control,
        sampler=sampler,
    )
