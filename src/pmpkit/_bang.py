"""Internal helpers for adjoint-driven bang-bang control construction.

The adjoint of X' = A X + B u satisfies eta' = -A^T eta, so the switching
function of channel j is g_j(t) = <eta(t), B_j> with eta(t)^T = eta0^T e^{-tA}.
For planar A, N = A - mu I (mu = tr A / 2) has N^2 = q I, so
e^{-tA} = e^{-mu t} (c(t) I - s(t) N) and
g_j(t) = e^{-mu t} (c(t) a_j - s(t) b_j), a_j = <eta0, B_j>, b_j = <eta0 N, B_j>.
Switch times are the zeros of g_j, in closed form: every pi / r after the
first when q = -r^2 < 0, at most one when q >= 0 (Pontryagin, Boltyanskii,
Gamkrelidze & Mishchenko, 1962).  The control takes the sign of g_j between
switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .linsys import ControlSignal, LinearSystem

# a channel whose a_j and b_j both lie below this relative floor is
# degenerate: the sign formula is undefined and the channel is forced to 0
_DEGENERATE_REL = 1e-13


class AdjointSampler:
    """Evaluates the planar adjoint eta(t)^T = eta0^T e^{-tA} in the closed form above."""

    def __init__(self, A: np.ndarray, eta0: np.ndarray):
        A = np.asarray(A, dtype=float)
        self.eta0 = np.asarray(eta0, dtype=float)
        self.mu = 0.5 * float(np.trace(A))
        self.N = A - self.mu * np.eye(2)
        self.q = float(self.N[0, 0] ** 2 + self.N[0, 1] * self.N[1, 0])
        self.r = math.sqrt(abs(self.q))

    def cs(self, t):
        """c(t) and s(t) of e^{-tA} = e^{-mu t} (c(t) I - s(t) N)."""
        r = self.r
        if self.q > 0:
            return np.cosh(r * t), np.sinh(r * t) / r
        if self.q < 0:
            return np.cos(r * t), np.sin(r * t) / r
        return np.ones_like(t), t

    def eta(self, t) -> np.ndarray:
        """Adjoint rows eta(t) for scalar or array t; shape (..., 2)."""
        t = np.asarray(t, dtype=float)
        c, s = self.cs(t)
        rows = c[..., None] * self.eta0 - s[..., None] * (self.eta0 @ self.N)
        return np.exp(-self.mu * t)[..., None] * rows


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


def bang_profile(sys: LinearSystem, eta0: np.ndarray, T: float) -> BangProfile:
    """Each channel's switch times on [0, T], in closed form, and the control.

    The zeros of c(t) a_j - s(t) b_j are
      q < 0: (psi + k pi) / r, k = 0, 1, ..., with psi = atan2(r a_j, b_j) mod pi;
      q > 0: atanh(r a_j / b_j) / r, when 0 <= r a_j / b_j < 1;
      q = 0: a_j / b_j, when a_j / b_j >= 0.
    Zeros within 1e-12 T of either end are dropped.  The initial sign is the
    sign of g_j halfway to the first kept zero, or at T / 2 when there is none.
    """
    if sys.n != 2:
        raise ValueError(f"switch times need a planar system (n = 2), got n = {sys.n}")
    eta0 = np.asarray(eta0, dtype=float).reshape(-1)
    if eta0.shape != (sys.n,):
        raise ValueError(f"eta0 must have dimension {sys.n}")
    eta_norm = float(np.linalg.norm(eta0))
    if eta_norm == 0.0:
        raise ValueError("eta0 must be nonzero")
    if T <= 0:
        raise ValueError("T must be positive")

    sampler = AdjointSampler(sys.A, eta0)
    q, r = sampler.q, sampler.r
    a_all = eta0 @ sys.B
    b_all = eta0 @ sampler.N @ sys.B

    channel_switches: List[np.ndarray] = []
    initial_signs = np.zeros(sys.m)
    degenerate: List[int] = []

    for j in range(sys.m):
        a, b = float(a_all[j]), float(b_all[j])
        Bj_norm = float(np.linalg.norm(sys.B[:, j]))
        if max(abs(a), abs(b)) <= _DEGENERATE_REL * max(1.0, eta_norm * max(1.0, Bj_norm)):
            degenerate.append(j)
            channel_switches.append(np.empty(0))
            continue

        if q < 0:
            psi = math.atan2(r * a, b) % math.pi
            zeros = (psi + math.pi * np.arange(int((T * r - psi) / math.pi) + 1)) / r
        elif b != 0.0 and a / b >= 0.0 and r * a / b < 1.0:
            # the one zero: tanh(r t) = r a / b, or t = a / b when q = 0
            zeros = np.array([math.atanh(r * a / b) / r if q > 0 else a / b])
        else:
            zeros = np.empty(0)
        zeros = zeros[(zeros > 1e-12 * T) & (zeros < T * (1 - 1e-12))]
        channel_switches.append(zeros)

        c, s = sampler.cs(0.5 * zeros[0] if len(zeros) else 0.5 * T)
        initial_signs[j] = 1.0 if c * a - s * b >= 0.0 else -1.0

    control = control_from_channels(T, channel_switches, initial_signs)
    return BangProfile(
        horizon=T,
        channel_switch_times=tuple(channel_switches),
        initial_signs=initial_signs,
        degenerate_channels=tuple(degenerate),
        control=control,
        sampler=sampler,
    )
