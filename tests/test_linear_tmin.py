import math

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from pmpkit import _bang, linear_tmin
from pmpkit._bang import bang_profile
from pmpkit.controllability import reach_hull, reach_support
from pmpkit.errors import UnreachableTargetError
from pmpkit.linear_tmin import (
    BangBangControl,
    TminOptions,
    _fast_endpoint,
    bang_bang_from_adjoint,
    local_optimality_probe,
    nearest_minima,
    shoot2d,
    solve_tmin,
)
from pmpkit.linsys import LinearSystem, simulate

OSC = LinearSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                   np.array([[0.0], [1.0]]),
                   np.array([[-1.0, 1.0]]))


# ---------------------------------------------------------------------------
# bang_bang_from_adjoint


def test_pi_gap_law():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        eta0 = rng.standard_normal(2)
        control, _, _ = bang_bang_from_adjoint(OSC, eta0, 3.5 * math.pi,
                                               x0=[0.0, 0.0])
        switches = control.breakpoints[1:-1]
        assert len(switches) >= 2
        assert np.abs(np.diff(switches) - math.pi).max() < 1e-8


def test_adjoint_scaling_invariance():
    eta0 = np.array([0.37, -1.2])
    c1, _, _ = bang_bang_from_adjoint(OSC, eta0, 7.0)
    c2, _, _ = bang_bang_from_adjoint(OSC, 5.0 * eta0, 7.0)
    assert np.allclose(c1.breakpoints, c2.breakpoints, atol=1e-10)
    assert np.array_equal(c1.values, c2.values)


def test_constant_adjoint_no_switches():
    # A = 0, B = I: adjoint constant, control fixed at the sign vector
    sys = LinearSystem(np.zeros((2, 2)), np.eye(2),
                       [[-1, 1], [-1, 1]])
    control, traj, adjoint = bang_bang_from_adjoint(sys, [1.0, 0.0], 2.0)
    assert len(control.breakpoints) == 2
    assert control.values[0, 0] == 1.0
    assert control.values[0, 1] == 0.0      # dead channel held at zero
    assert np.allclose(adjoint.states, [1.0, 0.0])
    assert np.allclose(traj.endpoint, [2.0, 0.0], atol=1e-12)


def test_zero_adjoint_rejected():
    with pytest.raises(ValueError):
        bang_bang_from_adjoint(OSC, [0.0, 0.0], 1.0)


def test_adjoint_solves_backward_equation():
    # eta(t)^T = eta(0)^T e^{-tA}: check against the scipy propagator
    eta0 = np.array([0.3, 0.9])
    _, _, adjoint = bang_bang_from_adjoint(OSC, eta0, 5.0, x0=[0.0, 0.0])
    for k in range(0, len(adjoint.times), 200):
        t = adjoint.times[k]
        ref = eta0 @ oracles.expm_oracle(OSC.A, -t)
        assert np.allclose(adjoint.states[k], ref, atol=1e-11)


def test_switch_on_grid_node_is_kept():
    # double integrator (q = 0), eta0 = (cos th, sin th): g(t) = sin th - t cos th,
    # whose one zero t = tan th = 0.5 is exact in floating point
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    di = LinearSystem(A, np.array([[0.0], [1.0]]), np.array([[-1.0, 1.0]]))
    theta = 0.4636476090008061
    assert math.sin(theta) == 0.5 * math.cos(theta)
    x, _ = _fast_endpoint(di, np.zeros(2), theta, 2.0)
    # u = +1 on [0, 0.5], then -1 on [0.5, 2]
    assert np.allclose(x, [-0.25, -1.0], atol=1e-12)


PLANAR_CLASSES = {
    "oscillator": (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]])),
    "damped_oscillator": (np.array([[0.0, 1.0], [-2.0, -0.6]]),
                          np.array([[1.0, 0.3], [0.0, 1.0]])),
    "real_eigenvalues": (np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([[0.0], [1.0]])),
    "double_integrator": (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])),
}


@pytest.mark.parametrize("name", PLANAR_CLASSES)
def test_switch_times_match_sampled_root_finding(name):
    # independent route: g_j(t) = eta0^T expm(-t A) B_j through scipy, every
    # sign change on a fine grid refined by brentq
    A, B = PLANAR_CLASSES[name]
    sys = LinearSystem(A, B, np.tile([-1.0, 1.0], (B.shape[1], 1)))
    rng = np.random.default_rng(11)
    counts = set()
    for _ in range(20):
        eta0 = rng.standard_normal(2)
        T = rng.uniform(0.5, 10.0)
        profile = bang_profile(sys, eta0, T)
        ts = np.linspace(0.0, T, 1001)
        E_h = oracles.expm_oracle(A, -(ts[1] - ts[0]))
        rows = [eta0]
        for _ in ts[1:]:
            rows.append(rows[-1] @ E_h)
        G = np.array(rows) @ B
        for j in range(B.shape[1]):
            def g(t):
                return float(eta0 @ oracles.expm_oracle(A, -t) @ B[:, j])
            brackets = np.flatnonzero(np.sign(G[:-1, j]) * np.sign(G[1:, j]) < 0)
            want = [brentq(g, ts[k], ts[k + 1], xtol=1e-14, rtol=1e-14) for k in brackets]
            got = profile.channel_switch_times[j]
            assert len(got) == len(want)
            assert np.abs(got - want).max(initial=0.0) < 1e-10
            assert profile.initial_signs[j] == np.sign(G[1, j])
            counts.add(len(want))
    # both sides of the count law are exercised: no switch, and one or more
    assert 0 in counts and max(counts) >= 1
    if name in ("oscillator", "damped_oscillator"):
        assert max(counts) >= 2


def test_locator_rejects_non_planar_systems():
    sys = LinearSystem(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                       np.array([[0.0], [1.0], [1.0]]), np.array([[-1.0, 1.0]]))
    eta = np.array([1.0, 0.0, 0.5])
    calls = [
        lambda: bang_profile(sys, eta, 1.0),
        lambda: reach_support(sys, np.zeros(3), 1.0, eta),
        lambda: reach_hull(sys, np.zeros(3), 1.0, directions=np.eye(3)),
        lambda: bang_bang_from_adjoint(sys, eta, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n = 3"):
            call()


DOUBLE_INTEGRATOR = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 np.array([[0.0], [1.0]]), np.array([[-1.0, 1.0]]))


@pytest.mark.parametrize("sys", [
    OSC,
    DOUBLE_INTEGRATOR,      # not diagonalizable
    LinearSystem(np.array([[0.1, 1.0], [-1.5, -0.2]]), np.array([[1.0, 0.3], [0.0, 1.0]]),
                 np.array([[-1.0, 1.0], [-1.0, 1.0]])),
], ids=["oscillator", "double_integrator", "two_inputs"])
def test_fast_endpoint_jacobian_matches_central_differences(sys):
    x0 = np.array([0.3, -0.2])
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        theta, T = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 6.0)
        eta0 = np.array([math.cos(theta), math.sin(theta)])
        switches = np.concatenate(bang_profile(sys, eta0, T).channel_switch_times)
        if np.any((switches < 1e-3) | (switches > T - 1e-3)):
            continue
        _, J = _fast_endpoint(sys, x0, theta, T)
        h = 1e-6
        fd = np.column_stack([
            (_fast_endpoint(sys, x0, theta + h, T)[0]
             - _fast_endpoint(sys, x0, theta - h, T)[0]) / (2 * h),
            (_fast_endpoint(sys, x0, theta, T + h)[0]
             - _fast_endpoint(sys, x0, theta, T - h)[0]) / (2 * h),
        ])
        assert np.abs(J - fd).max() <= 1e-7 * (1.0 + np.abs(J).max())
        checked += 1


# ---------------------------------------------------------------------------
# solve_tmin


def test_solve_tmin_profile_count(monkeypatch):
    # one profile per Newton residual and Jacobian, not five, and no
    # Newton run past a root already found (96 calls before, 43 after)
    calls = []
    profile = _bang.bang_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return profile(*args, **kwargs)

    monkeypatch.setattr(_bang, "bang_profile", counted)
    solve_tmin(OSC, [0.9, -0.4], [0.0, 0.0])
    assert len(calls) <= 65


def test_solve_tmin_double_integrator():
    # x'' = u from (1, 0) to rest: u = -1 on [0, 1], then +1 on [1, 2]
    sol = solve_tmin(DOUBLE_INTEGRATOR, [1.0, 0.0], [0.0, 0.0])
    assert abs(sol.T_star - 2.0) <= 1e-6
    assert len(sol.control.switch_times) == 1
    assert abs(sol.control.switch_times[0] - 1.0) <= 1e-6


def test_solve_tmin_trivial_case():
    sol = solve_tmin(OSC, [0.4, -0.2], [0.4, -0.2])
    assert sol.T_star == 0.0
    assert sol.endpoint_error == 0.0


def test_solve_tmin_hits_target():
    rng = np.random.default_rng(31)
    for _ in range(5):
        x1 = rng.uniform(-1.2, 1.2, 2)
        sol = solve_tmin(OSC, [0.0, 0.0], x1)
        assert sol.endpoint_error <= 1e-6 * (1.0 + np.linalg.norm(x1))
        traj = sol.trajectory
        assert np.linalg.norm(traj.endpoint - x1) <= 1e-6 * (1 + np.linalg.norm(x1))


def test_solve_tmin_matches_two_arc_oracle():
    for eps in [0.25, 0.8, 1.5]:
        t_ref, _, _ = oracles.two_arc_time(eps)
        sol = solve_tmin(OSC, [eps, 0.0], [0.0, 0.0])
        assert abs(sol.T_star - t_ref) < 1e-5


def test_solution_segments_lie_on_circles():
    sol = solve_tmin(OSC, [1.1, 0.3], [0.0, 0.0])
    traj = sol.trajectory
    control = sol.control.to_control_signal()
    for a, b in zip(control.breakpoints[:-1], control.breakpoints[1:]):
        mask = (traj.times >= a + 1e-9) & (traj.times <= b - 1e-9)
        if not np.any(mask):
            continue
        u = control.evaluate(0.5 * (a + b))[0]
        cx = 1.0 if u > 0 else -1.0
        r2 = (traj.states[mask, 0] - cx) ** 2 + traj.states[mask, 1] ** 2
        assert r2.max() - r2.min() < 1e-8


def test_switch_times_reproducible_from_eta0():
    sol = solve_tmin(OSC, [0.9, -0.7], [0.0, 0.0])
    control, _, _ = bang_bang_from_adjoint(OSC, sol.eta0, sol.T_star,
                                           x0=[0.9, -0.7])
    got = control.breakpoints[1:-1]
    want = np.asarray(sol.control.switch_times)
    assert len(got) == len(want)
    if len(got):
        assert np.abs(got - want).max() < 1e-6


def test_boundary_property_of_minimal_time():
    # the target enters the reachable set exactly at T_star: excluded at
    # T_star - delta, included at T_star + delta
    x0 = np.array([0.0, 0.0])
    x1 = np.array([0.6, 0.45])
    sol = solve_tmin(OSC, x0, x1)
    delta = 1e-3
    eta_T = sol.adjoint.endpoint
    angles = 2 * math.pi * np.arange(48) / 48
    directions = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]),
                            eta_T / np.linalg.norm(eta_T)])
    before = reach_hull(OSC, x0, sol.T_star - delta, directions=directions)
    after = reach_hull(OSC, x0, sol.T_star + delta, directions=directions)
    assert before.violation(x1) > 0.0
    assert after.contains(x1, tol=1e-8)


def test_tie_break_is_deterministic():
    sol1 = solve_tmin(OSC, [0.5, 0.5], [0.0, 0.0])
    sol2 = solve_tmin(OSC, [0.5, 0.5], [0.0, 0.0])
    assert sol1.T_star == sol2.T_star
    assert sol1.theta == sol2.theta
    assert np.array_equal(np.asarray(sol1.control.switch_times),
                          np.asarray(sol2.control.switch_times))


def test_unreachable_target_raises(monkeypatch):
    # controllable but stable: bounded controls cannot push far from origin.
    # The failure reports the nearest seed of the last round, without a
    # further scan on a doubled grid
    A = np.array([[-1.0, 1.0], [0.0, -1.0]])
    sys = LinearSystem(A, np.array([[0.0], [1.0]]), [[-1, 1]])
    calls = []
    scan = linear_tmin._scan_candidates

    def counted(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(linear_tmin, "_scan_candidates", counted)
    with pytest.raises(UnreachableTargetError) as exc:
        solve_tmin(sys, [0.0, 0.0], [5.0, 5.0],
                   options=TminOptions(n_angles=90, t_grid=120, t_max=6.0,
                                       refine_rounds=1))
    assert len(calls) == 1 + 1
    assert exc.value.best_residual > 1.0
    theta, T = exc.value.best_candidate
    assert 0.0 <= theta < 2.0 * math.pi and 0.0 < T <= 6.0


def test_nearest_minima_order():
    # rows are angles, columns time samples h = 0.5 apart
    D = np.array([
        [3.0, 2.0, 2.5, 1.0, 1.5],   # minima 2.0 at t = 0.5, 1.0 at t = 1.5
        [2.0, 1.0, 3.0, 2.0, 1.0],   # minimum 1.0 at t = 0.5, tail 1.0 at t = 2
        [1.0, 1.0, 2.0, 3.0, 3.0],   # minimum 1.0 at t = 0.5; not t = 0, not a flat tail
    ])
    angles = np.array([0.3, 0.2, 0.1])
    expected = [(1.0, 0.1, 0.5), (1.0, 0.2, 0.5), (1.0, 0.3, 1.5),
                (1.0, 0.2, 2.0), (2.0, 0.3, 0.5)]
    assert nearest_minima(D, angles, 0.5, 10) == expected
    assert nearest_minima(D, angles, 0.5, 2) == expected[:2]


def _scan_step(x0, x1):
    # solve_tmin's default horizon over its default 500 time steps
    return 4.0 * math.pi * (1.0 + math.hypot(*x0) + math.hypot(*x1)) / 500


def _one_switch_replay_error(x0, x1, sign, arcs):
    switch = oracles.rotate(x0, (sign, 0.0), arcs[0])
    end = oracles.rotate(switch, (-sign, 0.0), arcs[1])
    return math.hypot(end[0] - x1[0], end[1] - x1[1])


def test_solve_tmin_returns_earlier_of_two_near_extremals():
    # two one-switch extremals with opposite first signs, 0.028 apart in
    # time, less than the scan step h = 0.094; the slower root is found
    # first, so a seed skipped for being later than best_T - 2h would lose
    # the optimum.  Any extremal with two switches takes longer than pi.
    x0, x1 = (0.802, 1.128), (1.045, 0.789)
    T_fast, _, arcs_fast = oracles.one_switch_time(x0, x1, +1)
    T_slow, _, arcs_slow = oracles.one_switch_time(x0, x1, -1)
    assert 0.0 < T_slow - T_fast < _scan_step(x0, x1)
    assert T_slow < math.pi
    assert _one_switch_replay_error(x0, x1, +1, arcs_fast) < 1e-12
    assert _one_switch_replay_error(x0, x1, -1, arcs_slow) < 1e-12
    sol = solve_tmin(OSC, x0, x1)
    assert abs(sol.T_star - T_fast) <= 1e-6
    assert sol.control.initial_sign_per_channel[0] == 1.0
    assert len(sol.control.switch_times) == 1
    assert abs(sol.control.switch_times[0] - arcs_fast[0]) <= 1e-6


@pytest.mark.xfail(strict=True, reason="the 24 nearest minima of D all lie in the "
                   "valleys of two slower extremals (about 8 angles each), so no "
                   "seed reaches the optimum")
def test_solve_tmin_earliest_extremal_beyond_nearest_seeds():
    x0, x1 = (-0.612, 0.616), (-0.26, 1.061)
    T_fast, _, arcs = oracles.one_switch_time(x0, x1, +1)
    T_slow, _, _ = oracles.one_switch_time(x0, x1, -1)
    assert 0.0 < T_slow - T_fast < _scan_step(x0, x1)
    assert _one_switch_replay_error(x0, x1, +1, arcs) < 1e-12
    sol = solve_tmin(OSC, x0, x1)
    assert abs(sol.T_star - T_fast) <= 1e-6


def test_shoot2d_skips_known_and_late_seeds():
    # residual (angle - a, T - t) of the nearest of two roots, so every
    # Newton run lands on a root in one step
    roots = [(1.0, 2.0), (4.0, 1.5)]

    def residual(angle, T):
        calls.append((angle, T))
        a, t = min(roots, key=lambda r: abs((angle - r[0] + math.pi) % (2 * math.pi)
                                            - math.pi) + abs(T - r[1]))
        return np.array([angle - a, T - t]), lambda: np.eye(2)

    h, angles = 0.1, 2.0 * math.pi * np.arange(36) / 36     # d_angle = 0.175
    D = 10.0 + 0.001 * np.arange(51) * np.ones((36, 1))     # no minimum in time
    dips = {(6, 20): 0.01,    # runs, finds root (1.0, 2.0)
            (7, 21): 0.02,    # 0.22 and 0.1 from that root: skipped as known
            (10, 19): 0.025,  # 0.75 from it: runs, stopped on reaching it
            (23, 15): 0.03,   # runs, finds root (4.0, 1.5), the earlier one
            (30, 40): 0.04}   # T = 4.0 > best_T + h: skipped as late
    for (q, k), d in dips.items():
        D[q, k] = d
    calls = []
    T, angle, stats = shoot2d(lambda r: (D, angles, h), residual, 5.0, 1e-6, 20, 24, 0)
    assert (T, angle) == pytest.approx((1.5, 4.0))
    for q, k in [(7, 21), (30, 40)]:
        assert (pytest.approx(angles[q]), pytest.approx(k * h)) not in calls
    assert (stats.rounds, stats.seeds_run, stats.seeds_late, stats.seeds_duplicate,
            stats.runs_duplicate, stats.runs_converged) == (1, 3, 1, 1, 1, 2)
    assert stats.residual_calls == len(calls) == 6


def test_uncontrollable_system_rejected():
    sys = LinearSystem(np.zeros((2, 2)), np.array([[1.0], [0.0]]), [[-1, 1]])
    with pytest.raises(ValueError):
        solve_tmin(sys, [0.0, 0.0], [0.0, 1.0])


def test_tmin_solution_json_keys():
    sol = solve_tmin(OSC, [0.3, 0.0], [0.0, 0.0])
    d = sol.to_json_dict()
    assert set(d) == {"T", "theta", "switch_times", "endpoint_error"}
    assert d["T"] == sol.T_star


def test_local_optimality_probe_passes():
    sol = solve_tmin(OSC, [0.8, 0.1], [0.0, 0.0])
    report = local_optimality_probe(OSC, sol, [0.0, 0.0], n_probes=10)
    assert report.passed
    assert report.failures == []


def test_bang_bang_control_validation():
    with pytest.raises(ValueError):
        BangBangControl(switch_times=(2.0, 1.0), initial_sign_per_channel=(1,),
                        horizon=3.0)
    with pytest.raises(ValueError):
        BangBangControl(switch_times=(1.0,), initial_sign_per_channel=(2,),
                        horizon=3.0)
    bb = BangBangControl(switch_times=(1.0,), initial_sign_per_channel=(-1,),
                         horizon=3.0)
    u = bb.to_control_signal()
    assert u.evaluate(0.5)[0] == -1.0
    assert u.evaluate(1.5)[0] == 1.0
