import math

import numpy as np
import pytest

import oracles
from pmpkit import _bang, linear_tmin
from pmpkit._bang import adjoint_decomp, bang_profile
from pmpkit.controllability import reach_hull
from pmpkit.errors import UnreachableTargetError
from pmpkit.linear_tmin import (
    BangBangControl,
    TminOptions,
    _fast_endpoint,
    bang_bang_from_adjoint,
    local_optimality_probe,
    nearest_minima,
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
    # double integrator, eta0 = (cos th, sin th): g(t) = sin th - t cos th,
    # which is exactly 0 on the node t = 0.5 of the 801-node locator grid
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    di = LinearSystem(A, np.array([[0.0], [1.0]]), np.array([[-1.0, 1.0]]))
    theta = 0.4636476090008061
    assert math.sin(theta) == 0.5 * math.cos(theta)
    x, _ = _fast_endpoint(di, adjoint_decomp(A), np.zeros(2), theta, 2.0)
    # u = +1 on [0, 0.5], then -1 on [0.5, 2]
    assert np.allclose(x, [-0.25, -1.0], atol=1e-12)


@pytest.mark.parametrize("c", [0.999, 0.99999])
def test_close_pair_of_zeros_located(c):
    # rotation plus a constant mode: g(t) = sin t - c, whose zeros asin c and
    # pi - asin c lie 0.089 and 0.0089 apart (node spacing 2 pi / 800)
    sys = LinearSystem(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                       np.array([[0.0], [1.0], [1.0]]), np.array([[-1.0, 1.0]]))
    profile = bang_profile(sys, np.array([-1.0, 0.0, -c]), 2.0 * math.pi)
    want = [math.asin(c), math.pi - math.asin(c)]
    got = profile.channel_switch_times[0]
    assert len(got) == 2
    assert np.abs(got - want).max() < 1e-12
    assert profile.initial_signs[0] == -1.0


DOUBLE_INTEGRATOR = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 np.array([[0.0], [1.0]]), np.array([[-1.0, 1.0]]))


@pytest.mark.parametrize("sys", [
    OSC,
    DOUBLE_INTEGRATOR,      # not diagonalizable
    LinearSystem(np.array([[0.1, 1.0], [-1.5, -0.2]]), np.array([[1.0, 0.3], [0.0, 1.0]]),
                 np.array([[-1.0, 1.0], [-1.0, 1.0]])),
], ids=["oscillator", "double_integrator", "two_inputs"])
def test_fast_endpoint_jacobian_matches_central_differences(sys):
    decomp = adjoint_decomp(sys.A)
    x0 = np.array([0.3, -0.2])
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        theta, T = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 6.0)
        eta0 = np.array([math.cos(theta), math.sin(theta)])
        switches = np.concatenate(bang_profile(sys, eta0, T, decomp=decomp).channel_switch_times)
        if np.any((switches < 1e-3) | (switches > T - 1e-3)):
            continue
        _, J = _fast_endpoint(sys, decomp, x0, theta, T)
        h = 1e-6
        fd = np.column_stack([
            (_fast_endpoint(sys, decomp, x0, theta + h, T)[0]
             - _fast_endpoint(sys, decomp, x0, theta - h, T)[0]) / (2 * h),
            (_fast_endpoint(sys, decomp, x0, theta, T + h)[0]
             - _fast_endpoint(sys, decomp, x0, theta, T - h)[0]) / (2 * h),
        ])
        assert np.abs(J - fd).max() <= 1e-7 * (1.0 + np.abs(J).max())
        checked += 1


# ---------------------------------------------------------------------------
# solve_tmin


def test_solve_tmin_profile_count(monkeypatch):
    # one profile per Newton residual and Jacobian, not five
    calls = []
    profile = _bang.bang_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return profile(*args, **kwargs)

    monkeypatch.setattr(_bang, "bang_profile", counted)
    solve_tmin(OSC, [0.9, -0.4], [0.0, 0.0])
    assert len(calls) <= 130


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
