import dataclasses
import math

import numpy as np
import pytest

import oracles
from pmpkit import kernels, linear_tmin, nonlinear
from pmpkit.errors import IntegrationBlowUp, UnreachableTargetError
from pmpkit.linsys import ControlSignal, LinearSystem, simulate
from pmpkit.nonlinear import (
    BoundaryManifold,
    ControlSystem,
    Extremal,
    SpringShootOptions,
    check_extremal,
    extremal_rhs,
    from_linear,
    hamiltonian,
    io_differential,
    io_differential_mpath,
    linearize,
    local_controllability,
    make_system,
    simulate_nonlinear,
    singularity_test,
    spring_tmin_shoot,
)
from pmpkit.ode import Trajectory

OSC = LinearSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                   np.array([[0.0], [1.0]]),
                   np.array([[-1.0, 1.0]]))


def pendulum_like():
    """Planar system with x-dependent Jacobians and coupled control."""
    def f(x, u):
        return np.array([x[1] + 0.1 * u[0], -math.sin(x[0]) + u[0]])
    return ControlSystem(n=2, m=1, f=f, f0=lambda x, u: 1.0 + 0.5 * u[0] ** 2)


# ---------------------------------------------------------------------------
# Hamiltonian algebra


def test_hamiltonian_value():
    sys = make_system("nonlinear_spring", k2=2.0)
    x = np.array([0.4, -0.3])
    p = np.array([1.1, 0.7])
    u = np.array([0.5])
    # H = p1*y + p2*(-x - 2x^3 + u) + p0
    want = 1.1 * (-0.3) + 0.7 * (-0.4 - 2 * 0.064 + 0.5) - 1.0
    assert abs(hamiltonian(sys, x, p, -1.0, u) - want) < 1e-14


def test_extremal_rhs_matches_fd_jacobians():
    # provided analytic Jacobians against the FD-fallback construction
    sys = pendulum_like()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(2)
        p = rng.standard_normal(2)
        u = rng.standard_normal(1)
        xd, pd = extremal_rhs(sys, x, p, u, p0=-1.0)
        assert np.allclose(xd, sys.f(x, u), atol=1e-14)
        # p' = -df_dx^T p - p0 df0_dx with df0_dx = 0 for this cost
        J = np.array([[0.0, 1.0], [-math.cos(x[0]), 0.0]])
        assert np.allclose(pd, -J.T @ p, atol=1e-6)


def test_hamiltonian_constant_along_extremal_flow():
    # integrate (x, p) with a frozen control: H(t) stays at H(0)
    sys = make_system("nonlinear_spring", k2=2.0)
    z = np.array([0.3, -0.2, 0.8, 0.6])
    u = np.array([1.0])
    h = 1e-3
    H0 = hamiltonian(sys, z[:2], z[2:], -1.0, u)

    def step(z):
        def rhs(zz):
            xd, pd = extremal_rhs(sys, zz[:2], zz[2:], u)
            return np.concatenate([xd, pd])
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        return z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    for _ in range(1000):
        z = step(z)
    assert abs(hamiltonian(sys, z[:2], z[2:], -1.0, u) - H0) < 1e-10


def test_from_linear_wraps_dynamics():
    sys = from_linear(OSC)
    x = np.array([0.5, -0.1])
    u = np.array([0.7])
    assert np.allclose(sys.f(x, u), OSC.A @ x + (OSC.B @ u))
    assert sys.f0(x, u) == 1.0
    assert np.array_equal(sys.omega, OSC.control_bounds)


def test_registry_names():
    assert local_controllability(make_system("linear_oscillator"))
    assert local_controllability(make_system("nonlinear_spring", k2=2.0))
    with pytest.raises(ValueError):
        make_system("unknown_thing")
    with pytest.raises(ValueError, match="k2"):
        make_system("linear_oscillator", k2=1.0)


def test_local_controllability_requires_equilibrium():
    def f(x, u):
        return np.array([1.0 + x[1], u[0]])
    sys = ControlSystem(n=2, m=1, f=f, f0=lambda x, u: 1.0)
    with pytest.raises(ValueError, match="equilibrium"):
        local_controllability(sys)


def test_local_controllability_negative_case():
    # both states driven identically: linearization is rank deficient
    def f(x, u):
        return np.array([u[0], u[0]])
    sys = ControlSystem(n=2, m=1, f=f, f0=lambda x, u: 1.0)
    assert not local_controllability(sys)


# ---------------------------------------------------------------------------
# simulation and linearization


def test_simulate_nonlinear_matches_linear_exact():
    sys = from_linear(OSC)
    u = ControlSignal([0.0, 1.0, 2.5], [[-1.0], [0.5]])
    ref = simulate(OSC, [0.4, 0.2], u, 2.5).endpoint
    got = simulate_nonlinear(sys, [0.4, 0.2], u, 2.5, n_steps=4000).endpoint
    assert np.linalg.norm(got - ref) < 1e-10


def test_linearize_fundamental_matrix_lti():
    # for an LTI reference, M(T) = e^{TA} regardless of the control
    sys = from_linear(OSC)
    u = ControlSignal([0.0, 0.7, 1.5], [[0.3], [-0.9]])
    lin = linearize(sys, u, [0.1, 0.0], 1.5, n_steps=2000)
    assert np.abs(lin.M[-1] - oracles.expm_oracle(OSC.A, 1.5)).max() < 1e-10


def test_linearize_fundamental_matrix_matches_endpoint_differences():
    # M(T) is the Jacobian of the RK4 endpoint in x0, checked by central
    # differences of simulate_nonlinear, which carries no M.  Measured
    # 1.4e-10; taking the second stage's Jacobian for the third gives 1.1e-7
    sys = make_system("nonlinear_spring", k2=2.0)
    T = 3.0
    u = ControlSignal([0.0, 0.8, 2.1, T], [[0.7], [-1.0], [0.4]])
    x0 = np.array([0.3, -0.2])
    lin = linearize(sys, u, x0, T, n_steps=4000)
    fd = np.empty((2, 2))
    eps = 1e-5
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = eps
        hi = simulate_nonlinear(sys, x0 + dx, u, T, n_steps=4000).endpoint
        lo = simulate_nonlinear(sys, x0 - dx, u, T, n_steps=4000).endpoint
        fd[:, j] = (hi - lo) / (2.0 * eps)
    assert np.abs(lin.M[-1] - fd).max() <= 1e-8 * np.abs(fd).max()
    # the reference is simulate_nonlinear's trajectory, bit for bit
    ref = simulate_nonlinear(sys, x0, u, T, n_steps=4000)
    assert np.array_equal(lin.reference.times, ref.times)
    assert np.array_equal(lin.reference.states, ref.states)


def test_linearize_node_jacobians_use_node_controls():
    # At and Bt are the Jacobians at each node under the right-continuous
    # control, also at t = 0 when a breakpoint within 1e-14 T of 0 is
    # dropped from the nodes and the first cell holds the second value.  The
    # control sets the stiffness, so that df_dx depends on u
    sys = ControlSystem(
        n=2, m=1, f=lambda x, u: np.array([x[1], -u[0] * x[0]]),
        f0=lambda x, u: 1.0,
        df_dx=lambda x, u: np.array([[0.0, 1.0], [-u[0], 0.0]]),
        df_du=lambda x, u: np.array([[0.0], [-x[0]]]))
    T = 3.0
    u = ControlSignal([0.0, 1e-16, 1.0, T], [[0.5], [2.0], [0.7]])
    lin = linearize(sys, u, [0.1, 0.2], T, n_steps=400)
    node_u = [u.evaluate(t) for t in lin.times]
    At = [sys.df_dx(x, v) for x, v in zip(lin.reference.states, node_u)]
    Bt = [sys.df_du(x, v) for x, v in zip(lin.reference.states, node_u)]
    assert np.array_equal(lin.At, np.reshape(At, lin.At.shape))
    assert np.array_equal(lin.Bt, np.reshape(Bt, lin.Bt.shape))


def test_linearize_blowup_step():
    # x' = x^2 from x = 1 blows up at t = 1; RK4 with h = 5e-4 overflows in
    # the step from t = 1.001
    sys = ControlSystem(n=1, m=1, f=lambda x, u: x ** 2 + u, f0=lambda x, u: 1.0)
    with pytest.raises(IntegrationBlowUp, match=r"at t=1\.001$"):
        linearize(sys, ControlSignal.constant([0.0], 2.0), [1.0], 2.0, n_steps=4000)


def test_io_differential_linear_in_v():
    sys = make_system("nonlinear_spring", k2=2.0)
    u = ControlSignal([0.0, 1.0], [[0.2]])
    lin = linearize(sys, u, [0.1, -0.2], 1.0, n_steps=1500)
    v1 = ControlSignal([0.0, 0.4, 1.0], [[1.0], [-0.3]])
    v2 = ControlSignal([0.0, 0.6, 1.0], [[-0.5], [0.8]])
    y1 = io_differential(lin, v1)
    y2 = io_differential(lin, v2)
    vc = ControlSignal.linear_combination(2.0, v1, -1.5, v2)
    yc = io_differential(lin, vc)
    assert np.linalg.norm(yc - (2.0 * y1 - 1.5 * y2)) < 1e-9


def test_io_differential_two_paths_agree():
    sys = make_system("nonlinear_spring", k2=2.0)
    rng = np.random.default_rng(17)
    for _ in range(3):
        T = 1.4
        bks = np.sort(np.concatenate([[0.0, T], rng.uniform(0, T, 2)]))
        u = ControlSignal(bks, rng.uniform(-1, 1, (3, 1)))
        v = ControlSignal([0.0, 0.5 * T, T], rng.uniform(-1, 1, (2, 1)))
        lin = linearize(sys, u, rng.uniform(-0.3, 0.3, 2), T, n_steps=2000)
        y_direct = io_differential(lin, v)
        y_mpath = io_differential_mpath(lin, v)
        assert np.linalg.norm(y_direct - y_mpath) < 1e-8


def test_io_differential_fd_convergence():
    sys = make_system("nonlinear_spring", k2=2.0)
    T = 1.2
    u = ControlSignal([0.0, 0.5, T], [[0.4], [-0.6]])
    v = ControlSignal([0.0, 0.8, T], [[1.0], [0.5]])
    x0 = [0.15, -0.1]
    lin = linearize(sys, u, x0, T, n_steps=2500)
    y = io_differential(lin, v)
    base = simulate_nonlinear(sys, x0, u, T, n_steps=2500).endpoint
    knots = np.union1d(u.breakpoints, v.breakpoints)
    mids = 0.5 * (knots[:-1] + knots[1:])
    errs = []
    for eps in [1e-2, 1e-3, 1e-4]:
        vals = np.array([u.evaluate(s) + eps * v.evaluate(s) for s in mids])
        pert = simulate_nonlinear(sys, x0, ControlSignal(knots, vals), T,
                                  n_steps=2500).endpoint
        errs.append(np.linalg.norm((pert - base) / eps - y))
    orders = [math.log(errs[i] / errs[i + 1], 10) for i in range(2)]
    assert min(orders) >= 1.0 - 1e-3


def test_io_differential_blowup_step():
    # x' = x^2 from x = 2 blows up at t = 0.5; io_differential integrates its
    # own reference from lin.x0, so it raises where that one overflows
    sys = ControlSystem(n=1, m=1, f=lambda x, u: x ** 2 + u, f0=lambda x, u: 1.0)
    u = ControlSignal.constant([0.0], 0.9)
    lin = dataclasses.replace(linearize(sys, u, [1.0], 0.9, n_steps=400),
                              x0=np.array([2.0]))
    with pytest.raises(IntegrationBlowUp, match=r"at t=0\.504$"):
        io_differential(lin, ControlSignal.constant([1.0], 0.9))


def test_singularity_regular_for_controllable_reference():
    sys = make_system("nonlinear_spring", k2=2.0)
    u = ControlSignal([0.0, 1.0], [[0.3]])
    lin = linearize(sys, u, [0.0, 0.0], 1.0)
    res = singularity_test(lin)
    assert res.regular
    assert res.rank == 2
    assert res.singular_values[0] > 0


def test_singularity_detects_rank_deficiency():
    # control enters only the first state; second stays autonomous
    def f(x, u):
        return np.array([u[0] - x[0], -x[1]])
    sys = ControlSystem(n=2, m=1, f=f, f0=lambda x, u: 1.0)
    u = ControlSignal([0.0, 1.0], [[0.5]])
    lin = linearize(sys, u, [0.2, 0.4], 1.0)
    res = singularity_test(lin)
    assert res.status == "singular"
    assert res.rank == 1


# ---------------------------------------------------------------------------
# check_extremal


def analytic_oscillator_extremal(n_samples=801, tau0=2.0):
    """Exact one-arc bang-bang extremal of the oscillator, u = -1.

    State runs clockwise on the circle centered (-1, 0) into the origin at
    time tau0; the adjoint is the rotating vector whose control component
    p_y stays negative on (0, tau0); p0 = -1 makes max_v H vanish exactly.
    """
    phi = (math.pi - tau0) / 2.0
    c = 1.0 / math.cos(tau0 / 2.0)
    times = np.linspace(0.0, tau0, n_samples)
    states = np.column_stack([-1.0 + np.cos(tau0 - times), np.sin(tau0 - times)])
    adj = np.column_stack([c * np.cos(times + phi), -c * np.sin(times + phi)])
    control = ControlSignal([0.0, tau0], [[-1.0]])
    return Extremal(Trajectory(times, states), Trajectory(times.copy(), adj),
                    -1.0, control, "free-time")


def test_check_extremal_analytic_passes():
    sys = make_system("linear_oscillator")
    ext = analytic_oscillator_extremal()
    report = check_extremal(
        sys, ext,
        m0=BoundaryManifold.point(ext.trajectory.states[0]),
        m1=BoundaryManifold.point([0.0, 0.0]),
    )
    assert report.state_residual <= 1e-6
    assert report.adjoint_residual <= 1e-6
    assert report.max_condition_residual <= 1e-6
    assert report.hamiltonian_residual <= 1e-6
    assert report.transversality_initial == 0.0
    assert report.transversality_final == 0.0
    assert report.nontriviality_margin > 1.0
    assert not report.abnormal
    assert report.passes(1e-6)
    assert type(report.state_residual) is float
    assert type(report.adjoint_residual) is float


def test_check_extremal_flipped_control_fails():
    sys = make_system("linear_oscillator")
    ext = analytic_oscillator_extremal()
    flipped = Extremal(ext.trajectory, ext.adjoint, ext.p0,
                       ControlSignal([0.0, 2.0], [[1.0]]), "free-time")
    report = check_extremal(sys, flipped)
    assert report.max_condition_residual > 0.1


def test_check_extremal_affine_flag_keeps_report():
    # on a control-affine system the vertex-only maximum gives the same
    # report as the scan with bisection
    sys = make_system("linear_oscillator")
    assert sys.control_affine
    ext = analytic_oscillator_extremal()
    flipped = Extremal(ext.trajectory, ext.adjoint, ext.p0,
                       ControlSignal([0.0, 2.0], [[1.0]]), "free-time")
    general = dataclasses.replace(sys, control_affine=False)
    for e in (ext, flipped):
        assert check_extremal(sys, e) == check_extremal(general, e)


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_check_extremal_interior_maximiser(p):
    # x' = u with cost 1 + u^2/2 on [-1, 1]: with p0 = -1, H = p u - 1 - u^2/2
    # peaks at the interior point u = p, so the vertex control u = 1 misses
    # the maximum by H(p) - H(1) = (1 - p)^2 / 2; u = 1/2 is a node of the
    # 17-point scan, u = 0.3 is found by bisection
    sys = ControlSystem(
        n=1, m=1,
        f=lambda x, u: np.array([u[0]]),
        f0=lambda x, u: 1.0 + 0.5 * u[0] ** 2,
        df_dx=lambda x, u: np.zeros((1, 1)),
        df_du=lambda x, u: np.ones((1, 1)),
        df0_dx=lambda x, u: np.zeros(1),
        df0_du=lambda x, u: np.array([u[0]]),
        omega=np.array([[-1.0, 1.0]]),
    )
    assert not sys.control_affine
    times = np.linspace(0.0, 1.0, 11)
    ext = Extremal(Trajectory(times, times.reshape(-1, 1)),
                   Trajectory(times.copy(), np.full((11, 1), p)),
                   -1.0, ControlSignal([0.0, 1.0], [[1.0]]), "fixed-time")
    report = check_extremal(sys, ext)
    assert report.max_condition_residual > 0
    assert abs(report.max_condition_residual - 0.5 * (1.0 - p) ** 2) <= 1e-9


def test_check_extremal_fixed_time_uses_constancy():
    sys = make_system("linear_oscillator")
    ext = analytic_oscillator_extremal()
    fixed = Extremal(ext.trajectory, ext.adjoint, ext.p0, ext.control,
                     "fixed-time")
    report = check_extremal(sys, fixed)
    assert report.hamiltonian_residual <= 1e-6


def test_check_extremal_grid_mismatch_rejected():
    sys = make_system("linear_oscillator")
    ext = analytic_oscillator_extremal()
    bad_adjoint = Trajectory(ext.adjoint.times * 1.001, ext.adjoint.states)
    with pytest.raises(ValueError, match="grid mismatch"):
        check_extremal(sys, Extremal(ext.trajectory, bad_adjoint, -1.0,
                                     ext.control, "free-time"))


def test_check_extremal_transversality_affine_manifold():
    sys = make_system("linear_oscillator")
    ext = analytic_oscillator_extremal()
    # manifold tangent along p(T): orthogonality fails by |<p, b>|
    p_T = ext.adjoint.states[-1]
    m1 = BoundaryManifold.affine([0.0, 0.0], [p_T / np.linalg.norm(p_T)])
    report = check_extremal(sys, ext, m1=m1)
    assert report.transversality_final > 0.5
    # manifold tangent orthogonal to p(T): passes
    b = np.array([-p_T[1], p_T[0]]) / np.linalg.norm(p_T)
    report2 = check_extremal(sys, ext, m1=BoundaryManifold.affine([0.0, 0.0], [b]))
    assert report2.transversality_final <= 1e-12


def test_check_extremal_stationarity_unbounded():
    # energy-cost extremal of the unbounded oscillator: u* = p_y, found by
    # integrating the coupled system; stationarity residual shrinks with the
    # control grid because the stored control is piecewise constant
    sys_lin = LinearSystem(OSC.A, OSC.B, None)
    sys = ControlSystem(
        n=2, m=1,
        f=lambda x, u: OSC.A @ x + OSC.B @ u,
        f0=lambda x, u: 0.5 * float(u[0]) ** 2,
        df_dx=lambda x, u: OSC.A,
        df_du=lambda x, u: OSC.B,
        df0_dx=lambda x, u: np.zeros(2),
        df0_du=lambda x, u: np.array([float(u[0])]),
        omega=None,
    )
    T = 1.0
    resids = []
    for n_cells in [200, 400]:
        times = np.linspace(0.0, T, n_cells + 1)
        z = np.array([0.3, 0.0, 0.4, 0.8])
        states = [z[:2].copy()]
        adj = [z[2:].copy()]
        vals = []
        h = T / n_cells

        def rhs(zz):
            u = zz[3]
            return np.array([zz[1], -zz[0] + u, zz[3], -zz[2]])

        for _ in range(n_cells):
            mid = z + 0.5 * h * rhs(z)
            vals.append([mid[3]])
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            z = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(z[:2].copy())
            adj.append(z[2:].copy())
        ext = Extremal(Trajectory(times, np.array(states)),
                       Trajectory(times.copy(), np.array(adj)),
                       -1.0, ControlSignal(times, np.array(vals)),
                       "fixed-time")
        report = check_extremal(sys, ext)
        assert report.stationarity_residual is not None
        resids.append(report.stationarity_residual)
    # the stored control is the cell-midpoint value, so the nodewise
    # stationarity defect is ~ h/2 * |p_y'| and halves with the grid
    assert resids[1] < 0.6 * resids[0]
    assert resids[1] < 2e-3


# ---------------------------------------------------------------------------
# batched check_extremal against the per-sample loop


def loop_report(sys, ext, *manifolds):
    """check_extremal through the per-sample loop, which stays the reference."""
    report = check_extremal(dataclasses.replace(sys, vectorized=False), ext, *manifolds)
    assert all(type(v) is float for v in (report.state_residual, report.adjoint_residual,
                                          report.max_condition_residual,
                                          report.hamiltonian_residual))
    return report


def assert_same_report(sys, ext, *manifolds):
    assert sys.vectorized
    batched, loop = check_extremal(sys, ext, *manifolds), loop_report(sys, ext, *manifolds)
    assert batched == loop
    # the same values and the same types, so the JSON reports match byte for byte
    assert repr(batched.to_json_dict()) == repr(loop.to_json_dict())
    return batched


@pytest.mark.parametrize("k2", [0.0, 0.5, 2.0])
def test_batched_check_matches_loop_spring(k2):
    target = np.array([0.5, -0.3])
    sol, ext = spring_tmin_shoot(k2, target)
    assert len(sol.switch_times) >= 1
    report = assert_same_report(nonlinear._spring_system(k2), ext,
                                BoundaryManifold.point(target),
                                BoundaryManifold.point([0.0, 0.0]))
    assert report == sol.report
    fixed = Extremal(ext.trajectory, ext.adjoint, ext.p0, ext.control, "fixed-time")
    assert_same_report(nonlinear._spring_system(k2), fixed)


TWO_INPUT = LinearSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2),
                         np.array([[-1.0, 1.0], [-1.0, 1.0]]))


@pytest.mark.parametrize("sys_lin, eta0, T", [
    (OSC, [0.6, -0.8], 4.0),
    (LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
                  np.array([[-1.0, 1.0]])), [1.0, 1.0], 2.5),
    (TWO_INPUT, [1.0, 0.2], 3.0),
], ids=["oscillator", "double_integrator", "two_input"])
def test_batched_check_matches_loop_from_linear(sys_lin, eta0, T):
    from pmpkit.linear_tmin import bang_bang_from_adjoint
    u, traj, adjoint = bang_bang_from_adjoint(sys_lin, eta0, T, x0=[0.4, -0.2],
                                              sample_step=0.01)
    assert len(u.breakpoints) > 2
    for kind in ("free-time", "fixed-time"):
        ext = Extremal(traj, adjoint, -1.0, u, kind)
        assert_same_report(from_linear(sys_lin), ext,
                           BoundaryManifold.point(traj.states[0]),
                           BoundaryManifold.affine(traj.states[-1], [[1.0, 0.0]]))


def test_batched_check_matches_loop_unbounded():
    # stationarity route: from_linear with no control box (constant
    # Jacobians), and an energy-cost system whose f0 and df0_du vary per sample
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 2.0, 201)
    u = ControlSignal(times, rng.uniform(-1.0, 1.0, (200, 1)))
    traj = simulate(LinearSystem(OSC.A, OSC.B, None), [0.3, 0.1], u, 2.0,
                    max_sample_step=0.01)
    adjoint = Trajectory(times.copy(), np.column_stack([np.cos(times), np.sin(times)]))
    energy = ControlSystem(
        n=2, m=1,
        f=lambda x, u: np.array([x[1], -x[0] + u[0]]),
        f0=lambda x, u: 0.5 * u[0] * u[0],
        df_dx=lambda x, u: OSC.A,
        df_du=lambda x, u: OSC.B,
        df0_dx=lambda x, u: np.zeros(2),
        df0_du=lambda x, u: np.array([u[0]]),
        vectorized=True,
    )
    for sys in (from_linear(LinearSystem(OSC.A, OSC.B, None), time_cost=False), energy):
        assert sys.omega is None
        report = assert_same_report(sys, Extremal(traj, adjoint, -1.0, u, "fixed-time"))
        assert report.stationarity_residual > 0


def test_batched_check_blowup_matches_loop():
    ext = analytic_oscillator_extremal(n_samples=101)
    states = ext.trajectory.states.copy()
    states[37] = [1e120, 0.0]
    bad = Extremal(Trajectory(ext.trajectory.times, states), ext.adjoint, -1.0,
                   ext.control, "free-time")
    sys = make_system("nonlinear_spring", k2=2.0)
    with pytest.raises(IntegrationBlowUp) as batched:
        check_extremal(sys, bad)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationBlowUp) as loop:
        loop_report(sys, bad)
    assert str(batched.value) == str(loop.value)
    assert repr(float(ext.trajectory.times[37])) in str(batched.value)


def test_batched_check_skips_zero_length_cell():
    # a repeated sample makes a zero-length cell, which neither route steps
    # over: the report is that of the grid without the repeat
    ext = analytic_oscillator_extremal(n_samples=101)
    rows = np.insert(np.arange(101), 50, 50)
    repeated = Extremal(Trajectory(ext.trajectory.times, ext.trajectory.states),
                        Trajectory(ext.adjoint.times, ext.adjoint.states),
                        ext.p0, ext.control, "free-time")
    for traj, source in ((repeated.trajectory, ext.trajectory),
                         (repeated.adjoint, ext.adjoint)):
        traj.times = source.times[rows]
        traj.states = source.states[rows]
    sys = make_system("nonlinear_spring", k2=2.0)
    report = assert_same_report(sys, repeated)
    assert report == check_extremal(sys, ext)


def test_vectorized_spring_matches_single_samples():
    # columns carry the bits of one sample at a time, also where numpy's
    # array power rounds differently from the scalar one
    rng = np.random.default_rng(5)
    X = 3.0 * rng.standard_normal((2, 4000))
    U = rng.uniform(-1.0, 1.0, (1, 4000))
    for k2 in (0.5, 2.0):
        sys = nonlinear._spring_system(k2)
        J = sys.df_dx(X, U)
        assert J.shape == (2, 2, 4000)
        assert np.array_equal(J, np.stack([sys.df_dx(X[:, k], U[:, k])
                                           for k in range(4000)], axis=-1))
        assert np.array_equal(sys.f(X, U), np.stack([sys.f(X[:, k], U[:, k])
                                                     for k in range(4000)], axis=-1))
    lin = from_linear(TWO_INPUT)
    U2 = rng.uniform(-1.0, 1.0, (2, 4000))
    assert np.array_equal(lin.f(X, U2), np.stack([lin.f(X[:, k], U2[:, k])
                                                  for k in range(4000)], axis=-1))


def test_vectorized_requires_jacobians():
    with pytest.raises(ValueError, match="Jacobians"):
        ControlSystem(n=1, m=1, f=lambda x, u: u, f0=lambda x, u: 1.0, vectorized=True)


# ---------------------------------------------------------------------------
# spring shooting


def test_spring_trivial_target():
    sol, ext = spring_tmin_shoot(2.0, [0.0, 0.0])
    assert sol.T_star == 0.0
    assert len(sol.switch_times) == 0
    assert sol.report.passes(1e-6)


def test_spring_params_validation():
    with pytest.raises(ValueError):
        spring_tmin_shoot(-1.0, [0.1, 0.0])
    with pytest.raises(ValueError):
        spring_tmin_shoot(2.0, [0.1, np.nan])


def test_spring_k2_zero_matches_linear_solver():
    from pmpkit.linear_tmin import solve_tmin
    rng = np.random.default_rng(4)
    for _ in range(3):
        tgt = rng.uniform(-1.0, 1.0, 2)
        sol_s, _ = spring_tmin_shoot(0.0, tgt)
        sol_l = solve_tmin(OSC, tgt, [0.0, 0.0])
        assert abs(sol_s.T_star - sol_l.T_star) < 1e-5


def test_spring_self_consistency_with_switches():
    k2 = 2.0
    z, switches = oracles.spring_backward_state(k2, math.pi, 2.2)
    sol, ext = spring_tmin_shoot(k2, z[:2])
    assert abs(sol.T_star - 2.2) < 1e-4
    assert np.linalg.norm(ext.trajectory.states[0] - z[:2]) < 1e-6
    assert len(sol.switch_times) == len(switches)
    assert sol.report.hamiltonian_residual <= 1e-6
    assert sol.report.max_condition_residual <= 1e-6
    # forward control is +-1 valued
    u = ext.control
    assert np.all(np.abs(np.abs(u.values) - 1.0) < 1e-14)


def test_spring_solution_json_keys():
    sol, _ = spring_tmin_shoot(2.0, [0.4, 0.1])
    d = sol.to_json_dict()
    assert set(d) == {"T", "alpha", "switch_times", "endpoint_error"}


def test_spring_unreachable_horizon(monkeypatch):
    # the failure reports the nearest seed of the last round, without a
    # further scan on a doubled grid
    calls = []
    scan = nonlinear._scan_states

    def counted(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(nonlinear, "_scan_states", counted)
    with pytest.raises(UnreachableTargetError) as exc:
        spring_tmin_shoot(2.0, [40.0, 0.0],
                          options=SpringShootOptions(n_alphas=90, n_steps=400,
                                                     t_max=2.0))
    assert len(calls) == 1 + linear_tmin._REFINE_ROUNDS
    assert exc.value.best_residual > 1.0
    alpha, t = exc.value.best_candidate
    assert 0.0 <= alpha < 2.0 * math.pi and 0.0 < t <= 2.0


def test_failing_solve_caches_only_first_round(monkeypatch):
    # the refinement rounds' larger tables are not kept after the solve
    monkeypatch.setattr(nonlinear, "_SCAN_CACHE", {})
    with pytest.raises(UnreachableTargetError):
        spring_tmin_shoot(2.0, [40.0, 0.0],
                          options=SpringShootOptions(n_alphas=90, n_steps=400,
                                                     t_max=2.0))
    assert list(nonlinear._SCAN_CACHE) == [(2.0, 90, 2.0, 400)]


@pytest.mark.parametrize("k2", [0.5, 2.0])
def test_spring_single_arc_target(k2):
    # the alpha = 0 extremal does not switch before t = 0.8, so its state
    # there is reached in T* = 0.8 on one arc, where the endpoint does not
    # depend on alpha and the alpha column of the shooting Jacobian vanishes
    z, _, _, n, _ = kernels.spring_integrate(k2, 0.0, 0.8, 0.005)
    assert n == 0
    sol, _ = spring_tmin_shoot(k2, z[:2])
    assert abs(sol.T_star - 0.8) <= 1e-9
    assert len(sol.switch_times) == 0


def test_spring_solve_integration_count(monkeypatch):
    # Newton takes its Jacobian from the integration it runs anyway, and no
    # run goes on past a root already found: 18 spring_integrate calls in
    # this warm solve, against 50 without the seed triage and 202 with the
    # central-difference Jacobian (4 more integrations per iterate)
    spring_tmin_shoot(2.0, (0.5, -0.3))
    calls = []
    integrate = kernels.spring_integrate

    def counted(*args):
        calls.append(1)
        return integrate(*args)

    monkeypatch.setattr(kernels, "spring_integrate", counted)
    spring_tmin_shoot(2.0, (0.5, -0.3))
    assert 0 < len(calls) <= 30


def test_spring_endpoint_on_state_not_adjoint():
    # adjoint magnitude is free; rescaling must not affect the state path
    sol, ext = spring_tmin_shoot(2.0, [0.5, -0.3])
    assert sol.endpoint_error <= 1e-8 * (1.0 + np.linalg.norm([0.5, -0.3]))
    assert np.allclose(ext.trajectory.endpoint, [0.0, 0.0], atol=1e-7)
    assert sol.p0 == -1.0
