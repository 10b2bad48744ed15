import numpy as np
import pytest

from pmpkit import kernels
from pmpkit.nonlinear import _integrate_reversed_ode


@pytest.mark.parametrize("k2", [0.0, 2.0])
def test_scan_matches_reference_route_before_first_switch(k2):
    # until an angle's first p_y zero both routes take the same RK4 steps
    # with the same sign, so the rows agree to rounding; after it the scan
    # holds the sign for whole steps and is only a coarse table
    alphas = 2 * np.pi * np.arange(48) / 48
    table = kernels.spring_scan(k2, alphas, 0.01, 800)
    assert table.shape == (48, 801, 2)
    compared = 0
    for q, alpha in enumerate(alphas):
        times, states, switches = _integrate_reversed_ode(k2, alpha, 8.0, 0.01)
        m = np.searchsorted(times, switches[0]) if len(switches) else len(times)
        assert m >= 1
        assert np.abs(table[q, :m] - states[:m, :2]).max() < 1e-12
        compared += m
    assert compared > 48 * 50


def test_integrate_variants_agree():
    # the kernel against the reference route _integrate_reversed_ode, which
    # steps and bisects the p_y zeros on its own
    for alpha in [0.3, 1.9, 2.3, 4.4]:
        for tau in [3.1, 6.0]:
            z, t, sw, n, _ = kernels.spring_integrate(2.0, alpha, tau, 0.005)
            _, states, switches = _integrate_reversed_ode(2.0, alpha, tau, 0.005)
            assert t == tau
            assert n == len(switches)
            assert np.abs(z - states[-1]).max() < 1e-8
            if n > 0:
                assert np.abs(sw - switches).max() < 1e-8


@pytest.mark.parametrize("alpha, t_end, h", [
    (0.3, 6.0, 0.005), (1.9, 3.1, 0.005), (2.3, 10.0, 0.005),
    (4.4, 7.5, 0.004), (1.0, 6.5, 6.5 / 800), (5.9, 0.7, 0.003),
])
def test_reference_route_matches_linear_oracle(alpha, t_end, h):
    # k2 = 0: (p_x, p_y) = (sin(alpha - t), cos(alpha - t)) exactly, so the
    # switches fall at alpha - pi/2 + k pi
    times, states, switches = _integrate_reversed_ode(0.0, alpha, t_end, h)
    exact = alpha - np.pi / 2 + np.pi * np.arange(-2, 5)
    exact = exact[(exact > 0) & (exact < t_end)]
    assert len(switches) == len(exact)
    assert np.abs(switches - exact).max(initial=0.0) < 2e-9
    adjoint = np.column_stack([np.sin(alpha - times), np.cos(alpha - times)])
    assert np.abs(states[:, 2:] - adjoint).max() < 1e-9
    assert np.isin(switches, times).all()
    assert np.all(np.diff(times) > 0)
    assert times[-1] == t_end


def test_integrate_switch_times_are_py_zeros():
    # at a reported switch instant the adjoint component p_y crosses zero
    z, t, sw, n, _ = kernels.spring_integrate(2.0, 2.4, 6.0, 0.004)
    assert n >= 1
    for k in range(n):
        zz, _, _, _, _ = kernels.spring_integrate(2.0, 2.4, float(sw[k]), 0.004)
        assert abs(zz[3]) < 1e-8


@pytest.mark.parametrize("k2", [0.5, 2.0])
@pytest.mark.parametrize("alpha, t_end, switches", [
    (1.0, 1.7, 0), (0.3, 0.5, 0),
    (2.4, 1.7, 1), (1.9, 0.5, 1),
    (2.3, 6.0, 2), (1.9, 3.1, 2),
])
def test_integrate_jacobian_matches_central_differences(k2, alpha, t_end, switches):
    # J = [dz/dalpha, dz/dt_end] against central differences of the endpoint;
    # switches = 2 stands for two or more
    _, _, sw, n, J = kernels.spring_integrate(k2, alpha, t_end, 0.005)
    assert J.shape == (4, 2)
    assert min(n, 2) == switches
    assert all(1e-3 <= s <= t_end - 1e-3 for s in sw)
    d = 1e-6

    def endpoint(a, t):
        return kernels.spring_integrate(k2, a, t, 0.005)[0]

    J_fd = np.column_stack([
        (endpoint(alpha + d, t_end) - endpoint(alpha - d, t_end)) / (2 * d),
        (endpoint(alpha, t_end + d) - endpoint(alpha, t_end - d)) / (2 * d),
    ])
    assert np.abs(J - J_fd).max() <= 1e-6 * np.abs(J_fd).max()


def test_warm_up_idempotent():
    kernels.warm_up()
    kernels.warm_up()
