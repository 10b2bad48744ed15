import os
import subprocess
import sys

import numpy as np

from pmpkit import kernels
from pmpkit.nonlinear import _integrate_reversed_ode


def test_scan_variants_agree():
    alphas = 2 * np.pi * np.arange(48) / 48
    a = kernels.spring_scan_jit(2.0, alphas, 0.01, 800)
    b = kernels.spring_scan_py(2.0, alphas, 0.01, 800)
    assert a.shape == (48, 801, 2)
    assert np.abs(a - b).max() < 1e-10


def test_integrate_variants_agree():
    # the kernel against the event route through ode.py, which locates the
    # p_y zeros on its own
    for alpha in [0.3, 1.9, 2.3, 4.4]:
        for tau in [3.1, 6.0]:
            z, t, sw, n = kernels.spring_integrate(2.0, alpha, tau, 0.005)
            _, states, switches = _integrate_reversed_ode(2.0, alpha, tau, 0.005)
            assert t == tau
            assert n == len(switches)
            assert np.abs(z - states[-1]).max() < 1e-8
            if n > 0:
                assert np.abs(sw - switches).max() < 1e-8


def test_integrate_switch_times_are_py_zeros():
    # at a reported switch instant the adjoint component p_y crosses zero
    z, t, sw, n = kernels.spring_integrate(2.0, 2.4, 6.0, 0.004)
    assert n >= 1
    for k in range(n):
        zz, _, _, _ = kernels.spring_integrate(2.0, 2.4, float(sw[k]), 0.004)
        assert abs(zz[3]) < 1e-8


def test_env_flag_disables_numba():
    env = dict(os.environ, PMPKIT_NO_NUMBA="1")
    code = (
        "from pmpkit import kernels\n"
        "assert not kernels.HAS_NUMBA\n"
        "assert kernels.spring_scan is kernels.spring_scan_py\n"
        "import numpy as np\n"
        "xy = kernels.spring_scan(2.0, np.array([0.5, 2.0]), 0.01, 200)\n"
        "assert xy.shape == (2, 201, 2)\n"
        "print('fallback ok')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "fallback ok" in out.stdout


def test_warm_up_idempotent():
    kernels.warm_up()
    kernels.warm_up()
