import math

import numpy as np
import pytest

from pmpkit.errors import IntegrationBlowUp
from pmpkit.ode import Trajectory, rk4_step


def test_rk4_step_fourth_order():
    # y' = y, one step from 1.0; local error must shrink like h^5
    rhs = lambda t, x: x
    errs = []
    for h in [0.1, 0.05, 0.025]:
        y = rk4_step(rhs, 0.0, np.array([1.0]), h)
        errs.append(abs(y[0] - math.exp(h)))
    rates = [math.log(errs[i] / errs[i + 1], 2) for i in range(2)]
    assert min(rates) > 4.7


def test_rk4_step_vector_rotation():
    rhs = lambda t, x: np.array([x[1], -x[0]])
    x = np.array([1.0, 0.0])
    h = 1e-3
    for k in range(1000):
        x = rk4_step(rhs, k * h, x, h)
    assert np.allclose(x, [math.cos(1.0), -math.sin(1.0)], atol=1e-12)


def test_rk4_step_blowup_raises():
    rhs = lambda t, x: x ** 3
    with np.errstate(over="ignore"), pytest.raises(IntegrationBlowUp):
        x = np.array([10.0])
        for k in range(100):
            x = rk4_step(rhs, 0.0, x, 10.0)


def test_rk4_step_blowup_message_plain_float():
    rhs = lambda t, x: x ** 3
    with np.errstate(over="ignore"), pytest.raises(IntegrationBlowUp,
                                                   match=r"at t=0\.5$"):
        rk4_step(rhs, np.float64(0.5), np.array([1e200]), 1.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
    tr = Trajectory(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
    assert tr.endpoint[0] == 2.0
