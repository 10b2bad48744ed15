import math

import numpy as np
import pytest

from pmpkit.errors import ChatteringError, IntegrationBlowUp
from pmpkit.ode import EventSpec, TimeGrid, Trajectory, integrate_with_events, rk4_step


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


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 2.0)
    g = TimeGrid(0.0, 1.0, 0.25)
    assert g.t1 == 1.0


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
    tr = Trajectory(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
    assert tr.endpoint[0] == 2.0


def test_event_localization_accuracy():
    # x' = 1 from -1: zero crossing at t = 1 exactly
    rhs = lambda t, x: np.array([1.0])
    grid = TimeGrid(0.0, 2.0, 0.01)
    event = EventSpec(lambda t, x: float(x[0]), 1e-9)
    traj, events = integrate_with_events(rhs, grid, np.array([-1.0]), event)
    assert len(events) == 1
    assert abs(events[0] - 1.0) < 1e-7
    # the event time is a sample of the trajectory
    assert np.min(np.abs(traj.times - events[0])) == 0.0


def test_event_on_oscillating_function():
    # x' = cos t from 0: x = sin t, zeros at multiples of pi
    rhs = lambda t, x: np.array([math.cos(t)])
    grid = TimeGrid(0.0, 10.0, 0.01)
    event = EventSpec(lambda t, x: float(x[0]), 1e-9)
    _, events = integrate_with_events(rhs, grid, np.array([0.0]), event)
    expected = [math.pi, 2 * math.pi, 3 * math.pi]
    assert len(events) == 3
    assert np.allclose(events, expected, atol=1e-6)


def test_stop_at_first_event():
    rhs = lambda t, x: np.array([math.cos(t)])
    grid = TimeGrid(0.0, 10.0, 0.01)
    event = EventSpec(lambda t, x: float(x[0]), 1e-9)
    traj, events = integrate_with_events(rhs, grid, np.array([0.0]), event,
                                         stop_at_first_event=True)
    assert len(events) == 1
    assert abs(traj.t1 - events[0]) < 1e-12


def test_chattering_guard():
    rhs = lambda t, x: np.array([50.0 * math.cos(50.0 * t)])
    grid = TimeGrid(0.0, 100.0, 0.01)
    event = EventSpec(lambda t, x: float(x[0]) - 0.5, 1e-9)
    with pytest.raises(ChatteringError):
        integrate_with_events(rhs, grid, np.array([0.0]), event, max_events=20)


def test_no_event_returns_plain_grid():
    rhs = lambda t, x: -x
    grid = TimeGrid(0.0, 1.0, 0.01)
    traj, events = integrate_with_events(rhs, grid, np.array([1.0]))
    assert events == []
    assert len(traj.times) == 101
    assert abs(traj.endpoint[0] - math.exp(-1.0)) < 1e-9


def test_strictly_increasing_samples_with_events():
    rhs = lambda t, x: np.array([math.cos(t)])
    grid = TimeGrid(0.0, 10.0, 0.01)
    event = EventSpec(lambda t, x: float(x[0]), 1e-9)
    traj, _ = integrate_with_events(rhs, grid, np.array([0.0]), event)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.t1 == 10.0
