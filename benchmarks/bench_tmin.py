"""Time the minimal-time solvers and count their residual kernel calls.

The problems are the 40 tmin-linear pool inputs of perfbench's
oscillator-tmin workload, the double integrator (1, 0) -> 0, and the 30
tmin-spring pool inputs of the spring-shooting workload.  Each is solved
``--repeats`` times in this process; the best time is kept.  solve_tmin is
counted in bang_profile calls, spring_tmin_shoot in spring_integrate calls.
The spring pools run in workload order, so the first solve of each k2 fills
the scan cache and the best time of every solve is a warm one when
``--repeats`` > 1.  Prints one JSON object with the host block, per-solve
seconds and calls.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_tmin.py

Point PYTHONPATH at another checkout's ``src`` to measure that version on
the same inputs.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from pmpkit import _bang, kernels, linear_tmin, nonlinear  # noqa: E402
from pmpkit.linsys import LinearSystem  # noqa: E402


def solve_stats(module, name, solve, repeats):
    """(best seconds, calls of module.name per solve, solve result)."""
    calls = [0]
    counted_fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return counted_fn(*args, **kwargs)

    setattr(module, name, counted)
    try:
        best = float("inf")
        for _ in range(repeats):
            calls[0] = 0
            start = time.perf_counter()
            result = solve()
            best = min(best, time.perf_counter() - start)
    finally:
        setattr(module, name, counted_fn)
    return best, calls[0], result


def pool_block(times, calls, name):
    return {
        "solves": len(times),
        "median_solve_s": round(statistics.median(times), 4),
        "total_solve_s": round(sum(times), 3),
        f"{name}_calls": sum(calls),
        f"{name}_calls_median": statistics.median(calls),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="solves per problem, best kept (default 3)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    # the pool inputs name the built-in "linear_oscillator"
    osc = LinearSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
                       np.array([[-1.0, 1.0]]))
    times, calls = [], []
    for family in workloads.OSC_FAMILIES:
        for item in workloads.pool_candidates("oscillator-tmin", family):
            x0, x1 = item["config"]["x0"], item["config"]["x1"]
            t, n, _ = solve_stats(_bang, "bang_profile",
                                  lambda: linear_tmin.solve_tmin(osc, x0, x1), args.repeats)
            times.append(t)
            calls.append(n)
    di = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
                      np.array([[-1.0, 1.0]]))
    di_s, di_calls, di_sol = solve_stats(
        _bang, "bang_profile", lambda: linear_tmin.solve_tmin(di, [1.0, 0.0], [0.0, 0.0]), 1)
    spring_times, spring_calls = [], []
    for k2 in workloads.SPRING_K2:
        for item in workloads.pool_candidates("spring-shooting", k2):
            target = item["config"]["target"]
            t, n, _ = solve_stats(kernels, "spring_integrate",
                                  lambda: nonlinear.spring_tmin_shoot(k2, target),
                                  args.repeats)
            spring_times.append(t)
            spring_calls.append(n)
    print(json.dumps({
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "has_numba": kernels.HAS_NUMBA},
        "oscillator_pool": pool_block(times, calls, "bang_profile"),
        "double_integrator": {"solve_s": round(di_s, 3), "bang_profile_calls": di_calls,
                              "T_star": di_sol.T_star},
        "spring_pool": pool_block(spring_times, spring_calls, "spring_integrate"),
    }, indent=2))


if __name__ == "__main__":
    main()
