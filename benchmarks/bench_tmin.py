"""Time solve_tmin and count its bang_profile calls on fixed planar problems.

The problems are the 40 tmin-linear pool inputs of perfbench's
oscillator-tmin workload and the double integrator (1, 0) -> 0.  Each is
solved ``--repeats`` times in this process; the best time is kept.  Prints
one JSON object with the host block, per-solve seconds and bang_profile
calls.  Run from the repository root:

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
from pmpkit import _bang, kernels, linear_tmin  # noqa: E402
from pmpkit.linsys import LinearSystem  # noqa: E402


def solve_stats(system, x0, x1, repeats):
    """(best seconds, bang_profile calls, T*) of one solve."""
    calls = [0]
    profile = _bang.bang_profile

    def counted(*args, **kwargs):
        calls[0] += 1
        return profile(*args, **kwargs)

    _bang.bang_profile = counted
    try:
        best = float("inf")
        for _ in range(repeats):
            calls[0] = 0
            start = time.perf_counter()
            sol = linear_tmin.solve_tmin(system, x0, x1)
            best = min(best, time.perf_counter() - start)
    finally:
        _bang.bang_profile = profile
    return best, calls[0], sol.T_star


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
            t, n, _ = solve_stats(osc, item["config"]["x0"], item["config"]["x1"],
                                  args.repeats)
            times.append(t)
            calls.append(n)
    di = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
                      np.array([[-1.0, 1.0]]))
    di_s, di_calls, di_T = solve_stats(di, [1.0, 0.0], [0.0, 0.0], 1)
    print(json.dumps({
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "has_numba": kernels.HAS_NUMBA},
        "oscillator_pool": {
            "solves": len(times),
            "median_solve_s": round(statistics.median(times), 4),
            "total_solve_s": round(sum(times), 3),
            "bang_profile_calls": sum(calls),
            "bang_profile_calls_median": statistics.median(calls),
        },
        "double_integrator": {"solve_s": round(di_s, 3), "bang_profile_calls": di_calls,
                              "T_star": di_T},
    }, indent=2))


if __name__ == "__main__":
    main()
