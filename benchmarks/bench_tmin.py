"""Time the minimal-time solvers and count their residual kernel calls.

The problems are the 40 tmin-linear pool inputs of perfbench's
oscillator-tmin workload, the double integrator (1, 0) -> 0, and the 30
tmin-spring pool inputs of the spring-shooting workload.  Each is solved
``--repeats`` times in this process; the best time is kept.  solve_tmin is
counted in bang_profile calls, spring_tmin_shoot in spring_integrate calls;
the time spent inside those calls in the best solve gives their per-call
cost, so fewer but dearer calls show.
The spring pools run in workload order, so the first solve of each k2 fills
the scan cache and the best time of every solve is a warm one when
``--repeats`` > 1.  Prints one JSON object with the host block, per-solve
seconds and calls, and per pool the totals of the solves' ``SolveStats``
records (scan rounds, seeds run and skipped, Newton runs stopped or
converged, residual calls) where the solver returns them.  A last block
times ``bang_profile`` per call on 2,000 random (eta0, T) inputs for each of
four planar classes: the oscillator, a damped oscillator, real eigenvalues
and the double integrator.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_tmin.py

Point PYTHONPATH at another checkout's ``src`` to measure that version on
the same inputs.
"""

import argparse
import dataclasses
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
    """(best seconds, calls of module.name per solve, seconds spent in those
    calls during the best solve, solve result)."""
    calls, spent = [0], [0.0]
    counted_fn = getattr(module, name)

    def counted(*args, **kwargs):
        start = time.perf_counter()
        try:
            return counted_fn(*args, **kwargs)
        finally:
            calls[0] += 1
            spent[0] += time.perf_counter() - start

    setattr(module, name, counted)
    try:
        best, best_spent = float("inf"), 0.0
        for _ in range(repeats):
            calls[0], spent[0] = 0, 0.0
            start = time.perf_counter()
            result = solve()
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best, best_spent = elapsed, spent[0]
    finally:
        setattr(module, name, counted_fn)
    return best, calls[0], best_spent, result


def pool_block(times, calls, in_calls, name, records):
    block = {
        "solves": len(times),
        "median_solve_s": round(statistics.median(times), 4),
        "total_solve_s": round(sum(times), 3),
        f"{name}_calls": sum(calls),
        f"{name}_calls_median": statistics.median(calls),
        f"{name}_s": round(sum(in_calls), 3),
        f"{name}_per_call_ms": round(1e3 * sum(in_calls) / max(sum(calls), 1), 4),
    }
    if None not in records:     # checkouts before SolveStats return none
        block["seed_stats"] = {field.name: sum(getattr(r, field.name) for r in records)
                               for field in dataclasses.fields(records[0])}
    return block


PLANAR_CLASSES = {
    "oscillator": [[0.0, 1.0], [-1.0, 0.0]],
    "damped_oscillator": [[0.0, 1.0], [-2.0, -0.6]],
    "real_eigenvalues": [[0.0, 1.0], [2.0, -1.0]],
    "double_integrator": [[0.0, 1.0], [0.0, 0.0]],
}


def profile_per_call(repeats):
    """bang_profile's best-of-repeats cost per call and its switch count,
    per planar class, on 2,000 fixed random unit eta0 and T in [0.5, 4 pi]."""
    n_inputs = 2000
    rng = np.random.default_rng(5)
    thetas = rng.uniform(0.0, 2.0 * np.pi, n_inputs)
    etas = np.column_stack([np.cos(thetas), np.sin(thetas)])
    horizons = rng.uniform(0.5, 4.0 * np.pi, n_inputs)
    block = {}
    for name, A in PLANAR_CLASSES.items():
        sys_ = LinearSystem(np.array(A), np.array([[0.0], [1.0]]), np.array([[-1.0, 1.0]]))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            profiles = [_bang.bang_profile(sys_, eta, T) for eta, T in zip(etas, horizons)]
            best = min(best, time.perf_counter() - start)
        block[name] = {"calls": n_inputs, "per_call_ms": round(1e3 * best / n_inputs, 4),
                       "switches": sum(len(p.channel_switch_times[0]) for p in profiles)}
    return block


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
    times, calls, in_calls, records = [], [], [], []
    for family in workloads.OSC_FAMILIES:
        for item in workloads.pool_candidates("oscillator-tmin", family):
            x0, x1 = item["config"]["x0"], item["config"]["x1"]
            t, n, t_in, sol = solve_stats(_bang, "bang_profile",
                                          lambda: linear_tmin.solve_tmin(osc, x0, x1),
                                          args.repeats)
            times.append(t)
            calls.append(n)
            in_calls.append(t_in)
            records.append(getattr(sol, "stats", None))
    di = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
                      np.array([[-1.0, 1.0]]))
    di_s, di_calls, _, di_sol = solve_stats(
        _bang, "bang_profile", lambda: linear_tmin.solve_tmin(di, [1.0, 0.0], [0.0, 0.0]), 1)
    spring_times, spring_calls, spring_in_calls, spring_records = [], [], [], []
    for k2 in workloads.SPRING_K2:
        for item in workloads.pool_candidates("spring-shooting", k2):
            target = item["config"]["target"]
            t, n, t_in, (sol, _) = solve_stats(kernels, "spring_integrate",
                                               lambda: nonlinear.spring_tmin_shoot(k2, target),
                                               args.repeats)
            spring_times.append(t)
            spring_calls.append(n)
            spring_in_calls.append(t_in)
            spring_records.append(getattr(sol, "stats", None))
    print(json.dumps({
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "has_numba": kernels.HAS_NUMBA},
        "oscillator_pool": pool_block(times, calls, in_calls, "bang_profile", records),
        "double_integrator": {"solve_s": round(di_s, 3), "bang_profile_calls": di_calls,
                              "T_star": di_sol.T_star},
        "spring_pool": pool_block(spring_times, spring_calls, spring_in_calls,
                                  "spring_integrate", spring_records),
        "bang_profile_per_call": profile_per_call(args.repeats),
    }, indent=2))


if __name__ == "__main__":
    main()
