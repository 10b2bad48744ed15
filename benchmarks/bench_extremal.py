"""Time check_extremal per call, through its per-sample loop and its batched
route, on the extremals of perfbench's pool inputs.

Two sets of extremals:

- spring: the 30 tmin-spring pool inputs of the spring-shooting workload,
  solved by ``spring_tmin_shoot`` and checked as it checks them;
- oscillator: the 40 tmin-linear pool inputs of the oscillator-tmin
  workload, solved and wrapped as the CLI's linear check-extremal route does
  (``cli._linear_extremal``); a checkout without that helper reads null
  for this set.

Every extremal is checked ``REPEATS`` times per route in this process and
the best time is kept.  The loop route is the system with
``vectorized=False``; a checkout without that declaration has only the loop,
and its batched column reads null.  Prints one JSON object with the host
block and, per set and route, the median and total of the best per-call
times, plus how many batched reports equal the loop's.  Run from the
repository root:

    PYTHONPATH=src python3 benchmarks/bench_extremal.py

Point PYTHONPATH at another checkout's ``src`` to measure that version on
the same inputs.
"""

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
from pmpkit import cli, kernels, linear_tmin, nonlinear  # noqa: E402

REPEATS = 3


def best_of(call):
    """(best seconds, result of the last call)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def spring_checks():
    """(system, extremal, manifolds) of every spring pool solve."""
    for k2 in workloads.SPRING_K2:
        for item in workloads.pool_candidates("spring-shooting", k2):
            target = np.asarray(item["config"]["target"], dtype=float)
            _, ext = nonlinear.spring_tmin_shoot(k2, target)
            yield (nonlinear.make_system("nonlinear_spring", k2=k2), ext,
                   {"m0": nonlinear.BoundaryManifold.point(target),
                    "m1": nonlinear.BoundaryManifold.point(np.zeros(2))})


def oscillator_checks():
    """(system, extremal, manifolds) that the linear check-extremal route
    hands to check_extremal for every oscillator pool input."""
    osc = nonlinear.equilibrium_linearization(nonlinear.make_system("linear_oscillator"))
    opts = linear_tmin.TminOptions(sample_step=cli._EXTREMAL_SAMPLE_STEP)
    for family in workloads.OSC_FAMILIES:
        for item in workloads.pool_candidates("oscillator-tmin", family):
            cfg = item["config"]
            sol = linear_tmin.solve_tmin(osc, cfg["x0"], cfg["x1"], opts)
            yield cli._linear_extremal(osc, sol)


def measure(checks):
    times = {"loop": [], "batched": []}
    same = 0
    for system, ext, manifolds in checks:
        routes = {"loop": system}
        if hasattr(system, "vectorized"):
            routes = {"loop": dataclasses.replace(system, vectorized=False),
                      "batched": system}
        reports = {}
        for name, route in routes.items():
            t, reports[name] = best_of(
                lambda: nonlinear.check_extremal(route, ext, **manifolds))
            times[name].append(t)
        same += reports.get("batched") == reports["loop"]
    row = {"inputs": len(times["loop"])}
    for name, ts in times.items():
        row[name] = {"median_call_s": round(statistics.median(ts), 5),
                     "total_s": round(sum(ts), 4)} if ts else None
    if times["batched"]:
        row["loop_over_batched"] = round(sum(times["loop"]) / sum(times["batched"]), 1)
        row["batched_reports_equal_loop"] = same
    return row


def main():
    print(json.dumps({
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "has_numba": kernels.HAS_NUMBA},
        "repeats": REPEATS,
        "spring": measure(spring_checks()),
        "oscillator": (measure(oscillator_checks())
                       if hasattr(cli, "_linear_extremal") else None),
    }, indent=2))


if __name__ == "__main__":
    main()
