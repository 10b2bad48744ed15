"""Time the linearization layer per call on the reach-analysis pool inputs.

The inputs are the 10 ``linearize`` pool inputs of perfbench's
reach-analysis workload (nonlinear spring, seeded piecewise controls).  For
each one, ``linearize`` (default 4000 steps), ``singularity_test`` on its
result and ``simulate_nonlinear`` over the same 4000 steps are each called
``REPEATS`` times in this process; the best time of each is kept.  Prints
one JSON object with the host block and, per function, the median and total
of the best per-call times.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_linearize.py

Point PYTHONPATH at another checkout's ``src`` to measure that version on
the same inputs.
"""

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
from pmpkit import kernels, nonlinear  # noqa: E402
from pmpkit.linsys import ControlSignal  # noqa: E402

N_STEPS = 4000
REPEATS = 3


def best_of(repeats, call):
    """(best seconds, result of the last call)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    times = {"linearize": [], "singularity_test": [], "simulate_nonlinear": []}
    for item in workloads.pool_candidates("reach-analysis", "linearize"):
        cfg = item["config"]
        sys_n = nonlinear.make_system("nonlinear_spring", k2=cfg["system"]["k2"])
        ctl = cfg["control"]
        u = ControlSignal(np.asarray(ctl["breakpoints"], dtype=float),
                          np.asarray(ctl["values"], dtype=float))
        x0, T = cfg["x0"], cfg["T"]
        t, lin = best_of(REPEATS,
                         lambda: nonlinear.linearize(sys_n, u, x0, T, n_steps=N_STEPS))
        times["linearize"].append(t)
        t, _ = best_of(REPEATS, lambda: nonlinear.singularity_test(lin))
        times["singularity_test"].append(t)
        t, _ = best_of(REPEATS, lambda: nonlinear.simulate_nonlinear(
            sys_n, x0, u, T, n_steps=N_STEPS))
        times["simulate_nonlinear"].append(t)
    print(json.dumps({
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "has_numba": kernels.HAS_NUMBA},
        "inputs": len(times["linearize"]),
        "n_steps": N_STEPS,
        **{name: {"median_call_s": round(statistics.median(ts), 5),
                  "total_s": round(sum(ts), 4)} for name, ts in times.items()},
    }, indent=2))


if __name__ == "__main__":
    main()
