"""Benchmark the compiled spring kernels against their fallback paths.

Times the dense (alpha, t) scan and the event-accurate single-trajectory
integrator and prints a small comparison table.  With numba, the scan runs
through ``spring_scan_jit`` and the numpy ``spring_scan_py``, and the
integrator's loop ``_integrate_core`` compiled and as plain python
(``_integrate_core.py_func``), after checking that both agree.  Without
numba only the path that runs is timed: ``spring_scan_py`` and the plain
python ``_integrate_core``.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --alphas 1440 --steps 8000
"""

import argparse
import math
import time

import numpy as np

from pmpkit import kernels


def best_of(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", type=int, default=720,
                    help="adjoint angles in the scan (default 720)")
    ap.add_argument("--steps", type=int, default=4000,
                    help="RK4 steps per scan trajectory (default 4000)")
    ap.add_argument("--integrations", type=int, default=200,
                    help="single-trajectory calls to time (default 200)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="repetitions per measurement, best kept (default 5)")
    args = ap.parse_args()

    k2 = 2.0
    t_max = 20.0
    h = t_max / args.steps
    alphas = np.linspace(0.0, 2.0 * math.pi, args.alphas, endpoint=False)
    angles = np.linspace(0.1, 2.0 * math.pi - 0.1, args.integrations)

    kernels.warm_up()
    ref_scan = kernels.spring_scan_py(k2, alphas[:8], h, args.steps)

    rows = []

    def scan_jit():
        kernels.spring_scan_jit(k2, alphas, h, args.steps)

    def scan_py():
        kernels.spring_scan_py(k2, alphas, h, args.steps)

    def integrate_with(core):
        switches = np.empty(kernels._MAX_SWITCH)

        def run():
            return [core(k2, float(a), 5.0, 0.005, switches) for a in angles]
        return run

    if kernels.HAS_NUMBA:
        py_core = kernels._integrate_core.py_func
        jit_chk = kernels.spring_scan_jit(k2, alphas[:8], h, args.steps)
        drift = max(float(np.abs(jit_chk - ref_scan).max()),
                    float(np.abs(np.subtract(integrate_with(kernels._integrate_core)(),
                                             integrate_with(py_core)())).max()))
        if drift > 1e-12:
            raise SystemExit(f"jit/fallback disagreement: {drift:.2e}")
        rows.append(("spring_scan",
                     f"{args.alphas} x {args.steps}",
                     best_of(scan_jit, args.repeats),
                     best_of(scan_py, args.repeats)))
        rows.append(("spring_integrate",
                     f"{args.integrations} calls",
                     best_of(integrate_with(kernels._integrate_core), args.repeats),
                     best_of(integrate_with(py_core), max(1, args.repeats // 2))))
    else:
        print("numba unavailable or disabled; timing the paths that run")
        rows.append(("spring_scan", f"{args.alphas} x {args.steps}",
                     None, best_of(scan_py, args.repeats)))
        rows.append(("spring_integrate", f"{args.integrations} calls", None,
                     best_of(integrate_with(kernels._integrate_core),
                             max(1, args.repeats // 2))))

    print(f"{'kernel':<18} {'workload':<16} {'jit':>10} {'fallback':>10} {'speedup':>9}")
    for name, load, t_jit, t_py in rows:
        jit_s = f"{t_jit * 1e3:8.1f}ms" if t_jit is not None else "      --"
        ratio = f"{t_py / t_jit:8.1f}x" if t_jit else "       --"
        print(f"{name:<18} {load:<16} {jit_s:>10} {t_py * 1e3:8.1f}ms {ratio:>9}")


if __name__ == "__main__":
    main()
