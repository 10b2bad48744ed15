"""Benchmark the spring kernels.

Times the dense (alpha, t) scan ``spring_scan`` and the event-accurate
single-trajectory integrator ``spring_integrate`` and prints the best total
time of each workload beside the cost of one call.  The integrator's loop
carries the alpha-tangent of the endpoint, so its per-call cost includes the
Jacobian.

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
    h = 20.0 / args.steps
    alphas = np.linspace(0.0, 2.0 * math.pi, args.alphas, endpoint=False)
    angles = np.linspace(0.1, 2.0 * math.pi - 0.1, args.integrations)

    def scan():
        kernels.spring_scan(k2, alphas, h, args.steps)

    def integrate():
        for a in angles:
            kernels.spring_integrate(k2, float(a), 5.0, 0.005)

    kernels.warm_up()
    rows = [("spring_scan", f"{args.alphas} x {args.steps}", 1,
             best_of(scan, args.repeats)),
            ("spring_integrate", f"{args.integrations} calls", args.integrations,
             best_of(integrate, args.repeats))]
    print(f"{'kernel':<18} {'workload':<16} {'total':>10} {'per call':>10}")
    for name, load, n_calls, t in rows:
        print(f"{name:<18} {load:<16} {t * 1e3:8.1f}ms {t / n_calls * 1e3:8.3f}ms")


if __name__ == "__main__":
    main()
