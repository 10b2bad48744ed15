"""Closed-loop client: runs scenarios one after another through pmpkit.cli.run.

Started by run.py in a fresh interpreter, so module caches such as the
spring scan cache start empty, as they do for a CLI user.  Each scenario
starts only after the previous one returned.  Between scenarios the client
times a fixed reference unit, which tells run.py how fast the host ran at
that moment.

    python3 perfbench/client.py --scenarios S.json --out DIR --result R.json
        [--seconds N | --limit N] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import time

import numpy as np


_STREAM = np.linspace(0.0, 1.0, 400_000)


def reference_unit() -> float:
    """Host-speed probe: about 2 ms on a typical host.

    The geometric mean of two timings: an interpreted scalar float loop (as
    in the RK4 kernels without numba) and numpy passes over a 3 MB array (as
    in the scans).  Together they followed the host's speed swings on the
    three workloads better than either alone.
    """
    start = time.perf_counter()
    x, y = 0.1, 0.0
    for _ in range(6000):
        x, y = x + 0.001 * y, y + 0.001 * (1.0 - x - 2.0 * x * x * x)
    mid = time.perf_counter()
    for _ in range(4):
        float((_STREAM * 1.0001 + 0.5).sum())
    end = time.perf_counter()
    return math.sqrt((mid - start) * (end - mid))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenarios", required=True)
    ap.add_argument("--out", required=True, help="directory the scenarios write to")
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="start no round of scenarios after this much loop time")
    ap.add_argument("--limit", type=int, default=None,
                    help="run exactly the first N scenarios")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open(args.scenarios) as handle:
        scenarios = json.load(handle)
    if args.limit is not None:
        scenarios = scenarios[:args.limit]

    import pmpkit
    from pmpkit import cli, kernels
    kernels.warm_up()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    records = []
    loop_start = time.perf_counter()
    ref_before = reference_unit()
    for sc in scenarios:
        # stop only between rounds, so every run holds the same command mix
        if args.seconds is not None and records and sc["round"] != records[-1]["round"] \
                and time.perf_counter() - loop_start >= args.seconds:
            break
        if tracer is not None:
            tracer.scenario = sc["id"]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(sc["config"], out_dir=args.out)
        except Exception as exc:  # the CLI process would exit 1 with a traceback
            code, error = 1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        ref_after = reference_unit()
        records.append({"id": sc["id"], "round": sc["round"], "command": sc["command"],
                        "exit": code,
                        "wall": wall, "ref": 0.5 * (ref_before + ref_after),
                        "summary": stdout.getvalue().strip(),
                        "error": error or stderr.getvalue().strip() or None})
        ref_before = ref_after

    result = {
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "has_numba": bool(kernels.HAS_NUMBA),
        "pmpkit_file": pmpkit.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
