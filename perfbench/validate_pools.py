"""Run every pool candidate once and report the ones pmpkit fails on.

    python3 perfbench/validate_pools.py [--workload NAME]

Each candidate of each pool family (``workloads.pool_candidates``) runs
through ``pmpkit.cli.run`` in this process and through the correctness gate.
The report lists every candidate with its outcome and wall time.  Exit
status 1 if any candidate fails or its output is wrong: the benchmark's
workloads must hold no failing operation, so a pool is changed until none
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def validate(workload: str, out_dir: Path) -> int:
    """Number of the workload's pool candidates that do not pass the gate."""
    from pmpkit import cli
    bad = 0
    for family, _ in workloads.POOLS[workload]:
        for i, sc in enumerate(workloads.pool_candidates(workload, family)):
            sc = dict(sc, id=i)
            ext = sc.pop("ext", workloads.OUTPUT_EXT[sc["command"]])
            sc["config"] = {"command": sc["command"], **sc["config"],
                            "output_path": f"{family}-{i:02d}.{ext}"}
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run(sc["config"], out_dir=str(out_dir))
            except Exception:  # the CLI process would exit 1 with a traceback
                code = 1
            wall = time.perf_counter() - start
            status, cause = gate.check(sc, str(out_dir), code)
            bad += status != "ok"
            brief = json.dumps({k: v for k, v in sc["config"].items()
                                if k not in ("command", "output_path", "system")})
            print(f"{workload} {family} #{i:02d} {status:6s} {wall:7.3f} s  {brief[:100]}"
                  + (f"  ({cause})" if cause else ""), flush=True)
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.POOLS), default=None)
    args = ap.parse_args(argv)
    chosen = [args.workload] if args.workload else sorted(workloads.POOLS)
    out_dir = BENCH / ".work" / "validate"
    status = 0
    for workload in chosen:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        try:
            bad = validate(workload, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"{workload}: {bad} of the pool candidates fail")
        status = status or int(bad > 0)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
