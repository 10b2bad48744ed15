"""Write the output of every perfbench pool input into one directory.

Each candidate of each pool family (``workloads.pool_candidates``, 110 in
all) runs once through ``pmpkit.cli.run``; its output file lands in DIR as
``<workload>-<family>-<index>.<ext>``, and ``summaries.txt`` records each
candidate's exit status and one-line summary.  Two checkouts produce the same
results when their directories compare equal:

    PYTHONPATH=src python3 benchmarks/dump_pools.py /tmp/new
    PYTHONPATH=/path/to/other/src python3 benchmarks/dump_pools.py /tmp/old
    diff -r /tmp/old /tmp/new

pmpkit is imported from PYTHONPATH; the pool inputs always come from this
checkout's ``perfbench/workloads.py``.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from pmpkit import cli  # noqa: E402


def dump(out_dir: Path) -> int:
    """Run every pool candidate into out_dir; the number that exit nonzero."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries, failed = [], 0
    for workload in workloads.WORKLOADS:
        for family, _ in workloads.POOLS[workload]:
            for i, sc in enumerate(workloads.pool_candidates(workload, family)):
                ext = sc.get("ext", workloads.OUTPUT_EXT[sc["command"]])
                name = f"{workload}-{family}-{i:02d}.{ext}"
                config = {"command": sc["command"], **sc["config"], "output_path": name}
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.run(config, out_dir=str(out_dir))
                failed += code != 0
                summaries.append(f"{name} {code} {out.getvalue().strip()}\n")
    (out_dir / "summaries.txt").write_text("".join(summaries))
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", type=Path, help="directory for the outputs")
    args = ap.parse_args(argv)
    failed = dump(args.dir)
    print(f"{failed} of the pool candidates exit nonzero")
    return int(failed > 0)


if __name__ == "__main__":
    raise SystemExit(main())
