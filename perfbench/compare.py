"""Compare two sets of benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Prints, per workload and metric, each side's median and quartiles and the
change against the bound BENCHMARK.json fixes.  Refuses (exit 2) to compare
result sets whose hosts differ in whether numba was imported: a jit number
and a fallback number measure different programs.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    reports = []
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        reports.extend(data if isinstance(data, list) else [data])
    return reports


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)

    base, new = load(args.base), load(args.new)
    numba = {r["host"]["has_numba"] for r in base + new}
    if len(numba) > 1:
        print("compare: refusing to compare results with and without numba "
              "(host.has_numba differs)", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {"base": collections.defaultdict(list), "new": collections.defaultdict(list)}
    for side, reports in (("base", base), ("new", new)):
        for r in reports:
            for name, m in r["metrics"].items():
                if m["value"] is not None:
                    sides[side][r["workload"], name].append(m["value"])
    print(f"{'workload':16s} {'metric':38s} {'base median':>12s} {'new median':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(sides["base"]) & set(sides["new"])):
        workload, name = key
        b, n = sides["base"][key], sides["new"][key]
        bq1, bmed, bq3 = summary(b)
        _, nmed, _ = summary(n)
        better, bound = bounds.get(name, ("lower", None))
        change = (nmed - bmed) / bmed if bmed else float("nan")
        worse = change if better == "lower" else -change
        verdict = ""
        if bound is not None:
            spread = (bq3 - bq1) / bmed if bmed else float("nan")
            if spread > bound:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "regression" if worse > bound else "within bound"
        print(f"{workload:16s} {name:38s} {bmed:12.6g} {nmed:12.6g} {change:+8.1%} "
              f"{'' if bound is None else f'{bound:.2f}':>6s}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
