"""Scenario benchmark for pmpkit: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload oscillator-tmin --seed 1 --seconds 25 --trace 0

One closed-loop client runs the workload's seeded scenario stream through
``pmpkit.cli.run`` in a fresh interpreter for ``--seconds``.  Set-up time is
measured on separate fresh interpreters.  After the timed loop the
correctness gate checks every output through an independent route.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, reruns the same scenarios with layer spans installed, checks
that both runs wrote byte-identical files, and prints the per-layer metrics
and the tracing overhead.  ``--workload all`` runs every workload in turn.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, holding exactly the metrics BENCHMARK.json lists
for the mode.  The lines before it are a readable report naming every metric
with its unit.  ``--out FILE`` also writes the full result, host block
included, for compare.py.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

# Host speed on a shared machine swings by up to 1.8x in phases of seconds
# to minutes (see NOTES.md).  Scenario latencies are therefore reported
# host-normalised, against the client's reference probe taken around each
# scenario; the report prints the raw wall figure beside each one.
REF_NOMINAL_S = 0.0018

# fresh starts timed per run, half before the scenario loop and half after,
# so one host-speed phase does not decide the median
SETUP_STARTS = 16
SETUP_CODE = "import pmpkit.cli\nfrom pmpkit import kernels\nkernels.warm_up()\n"
# Set-up time is host-normalised too, against a reference start timed just
# before each set-up start: a fresh interpreter that imports numpy only.  The
# nominal value is that start's typical wall time on the baseline host.
REF_START_CODE = "import numpy\n"
REF_START_NOMINAL_S = 0.15
# a run must end within 180 s; clients are killed once this budget is spent
RUN_BUDGET_S = 170.0


class Absent(Exception):
    """A metric this run cannot measure; the message says why."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # set-up time is measured with the bytecode cache in place, as an
    # installed package has it, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def host_block(has_numba: bool) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "has_numba": has_numba,
            "PMPKIT_NO_NUMBA": os.environ.get("PMPKIT_NO_NUMBA")}


def measure_setup(env: dict, starts: int) -> List[Tuple[float, float]]:
    """(set-up wall, reference-start wall) seconds per fresh start.

    A set-up start is interpreter, ``import pmpkit.cli`` and ``warm_up``.
    """
    walls = []
    for _ in range(starts):
        pair = []
        for code in (REF_START_CODE, SETUP_CODE):
            t0 = time.perf_counter()
            run_start(code, env)
            pair.append(time.perf_counter() - t0)
        walls.append((pair[1], pair[0]))
    return walls


def run_start(code: str, env: dict, timeout: float = 60.0) -> None:
    """One fresh interpreter running ``code``, waited for without polling.

    ``subprocess.run`` with a timeout polls the child with sleeps of up to
    50 ms, which rounds a 0.2 s start up to the next poll; a blocking wait
    returns when the child exits, and a timer kills a child that hangs.
    """
    proc = subprocess.Popen([sys.executable, "-c", code], env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise RuntimeError(f"a fresh start exited {code}")


def run_client(work: Path, scenarios_path: Path, out_dir: Path, env: dict, deadline: float,
               seconds: Optional[float] = None, limit: Optional[int] = None,
               trace: bool = False) -> dict:
    result_path = work / ("client-trace.json" if trace else "client.json")
    cmd = [sys.executable, str(BENCH / "client.py"), "--scenarios", str(scenarios_path),
           "--out", str(out_dir), "--result", str(result_path)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if trace:
        cmd.append("--trace")
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path) as handle:
        result = json.load(handle)
    src = ROOT / "src"
    if Path(result["pmpkit_file"]).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"client imported pmpkit from {result['pmpkit_file']}, not {src}")
    return result


# ---------------------------------------------------------------------------
# statistics


def normalised(wall: float, ref: float) -> float:
    """Wall seconds scaled to a host on which the probe takes REF_NOMINAL_S."""
    return wall * REF_NOMINAL_S / ref


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    if len(values) < 11:
        raise Absent(f"{len(values)} samples; a tail needs at least 11")
    ordered = sorted(values)
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def metric(value: float, unit: str, raw: Optional[float] = None, note: str = "") -> dict:
    return {"value": value, "unit": unit, "raw": raw, "note": note}


def absent(unit: str, reason: str) -> dict:
    return {"value": None, "unit": unit, "raw": None, "note": f"absent: {reason}"}


def latency_metrics(records: List[dict], command: str, label: str,
                    with_tail: bool = False) -> Dict[str, dict]:
    recs = [r for r in records if r["command"] == command]
    if not recs:
        reason = f"no {command} scenarios in this workload"
        out = {f"{label}_p50_s": absent("s", reason)}
        if with_tail:
            out[f"{label}_tail_s"] = absent("s", reason)
        return out
    norm = [normalised(r["wall"], r["ref"]) for r in recs]
    raw = [r["wall"] for r in recs]
    out = {f"{label}_p50_s": metric(statistics.median(norm), "s", statistics.median(raw),
                                    f"median of {len(recs)}")}
    if with_tail:
        try:
            value, pct = tail(norm)
            out[f"{label}_tail_s"] = metric(value, "s", tail(raw)[0],
                                            f"p{pct:.0f} of {len(recs)}")
        except Absent as exc:
            out[f"{label}_tail_s"] = absent("s", str(exc))
    return out


def spring_split(records: List[dict], scenarios: Dict[int, dict]) -> Dict[str, dict]:
    """Cold (first solve of a k2 in the process) and warm spring latencies."""
    seen = set()
    groups: Dict[str, List[dict]] = {"cold": [], "warm": []}
    for rec in records:
        if rec["command"] != "tmin-spring":
            continue
        k2 = scenarios[rec["id"]]["config"]["k2"]
        groups["warm" if k2 in seen else "cold"].append(rec)
        seen.add(k2)
    total = len(groups["cold"]) + len(groups["warm"])
    out = {}
    for kind, recs in groups.items():
        name = f"tmin_spring_{kind}_p50_s"
        if not recs:
            out[name] = absent("s", f"no {kind} tmin-spring solves in this run")
            continue
        share = len(recs) / total
        out[name] = metric(statistics.median(normalised(r["wall"], r["ref"]) for r in recs),
                           "s", statistics.median(r["wall"] for r in recs),
                           f"median of {len(recs)}; {kind} share {share:.2f}")
    return out


def failure_summary(records: List[dict], verdicts) -> Tuple[int, bool, Dict[str, int]]:
    """(failed count, correct, failures by cause)."""
    causes: Dict[str, int] = collections.Counter()
    failed = 0
    correct = True
    for rec, (status, cause) in zip(records, verdicts):
        if status == "ok":
            continue
        failed += 1
        correct = correct and status == "failed"
        causes[f"{rec['command']} [{status}] {re.sub(r' by [-+0-9.e]+$', '', cause)}"] += 1
    return failed, correct, dict(causes)


def end_to_end(records: List[dict], scenarios: Dict[int, dict], setup, rss_kb: int,
               failed: int) -> Dict[str, dict]:
    norm = [normalised(r["wall"], r["ref"]) for r in records]
    raw = [r["wall"] for r in records]
    m = {
        "setup_s": metric(statistics.median(wall * REF_START_NOMINAL_S / ref
                                            for wall, ref in setup),
                          "s", statistics.median(wall for wall, _ in setup),
                          f"median of {len(setup)} fresh starts"),
        "scenarios_per_s": metric(len(records) / sum(norm), "1/s", len(records) / sum(raw),
                                  f"{len(records)} scenarios, closed loop, one client"),
        "latency_p50_s": metric(statistics.median(norm), "s", statistics.median(raw),
                                f"median of all {len(records)} scenarios"),
        "failed_share": metric(failed / len(records), "ratio", None,
                               f"{failed} of {len(records)}"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB", None, "client process"),
    }
    m.update(latency_metrics(records, "tmin-linear", "tmin_linear", with_tail=True))
    m.update(latency_metrics(records, "reach", "reach"))
    m.update(latency_metrics(records, "linearize", "linearize"))
    m.update(spring_split(records, scenarios))
    return m


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


class Layers:
    """Per-span-name aggregates of one traced run."""

    def __init__(self, trace: dict):
        self.missing = trace["missing"]
        self.counts = trace["counts"]
        self.calls_by: Dict[str, int] = collections.Counter()
        self.self_by: Dict[str, float] = collections.Counter()
        self.extra_by: Dict[str, List[float]] = {}
        names = trace["names"]
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            name = names[span[0]]
            self.calls_by[name] += 1
            self.self_by[name] += own
            sums = self.extra_by.setdefault(name, [])
            for i, v in enumerate(span[5]):
                if i == len(sums):
                    sums.append(0.0)
                sums[i] += v

    def calls(self, name: str, allow_zero: bool = False) -> int:
        if name in self.missing:
            raise Absent(self.missing[name])
        n = self.calls_by.get(name, 0)
        if n == 0 and not allow_zero:
            raise Absent(f"{name} not called in this workload")
        return n

    def self_s(self, name: str) -> float:
        self.calls(name)
        return self.self_by[name]

    def extra(self, name: str, i: int) -> float:
        self.calls(name)
        sums = self.extra_by.get(name, [])
        return sums[i] if i < len(sums) else 0.0

    def count(self, name: str) -> int:
        if name in self.missing:
            raise Absent(self.missing[name])
        if not self.counts.get(name):
            raise Absent(f"{name} not called in this workload")
        return self.counts[name]


def _ratio(num: float, den: float) -> float:
    if den == 0:
        raise Absent("zero denominator")
    return num / den


LAYER_METRICS: List[Tuple[str, str, Callable[[Layers], float]]] = [
    ("linsys.mat_exp_calls", "count", lambda L: L.calls("linsys.mat_exp")),
    ("linsys.mat_exp_s", "s", lambda L: L.self_s("linsys.mat_exp")),
    ("linsys.simulate_calls", "count", lambda L: L.calls("linsys.simulate")),
    ("linsys.simulate_s", "s", lambda L: L.self_s("linsys.simulate")),
    ("ode.integrate_with_events_calls", "count", lambda L: L.calls("ode.integrate_with_events")),
    ("ode.integrate_with_events_s", "s", lambda L: L.self_s("ode.integrate_with_events")),
    ("ode.rk4_steps", "count", lambda L: L.count("ode.rk4_steps")),
    ("_bang.bang_profile_calls", "count", lambda L: L.calls("_bang.bang_profile")),
    ("_bang.bang_profile_s", "s", lambda L: L.self_s("_bang.bang_profile")),
    ("_bang.adjoint_evals", "count", lambda L: L.count("_bang.adjoint_evals")),
    ("controllability.reach_support_calls", "count",
     lambda L: L.calls("controllability.reach_support")),
    ("controllability.reach_support_s", "s", lambda L: L.self_s("controllability.reach_support")),
    ("linear_tmin.scan_calls", "count", lambda L: L.calls("linear_tmin.scan")),
    ("linear_tmin.scan_s", "s", lambda L: L.self_s("linear_tmin.scan")),
    ("linear_tmin.newton_seeds", "count", lambda L: L.calls("linear_tmin.newton")),
    ("linear_tmin.newton_converged_ratio", "ratio",
     lambda L: _ratio(L.extra("linear_tmin.newton", 0), L.calls("linear_tmin.newton"))),
    ("linear_tmin.newton_s", "s", lambda L: L.self_s("linear_tmin.newton")),
    ("linear_tmin.residual_evals", "count", lambda L: L.calls("linear_tmin.residual")),
    ("linear_tmin.residual_evals_per_solve", "count",
     lambda L: _ratio(L.calls("linear_tmin.residual"), L.calls("linear_tmin.solve_tmin"))),
    ("linear_tmin.residual_s", "s", lambda L: L.self_s("linear_tmin.residual")),
    ("kernels.spring_scan_calls", "count", lambda L: L.calls("kernels.spring_scan")),
    ("kernels.spring_scan_s", "s", lambda L: L.self_s("kernels.spring_scan")),
    ("kernels.spring_scan_cells", "count", lambda L: L.extra("kernels.spring_scan", 0)),
    ("kernels.spring_scan_bytes", "B", lambda L: L.extra("kernels.spring_scan", 1)),
    ("kernels.spring_integrate_calls", "count", lambda L: L.calls("kernels.spring_integrate")),
    ("kernels.integrations_per_solve", "count",
     lambda L: _ratio(L.calls("kernels.spring_integrate"),
                      L.calls("nonlinear.spring_tmin_shoot"))),
    ("kernels.spring_integrate_s", "s", lambda L: L.self_s("kernels.spring_integrate")),
    ("kernels.integrate_rk4_steps", "count", lambda L: L.extra("kernels.spring_integrate", 0)),
    ("nonlinear.scan_cache_hit_ratio", "ratio",
     lambda L: 1.0 - _ratio(L.calls("kernels.spring_scan", allow_zero=True),
                            L.calls("nonlinear.scan_states"))),
    ("nonlinear.newton_seeds", "count", lambda L: L.calls("nonlinear.newton")),
    ("nonlinear.newton_converged_ratio", "ratio",
     lambda L: _ratio(L.extra("nonlinear.newton", 0), L.calls("nonlinear.newton"))),
    ("nonlinear.newton_s", "s", lambda L: L.self_s("nonlinear.newton")),
    ("nonlinear.final_integration_s", "s", lambda L: L.self_s("nonlinear.final_integration")),
    ("nonlinear.check_extremal_calls", "count", lambda L: L.calls("nonlinear.check_extremal")),
    ("nonlinear.check_extremal_s", "s", lambda L: L.self_s("nonlinear.check_extremal")),
    ("nonlinear.control_candidate_calls", "count",
     lambda L: L.count("nonlinear.control_candidate_calls")),
    ("nonlinear.linearize_s", "s", lambda L: L.self_s("nonlinear.linearize")),
    ("nonlinear.singularity_test_s", "s", lambda L: L.self_s("nonlinear.singularity_test")),
    ("cli.write_calls", "count", lambda L: L.calls("cli.write")),
    ("cli.write_s", "s", lambda L: L.self_s("cli.write")),
    ("cli.bytes_written", "B", lambda L: L.extra("cli.write", 0)),
]


def per_layer(trace: dict) -> Dict[str, dict]:
    layers = Layers(trace)
    out = {}
    for name, unit, fn in LAYER_METRICS:
        try:
            out[name] = metric(float(fn(layers)), unit)
        except Absent as exc:
            out[name] = absent(unit, str(exc))
    return out


def self_time_excess(trace: dict, records: List[dict]) -> float:
    """Largest (summed self time - wall time) over the scenarios; <= 0 is sound."""
    per_scenario: Dict[int, float] = collections.Counter()
    for span, own in zip(trace["spans"], self_times(trace["spans"])):
        per_scenario[span[4]] += own
    return max(per_scenario.get(r["id"], 0.0) - r["wall"] for r in records)


def identical_outputs(a: Path, b: Path) -> List[str]:
    """Names of files that differ between the two output directories."""
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


# ---------------------------------------------------------------------------


def contract_metrics() -> Tuple[List[str], List[str]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    scenarios = workloads.generate(workload, seed, count=int(20 * seconds) + 60)
    by_id = {sc["id"]: sc for sc in scenarios}
    env = child_env()
    work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scenarios_path = work / "scenarios.json"
        with open(scenarios_path, "w") as handle:
            json.dump(scenarios, handle)
        out_dir = work / "out"
        report: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                        "trace": int(trace)}
        if not trace:
            # an untimed first start writes the bytecode cache, as a user's
            # first call does
            measure_setup(env, 1)
            setup = measure_setup(env, SETUP_STARTS // 2)
            plain = run_client(work, scenarios_path, out_dir, env, deadline, seconds=seconds)
            setup += measure_setup(env, SETUP_STARTS - SETUP_STARTS // 2)
        else:
            plain = run_client(work, scenarios_path, out_dir, env, deadline,
                               seconds=seconds / 2)
        records = plain["records"]
        verdicts = gate.check_all(scenarios, records, str(out_dir))
        failed, correct, causes = failure_summary(records, verdicts)
        report.update(host=host_block(plain["has_numba"]), attempted=len(records),
                      failed=failed, failures=causes,
                      records=[{**rec, "status": v[0]} for rec, v in zip(records, verdicts)])
        if not trace:
            report["metrics"] = end_to_end(records, by_id, setup, plain["peak_rss_kb"], failed)
        else:
            traced_dir = work / "out-traced"
            traced = run_client(work, scenarios_path, traced_dir, env, deadline,
                                limit=len(records), trace=True)
            differing = identical_outputs(out_dir, traced_dir)
            excess = self_time_excess(traced["trace"], traced["records"])
            overhead = (sum(normalised(r["wall"], r["ref"]) for r in traced["records"])
                        / sum(normalised(r["wall"], r["ref"]) for r in records))
            report["metrics"] = per_layer(traced["trace"])
            report["trace_checks"] = {
                "overhead": overhead,
                "outputs_identical": not differing,
                "differing_files": differing,
                "self_time_excess_s": excess,
                "spans": len(traced["trace"]["spans"]),
            }
            correct = correct and not differing and excess <= 1e-6
        report["correct"] = correct
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict) -> None:
    print(f"perfbench workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    print(f"  {'metric':40s} {'value':>14s} {'raw wall':>12s}  {'unit':6s} note")
    for name, m in report["metrics"].items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        raw = "" if m["raw"] is None else f"{m['raw']:.6g}"
        print(f"  {name:40s} {value:>14s} {raw:>12s}  {m['unit']:6s} {m['note']}")
    checks = report.get("trace_checks")
    if checks:
        print(f"  tracing overhead {checks['overhead']:.3f}x (traced / untraced normalised "
              f"time, same {report['attempted']} scenarios); {checks['spans']} spans")
        print(f"  traced outputs byte-identical to untraced: {checks['outputs_identical']}"
              + (f" (differ: {checks['differing_files']})" if checks["differing_files"] else ""))
        print(f"  largest summed self time minus scenario wall: "
              f"{checks['self_time_excess_s']:.3g} s (must be <= 0)")
    print(f"  attempted {report['attempted']}, failed {report['failed']}, "
          f"correct {str(report['correct']).lower()}")
    for cause, n in sorted(report["failures"].items()):
        print(f"  failure x{n}: {cause}")


def contract_line(report: dict, names: List[str]) -> dict:
    metrics = {}
    for name in names:
        m = report["metrics"][name]
        # a listed layer the workload did not call measured zero work
        metrics[name] = {"value": 0.0 if m["value"] is None else m["value"], "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full result JSON here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pmpkit" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no pmpkit source tree under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    e2e_names, layer_names = contract_metrics()
    names = layer_names if args.trace else e2e_names
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for workload in chosen:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_report(report)
            reports.append(report)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(reports if len(reports) > 1 else reports[0], handle, indent=1)
    lines = [contract_line(r, names) for r in reports]
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(l["correct"] for l in lines),
                 "attempted": sum(l["attempted"] for l in lines),
                 "failed": sum(l["failed"] for l in lines),
                 "metrics": {f"{r['workload']}/{k}": v
                             for r, l in zip(reports, lines) for k, v in l["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
