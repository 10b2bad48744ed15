"""Self-tests of the benchmark: smoke runs, the gate's oracles, the tracer.

    python3 perfbench/selftest.py

The smoke runs take about a minute: each workload once untraced and once
traced, one second of loop time each.
"""

from __future__ import annotations

import collections
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

E2E_NAMES = [
    "setup_s", "scenarios_per_s", "latency_p50_s", "failed_share", "peak_rss_mb",
    "tmin_linear_p50_s", "tmin_linear_tail_s", "reach_p50_s",
    "linearize_p50_s", "tmin_spring_cold_p50_s", "tmin_spring_warm_p50_s",
]


def bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


class SmokeRuns(unittest.TestCase):
    """Tiny runs of every workload in both modes."""

    @classmethod
    def setUpClass(cls):
        cls.reports = {}
        cls.lines = {}
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-selftest-")
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                out = os.path.join(cls.tmp, f"{workload}-{trace}.json")
                proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--out", out)
                if proc.returncode != 0:
                    raise AssertionError(f"{workload} trace={trace}: {proc.stderr}")
                with open(out) as handle:
                    cls.reports[workload, trace] = json.load(handle)
                cls.lines[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_every_metric_reported_with_unit_or_absent(self):
        layer_names = [name for name, _, _ in run.LAYER_METRICS]
        for (workload, trace), report in self.reports.items():
            for name in layer_names if trace else E2E_NAMES:
                m = report["metrics"][name]
                self.assertTrue(m["unit"], name)
                if m["value"] is None:
                    self.assertTrue(m["note"].startswith("absent: "), (workload, name))
                else:
                    self.assertTrue(math.isfinite(m["value"]), (workload, name))

    def test_contract_line(self):
        e2e, layers = run.contract_metrics()
        for (workload, trace), line in self.lines.items():
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(line["metrics"]), layers if trace else e2e)
            self.assertGreaterEqual(line["attempted"], 1)
            self.assertTrue(line["correct"], workload)
            for name, m in line["metrics"].items():
                self.assertEqual(set(m), {"value", "unit"})
                if not trace:
                    self.assertGreater(m["value"], 0.0, (workload, name))

    def test_traced_outputs_byte_identical(self):
        for workload in workloads.WORKLOADS:
            checks = self.reports[workload, 1]["trace_checks"]
            self.assertTrue(checks["outputs_identical"], checks["differing_files"])

    def test_self_times_within_scenario_wall(self):
        for workload in workloads.WORKLOADS:
            self.assertLessEqual(self.reports[workload, 1]["trace_checks"]["self_time_excess_s"],
                                 1e-6)

    def test_host_block(self):
        host = self.reports["spring-shooting", 0]["host"]
        for key in ("cores", "python", "numpy", "blas", "has_numba", "PMPKIT_NO_NUMBA"):
            self.assertIn(key, host)


class EmptyCheckout(unittest.TestCase):
    def test_fails_without_the_program(self):
        tmp = tempfile.mkdtemp(prefix="perfbench-empty-")
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "spring-shooting", "--seed", "1", "--seconds", "1"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


class GateOracles(unittest.TestCase):
    """The gate accepts exact outputs and catches perturbed ones."""

    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="perfbench-gate-")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_two_arc_closed_form_replays_to_origin(self):
        for eps in (0.2, 0.9, 1.8):
            T = gate.two_arc_time(eps)
            # the two arcs meet where the u = -1 circle leaves for the u = +1 one
            x_s = eps * (eps + 2.0) / 4.0
            first = math.atan2(math.sqrt((1 + eps) ** 2 - (x_s + 1) ** 2), x_s + 1.0)
            p = gate.rotate((eps, 0.0), (-1.0, 0.0), first)
            end = gate.rotate(p, (1.0, 0.0), T - first)
            self.assertLess(math.hypot(*end), 1e-12)

    def test_support_closed_form_matches_quadrature(self):
        x0, T = (0.3, -0.2), 5.0
        t = [T * i / 200000 for i in range(200001)]
        for ang in (0.0, 1.0, 2.5, 4.0):
            d = (math.cos(ang), math.sin(ang))
            xT = (math.cos(T) * x0[0] + math.sin(T) * x0[1],
                  -math.sin(T) * x0[0] + math.cos(T) * x0[1])
            vals = [abs(d[0] * math.sin(s) + d[1] * math.cos(s)) for s in t]
            integral = (T / 200000) * (sum(vals) - 0.5 * (vals[0] + vals[-1]))
            self.assertAlmostEqual(gate.oscillator_support(x0, T, d),
                                   d[0] * xT[0] + d[1] * xT[1] + integral, places=8)

    def _tmin_case(self, switches, T):
        eps = 0.9
        sc = {"id": 0, "command": "tmin-linear", "expect": {"two_arc_eps": eps},
              "config": {"x0": [eps, 0.0], "x1": [0.0, 0.0], "output_path": "t.json"}}
        # theta puts the single switch of the two-arc path at switches[0]
        theta = switches[0] + math.pi
        _write(self.dir, "t.json", json.dumps({"T": T, "theta": theta,
                                               "switch_times": switches}))
        return gate.check(sc, self.dir, 0)

    def test_tmin_linear_exact_and_perturbed(self):
        eps = 0.9
        T = gate.two_arc_time(eps)
        x_s = eps * (eps + 2.0) / 4.0
        first = math.atan2(math.sqrt((1 + eps) ** 2 - (x_s + 1) ** 2), x_s + 1.0)
        self.assertEqual(self._tmin_case([first], T), gate.OK)
        self.assertEqual(self._tmin_case([first + 1e-4], T)[0], "wrong")
        self.assertEqual(self._tmin_case([first], T + 1e-4)[0], "wrong")

    def test_reach_perturbed_value(self):
        K, T, x0 = 8, 2.0, [0.1, 0.0]
        dirs = [[math.cos(2 * math.pi * k / K), math.sin(2 * math.pi * k / K)] for k in range(K)]
        values = [gate.oscillator_support(x0, T, d) for d in dirs]
        sc = {"id": 0, "command": "reach", "expect": {},
              "config": {"x0": x0, "T": T, "K": K, "output_path": "h.json"}}
        _write(self.dir, "h.json", json.dumps({"directions": dirs, "values": values}))
        self.assertEqual(gate.check(sc, self.dir, 0), gate.OK)
        values[3] += 1e-5
        _write(self.dir, "h.json", json.dumps({"directions": dirs, "values": values}))
        self.assertEqual(gate.check(sc, self.dir, 0)[0], "wrong")

    def test_simulate_perturbed_row(self):
        cfg = {"x0": [0.2, 0.1], "T": 2.0, "max_sample_step": 0.5, "output_path": "s.csv",
               "control": {"breakpoints": [0.0, 1.0, 2.0], "values": [[1.0], [-0.5]]}}
        p = gate.rotate(cfg["x0"], (1.0, 0.0), 1.0)
        rows = [(0.0, *cfg["x0"]), (0.5, *gate.rotate(cfg["x0"], (1.0, 0.0), 0.5)),
                (1.0, *p), (1.5, *gate.rotate(p, (-0.5, 0.0), 0.5)),
                (2.0, *gate.rotate(p, (-0.5, 0.0), 1.0))]
        sc = {"id": 0, "command": "simulate", "expect": {}, "config": cfg}
        text = "# pmpkit\nt,x1,x2\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows)
        _write(self.dir, "s.csv", text)
        self.assertEqual(gate.check(sc, self.dir, 0), gate.OK)
        _write(self.dir, "s.csv", text.replace(repr(rows[3][1]), repr(rows[3][1] + 1e-6)))
        self.assertEqual(gate.check(sc, self.dir, 0)[0], "wrong")

    def test_exit_codes(self):
        sc = {"id": 0, "command": "kalman", "expect": {"rank": 2},
              "config": {"output_path": "k.json", "system": {"A": [[0, 1], [0, 0]]}}}
        _write(self.dir, "k.json", json.dumps({"rank": 2, "controllable": True}))
        self.assertEqual(gate.check(sc, self.dir, 0), gate.OK)
        self.assertEqual(gate.check(sc, self.dir, 3)[0], "failed")
        self.assertEqual(gate.check(sc, self.dir, 1)[0], "wrong")
        self.assertEqual(gate.check(sc, self.dir, 2)[0], "wrong")
        self.assertEqual(gate.check({**sc, "config": {**sc["config"], "output_path": "none.json"}},
                                    self.dir, 0)[0], "wrong")


class TracerUnits(unittest.TestCase):
    def test_self_times_subtract_direct_children(self):
        spans = [(0, 0.0, 10.0, -1, 0, ()), (1, 1.0, 4.0, 0, 0, ()),
                 (2, 2.0, 3.0, 1, 0, ()), (1, 5.0, 6.0, 0, 0, ())]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_missing_target_makes_metrics_absent(self):
        code = (
            "import sys, json; sys.path.insert(0, {bench!r})\n"
            "import tracer, run\n"
            "targets = [t for t in tracer.SPAN_TARGETS if t[0] != 'linear_tmin.newton']\n"
            "targets.append(('linear_tmin.newton', 'pmpkit.linear_tmin', '_gone', None))\n"
            "t = tracer.Tracer(span_targets=targets)\n"
            "t.install()\n"
            "import pmpkit.linear_tmin as lt, pmpkit.linsys as ls, pmpkit._bang as b\n"
            "assert lt.mat_exp is ls.mat_exp and b.mat_exp is ls.mat_exp\n"
            "assert hasattr(ls.mat_exp, '__wrapped__')\n"
            "m = run.per_layer(json.loads(json.dumps(t.dump())))\n"
            "print(json.dumps(m['linear_tmin.newton_seeds']))\n"
        ).format(bench=str(BENCH))
        proc = subprocess.run([sys.executable, "-c", code], env=run.child_env(),
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        m = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertIsNone(m["value"])
        self.assertIn("_gone not found", m["note"])


class Compare(unittest.TestCase):
    def test_refuses_mixed_numba_hosts(self):
        import compare
        tmp = tempfile.mkdtemp(prefix="perfbench-compare-")
        try:
            paths = []
            for i, numba in enumerate((False, True)):
                report = {"workload": "spring-shooting", "host": {"has_numba": numba},
                          "metrics": {"latency_p50_s": {"value": 1.0 + i, "unit": "s"}}}
                paths.append(_write(tmp, f"r{i}.json", json.dumps(report)))
            self.assertEqual(compare.main(["--base", paths[0], "--new", paths[1]]), 2)
            self.assertEqual(compare.main(["--base", paths[0], "--new", paths[0]]), 0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class WorkloadStreams(unittest.TestCase):
    def test_seeded_and_user_fields_only(self):
        for workload in workloads.WORKLOADS:
            a = workloads.generate(workload, 3, 30)
            self.assertEqual(a, workloads.generate(workload, 3, 30))
            self.assertNotEqual(a, workloads.generate(workload, 4, 30))
            for sc in a:
                for solver_field in ("n_angles", "t_grid", "n_alphas", "n_steps", "t_max"):
                    self.assertNotIn(solver_field, sc["config"])

    def test_pool_draws(self):
        for workload, families in workloads.POOLS.items():
            pools = {}
            for family, _ in families:
                for c in workloads.pool_candidates(workload, family):
                    pools[json.dumps(c["config"], sort_keys=True)] = family
            drawn = collections.defaultdict(list)
            for sc in workloads.generate(workload, 7, 200):
                cfg = {k: v for k, v in sc["config"].items()
                       if k not in ("command", "output_path")}
                key = json.dumps(cfg, sort_keys=True)
                self.assertIn(key, pools)
                drawn[pools[key]].append(key)
            # a family's pool is spent before any of its inputs repeats
            for family, keys in drawn.items():
                size = sum(1 for f in pools.values() if f == family)
                self.assertEqual(len(set(keys[:size])), size)

    def test_kalman_rank_by_construction(self):
        import numpy as np
        for sc in workloads.generate("reach-analysis", 5, 120):
            if sc["command"] != "kalman":
                continue
            A = np.array(sc["config"]["system"]["A"])
            B = np.array(sc["config"]["system"]["B"])
            blocks = [B]
            for _ in range(len(A) - 1):
                blocks.append(A @ blocks[-1])
            sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
            self.assertEqual(int((sv > 1e-9 * sv[0]).sum()), sc["expect"]["rank"])


if __name__ == "__main__":
    unittest.main()
