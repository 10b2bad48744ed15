"""Spans and counters around pmpkit's layer boundaries, installed from outside.

The tracer replaces module attributes with timing wrappers; pmpkit's source is
not touched.  A function imported by value (``from .linsys import mat_exp``)
is a separate name in every importing module, so each target is replaced in
every ``pmpkit`` module whose namespace holds the same function object.

A span records (name, start, end, parent span, scenario id, extras).  Spans
stay in memory and are handed over once, by ``dump``, when the run ends.  A
target that no longer exists is reported missing, and the metrics built on
it become absent; nothing crashes.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _converged(args, kwargs, result):
    # the newton drivers return None when their seed does not converge
    return (float(result is not None),)


# (span name, module, attribute, extras(args, kwargs, result) -> tuple of
# numbers summed per span name, or None)
SPAN_TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("linsys.mat_exp", "pmpkit.linsys", "mat_exp", None),
    ("linsys.simulate", "pmpkit.linsys", "simulate", None),
    ("ode.integrate_with_events", "pmpkit.ode", "integrate_with_events", None),
    ("_bang.bang_profile", "pmpkit._bang", "bang_profile", None),
    ("controllability.reach_support", "pmpkit.controllability", "reach_support", None),
    ("linear_tmin.solve_tmin", "pmpkit.linear_tmin", "solve_tmin", None),
    ("linear_tmin.scan", "pmpkit.linear_tmin", "_scan_candidates", None),
    ("linear_tmin.newton", "pmpkit.linear_tmin", "_newton2",
     _converged),
    ("linear_tmin.residual", "pmpkit.linear_tmin", "_fast_endpoint", None),
    # extras: cells (alphas x steps) and bytes of the scan output
    ("kernels.spring_scan", "pmpkit.kernels", "spring_scan",
     lambda a, k, r: (float(r.shape[0] * (r.shape[1] - 1)), float(r.nbytes))),
    # extra: RK4 steps, t_end / h_nom plus 61 per returned switch (the
    # bisection takes 60 partial steps and one final step per event)
    ("kernels.spring_integrate", "pmpkit.kernels", "spring_integrate",
     lambda a, k, r: (a[2] / a[3] + 61.0 * max(r[3], 0),)),
    ("nonlinear.scan_states", "pmpkit.nonlinear", "_scan_states", None),
    ("nonlinear.spring_tmin_shoot", "pmpkit.nonlinear", "spring_tmin_shoot", None),
    ("nonlinear.newton", "pmpkit.nonlinear", "_newton2_spring",
     _converged),
    ("nonlinear.final_integration", "pmpkit.nonlinear", "_integrate_reversed_ode", None),
    ("nonlinear.check_extremal", "pmpkit.nonlinear", "check_extremal", None),
    ("nonlinear.linearize", "pmpkit.nonlinear", "linearize", None),
    ("nonlinear.singularity_test", "pmpkit.nonlinear", "singularity_test", None),
    # extra: bytes of the written text
    ("cli.write", "pmpkit.cli", "_atomic_write",
     lambda a, k, r: (float(len(a[1].encode())),)),
    ("cli.run", "pmpkit.cli", "run", None),
]

# call counters without spans, for functions too small or too hot to time
COUNT_TARGETS: List[Tuple[str, str, str]] = [
    ("ode.rk4_steps", "pmpkit.ode", "rk4_step"),
    ("_bang.adjoint_evals", "pmpkit._bang", "AdjointSampler.eta"),
    ("nonlinear.control_candidate_calls", "pmpkit.nonlinear", "_control_candidates"),
]


def _resolve(module: str, attr: str):
    """(owner, leaf name, function) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


class Tracer:
    """In-memory span recorder; ``install`` wraps the targets in place."""

    def __init__(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS):
        self.span_targets = span_targets
        self.count_targets = count_targets
        self.names: List[str] = []
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, int] = {}
        self.missing: Dict[str, str] = {}
        self.scenario = -1
        self._stack: List[int] = []

    def install(self) -> None:
        for name, module, attr, extra in self.span_targets:
            found = _resolve(module, attr)
            if found is None:
                self.missing[name] = f"{module}.{attr} not found"
                continue
            self.names.append(name)
            self._replace(found, self._span_wrapper(found[2], len(self.names) - 1, extra))
        for name, module, attr in self.count_targets:
            found = _resolve(module, attr)
            if found is None:
                self.missing[name] = f"{module}.{attr} not found"
                continue
            self.counts[name] = 0
            self._replace(found, self._count_wrapper(found[2], name))

    @staticmethod
    def _replace(found, wrapper) -> None:
        owner, leaf, fn = found
        setattr(owner, leaf, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("pmpkit"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, fn, name_idx: int, extra):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                extras = extra(args, kwargs, result) if extra and returned else ()
                spans[idx] = (name_idx, start, end, parent, self.scenario, extras)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts, "missing": self.missing}


def self_times(spans: List[list]) -> List[float]:
    """Span duration minus the durations of its direct children.

    The program is single threaded, so children of one span never overlap
    and their summed durations are the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _, _) in enumerate(spans)]
