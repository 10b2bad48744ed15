"""Seeded scenario streams for the three benchmark workloads.

Each generator turns a seed into a list of scenarios.  A scenario carries the
JSON config handed to ``pmpkit.cli.run`` (only the fields a user would write,
so every solver grid stays at its default) and, separately, what the
correctness gate needs to know about it.  The program only ever sees the
config.

Streams are built from fixed-composition rounds, so every run sees the same
command mix whatever its seed.  A round draws its scenarios from fixed pools
of inputs, one pool per family (oscillator pair family, spring k2, or
reach-analysis command), in an order the seed picks.  A pool holds
``POOL_SIZE`` seeded candidates, none of which pmpkit fails on
(``validate_pools.py`` checks that), so a run holds no failing operation
whatever its seed.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

WORKLOADS = ("oscillator-tmin", "reach-analysis", "spring-shooting")

# k2 values of the spring workload; the first solve of each k2 in a process
# finds the scan cache empty for its grid (cold), later ones reuse it (warm)
SPRING_K2 = (0.5, 1.0, 2.0)

_OSC = {"name": "linear_oscillator"}

# the oscillator pairs: to the origin, from the origin, general, and the
# two-arc family x0 = (eps, 0) -> 0 whose T* is known in closed form
OSC_FAMILIES = ("to-origin", "from-origin", "general", "eps")

# candidates per pool family.  A 30-second run completes 7-12 rounds,
# so it draws most of each pool: runs of different seeds then time nearly the
# same inputs in different orders, and their medians differ by host noise
# rather than by which inputs a seed happened to pick
POOL_SIZE = 10


def _r(x: float) -> float:
    return round(x, 6)


def _polar(rng: random.Random, r_lo: float, r_hi: float) -> List[float]:
    r = rng.uniform(r_lo, r_hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [_r(r * math.cos(phi)), _r(r * math.sin(phi))]


def _piecewise(rng: random.Random, T: float, pieces: int) -> dict:
    inner = sorted(rng.uniform(0.1, 0.9) * T for _ in range(pieces - 1))
    breakpoints = [0.0] + [_r(t) for t in inner] + [_r(T)]
    values = [[_r(rng.uniform(-1.0, 1.0))] for _ in range(pieces)]
    return {"breakpoints": breakpoints, "values": values}


def _tmin_pair(rng: random.Random, family: str):
    """(x0, x1, expect) for one of the four oscillator families."""
    if family == "to-origin":
        return _polar(rng, 0.3, 1.2), [0.0, 0.0], {}
    if family == "from-origin":
        return [0.0, 0.0], _polar(rng, 0.3, 1.2), {}
    if family == "general":
        return _polar(rng, 0.2, 1.0), _polar(rng, 0.2, 1.0), {}
    eps = _r(rng.uniform(0.2, 1.8))
    return [eps, 0.0], [0.0, 0.0], {"two_arc_eps": eps}


def _kalman_system(rng: random.Random):
    """Random (A, B) with n <= 5 whose Kalman rank is known by construction.

    A controllable companion block of size r (input on its last state) sits
    beside an uncontrollable block that the input never reaches; an
    orthogonal change of basis hides the split.
    """
    n = rng.randint(2, 5)
    r = rng.randint(1, n)
    m = rng.randint(1, 2)
    # block upper triangular [[A11, A12], [0, A22]] with B = [B1; 0]: the
    # span of the first r coordinates is invariant and holds every input
    A = [[0.0] * n for _ in range(n)]
    for i in range(r - 1):
        A[i][i + 1] = 1.0
    for j in range(r):
        A[r - 1][j] = _r(rng.uniform(-2.0, 2.0))
    for j in range(r, n):
        for i in range(n):
            A[i][j] = _r(rng.uniform(-1.0, 1.0))
    B = [[0.0] * m for _ in range(n)]
    B[r - 1][0] = 1.0
    for j in range(1, m):
        for i in range(r):
            B[i][j] = _r(rng.uniform(-1.0, 1.0))
    Q = _orthogonal(rng, n)
    # A' = Q A Q^T, B' = Q B keeps the Kalman rank
    QA = _matmul(Q, A)
    A2 = _matmul(QA, [list(col) for col in zip(*Q)])
    B2 = _matmul(Q, B)
    return A2, B2, r


def _matmul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
            for i in range(len(X))]


def _orthogonal(rng: random.Random, n: int):
    """Gram-Schmidt on a random Gaussian basis."""
    rows: List[List[float]] = []
    while len(rows) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        for q in rows:
            dot = sum(a * b for a, b in zip(v, q))
            v = [a - dot * b for a, b in zip(v, q)]
        norm = math.sqrt(sum(a * a for a in v))
        if norm > 1e-3:
            rows.append([a / norm for a in v])
    return rows


def _reach_item(rng: random.Random) -> dict:
    """A K=64 hull; it holds most of a reach-analysis round's time."""
    T = _r(rng.uniform(0.5 * math.pi, 3.0 * math.pi))
    return {"command": "reach", "ext": "csv" if rng.random() < 0.5 else "json",
            "config": {"system": dict(_OSC), "x0": _polar(rng, 0.0, 0.5), "T": T, "K": 64},
            "expect": {}}


def _linearize_item(rng: random.Random) -> dict:
    T = _r(rng.uniform(2.0, 5.0))
    return {"command": "linearize",
            "config": {"system": {"name": "nonlinear_spring",
                                  "k2": _r(rng.uniform(0.5, 3.0))},
                       "x0": _polar(rng, 0.0, 0.5), "T": T,
                       "control": _piecewise(rng, T, rng.randint(2, 4))},
            "expect": {}}


def _simulate_item(rng: random.Random) -> dict:
    """Dense sampling: 30k-60k rows of CSV."""
    T = _r(rng.uniform(4.0, 12.0))
    samples = rng.randint(30000, 60000)
    return {"command": "simulate",
            "config": {"system": dict(_OSC), "x0": _polar(rng, 0.0, 1.0), "T": T,
                       "control": _piecewise(rng, T, rng.randint(2, 5)),
                       "max_sample_step": T / samples},
            "expect": {}}


def _kalman_item(rng: random.Random) -> dict:
    A, B, rank = _kalman_system(rng)
    return {"command": "kalman",
            "config": {"system": {"A": A, "B": B, "bounds": None}},
            "expect": {"rank": rank}}


def _tmin_linear_item(rng: random.Random, family: str) -> dict:
    x0, x1, expect = _tmin_pair(rng, family)
    return {"command": "tmin-linear",
            "config": {"system": dict(_OSC), "x0": x0, "x1": x1},
            "expect": expect}


def _tmin_spring_item(rng: random.Random, k2: float) -> dict:
    return {"command": "tmin-spring",
            "config": {"k2": k2, "target": _polar(rng, 0.2, 1.0)},
            "expect": {}}


_REACH_ITEMS = {"reach": _reach_item, "linearize": _linearize_item,
                "simulate": _simulate_item, "kalman": _kalman_item}

# workload -> (pool family, scenarios per round).  A reach-analysis round is
# one hull, three linearizations, one dense simulate and one kalman, so the
# median scenario of its stream is a linearization.
POOLS: Dict[str, List[Tuple[object, int]]] = {
    "oscillator-tmin": [(family, 1) for family in OSC_FAMILIES],
    "reach-analysis": [("reach", 1), ("linearize", 3), ("simulate", 1), ("kalman", 1)],
    "spring-shooting": [(k2, 1) for k2 in SPRING_K2],
}


def pool_candidates(workload: str, family) -> List[dict]:
    """The candidates of one pool family."""
    rng = random.Random(f"{workload}:pool:{family}")
    if workload == "reach-analysis":
        return [_REACH_ITEMS[family](rng) for _ in range(POOL_SIZE)]
    if workload == "spring-shooting":
        return [_tmin_spring_item(rng, family) for _ in range(POOL_SIZE)]
    return [_tmin_linear_item(rng, family) for _ in range(POOL_SIZE)]


class _Draws:
    """Seeded draws from each pool family, without repeats until it runs out."""

    def __init__(self, workload: str, rng: random.Random):
        self.rng = rng
        self.pool: Dict[object, List[dict]] = {}
        self.queue: Dict[object, List[dict]] = {}
        for family, _ in POOLS[workload]:
            self.pool[family] = pool_candidates(workload, family)
            self.queue[family] = []

    def __call__(self, family) -> dict:
        if not self.queue[family]:
            self.queue[family] = list(self.pool[family])
            self.rng.shuffle(self.queue[family])
        return dict(self.queue[family].pop())


OUTPUT_EXT = {"kalman": "json", "simulate": "csv", "reach": "json", "tmin-linear": "json",
              "tmin-spring": "json", "linearize": "csv"}


def generate(workload: str, seed: int, count: int) -> List[dict]:
    """The first ``count`` scenarios of the workload's stream for ``seed``.

    Each scenario has ``id``, ``round``, ``command``, ``config`` (complete
    CLI config, including its unique ``output_path``) and ``expect``
    (gate-only facts).
    """
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    draw = _Draws(workload, rng)
    scenarios: List[dict] = []
    round_no = 0
    while len(scenarios) < count:
        batch = [draw(family) for family, n in POOLS[workload] for _ in range(n)]
        rng.shuffle(batch)
        for sc in batch:
            if len(scenarios) == count:
                break
            i = len(scenarios)
            ext = sc.pop("ext", OUTPUT_EXT[sc["command"]])
            sc["config"] = {"command": sc["command"], **sc["config"],
                            "output_path": f"{i:04d}-{sc['command']}.{ext}"}
            sc["id"] = i
            sc["round"] = round_no
            scenarios.append(sc)
        round_no += 1
    return scenarios
