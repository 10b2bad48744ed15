"""Command-line front end.

Reads a JSON scenario config, dispatches to the library, and writes CSV or
JSON outputs atomically.  Exit status 0 on success, 2 on a validation
problem (reported with the offending field path), 3 on a numerical failure
such as an unreachable target or chattering.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Any, List, Optional, Sequence

import numpy as np

from . import __version__, controllability, linear_tmin, nonlinear
from .errors import NumericalError
from .linsys import ControlSignal, LinearSystem, simulate
from .ode import Trajectory

_EPILOG = """\
The scenario lives in the JSON file passed with --config.  Its "command"
field selects the action; "output_path" names the file to write (relative
paths resolve against --out).

CSV columns by command:
  simulate   t,x1,...,xn        one row per sample time
  linearize  t,x1,...,xn        reference trajectory of the linearization
  reach      theta,d1,d2,p1,p2,value
             direction angle, direction, support point, support value
Metadata rides in leading '#' comment lines (tool version, resolved config).
JSON outputs carry the payload at the top level plus a "meta" block.
"""


class ConfigError(Exception):
    """Invalid scenario config; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class _Cfg:
    """Field accessor that reports dotted paths in error messages."""

    def __init__(self, data: dict, path: str = "config"):
        if not isinstance(data, dict):
            raise ConfigError(path, "expected a JSON object")
        self.data = data
        self.path = path

    def has(self, key: str) -> bool:
        return key in self.data

    def raw(self, key: str, default=None):
        return self.data.get(key, default)

    def require(self, key: str):
        if key not in self.data:
            raise ConfigError(f"{self.path}.{key}", "missing required field")
        return self.data[key]

    def sub(self, key: str) -> "_Cfg":
        return _Cfg(self.require(key), f"{self.path}.{key}")

    def number(self, key: str, default=None, minimum=None) -> float:
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(f"{self.path}.{key}", "missing required field")
        if not isinstance(val, (int, float)) or isinstance(val, bool) \
                or not math.isfinite(val):
            raise ConfigError(f"{self.path}.{key}", "expected a finite number")
        if minimum is not None and val < minimum:
            raise ConfigError(f"{self.path}.{key}", f"must be >= {minimum}")
        return float(val)

    def integer(self, key: str, default=None, minimum=None) -> int:
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(f"{self.path}.{key}", "missing required field")
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"{self.path}.{key}", "expected an integer")
        if minimum is not None and val < minimum:
            raise ConfigError(f"{self.path}.{key}", f"must be >= {minimum}")
        return val

    def vector(self, key: str, default=None) -> np.ndarray:
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(f"{self.path}.{key}", "missing required field")
        try:
            vec = np.asarray(val, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise ConfigError(f"{self.path}.{key}", "expected a numeric vector")
        if not np.all(np.isfinite(vec)):
            raise ConfigError(f"{self.path}.{key}", "entries must be finite")
        return vec

    def string(self, key: str, default=None) -> str:
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(f"{self.path}.{key}", "missing required field")
        if not isinstance(val, str):
            raise ConfigError(f"{self.path}.{key}", "expected a string")
        return val


# the linear built-ins are the registry systems that are linear; each is
# its linearization at the origin
_BUILTIN_LINEAR = {
    "linear_oscillator": lambda: nonlinear.equilibrium_linearization(
        nonlinear.make_system("linear_oscillator")),
}


def _parse_linear_system(cfg: _Cfg) -> LinearSystem:
    sub = cfg.sub("system")
    if sub.has("name"):
        name = sub.string("name")
        if name not in _BUILTIN_LINEAR:
            raise ConfigError(f"{sub.path}.name",
                              f"unknown linear system; known: {sorted(_BUILTIN_LINEAR)}")
        return _BUILTIN_LINEAR[name]()
    try:
        return LinearSystem.from_json_dict(sub.data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(sub.path, f"invalid linear system: {exc}")


def _parse_control(cfg: _Cfg, key: str, m: int, T: float,
                   bounds: Optional[np.ndarray] = None) -> ControlSignal:
    """An m-channel piecewise-constant control defined on [0, T]; with
    ``bounds``, every value must also lie in the control box."""
    sub = cfg.sub(key)
    field = "constant" if sub.has("constant") else "values"
    try:
        if sub.has("constant"):
            # a zero horizon still needs an interval to hold the value on
            u = ControlSignal.constant(sub.vector("constant"), T if T > 0 else 1.0)
        else:
            u = ControlSignal(sub.vector("breakpoints"),
                              np.asarray(sub.require("values"), dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(sub.path, f"invalid control signal: {exc}")
    bad = u.mismatch(m, T, bounds)
    if bad is not None:
        part, msg = bad
        raise ConfigError(f"{sub.path}.{'breakpoints' if part == 'cover' else field}", msg)
    return u


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pmpkit-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_clean(obj: Any):
    if isinstance(obj, np.ndarray):
        return _json_clean(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict, meta: dict) -> None:
    body = dict(_json_clean(payload))
    body["meta"] = _json_clean(meta)
    _atomic_write(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def _csv_meta_lines(meta: dict) -> List[str]:
    return [
        f"# pmpkit {meta['version']}",
        "# config: " + json.dumps(_json_clean(meta["config"]),
                                  sort_keys=True, separators=(",", ":")),
    ]


def _write_trajectory_csv(path: str, times: np.ndarray, states: np.ndarray,
                          meta: dict) -> None:
    n = states.shape[1]
    lines = _csv_meta_lines(meta)
    lines.append("t," + ",".join(f"x{i + 1}" for i in range(n)))
    for t, row in zip(times, states):
        lines.append(",".join(f"{v:.17g}" for v in [t, *row]))
    _atomic_write(path, "\n".join(lines) + "\n")


def _resolve_out(cfg: _Cfg, out_dir: Optional[str], default_name: str) -> str:
    name = cfg.string("output_path", default=default_name)
    path = name if os.path.isabs(name) else os.path.join(out_dir or ".", name)
    if os.path.isdir(path):
        raise ConfigError(f"{cfg.path}.output_path", "names an existing directory")
    return path


def _meta(config: dict, seed: Optional[int]) -> dict:
    resolved = dict(config)
    if seed is not None:
        resolved["seed"] = seed
    return {"tool": "pmpkit", "version": __version__, "config": resolved}


# ---------------------------------------------------------------------------
# command handlers; each returns the one-line summary


def _cmd_kalman(cfg: _Cfg, out_dir, meta) -> str:
    sys_lin = _parse_linear_system(cfg)
    km = controllability.kalman_matrix(sys_lin)
    controllable = km.rank == sys_lin.n
    payload = {
        "rank": km.rank,
        "n": sys_lin.n,
        "controllable": controllable,
        "kalman_matrix": km.C,
        "singular_values": km.singular_values,
    }
    _write_json(_resolve_out(cfg, out_dir, "kalman.json"), payload, meta)
    return f"rank={km.rank} controllable={str(controllable).lower()}"


def _cmd_simulate(cfg: _Cfg, out_dir, meta) -> str:
    sys_lin = _parse_linear_system(cfg)
    x0 = cfg.vector("x0")
    if len(x0) != sys_lin.n:
        raise ConfigError(f"{cfg.path}.x0", f"expected {sys_lin.n} entries")
    T = cfg.number("T", minimum=0.0)
    u = _parse_control(cfg, "control", sys_lin.m, T, sys_lin.control_bounds)
    step = cfg.number("max_sample_step", default=T / 400 if T > 0 else 1.0)
    traj = simulate(sys_lin, x0, u, T, max_sample_step=step)
    _write_trajectory_csv(_resolve_out(cfg, out_dir, "trajectory.csv"),
                          traj.times, traj.states, meta)
    final = ",".join(f"{v:.6g}" for v in traj.endpoint)
    return f"samples={len(traj.times)} final=[{final}]"


def _cmd_reach(cfg: _Cfg, out_dir, meta) -> str:
    sys_lin = _parse_linear_system(cfg)
    if sys_lin.n != 2:
        raise ConfigError(f"{cfg.path}.system",
                          f"reach spreads its directions in the plane and needs n = 2, "
                          f"got n = {sys_lin.n}")
    try:
        controllability._require_unit_box(sys_lin)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}.system", str(exc))
    x0 = cfg.vector("x0", default=[0.0, 0.0])
    if len(x0) != 2:
        raise ConfigError(f"{cfg.path}.x0", "expected 2 entries")
    T = cfg.number("T", minimum=0.0)
    if T <= 0:
        raise ConfigError(f"{cfg.path}.T", "must be positive")
    K = cfg.integer("K", default=64)
    if K < 3:
        raise ConfigError(f"{cfg.path}.K", "K >= 3 required")
    hull = controllability.reach_hull(sys_lin, x0, T, K=K)
    path = _resolve_out(cfg, out_dir, "hull.json")
    if path.endswith(".csv"):
        lines = _csv_meta_lines(meta)
        lines.append("theta,d1,d2,p1,p2,value")
        for d, p, v in zip(hull.directions, hull.support_points, hull.support_values):
            row = [math.atan2(d[1], d[0]), *d, *p, v]
            lines.append(",".join(f"{x:.17g}" for x in row))
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        _write_json(path, hull.to_json_dict(), meta)
    margin = hull.certificate_margin()
    return f"K={K} T={T:.6g} certificate_margin={margin:.3e}"


def _parse_tmin_problem(cfg: _Cfg):
    """(system, x0, x1) of a linear minimal-time config, checked up front."""
    sys_lin = _parse_linear_system(cfg)
    try:
        linear_tmin.check_tmin_system(sys_lin)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}.system", str(exc))
    x0, x1 = cfg.vector("x0"), cfg.vector("x1")
    for key, vec in (("x0", x0), ("x1", x1)):
        if len(vec) != 2:
            raise ConfigError(f"{cfg.path}.{key}", "expected 2 entries")
    return sys_lin, x0, x1


def _cmd_tmin_linear(cfg: _Cfg, out_dir, meta) -> str:
    sys_lin, x0, x1 = _parse_tmin_problem(cfg)
    t_max = cfg.number("t_max") if cfg.has("t_max") else None
    if t_max is not None and t_max <= 0:
        raise ConfigError(f"{cfg.path}.t_max", "must be positive")
    opts = linear_tmin.TminOptions(
        n_angles=cfg.integer("n_angles", default=720, minimum=8),
        t_grid=cfg.integer("t_grid", default=500, minimum=10),
        t_max=t_max,
        endpoint_tol=cfg.number("endpoint_tol", minimum=0.0)
        if cfg.has("endpoint_tol") else None,
    )
    sol = linear_tmin.solve_tmin(sys_lin, x0, x1, options=opts)
    _write_json(_resolve_out(cfg, out_dir, "tmin.json"), sol.to_json_dict(), meta)
    return (f"T_star={sol.T_star:.9g} switches={len(sol.control.switch_times)} "
            f"endpoint_error={sol.endpoint_error:.3e}")


def _parse_spring(cfg: _Cfg):
    """(k2, target) of a spring shooting config."""
    if cfg.has("system"):
        sub = cfg.sub("system")
        name = sub.string("name", default="nonlinear_spring")
        if name not in ("nonlinear_spring", "linear_oscillator"):
            raise ConfigError(f"{sub.path}.name",
                              "expected nonlinear_spring or linear_oscillator")
        k2 = 0.0 if name == "linear_oscillator" else sub.number("k2", default=2.0, minimum=0.0)
    else:
        k2 = cfg.number("k2", default=2.0, minimum=0.0)
    target = cfg.vector("target") if cfg.has("target") else cfg.vector("x0")
    if len(target) != 2:
        raise ConfigError(f"{cfg.path}.target", "expected 2 entries")
    return k2, target


def _spring_options(cfg: _Cfg) -> nonlinear.SpringShootOptions:
    return nonlinear.SpringShootOptions(
        n_alphas=cfg.integer("n_alphas", default=720, minimum=8),
        n_steps=cfg.integer("n_steps", default=4000, minimum=100),
        t_max=cfg.number("t_max", default=20.0, minimum=0.1),
    )


def _cmd_tmin_spring(cfg: _Cfg, out_dir, meta) -> str:
    k2, target = _parse_spring(cfg)
    sol, _ext = nonlinear.spring_tmin_shoot(k2, target, options=_spring_options(cfg))
    payload = sol.to_json_dict()
    payload["p0"] = sol.p0
    payload["report"] = sol.report.to_json_dict()
    _write_json(_resolve_out(cfg, out_dir, "tmin_spring.json"), payload, meta)
    return (f"T_star={sol.T_star:.9g} switches={len(sol.switch_times)} "
            f"endpoint_error={sol.endpoint_error:.3e}")


# sample spacing of the linear extremal handed to check_extremal, whose ODE
# residuals are one RK4 step per sample interval: sampling only at the
# switches would inflate them
_EXTREMAL_SAMPLE_STEP = 0.01


def _cmd_check_extremal(cfg: _Cfg, out_dir, meta) -> str:
    if cfg.has("target") or (cfg.has("system") and cfg.sub("system").has("name")
                             and "spring" in cfg.sub("system").string("name")):
        k2, target = _parse_spring(cfg)
        sol, _ = nonlinear.spring_tmin_shoot(k2, target, options=_spring_options(cfg))
        report = sol.report
    else:
        sys_lin, x0, x1 = _parse_tmin_problem(cfg)
        sol_lin = linear_tmin.solve_tmin(
            sys_lin, x0, x1, linear_tmin.TminOptions(sample_step=_EXTREMAL_SAMPLE_STEP))
        report = _linear_extremal_report(sys_lin, sol_lin)
    payload = report.to_json_dict()
    _write_json(_resolve_out(cfg, out_dir, "extremal_report.json"), payload, meta)
    worst = max(report.state_residual, report.adjoint_residual,
                report.max_condition_residual, report.hamiltonian_residual)
    return f"max_residual={worst:.3e} abnormal={str(report.abnormal).lower()}"


def _linear_extremal(sys_lin: LinearSystem, sol):
    """Wrap a minimal-time linear solution as an extremal of its nonlinear
    form: (system, extremal, boundary manifolds m0/m1)."""
    nsys = nonlinear.from_linear(sys_lin)
    traj = sol.trajectory
    eta = sol.adjoint.states
    # free-time PMP: max_v H = <p, Ax> + sum |<p, b_j>| + p0 must vanish;
    # the adjoint flow keeps it constant, so read p0 off the initial sample
    drift = float(eta[0] @ (sys_lin.A @ traj.states[0]))
    gain = float(np.abs(eta[0] @ sys_lin.B).sum())
    level = drift + gain
    if level > 1e-9:
        eta = eta / level
        p0 = -1.0
    else:
        p0 = 0.0
    ext = nonlinear.Extremal(
        trajectory=traj,
        adjoint=Trajectory(sol.adjoint.times, eta),
        p0=p0,
        control=sol.control.to_control_signal(),
        problem_kind="free-time",
    )
    manifolds = {"m0": nonlinear.BoundaryManifold.point(sol.x0),
                 "m1": nonlinear.BoundaryManifold.point(sol.x1)}
    return nsys, ext, manifolds


def _linear_extremal_report(sys_lin: LinearSystem, sol):
    """Wrap a minimal-time linear solution as an extremal and check it."""
    nsys, ext, manifolds = _linear_extremal(sys_lin, sol)
    return nonlinear.check_extremal(nsys, ext, **manifolds)


def _cmd_linearize(cfg: _Cfg, out_dir, meta) -> str:
    if cfg.has("system") and cfg.sub("system").has("name"):
        sub = cfg.sub("system")
        name = sub.string("name")
        if name not in nonlinear.REGISTRY:
            raise ConfigError(f"{sub.path}.name",
                              f"unknown system; known: {sorted(nonlinear.REGISTRY)}")
        kwargs = {}
        if sub.has("k2"):
            kwargs["k2"] = sub.number("k2", minimum=0.0)
        nsys = nonlinear.make_system(name, **kwargs)
    else:
        nsys = nonlinear.from_linear(_parse_linear_system(cfg))
    x0 = cfg.vector("x0")
    if len(x0) != nsys.n:
        raise ConfigError(f"{cfg.path}.x0", f"expected {nsys.n} entries")
    T = cfg.number("T", minimum=0.0)
    if T <= 0:
        raise ConfigError(f"{cfg.path}.T", "must be positive")
    u_ref = _parse_control(cfg, "control", nsys.m, T)
    n_steps = cfg.integer("n_steps", default=4000, minimum=10)
    lin = nonlinear.linearize(nsys, u_ref, x0, T, n_steps=n_steps)
    sing = nonlinear.singularity_test(lin)
    _write_trajectory_csv(_resolve_out(cfg, out_dir, "reference.csv"),
                          lin.reference.times, lin.reference.states, meta)
    return f"status={sing.status} rank={sing.rank} samples={len(lin.times)}"


_HANDLERS = {
    "kalman": _cmd_kalman,
    "simulate": _cmd_simulate,
    "reach": _cmd_reach,
    "tmin-linear": _cmd_tmin_linear,
    "tmin-spring": _cmd_tmin_spring,
    "check-extremal": _cmd_check_extremal,
    "linearize": _cmd_linearize,
}


def run(config: dict, out_dir: Optional[str] = None,
        seed: Optional[int] = None, quiet: bool = False) -> int:
    """Execute one scenario config; returns the process exit status."""
    try:
        cfg = _Cfg(config)
        command = cfg.string("command")
        if command not in _HANDLERS:
            raise ConfigError("config.command",
                              f"unknown command; expected one of {list(_HANDLERS)}")
        meta = _meta(config, seed)
        summary = _HANDLERS[command](cfg, out_dir, meta)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if not quiet:
        print(summary)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmpkit",
        description="Controllability, reachable sets, and minimal-time "
                    "extremals for small control systems.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", required=True,
                        help="path to the JSON scenario config")
    parser.add_argument("--out", default=None,
                        help="directory for output files (default: cwd)")
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded in the output metadata only; no "
                             "command draws random numbers")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the one-line summary")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r") as handle:
            config = json.load(handle)
    except FileNotFoundError:
        print(f"config error: config: file not found: {args.config}",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: config: invalid JSON: {exc}", file=sys.stderr)
        return 2

    return run(config, out_dir=args.out, seed=args.seed, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
