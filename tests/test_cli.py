import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pmpkit
from pmpkit.cli import main, run

OSC_JSON = {"A": [[0, 1], [-1, 0]], "B": [[0], [1]], "bounds": [[-1, 1]]}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_kalman_summary_and_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "kalman",
        "system": {"name": "linear_oscillator"},
        "output_path": "kalman_out.json",
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "rank=2 controllable=true"
    data = json.loads((tmp_path / "kalman_out.json").read_text())
    assert data["rank"] == 2
    assert data["controllable"] is True
    assert data["meta"]["tool"] == "pmpkit"
    assert data["meta"]["config"]["command"] == "kalman"


def test_reach_k_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "reach",
        "system": {"name": "linear_oscillator"},
        "T": math.pi,
        "K": 2,
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config.K" in err
    assert "K >= 3" in err


@pytest.mark.parametrize("fields, path, message", [
    ({"system": {"A": [[0, 1], [-1, 0]], "B": [[0], [1]], "bounds": [[-2, 2]]}},
     "config.system", "control bounds [-1, 1]"),
    ({"system": {"A": [[0, 1, 0], [0, 0, 1], [0, 0, 0]], "B": [[0], [0], [1]],
                 "bounds": [[-1, 1]]}}, "config.system", "n = 2"),
    ({"x0": [0.1, 0.2, 0.3]}, "config.x0", "expected 2 entries"),
    ({"T": 0.0}, "config.T", "must be positive"),
], ids=["wide_bounds", "three_states", "x0_length", "zero_horizon"])
def test_reach_rejected_as_config_error(tmp_path, capsys, fields, path, message):
    config = {"command": "reach", "system": {"name": "linear_oscillator"}, "T": 1.0, "K": 8}
    assert run({**config, **fields}, out_dir=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert path in err
    assert message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("control", [
    {"constant": [0.5]},
    {"breakpoints": [0.0, 1.0], "values": [[0.5]]},
], ids=["constant", "breakpoints"])
def test_simulate_zero_horizon_writes_x0(tmp_path, capsys, control):
    # T = 0 is a valid horizon for either control form: the trajectory is x0
    rc = run({"command": "simulate", "system": OSC_JSON, "x0": [0.3, 0.4], "T": 0.0,
              "control": control, "output_path": "traj.csv"}, out_dir=str(tmp_path))
    assert rc == 0
    assert capsys.readouterr().out.strip() == "samples=1 final=[0.3,0.4]"
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[2:] == ["t,x1,x2", "0,0.29999999999999999,0.40000000000000002"]


def test_unknown_command_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"command": "explode"})
    rc = main(["--config", cfg])
    assert rc == 2
    assert "config.command" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "file not found" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["--config", str(bad)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_numerical_failure_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "tmin-linear",
        "system": {"A": [[-1, 1], [0, -1]], "B": [[0], [1]],
                   "bounds": [[-1, 1]]},
        "x0": [0.0, 0.0],
        "x1": [5.0, 5.0],
        "t_max": 4.0,
        "n_angles": 90,
        "t_grid": 100,
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tmin-linear", "check-extremal"])
@pytest.mark.parametrize("system, message", [
    ({"A": [[0, 1, 0], [0, 0, 1], [0, 0, 0]], "B": [[0], [0], [1]], "bounds": [[-1, 1]]},
     "n = 3"),
    (dict(OSC_JSON, bounds=[[-2, 2]]), "bounds [-1, 1]"),
    ({"A": [[0, 0], [0, 0]], "B": [[1], [0]], "bounds": [[-1, 1]]}, "controllable"),
], ids=["three_state_chain", "bounds_2", "uncontrollable"])
def test_tmin_system_rejected_as_config_error(tmp_path, capsys, command, system, message):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": command,
        "system": system,
        "x0": [0.5, 0.0],
        "x1": [0.0, 0.0],
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config.system" in err
    assert message in err


def test_tmin_point_length_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "tmin-linear",
        "system": OSC_JSON,
        "x0": [0.5, 0.0, 0.0],
        "x1": [0.0, 0.0],
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.x0" in capsys.readouterr().err


def test_simulate_csv_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "simulate",
        "system": OSC_JSON,
        "x0": [0.3, 0.4],
        "T": 2 * math.pi,
        "control": {"constant": [-1.0]},
        "output_path": "traj.csv",
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0].startswith("# pmpkit")
    assert lines[1].startswith("# config:")
    assert lines[2] == "t,x1,x2"
    first = [float(v) for v in lines[3].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first == [0.0, 0.3, 0.4]
    # full period returns to the start
    assert abs(last[1] - 0.3) < 1e-9 and abs(last[2] - 0.4) < 1e-9


def test_tmin_spring_trivial(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "tmin-spring",
        "k2": 2.0,
        "target": [0.0, 0.0],
        "output_path": "sol.json",
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert "T_star=0" in capsys.readouterr().out
    data = json.loads((tmp_path / "sol.json").read_text())
    assert data["T"] == 0.0
    assert data["report"]["abnormal"] is False


def test_tmin_linear_json_payload(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "tmin-linear",
        "system": OSC_JSON,
        "x0": [0.5, 0.0],
        "x1": [0.0, 0.0],
        "output_path": "sol.json",
    })
    rc = main(["--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "sol.json").read_text())
    assert set(data) == {"T", "theta", "switch_times", "endpoint_error", "meta"}
    assert data["endpoint_error"] <= 1e-6


def test_reach_json_and_csv(tmp_path):
    base = {
        "command": "reach",
        "system": {"name": "linear_oscillator"},
        "T": math.pi,
        "K": 16,
    }
    cfg = write_config(tmp_path, "a.json", dict(base, output_path="hull.json"))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    hull = json.loads((tmp_path / "hull.json").read_text())
    assert set(hull) == {"T", "directions", "points", "values", "meta"}
    assert len(hull["points"]) == 16
    cfg = write_config(tmp_path, "b.json", dict(base, output_path="hull.csv"))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "hull.csv").read_text().splitlines()
    assert lines[2] == "theta,d1,d2,p1,p2,value"
    assert len(lines) == 3 + 16


def test_check_extremal_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "check-extremal",
        "system": {"name": "nonlinear_spring", "k2": 2.0},
        "target": [0.4, -0.2],
        "output_path": "report.json",
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["hamiltonian_residual"] <= 1e-6
    assert data["abnormal"] is False


def test_check_extremal_spring_reads_solver_fields(tmp_path, capsys):
    # (1, 0) cannot be brought to rest within t_max = 0.5; a route that
    # ignored the field would solve with the default horizon 20 and exit 0
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "check-extremal",
        "k2": 2.0,
        "target": [1.0, 0.0],
        "t_max": 0.5,
        "n_alphas": 90,
        "n_steps": 400,
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "horizon 0.5" in capsys.readouterr().err


def test_check_extremal_spring_target_length(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "check-extremal",
        "k2": 2.0,
        "target": [1.0, 0.0, 0.0],
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "config.target" in capsys.readouterr().err


def test_check_extremal_linear_route(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "check-extremal",
        "system": OSC_JSON,
        "x0": [0.7, 0.0],
        "x1": [0.0, 0.0],
        "output_path": "report.json",
    })
    rc = main(["--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["state_residual"] <= 1e-6
    assert data["adjoint_residual"] <= 1e-6
    assert data["max_condition_residual"] <= 1e-6
    assert data["hamiltonian_residual"] <= 1e-4


def test_linearize_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "linearize",
        "system": {"name": "nonlinear_spring", "k2": 2.0},
        "x0": [0.1, 0.0],
        "T": 1.0,
        "control": {"constant": [0.3]},
        "output_path": "ref.csv",
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=regular" in out
    assert "rank=2" in out
    lines = (tmp_path / "ref.csv").read_text().splitlines()
    assert lines[2] == "t,x1,x2"


_SPRING = {"name": "nonlinear_spring", "k2": 2.0}


@pytest.mark.parametrize("command, system, control, field", [
    ("linearize", _SPRING, {"breakpoints": [0.0, 0.5], "values": [0.3]},
     "config.control.breakpoints"),
    ("linearize", _SPRING, {"breakpoints": [0.0, 1.0], "values": [[0.3, 0.2]]},
     "config.control.values"),
    ("simulate", OSC_JSON, {"breakpoints": [0.0, 1.0], "values": [[0.3, 0.2]]},
     "config.control.values"),
    ("simulate", OSC_JSON, {"breakpoints": [0.0, 0.5], "values": [0.3]},
     "config.control.breakpoints"),
    ("simulate", OSC_JSON, {"constant": [2.0]}, "config.control.constant"),
], ids=["linearize_short_signal", "linearize_two_channels", "simulate_two_channels",
        "simulate_short_signal", "simulate_outside_bounds"])
def test_control_rejected_as_config_error(tmp_path, capsys, command, system, control,
                                          field):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": command, "system": system, "x0": [0.1, 0.0], "T": 1.0,
        "control": control,
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_linearize_blowup_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "linearize", "system": _SPRING, "x0": [1e30, 0.0], "T": 1.0,
        "control": {"constant": [0.3]},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: integration blew up" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t_max", [-1, 0])
def test_tmin_linear_nonpositive_t_max_exit_2(tmp_path, capsys, t_max):
    rc = run({"command": "tmin-linear", "system": OSC_JSON, "x0": [0.5, 0.2],
              "x1": [0.0, 0.0], "t_max": t_max}, out_dir=str(tmp_path))
    assert rc == 2
    assert "config.t_max: must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_output_path_naming_a_directory_exit_2(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    rc = run({"command": "kalman", "system": OSC_JSON, "output_path": "out"},
             out_dir=str(tmp_path))
    assert rc == 2
    assert "config.output_path" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert not list((tmp_path / "out").iterdir())


def test_simulate_linear_blowup_exit_3(tmp_path, capsys):
    # x' = 50 x overflows near t = 14.2; no overflow warning, no nan rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run({"command": "simulate", "system": {"A": [[50, 0], [0, 50]], "B": [[1], [0]]},
                  "x0": [1.0, 1.0], "T": 100.0, "control": {"constant": [0.0]},
                  "output_path": "traj.csv"}, out_dir=str(tmp_path))
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: integration blew up" in err
    assert "t=14.0" in err
    assert not list(tmp_path.iterdir())


def test_missing_field_path_in_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "simulate",
        "system": OSC_JSON,
        "T": 1.0,
        "control": {"constant": [0.0]},
    })
    rc = main(["--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "config.x0" in capsys.readouterr().err


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "tmin-linear",
        "system": OSC_JSON,
        "x0": [0.9, -0.4],
        "x1": [0.0, 0.0],
        "output_path": "sol.json",
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet",
                 "--seed", "7"]) == 0
    first = (tmp_path / "sol.json").read_bytes()
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet",
                 "--seed", "7"]) == 0
    assert (tmp_path / "sol.json").read_bytes() == first


def test_entry_point_runs():
    # the child does not inherit pytest's pythonpath setting
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmpkit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "pmpkit.cli", "--help"],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0
    assert "--config" in out.stdout
    assert "CSV columns" in out.stdout
