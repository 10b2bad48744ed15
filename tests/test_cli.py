import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pmpkit
from pmpkit.cli import main

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
