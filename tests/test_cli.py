import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pqgalerkin

from pqgalerkin.cli import build_problem, load_config, main
from pqgalerkin.fespace import FeSpace, read_csv
from pqgalerkin.galerkin import ProblemOperator
from pqgalerkin.mesh import build_mesh, refine
from pqgalerkin.operators import truncate_weight


def base_config(**overrides):
    cfg = {
        "problem": {
            "p": 3.0,
            "q": 2.0,
            "domain": {"kind": "interval", "bounds": [0.0, 1.0]},
            "weight": {"kind": "quadratic", "base": 2.0},
            "convection": {"kind": "saturating", "offset": 1.0},
        },
        "mesh": {"base_cells": 4, "levels": 3},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_estimate_writes_files(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["estimate", "--config", path, "--out", str(out)]) == 0
    est = json.loads((out / "estimates.json").read_text())
    for key in ("grad_radius", "sup_radius", "lambda1", "sobolev",
                "rhs_constant"):
        assert key in est
    assert est["grad_radius"] > 0.0
    lock = json.loads((out / "run.lock.json").read_text())
    assert lock["command"] == "estimate"
    assert lock["seed"] == 0


def test_malformed_json_is_exit_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["estimate", "--config", str(path),
                 "--out", str(tmp_path)]) == 1


def test_missing_config_file_is_exit_1(tmp_path):
    assert main(["estimate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 1


def test_unknown_key_is_exit_1(tmp_path):
    cfg = base_config()
    cfg["solvr"] = {}
    path = write_config(tmp_path, cfg)
    assert main(["estimate", "--config", path, "--out", str(tmp_path)]) == 1


def test_unknown_nested_key_is_exit_1(tmp_path):
    cfg = base_config()
    cfg["problem"]["weight"] = {"kind": "quadratic", "base": 2.0, "slope": 1.0}
    path = write_config(tmp_path, cfg)
    assert main(["estimate", "--config", path, "--out", str(tmp_path)]) == 1


def test_removed_fd_step_key_is_exit_1_without_traceback(tmp_path):
    # solver.fd_step belonged to the finite-difference Jacobian; the strict
    # schema rejects it like any unknown key, before any output is written
    path = write_config(tmp_path, base_config(solver={"fd_step": 1e-7}))
    env = dict(os.environ,
               PYTHONPATH=str(Path(pqgalerkin.__file__).parents[1]))
    for command in ("estimate", "solve", "verify"):
        out = tmp_path / command
        run = subprocess.run(
            [sys.executable, "-m", "pqgalerkin.cli", command, "--config",
             path, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 1, run.stderr
        assert "solver: unknown keys ['fd_step']" in run.stderr
        assert "Traceback" not in run.stderr
        assert not out.exists()


def test_bad_levels_is_exit_1(tmp_path):
    cfg = base_config()
    cfg["mesh"]["levels"] = 0
    path = write_config(tmp_path, cfg)
    assert main(["estimate", "--config", path, "--out", str(tmp_path)]) == 1


def test_hypothesis_violation_is_exit_2(tmp_path):
    cfg = base_config()
    cfg["problem"]["weight"] = {"kind": "constant", "value": 0.4}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_solve_writes_outputs(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    hier = report["hierarchy"]
    assert hier["failed_level"] is None
    assert len(hier["levels"]) == 3
    for n in range(3):
        assert (out / f"solution_L{n}.csv").exists()
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "level,grad_norm_p,sup_norm,cond_b_max,cond_c,cond_cprime"
    assert len(diag) == 4
    assert [row.split(",")[0] for row in diag[1:]] == ["0", "1", "2"]


def test_solution_csv_round_trips_to_a_certified_state(tmp_path):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    hier = json.loads((out / "report.json").read_text())["hierarchy"]
    problem = build_problem(cfg["problem"])
    mesh = build_mesh(problem.domain, 4)
    for _ in range(2):
        mesh = refine(mesh)
    space = FeSpace(mesh)
    u = read_csv(space, out / "solution_L2.csv")
    weight = truncate_weight(problem.weight, hier["truncation_radius"])
    op = ProblemOperator(problem, weight, space)
    res = np.max(np.abs(op.residual(u).values))
    assert res <= 10.0 * hier["solver_tolerance"]


def test_solve_respects_output_flags(tmp_path):
    cfg = base_config(output={"write_solutions": False,
                              "write_diagnostics": False})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert not (out / "solution_L0.csv").exists()
    assert not (out / "diagnostics.csv").exists()


def test_solve_failure_is_exit_3_with_partial_report(tmp_path):
    cfg = base_config(solver={"max_iterations": 1})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 3
    hier = json.loads((out / "report.json").read_text())["hierarchy"]
    assert hier["failed_level"] == 0
    assert "failed" in hier["failure_message"]


def test_solve_assembly_error_is_exit_3_with_partial_report(tmp_path, capsys):
    cfg = base_config()
    cfg["problem"].update(p=60.0,
                          weight={"kind": "constant", "value": 1.0},
                          convection={"kind": "constant", "value": 1e8})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["solve", "--config", path, "--out", str(out)]) == 3
    hier = json.loads((out / "report.json").read_text())["hierarchy"]
    assert hier["failed_level"] == 0
    assert "nonfinite weighted p-term" in hier["failure_message"]
    assert "nonfinite" in capsys.readouterr().err


def test_verify_passes_and_prints_certificates(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["all_passed"]
    text = capsys.readouterr().out
    assert "[pass] condition-b:" in text
    assert "[FAIL]" not in text
    assert "s-probe:" in text


def test_verify_missing_report_is_exit_1(tmp_path):
    path = write_config(tmp_path, base_config())
    rc = main(["verify", "--config", path, "--out", str(tmp_path / "out"),
               "--report", str(tmp_path / "nowhere.json")])
    assert rc == 1


def test_verify_appends_to_existing_report(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    before = json.loads((out / "report.json").read_text())
    assert set(before) == {"hierarchy"}
    rc = main(["verify", "--config", path, "--out", str(out),
               "--report", str(out / "report.json")])
    assert rc == 0
    after = json.loads((out / "report.json").read_text())
    assert set(after) == {"hierarchy", "verification"}
    assert after["verification"]["all_passed"]


def test_verify_certification_failure_is_exit_4(tmp_path, capsys):
    cfg = base_config(solver={"tolerance": 1e-2})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert not report["verification"]["all_passed"]
    assert "[FAIL]" in capsys.readouterr().out


def test_outputs_are_deterministic(tmp_path):
    path = write_config(tmp_path, base_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", path, "--out", str(out_a)]) == 0
    assert main(["verify", "--config", path, "--out", str(out_b)]) == 0
    for name in ("report.json", "solution_L2.csv", "diagnostics.csv",
                 "run.lock.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_is_recorded_and_changes_lock(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out),
                 "--seed", "7"]) == 0
    lock = json.loads((out / "run.lock.json").read_text())
    assert lock["seed"] == 7


def test_load_config_normalizes_2d_cells(tmp_path):
    cfg = base_config()
    cfg["problem"]["domain"] = {"kind": "rectangle",
                                "bounds": [[0.0, 1.0], [0.0, 1.0]]}
    cfg["mesh"]["base_cells"] = [2, 2]
    path = write_config(tmp_path, cfg)
    loaded = load_config(path)
    assert loaded["mesh"]["base_cells"] == (2, 2)
