import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def run_python(args):
    """Run a fresh interpreter that imports pqgalerkin from this checkout."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(pqgalerkin.__file__).parents[1]))
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, timeout=60)


# solver.fd_step belonged to the finite-difference Jacobian; the other keys
# were knobs with one value in use (the value given here), now constants
REMOVED_KEYS = {"solver.fd_step": 1e-7, "solver.homotopy_steps": 4,
                "solver.continuation_steps": 10, "solver.max_halvings": 40,
                "estimates.sobolev_samples": 1000}


def removed_key_config(tmp_path, dotted):
    block, key = dotted.split(".")
    return write_config(tmp_path,
                        base_config(**{block: {key: REMOVED_KEYS[dotted]}}),
                        name=f"{dotted}.json")


def assert_every_command_fails(tmp_path, capsys, path, code, stderr):
    """estimate, solve and verify each return `code`, print exactly `stderr`
    and no traceback, and leave no --out directory behind."""
    for command in ("estimate", "solve", "verify"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == stderr
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("dotted", list(REMOVED_KEYS))
def test_removed_key_is_exit_1_without_traceback(tmp_path, capsys, dotted):
    # the strict schema rejects each like any unknown key, before any output
    # is written
    block, key = dotted.split(".")
    assert_every_command_fails(
        tmp_path, capsys, removed_key_config(tmp_path, dotted), 1,
        f"config error: {block}: unknown keys ['{key}']\n")


def test_psi_without_positive_root_is_exit_1_without_traceback(tmp_path,
                                                               capsys):
    # a0 - c0 barely positive and p barely above q: psi stays negative on
    # every bracket apriori_radius tries, so it raises ArithmeticError
    cfg = base_config()
    cfg["problem"].update(p=2.01, q=2.0,
                          weight={"kind": "quadratic", "base": 0.5000001,
                                  "coef": 1.0})
    assert_every_command_fails(
        tmp_path, capsys, write_config(tmp_path, cfg), 1,
        "config error: no positive root bracket found for psi\n")


def test_h3a_without_constants_is_exit_2_without_output(tmp_path, capsys):
    # the saturating family with alpha < p carries no (H3a) constants; the
    # violation is raised after load_config and must leave no --out behind
    cfg = base_config()
    cfg["problem"]["regime"] = "H3a"
    assert_every_command_fails(
        tmp_path, capsys, write_config(tmp_path, cfg), 2,
        "hypothesis violation: (H3a) constants missing from the family\n")


def test_cli_runs_without_scipy_stats_or_special(tmp_path):
    # scipy.stats is 0.7 s of import time that only the hypothesis audits
    # need; no CLI command may load it, or scipy.special, at start-up or
    # later.  The one fresh interpreter of the suite also exits through
    # main on a removed key: exit 1, one line, no traceback.
    path = write_config(tmp_path, base_config())
    removed = removed_key_config(tmp_path, "solver.max_halvings")
    script = f"""
import sys
import pqgalerkin
from pqgalerkin.cli import main

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "stats"],
                                          ["scipy", "special"]))

assert loaded() == [], ("import", loaded())
for command in ("estimate", "solve", "verify"):
    rc = main([command, "--config", {path!r}, "--out", {str(tmp_path)!r}])
    assert rc == 0, (command, rc)
    assert loaded() == [], (command, loaded())
sys.exit(main(["solve", "--config", {removed!r},
               "--out", {str(tmp_path / "removed")!r}]))
"""
    run = run_python(["-c", script])
    assert run.returncode == 1, run.stderr
    assert run.stderr == \
        "config error: solver: unknown keys ['max_halvings']\n"
    assert not (tmp_path / "removed").exists()


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


def assembly_error_config():
    cfg = base_config()
    cfg["problem"].update(p=60.0,
                          weight={"kind": "constant", "value": 1.0},
                          convection={"kind": "constant", "value": 1e8})
    return cfg


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_merit_overflow_leaks_no_warning(tmp_path, capsys):
    # p = 40 with a load of 1e6 gives residual entries whose sum of squares
    # overflows in the Newton merit; the level still stalls just above the
    # absolute 1e-10 stopping test, but no overflow warning may escape
    cfg = base_config(mesh={"base_cells": 4, "levels": 2})
    cfg["problem"].update(p=40.0, weight={"kind": "constant", "value": 1.0},
                          convection={"kind": "constant", "value": 1e6})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path,
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == \
        "level 0 failed: line search stalled (residual sup 1.019e-10)\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("kind", ["solve-error", "assembly-error"])
def test_level_failure_names_the_level_once(tmp_path, capsys, command, kind):
    cfg = base_config(solver={"max_iterations": 1}) \
        if kind == "solve-error" else assembly_error_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    hier = json.loads((out / "report.json").read_text())["hierarchy"]
    assert err == hier["failure_message"] + "\n"
    assert err.startswith("level 0 failed: ")
    assert err.count("level") == 1 and err.count("failed") == 1


def test_solve_assembly_error_is_exit_3_with_partial_report(tmp_path, capsys):
    cfg = assembly_error_config()
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


def test_verify_report_outside_out_still_writes_solutions(tmp_path):
    path = write_config(tmp_path, base_config())
    solved, certified = tmp_path / "solved", tmp_path / "certified"
    assert main(["solve", "--config", path, "--out", str(solved)]) == 0
    rc = main(["verify", "--config", path, "--out", str(certified),
               "--report", str(solved / "report.json")])
    assert rc == 0
    assert not (certified / "report.json").exists()
    for n in range(3):
        assert (certified / f"solution_L{n}.csv").exists()
    assert (certified / "diagnostics.csv").exists()
    assert (certified / "run.lock.json").exists()


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
