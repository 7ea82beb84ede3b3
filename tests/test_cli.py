import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqgalerkin

from pqgalerkin import galerkin, operators
from pqgalerkin.cli import KINDS, build_problem, load_config, main
from pqgalerkin.estimates import compute_estimates
from pqgalerkin.fespace import FeSpace, read_csv
from pqgalerkin.galerkin import ProblemOperator
from pqgalerkin.mesh import Domain, build_mesh, refine
from pqgalerkin.operators import (adversarial_convection, constant_convection,
                                  constant_weight, quadratic_weight,
                                  saturating_convection, truncate_weight,
                                  zero_convection)


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


# solver.fd_step belonged to the finite-difference Jacobian;
# estimates.convention selected an eigenvalue scaling that is no bound for
# lambda1 > 1, and the estimates block went with it; the output block chose
# which files a run left in --out, which now gets every file every run; the
# other keys were knobs with one value in use (the value given here), now
# constants; the solver block went whole once its tolerance and iteration
# cap became constants too; problem.regime restated what the convection's
# alpha says, and the regime is now read off it
REMOVED_KEYS = {"solver.fd_step": 1e-7, "solver.homotopy_steps": 4,
                "solver.continuation_steps": 10, "solver.max_halvings": 40,
                "solver.regularization": 1e-10,
                "estimates.sobolev_samples": 1000,
                "estimates.convention": "paper",
                "output.write_solutions": False,
                "problem.regime": "H3a"}
REMOVED_BLOCKS = {"solver", "estimates", "output"}


def removed_key_config(tmp_path, dotted):
    return write_config(tmp_path,
                        config_with(dotted.split("."), REMOVED_KEYS[dotted]),
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
    # is written; a block that went whole is itself the unknown key
    block, key = dotted.split(".")
    where, unknown = ("config", block) if block in REMOVED_BLOCKS \
        else (block, key)
    assert_every_command_fails(
        tmp_path, capsys, removed_key_config(tmp_path, dotted), 1,
        f"config error: {where}: unknown keys ['{unknown}']\n")


def test_repeated_key_is_exit_1_without_traceback(tmp_path, capsys):
    # json.loads would keep the last of the two and solve 2 levels
    text = json.dumps(base_config()).replace(
        '"levels": 3', '"levels": 6, "levels": 2')
    assert '"levels": 6, "levels": 2' in text
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert_every_command_fails(tmp_path, capsys, str(path), 1,
                               "config error: duplicate key 'levels'\n")


def config_with(path, value):
    """base_config() with the entry at the key path set to `value`; missing
    optional blocks are created."""
    cfg = base_config()
    block = cfg
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = value
    return cfg


def rectangle(bounds):
    return {"kind": "rectangle", "bounds": bounds}


NAN, INF = float("nan"), float("inf")

# (key path, value, message after "config error: ")
BAD_CONFIGS = {
    "non-object-block": (("mesh",), [1], "mesh: expected an object"),
    "interval-shape": (("problem", "domain", "bounds"), [0.0, 0.5, 1.0],
                       "problem.domain.bounds: expected [a, b]"),
    "rectangle-shape": (("problem", "domain"), rectangle([[0, 1], [0, 1, 2]]),
                        "problem.domain.bounds: expected [[ax, bx], [ay, by]]"),
    "weight-without-kind": (("problem", "weight"), {"value": 1.0},
                            "problem.weight: expected an object with a kind"),
    "weight-unknown-kind": (("problem", "weight"), {"kind": "cubic"},
                            "problem.weight.kind: unknown kind 'cubic'"),
    "convection-without-kind": (
        ("problem", "convection"), {"value": 1.0},
        "problem.convection: expected an object with a kind"),
    "convection-unknown-kind": (
        ("problem", "convection"), {"kind": "linear"},
        "problem.convection.kind: unknown kind 'linear'"),
    "base-cells-triple": (("mesh", "base_cells"), [2, 2, 2],
                          "mesh.base_cells: expected int or [nx, ny]"),
    "base-cells-string": (("mesh", "base_cells"), "4",
                          "mesh.base_cells: expected int or [nx, ny]"),
    # estimate builds no mesh, so the schema asks what build_mesh does
    "one-base-cell": (("mesh", "base_cells"), 1,
                      "mesh.base_cells: a mesh needs at least 2 cells per "
                      "side"),
    "one-base-cell-in-y": (("mesh", "base_cells"), [4, 1],
                           "mesh.base_cells: a mesh needs at least 2 cells "
                           "per side"),
    "base-cells-pair-on-interval": (("mesh", "base_cells"), [4, 2],
                                    "mesh.base_cells: expected int on an "
                                    "interval"),
    # numbers that once bypassed the number check
    "null-bound": (("problem", "domain", "bounds"), [None, 1.0],
                   "problem.domain.bounds.0: expected a finite number"),
    "boolean-bounds": (("problem", "domain", "bounds"), [False, True],
                       "problem.domain.bounds.0: expected a finite number"),
    "string-bound": (("problem", "domain", "bounds"), ["0", 1.0],
                     "problem.domain.bounds.0: expected a finite number"),
    "null-rectangle-bound": (
        ("problem", "domain"), rectangle([[0, None], [0, 1]]),
        "problem.domain.bounds.0.1: expected a finite number"),
    "nan-p": (("problem", "p"), NAN, "problem.p: expected a finite number"),
    "infinite-weight": (("problem", "weight"),
                        {"kind": "constant", "value": INF},
                        "problem.weight.value: expected a finite number"),
    # values the solver block once checked; the block is itself unknown
    "fractional-max-iterations": (("solver", "max_iterations"), 2.5,
                                  "config: unknown keys ['solver']"),
    "nan-tolerance": (("solver", "tolerance"), NAN,
                      "config: unknown keys ['solver']"),
    "negative-tolerance": (("solver", "tolerance"), -1.0,
                           "config: unknown keys ['solver']"),
    "zero-max-iterations": (("solver", "max_iterations"), 0,
                            "config: unknown keys ['solver']"),
    # the tables compare levels, so the schema asks what run_hierarchy does
    "one-level": (("mesh", "levels"), 1,
                  "mesh.levels: a hierarchy needs at least 2 levels"),
    # finite inputs whose constants overflow a float
    "saturating-2000": (("problem", "p"), 2000.0,
                        "saturating convection: 2**(p-1) overflows a float "
                        "at p=2000.0"),
    "constant-2000": (("problem",),
                      {**base_config()["problem"], "p": 2000.0,
                       "convection": {"kind": "constant", "value": 1.0}},
                      "lambda1: (pi_p/L)**p overflows a float at p=2000.0, "
                      "L=1.0"),
    "saturating-offset-1e300": (
        ("problem", "convection"), {"kind": "saturating", "offset": 1e300},
        "psi: t**p overflows a float at t=8.958978968711217e+102, p=3.0"),
    "constant-1e300": (
        ("problem", "convection"), {"kind": "constant", "value": 1e300},
        "psi: t**p overflows a float at t=8.958978968711217e+102, p=3.0"),
    # finite bounds whose eigenvalue bound underflows, or whose side length
    # or area overflows (a numpy overflow warning fails the suite)
    "interval-1e200": (("problem", "domain", "bounds"), [0.0, 1e200],
                       "lambda1: (pi_p/L)**p underflows to 0.0 at p=3.0, "
                       "L=1e+200"),
    "interval-length-inf": (("problem", "domain", "bounds"), [-1e308, 1e308],
                            "bounds ((-1e+308, 1e+308),) give a side length "
                            "or measure beyond the float range"),
    "rectangle-area-inf": (("problem", "domain"),
                           rectangle([[0.0, 1e200], [0.0, 1e200]]),
                           "bounds ((0.0, 1e+200), (0.0, 1e+200)) give a side "
                           "length or measure beyond the float range"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_config_is_exit_1_without_traceback(tmp_path, capsys, case):
    path, value, message = BAD_CONFIGS[case]
    assert_every_command_fails(
        tmp_path, capsys, write_config(tmp_path, config_with(path, value)), 1,
        f"config error: {message}\n")


def test_build_problem_rectangle_zero_and_adversarial():
    block = base_config()["problem"]
    block["domain"] = rectangle([[0.0, 2.0], [-1.0, 1.0]])
    block["convection"] = {"kind": "zero"}
    problem = build_problem(block)
    assert problem.domain == Domain.rectangle(0.0, 2.0, -1.0, 1.0)
    assert problem.convection.name == "zero"
    # the adversarial family takes a0 from the weight's lower bound
    block["convection"] = {"kind": "adversarial"}
    problem = build_problem(block)
    assert problem.convection.name == "adversarial(a0=2.0)"
    assert problem.convection.h2.c == 4.0


# every config kind with only its required keys, and the factory call with
# the library's defaults that it must reproduce (p = 3, weight bound a0 = 2)
MINIMAL_KINDS = {
    ("weight", "constant"): ({"value": 2.0}, lambda: constant_weight(2.0)),
    ("weight", "quadratic"): ({"base": 2.0}, lambda: quadratic_weight(2.0)),
    ("convection", "zero"): ({}, zero_convection),
    ("convection", "constant"): ({"value": 1.0},
                                 lambda: constant_convection(1.0)),
    ("convection", "saturating"): ({}, lambda: saturating_convection(3.0)),
    ("convection", "adversarial"): ({},
                                    lambda: adversarial_convection(2.0, 3.0)),
}


def test_minimal_kinds_cover_every_config_kind():
    assert set(MINIMAL_KINDS) == {(name, kind) for name, kinds in KINDS.items()
                                  for kind in kinds}


@pytest.mark.parametrize("name, kind", list(MINIMAL_KINDS))
def test_omitted_optional_keys_take_the_library_defaults(name, kind):
    keys, factory = MINIMAL_KINDS[name, kind]
    block = base_config()["problem"]
    block[name] = {"kind": kind, **keys}
    built, expected = getattr(build_problem(block), name), factory()
    if name == "weight":
        assert (built.tag, built.lower_bound) == \
            (expected.tag, expected.lower_bound)
        ts = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(built.evaluate(ts), expected.evaluate(ts))
    else:
        assert built.name == expected.name
        for hypothesis in ("h2", "h3", "h4"):
            assert getattr(built, hypothesis) == getattr(expected, hypothesis)


# the regime each convection kind runs under (p = 3): every kind of
# cli.KINDS, plus saturating on either side of alpha = p
REGIME_OF_CONVECTION = [
    ({"kind": "zero"}, "H3"),
    ({"kind": "constant", "value": 1.0}, "H3"),
    ({"kind": "saturating"}, "H3"),
    ({"kind": "saturating", "alpha": 2.999}, "H3"),
    ({"kind": "saturating", "alpha": 3.0}, "H3a"),
    ({"kind": "adversarial"}, "H3"),
]


def test_the_regime_is_read_off_the_family():
    # (H3a) exactly where the sign block's alpha is p; no key selects it
    assert {block["kind"] for block, _ in REGIME_OF_CONVECTION} \
        == set(KINDS["convection"])
    for block, regime in REGIME_OF_CONVECTION:
        problem = build_problem(config_with(("problem", "convection"),
                                            block)["problem"])
        assert problem.regime == regime, block
        assert compute_estimates(problem).regime == regime, block


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
        "config error: config: unknown keys ['solver']\n"
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


def test_saturating_alpha_above_p_is_exit_2_without_traceback(tmp_path,
                                                              capsys):
    # Problem, not the family, checks alpha in [1, p]
    cfg = config_with(("problem", "convection"),
                      {"kind": "saturating", "alpha": 3.5})
    assert_every_command_fails(
        tmp_path, capsys, write_config(tmp_path, cfg), 2,
        "hypothesis violation: (H3) requires alpha in [1, p], got "
        "alpha=3.5\n")


def test_solve_writes_outputs(tmp_path):
    path = write_config(tmp_path, base_config())
    # solve and verify leave one layout in --out
    for command in ("verify", "solve"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "diagnostics.csv", "report.json", "run.lock.json",
            "solution_L0.csv", "solution_L1.csv", "solution_L2.csv"]
    report = json.loads((out / "report.json").read_text())
    hier = report["hierarchy"]
    assert hier["failed_level"] is None
    assert len(hier["levels"]) == 3
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
    weight = truncate_weight(problem.weight, hier["estimate"]["sup_radius"])
    op = ProblemOperator(problem, weight)
    res = np.max(np.abs(op.residual(u)))
    assert res <= 10.0 * hier["solver_tolerance"]


def test_solve_failure_is_exit_3_with_partial_report(tmp_path, monkeypatch):
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 3
    hier = json.loads((out / "report.json").read_text())["hierarchy"]
    assert hier["failed_level"] == 0
    assert "failed" in hier["failure_message"]


def test_level_failure_leaves_the_same_files_for_solve_and_verify(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    path = write_config(tmp_path, base_config())
    outs = {}
    for command in ("solve", "verify"):
        outs[command] = out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 3
        lock = json.loads((out / "run.lock.json").read_text())
        assert lock["command"] == command
    files = {c: sorted(f.name for f in out.iterdir())
             for c, out in outs.items()}
    assert files["solve"] == files["verify"] == [
        "diagnostics.csv", "report.json", "run.lock.json"]
    for name in ("report.json", "diagnostics.csv"):
        solved = (outs["solve"] / name).read_text()
        verified = (outs["verify"] / name).read_text()
        if name == "report.json":
            solved, verified = json.loads(solved), json.loads(verified)
            assert verified.pop("verification") is None
        assert solved == verified
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]


def test_report_is_strict_json_when_a_certificate_is_skipped(tmp_path,
                                                            capsys):
    # q < 2 skips monotonicity-q, whose measured value and threshold are NaN
    cfg = base_config()
    cfg["problem"]["q"] = 1.5
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-finite number {token} in strict JSON")

    report = json.loads((out / "report.json").read_text(),
                        parse_constant=reject)
    cert = next(c for c in report["verification"]["certificates"]
                if c["name"] == "monotonicity-q")
    assert cert["skipped"]
    assert cert["measured"] is None and cert["threshold"] is None
    # the stdout line still shows the certificate's own values
    assert "[skip] monotonicity-q: measured nan vs threshold nan" \
        in capsys.readouterr().out


def assembly_error_config():
    cfg = base_config()
    cfg["problem"].update(p=60.0,
                          weight={"kind": "constant", "value": 1.0},
                          convection={"kind": "constant", "value": 1e8})
    return cfg


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_merit_overflow_leaks_no_warning(tmp_path, capsys):
    # p = 40 with a load of 1e6: from zero, pseudo-transient steps overflow
    # the p-term and the merit's sum of squares, and the level ends at its
    # iteration cap far from a zero, but no overflow warning may escape
    cfg = base_config(mesh={"base_cells": 4, "levels": 2})
    cfg["problem"].update(p=40.0, weight={"kind": "constant", "value": 1.0},
                          convection={"kind": "constant", "value": 1e6})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path,
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == \
        "level 0 failed: iteration cap (residual sup 1.737e+112)\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("kind", ["solve-error", "assembly-error"])
def test_level_failure_names_the_level_once(tmp_path, capsys, monkeypatch,
                                            command, kind):
    if kind == "solve-error":
        monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    cfg = base_config() if kind == "solve-error" else assembly_error_config()
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
    # pseudo-transient steps from zero overflow the p-term and quarter
    # delta; the level ends at the iteration cap far from a zero
    message = "level 0 failed: iteration cap (residual sup 6.696e+219)"
    assert hier["failed_level"] == 0
    assert hier["failure_message"] == message
    assert hier["levels"] == []
    assert capsys.readouterr().err == message + "\n"


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


# The keys of report.json's hierarchy block and of each level record.
# bench/run.py's output check reads BENCH_KEYS and BENCH_LEVEL_KEYS, and
# tests/test_golden.py's trajectory reads TRAJECTORY_KEYS and
# TRAJECTORY_LEVEL_KEYS, so a key moved from its place fails here first.
BENCH_KEYS = {"failed_level", "solver_tolerance", "within_grad_bound",
              "within_sup_bound", "levels"}
BENCH_LEVEL_KEYS = {"level", "dim", "converged", "residual_sup"}
TRAJECTORY_KEYS = {"failure_message", "levels"}
TRAJECTORY_LEVEL_KEYS = {"path", "iterations"}
HIERARCHY_KEYS = BENCH_KEYS | TRAJECTORY_KEYS | {
    "estimate", "guard_radius", "seed", "failed_guard",
    "failure_diagnostics"}
LEVEL_KEYS = BENCH_LEVEL_KEYS | TRAJECTORY_LEVEL_KEYS | {
    "factorizations", "guard", "grad_norm", "sup_norm", "cond_b", "pair_un", "cond_c",
    "cond_cprime", "convection_pair", "gap", "warm_distance"}


def test_report_json_holds_one_record_per_level(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    hier = json.loads((out / "report.json").read_text())["hierarchy"]
    assert set(hier) == HIERARCHY_KEYS
    assert len(hier["levels"]) == 3
    for lv in hier["levels"]:
        assert set(lv) == LEVEL_KEYS
        assert len(lv["cond_b"]) == 3 + 5
    assert hier["within_grad_bound"] == hier["within_sup_bound"] \
        == [True] * 3
    assert hier["failure_diagnostics"] is None
    # NaN on the cold level 0, written as null
    assert hier["levels"][0]["warm_distance"] is None
    assert all(0.0 < lv["warm_distance"] < 1.0 for lv in hier["levels"][1:])


def test_verify_far_from_the_origin_solves_the_unit_interval_levels(
        tmp_path):
    # the bench's common problem, shifted to [1e12, 1e12 + 1]: the vertex
    # spacing is exact there and nothing depends on x, so each level is the
    # [0, 1] level moved, not a space of boundary vertices only
    sups = []
    for bounds in ([0.0, 1.0], [1e12, 1e12 + 1.0]):
        cfg = config_with(("problem",), {
            "p": 3.0, "q": 2.0, "variant": "competing",
            "domain": {"kind": "interval", "bounds": bounds},
            "weight": {"kind": "quadratic", "base": 1.0, "coef": 1.0},
            "convection": {"kind": "saturating", "offset": 1.0}})
        out = tmp_path / f"out-{bounds[0]:g}"
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        levels = json.loads((out / "report.json").read_text())[
            "hierarchy"]["levels"]
        assert [lv["dim"] for lv in levels] == [3, 7, 15]
        sups.append([lv["sup_norm"] for lv in levels])
    np.testing.assert_allclose(sups[1], sups[0], rtol=1e-12, atol=0.0)


def test_report_json_keeps_the_failure_diagnostics(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 3
    hier = json.loads((out / "report.json").read_text())["hierarchy"]
    diagnostics = hier["failure_diagnostics"]
    assert set(diagnostics) == {"level", "iterations", "attempts"}
    assert (diagnostics["level"], diagnostics["iterations"]) == (0, 1)
    (attempt,) = diagnostics["attempts"]
    assert set(attempt) == {"path", "converged", "steps", "residual_sup",
                            "message", "delta", "factorizations"}
    assert (attempt["path"], attempt["converged"], attempt["steps"],
            attempt["message"], attempt["factorizations"]) \
        == ("pseudo-transient", False, 1, "iteration cap", 1)
    assert capsys.readouterr().err == hier["failure_message"] + "\n" == \
        f"level 0 failed: iteration cap " \
        f"(residual sup {attempt['residual_sup']:.3e})\n"


def test_out_that_is_a_file_is_exit_1_before_solving(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    target = tmp_path / "taken"
    target.write_bytes(b"keep\n")
    for out in (target, target / "sub"):
        assert main(["solve", "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"--out is not a directory: {out}\n"
        # the hierarchy never ran
        assert captured.out == ""
    assert target.read_bytes() == b"keep\n"


def test_config_that_is_not_utf8_is_exit_1_without_traceback(tmp_path,
                                                             capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(bytes.fromhex("fffe7b7d"))
    assert_every_command_fails(
        tmp_path, capsys, str(path), 1,
        "config error: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")


def test_config_nested_past_the_recursion_limit_is_exit_1(tmp_path, capsys):
    # json raises a RecursionError, which once escaped main as a traceback
    text = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(RecursionError) as err:
        json.loads(text)
    assert_every_command_fails(tmp_path, capsys, str(path), 1,
                               f"config error: {err.value}\n")


@pytest.mark.parametrize("args, code, needle", [
    (["solve", "--out", "OUT"], 1, "--config"),
    (["solve", "--config", "CONFIG", "--out", "OUT", "--seed", "abc"], 1,
     "--seed"),
    (["solve", "--config", "CONFIG", "--out", "OUT", "--seed", "-1"], 1,
     "--seed"),
    # verify writes its report into --out and takes no other path for it
    (["verify", "--config", "CONFIG", "--out", "OUT", "--report", "OUT"], 1,
     "unrecognized arguments: --report"),
    (["--help"], 0, ""),
], ids=["missing-config", "seed-not-an-integer", "negative-seed", "report",
        "help"])
def test_usage_errors_are_exit_1(tmp_path, capsys, args, code, needle):
    # exit 2 is reserved for hypothesis violations
    config = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    argv = [{"CONFIG": config, "OUT": str(out)}.get(a, a) for a in args]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert needle in captured.err
    assert "Traceback" not in captured.err
    if code == 0:
        assert captured.out.startswith("usage: pqgalerkin")
    else:
        assert captured.err.splitlines()[-1].startswith("pqgalerkin")
    assert not out.exists()


def test_verify_certification_failure_is_exit_4(tmp_path, capsys,
                                                monkeypatch):
    # levels solved only to 1e-2, against certificates held to 1e-10
    monkeypatch.setattr(galerkin, "TOLERANCE", 1e-2)
    path = write_config(tmp_path, base_config())
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


def test_2d_estimates_do_not_depend_on_the_seed(tmp_path):
    # the estimates draw no random numbers: the 2D embedding constant is
    # analytic, so the seed reaches only the lock
    cfg = base_config()
    cfg["problem"]["domain"] = {"kind": "rectangle",
                                "bounds": [[0.0, 2.0], [0.0, 1.0]]}
    cfg["mesh"]["base_cells"] = [4, 2]
    path = write_config(tmp_path, cfg)
    outs = [tmp_path / f"seed{seed}" for seed in (0, 7)]
    for seed, out in zip((0, 7), outs):
        assert main(["estimate", "--config", path, "--out", str(out),
                     "--seed", str(seed)]) == 0
    est = [(out / "estimates.json").read_bytes() for out in outs]
    assert est[0] == est[1]
    assert json.loads(est[0])["sobolev_provenance"] == "analytic-2d"


def test_load_config_normalizes_2d_cells(tmp_path):
    cfg = base_config()
    cfg["problem"]["domain"] = {"kind": "rectangle",
                                "bounds": [[0.0, 1.0], [0.0, 1.0]]}
    cfg["mesh"]["base_cells"] = [2, 2]
    path = write_config(tmp_path, cfg)
    loaded = load_config(path)
    assert loaded["mesh"]["base_cells"] == (2, 2)


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("command", ["estimate", "solve", "verify"])
def test_readme_synopsis_names_the_help_options(capsys, command):
    # README's "Command line" block has one synopsis line per command
    block = readme_text().split("## Command line\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    line, = [row for row in block.splitlines()
             if row.split()[:2] == ["pqgalerkin", command]]
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert usage.startswith(f"usage: pqgalerkin {command} ")
    assert re.findall(r"--[a-z]+", usage) == re.findall(r"--[a-z]+", line)


def test_readme_config_example_loads(tmp_path):
    # the example under README's "Config schema" is a config the CLI takes
    schema = readme_text().split("### Config schema\n", 1)[1]
    example = schema.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(example)
    cfg = load_config(str(path))
    problem = build_problem(cfg["problem"])
    assert problem.p == cfg["problem"]["p"]


def test_readme_fixed_constants_match_the_code():
    # README's paragraph of fixed constants names the values in the code
    paragraph, = [block for block in readme_text().split("\n\n")
                  if "galerkin.TOLERANCE" in block]
    text = " ".join(paragraph.split())
    floor = 2 ** (galerkin.WARM_HALVINGS - 1)
    for named in [
            f"The residual tolerance {galerkin.TOLERANCE:g} and "
            f"{galerkin.MAX_ITERATIONS} steps per attempt",
            f"warm Newton line search ({galerkin.WARM_HALVINGS} trial steps, "
            f"down to 1/{floor})",
            f"the guard's sample count ({galerkin.GUARD_SAMPLES})",
            f"(`operators.REGULARIZATION`, {operators.REGULARIZATION:g})"]:
        assert named in text
