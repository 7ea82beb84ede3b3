"""Every golden case reproduces the bytes recorded in tests/golden/manifest.json.

A deliberate change of output bytes reruns `tests/golden/regenerate.py` and
shows up as the diff of the manifest.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = json.loads(golden.MANIFEST.read_text())

# Per config, the solver's trajectory that `solve` and `verify` both record
# in report.json: the exit code, (path, iterations) of every solved level and
# the failure message.  A change that moves the solver fails on these by
# name before its output bytes are compared.
RAMP, NEWTON = "competition-ramp", "newton"
TRAJECTORIES = {
    "adversarial": (0, [(RAMP, 0), (NEWTON, 0), (NEWTON, 0)], ""),
    "compete-2d-load": (
        3, [(RAMP, 25), (NEWTON, 7), ("load-continuation", 38)],
        "level 3 failed: line search stalled (residual sup 2.263e-04)"),
    "coop-1d-deep": (0, [(RAMP, 20), (NEWTON, 4)] + [(NEWTON, 3)] * 4
                     + [(NEWTON, 2)] * 4, ""),
    "coop-2d": (0, [(RAMP, 19), (NEWTON, 4)] + [(NEWTON, 3)] * 3, ""),
    "criterion-9": (0, [(RAMP, 24), (NEWTON, 4), (NEWTON, 4)], ""),
    "h3a": (0, [(RAMP, 21), (NEWTON, 4), (NEWTON, 4)], ""),
    "max-iterations-1": (
        3, [], "level 0 failed: iteration cap (residual sup 2.411e-03)"),
    "q-1.5": (0, [(RAMP, 22), (NEWTON, 4), (NEWTON, 3)], ""),
}


def trajectory(exit_code: int, report: dict) -> tuple:
    hierarchy = report["hierarchy"]
    return (exit_code,
            [(lv["path"], lv["iterations"]) for lv in hierarchy["levels"]],
            hierarchy["failure_message"])


def first_difference(expected: dict, actual: dict):
    """Name of the first output (exit code, stdout, stderr, then files in
    name order) whose recorded and produced values differ, or None."""
    return next(iter(golden.changed_outputs(expected, actual)), None)


def test_manifest_covers_every_case():
    assert MANIFEST["seed"] == golden.SEED
    assert sorted((name, command) for name, runs in MANIFEST["cases"].items()
                  for command in runs) == sorted(golden.cases())


@pytest.mark.parametrize("name,command", golden.cases(),
                         ids=[f"{n}.{c}" for n, c in golden.cases()])
def test_golden_outputs(name, command, tmp_path):
    recorded, running = MANIFEST["versions"], golden.versions()
    assert recorded == running, (
        f"golden hashes were made with {recorded}, this run has {running}; "
        "rerun tests/golden/regenerate.py")
    actual = golden.run_case(name, command, tmp_path)
    if command != "estimate":
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert trajectory(actual["exit_code"], report) \
            == TRAJECTORIES[name], f"{name} {command}: the solver moved"
    differs = first_difference(MANIFEST["cases"][name][command], actual)
    assert differs is None, f"{name} {command}: {differs} differs"


def test_trajectories_cover_every_config():
    assert sorted(TRAJECTORIES) == sorted({name for name, _ in
                                           golden.cases()})


def test_first_difference_names_the_first_file():
    base = {"exit_code": 0, "stdout": "a", "stderr": "b",
            "files": {"report.json": "c", "run.lock.json": "d"}}
    assert first_difference(base, json.loads(json.dumps(base))) is None
    changed = json.loads(json.dumps(base))
    changed["files"]["run.lock.json"] = "x"
    changed["files"]["report.json"] = "y"
    assert first_difference(base, changed) == "report.json"
    missing = json.loads(json.dumps(base))
    del missing["files"]["run.lock.json"]
    assert first_difference(base, missing) == "run.lock.json"
    assert first_difference(base, dict(base, exit_code=3)) == "exit_code"


def test_changed_outputs_names_every_moved_output():
    base = {"exit_code": 0, "stdout": "a", "stderr": "b",
            "files": {"report.json": "c", "run.lock.json": "d"}}
    assert golden.changed_outputs(base, base) == []
    changed = dict(base, stdout="z", files={"report.json": "y",
                                            "run.lock.json": "d",
                                            "solution_L0.csv": "e"})
    assert golden.changed_outputs(base, changed) == \
        ["stdout", "report.json", "solution_L0.csv"]
    # a case the replaced manifest lacks: every output is new
    assert golden.changed_outputs({}, base) == \
        ["exit_code", "stdout", "stderr", "report.json", "run.lock.json"]
