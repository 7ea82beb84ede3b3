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
# in report.json, as `regenerate.py` prints it for a changed run.  A change
# that moves the solver fails on these by name before its output bytes are
# compared.
TRAJECTORIES = {
    "adversarial": (0, [("pseudo-transient", 0)] + [("newton", 0)] * 2, ""),
    "compete-2d-load": (0, [("pseudo-transient", 44), ("newton", 10), ("pseudo-transient", 11), ("pseudo-transient", 8)], ""),
    "coop-1d-deep": (0, [("pseudo-transient", 6), ("newton", 5), ("newton", 4), ("newton", 6), ("newton", 5)] + [("newton", 4)] * 2 + [("newton", 3)] * 3, ""),
    "coop-2d": (0, [("pseudo-transient", 6), ("newton", 5), ("newton", 4), ("newton", 7), ("newton", 6)], ""),
    "criterion-9": (0, [("pseudo-transient", 21), ("newton", 7), ("newton", 6)], ""),
    "level-3-stall": (3, [("pseudo-transient", 9), ("newton", 8), ("newton", 6)], "level 3 failed: line search stalled (residual sup 5.471e-03)"),
    "h3a": (0, [("pseudo-transient", 11), ("newton", 6), ("newton", 5)], ""),
    "q-1.5": (0, [("pseudo-transient", 7), ("pseudo-transient", 24), ("newton", 6)], ""),
}


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
        assert golden.trajectory(actual["exit_code"], report) \
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


def test_regenerate_prints_each_trajectory_as_its_table_entry():
    for name, traj in TRAJECTORIES.items():
        entry = golden.trajectory_entry(name, traj)
        assert eval("{" + entry + "}") == {name: traj}, entry
