"""The bench's contract with the package, checked in tier-1.

`bench/tracer.py` wraps package functions by module and attribute path,
and `bench/run.py`'s output check reads fields of each sample's
report.json.  A rename on either side fails here, not in a bench run.  The
bench's files are only read: parsed, never imported.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from test_golden import golden

BENCH = Path(__file__).resolve().parents[1] / "bench"


def tracer_targets():
    """(module, attribute path) of every entry of tracer.py's TARGETS."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS"
                         for t in node.targets))
    return [(entry.elts[1].value, entry.elts[2].value)
            for entry in table.elts]


def test_tracer_targets_are_read_off_the_table():
    targets = tracer_targets()
    assert ("pqgalerkin.galerkin", "run_hierarchy") in targets
    assert ("scipy.sparse.linalg", "splu") in targets


@pytest.mark.parametrize(
    "module,path", [t for t in tracer_targets()
                    if t[0].startswith("pqgalerkin")],
    ids=lambda item: item)
def test_every_package_target_of_the_tracer_resolves(module, path):
    # as the tracer looks a target up: a class attribute in the class's own
    # namespace, anything else by getattr
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))


# the fields of report.json that `Run.check` in bench/run.py reads
HIERARCHY_FIELDS = ("failed_level", "solver_tolerance", "levels",
                    "within_grad_bound", "within_sup_bound")
LEVEL_FIELDS = ("level", "dim", "converged", "residual_sup")


@pytest.mark.parametrize("name,code", [("coop-1d-deep", 0),
                                       ("level-3-stall", 3)])
def test_a_golden_verify_report_carries_what_the_bench_checks(name, code,
                                                             tmp_path):
    assert golden.run_case(name, "verify", tmp_path)["exit_code"] == code
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    hierarchy = report["hierarchy"]
    for key in HIERARCHY_FIELDS:
        assert key in hierarchy, key
    assert hierarchy["levels"]
    for level in hierarchy["levels"]:
        for key in LEVEL_FIELDS:
            assert key in level, key
    assert len(hierarchy["within_grad_bound"]) == len(hierarchy["levels"])
    assert len(hierarchy["within_sup_bound"]) == len(hierarchy["levels"])
    if code == 0:
        assert report["verification"]["all_passed"] is True
        assert hierarchy["failed_level"] is None
    else:
        assert report.get("verification") is None
        assert hierarchy["failed_level"] == len(hierarchy["levels"])
