"""Configs from a seeded sweep over the hypothesis space (H1)-(H4).

Every config here is a valid problem, so by the guard argument each level
has a solution and a failed level is a solver defect.  Config m (k, at
p = 60, is in tests/test_galerkin.py) fails a level today; it is a strict
xfail pinned to its level and its stall, which fails outright when the
failure moves, and leaves the list of failures only when it solves every
level.  The list never shrinks otherwise.  The eleven configs a-j and l
failed a level under the staged continuation walker that pseudo-transient
continuation replaced, and now solve every level.  The passing configs
come from the same space.  One more config stalled at the rounding floor
of the residual tolerance until warm Newton took chord steps.  Configs m,
l and the rounding-floor config are s011, s041 and s058 of the seeded sweep
in tests/sweep.py.

Each config runs the mesh and solver of the sweep (`sweep.solve`).
"""

import pytest

from pqgalerkin import galerkin
from pqgalerkin.cli import build_problem
from pqgalerkin.galerkin import run_hierarchy
from sweep import (INTERVAL, configs, constant, problem, quadratic,
                   saturating, solve)


# id: (problem, the failing level, its residual sup)
FAILING = {
    "m": (problem("cooperative", 1.36, 1.13, quadratic(2.92, 0.86),
                  saturating(1.31, 0.69, 0.54), INTERVAL), 3, "5.471e-03"),
}

# failed under the staged walker, at the level in the comment
RECOVERED = {
    "a": problem("competing", 2.58, 1.74, constant(2.56),
                 saturating(2.21, 1.03, 1.36)),                     # 3
    "b": problem("competing", 4.92, 2.4, constant(1.56),
                 saturating(1.82, 1.83, 2.04)),                     # 1
    "c": problem("competing", 2.57, 1.37, constant(0.91),
                 constant(-9.23)),                                  # 1
    "d": problem("competing", 3.24, 1.32, quadratic(1.85, 0.38),
                 saturating(2.17, 1.5, 2.38)),                      # 2
    "e": problem("cooperative", 3.94, 2.17, quadratic(1.83, 0.55),
                 saturating(3.28, 1.34, 0.07)),                     # 0
    "f": problem("competing", 2.28, 1.35, quadratic(2.52, 1.27),
                 constant(10.22)),                                  # 2
    "g": problem("competing", 4.39, 2.58, constant(1.96),
                 saturating(3.72, 1.41, 1.82)),                     # 3
    "h": problem("competing", 2.4, 1.26, constant(1.13),
                 saturating(1.82, 0.06, -2.73)),                    # 1
    "i": problem("competing", 2.66, 1.22, quadratic(2.02, 1.73),
                 saturating(2.27, 0.04, -2.84)),                    # 1
    "j": problem("competing", 4.96, 3.22, quadratic(0.95, 0.79),
                 saturating(2.96, 0.07, -2.89)),                    # 3
    "l": problem("cooperative", 3.12, 2.9, constant(0.7),
                 saturating(1.14, 0.47, -0.21), INTERVAL),          # 1
}

# its residual at level 4 stopped a little above 1e-10, about what rounding
# allows at the solution, before warm Newton took chord steps; it reaches
# 1e-9
ROUNDING_FLOOR = problem("cooperative", 1.98, 1.21, quadratic(1.37, 0.98),
                         constant(3.75), INTERVAL)

PASSING = {
    "1d-competing": problem("competing", 3.1, 1.8, quadratic(1.4, 0.6),
                            saturating(2.3, 0.8, 1.2), INTERVAL),
    "1d-competing-constant": problem("competing", 2.6, 1.5, constant(1.2),
                                     constant(-4.0), INTERVAL),
    "2d-cooperative": problem("cooperative", 3.2, 2.3, quadratic(1.5, 0.4),
                              saturating(2.5, 1.1, 0.8)),
}


def stall(level, residual_sup):
    return f"level {level} failed: line search stalled " \
        f"(residual sup {residual_sup})"


def assert_no_failure(report, pinned=None):
    """Assert that every level solved.  A failure other than the `pinned`
    one calls `pytest.fail`, whose exception is no AssertionError, so a
    strict xfail that expects one reports it as a failure."""
    if report.failed_level is not None and pinned is not None \
            and report.failure_message != pinned:
        pytest.fail(f"the failure moved: {report.failure_message!r}, "
                    f"pinned {pinned!r}")
    assert report.failed_level is None, report.failure_message


def assert_every_level_solves(block, pinned=None):
    report, levels = solve(block)
    assert_no_failure(report, pinned)
    assert len(report.levels) == levels


def failing_case(name):
    block, level, residual_sup = FAILING[name]
    pinned = stall(level, residual_sup)
    return pytest.param(block, pinned, id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=pinned))


@pytest.mark.parametrize("block,pinned",
                         [failing_case(name) for name in FAILING])
def test_failing_sweep_config_solves_every_level(block, pinned):
    assert_every_level_solves(block, pinned=pinned)


@pytest.mark.parametrize("block", list(RECOVERED.values()),
                         ids=list(RECOVERED))
def test_recovered_sweep_config_solves_every_level(block):
    assert_every_level_solves(block)


@pytest.mark.parametrize("block", list(PASSING.values()), ids=list(PASSING))
def test_passing_sweep_config_solves_every_level(block):
    assert_every_level_solves(block)


def test_rounding_floor_config_solves_every_level():
    assert_every_level_solves(ROUNDING_FLOOR)


def test_rounding_floor_config_solves_each_level_on_its_path():
    # warm Newton once stalled at level 4 with residual sup 1.927e-10; its
    # chord steps now reach the tolerance on every warm level
    report, _ = solve(ROUNDING_FLOOR)
    assert report.failed_level is None, report.failure_message
    assert [lv.path for lv in report.levels] \
        == ["pseudo-transient"] + ["newton"] * 5
    assert all(lv.residual_sup <= report.solver_tolerance
               for lv in report.levels)


def test_a_moved_failure_fails_outright(monkeypatch):
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    report = run_hierarchy(build_problem(PASSING["1d-competing"]), 4, 2)
    assert report.failed_level == 0
    with pytest.raises(AssertionError):
        assert_no_failure(report, report.failure_message)
    with pytest.raises(pytest.fail.Exception, match="the failure moved"):
        assert_every_level_solves(PASSING["1d-competing"],
                                  pinned=stall(5, "9.999e-09"))


def test_sweep_generator_redraws_the_pinned_configs():
    drawn = configs(59)
    assert drawn["s011"] == FAILING["m"][0]
    assert drawn["s041"] == RECOVERED["l"]
    assert drawn["s058"] == ROUNDING_FLOOR
