import dataclasses
import math

import numpy as np
import pytest

from pqgalerkin import galerkin
from pqgalerkin.estimates import compute_estimates
from pqgalerkin.fespace import (FeFunction, FeSpace, grad_norm_lp, jsonable,
                                prolongate)
from pqgalerkin.galerkin import (ProblemOperator, SolveError, SolverConfig,
                                 brouwer_guard, condition_S_probe,
                                 run_hierarchy, solve_level)
from pqgalerkin.mesh import Domain, build_mesh, refine
from pqgalerkin.operators import (Problem, constant_convection,
                                  constant_weight,
                                  quadratic_weight, saturating_convection,
                                  truncate_weight)

UNIT = Domain.interval(0.0, 1.0)

GOLDEN = (1.0 + math.sqrt(2.0)) / 4.0


def single_dof_op():
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing", regime="H3")
    weight = truncate_weight(problem.weight, 1.0)
    space = FeSpace(build_mesh(UNIT, 2))
    return ProblemOperator(problem, weight, space), space


def offset_problem(variant="competing"):
    conv = saturating_convection(3.0, alpha=2.0, h_bound=1.0, offset=1.0)
    return Problem(p=3.0, q=2.0, domain=UNIT, weight=quadratic_weight(2.0),
                   convection=conv, variant=variant, regime="H3")


_REPORTS = {}


def offset_report(variant="competing"):
    if variant not in _REPORTS:
        _REPORTS[variant] = run_hierarchy(offset_problem(variant), 4, 4)
    return _REPORTS[variant]


def test_single_dof_solve():
    op, space = single_dof_op()
    lv = solve_level(op, space)
    assert lv.converged
    assert lv.dim == 1
    assert lv.path == "competition-ramp"
    assert lv.residual_sup <= 1e-10
    assert math.isclose(lv.solution.coeffs[0], GOLDEN, abs_tol=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_merit_is_the_plain_norm_until_it_overflows():
    F = np.random.default_rng(4).standard_normal(64)
    assert galerkin._merit(F) == np.linalg.norm(F)
    assert math.isclose(galerkin._merit(1e300 * F),
                        1e300 * np.linalg.norm(F), rel_tol=1e-14)
    assert galerkin._merit(np.full(4, 1e308)) == math.inf


def test_single_dof_residual_vanishes_at_root():
    op, space = single_dof_op()
    root = FeFunction(space, np.array([GOLDEN]))
    assert abs(op.residual(root).values[0]) <= 1e-12


def test_homotopy_scalings_recombine():
    problem = offset_problem()
    weight = truncate_weight(problem.weight, 2.0)
    space = FeSpace(build_mesh(UNIT, 8))
    op = ProblemOperator(problem, weight, space)
    rng = np.random.default_rng(5)
    u = FeFunction(space, rng.standard_normal(space.dim))
    p_d, q_d, f_d = op.parts(u)
    core = dataclasses.replace(op, q_factor=0.0).residual(u).values
    np.testing.assert_allclose(core, p_d.values + f_d.values, atol=1e-14)
    unloaded = dataclasses.replace(op, load_factor=0.0).residual(u).values
    np.testing.assert_allclose(
        unloaded, p_d.values + q_d.values, atol=1e-14)
    full = op.residual(u).values
    np.testing.assert_allclose(full, core + unloaded - p_d.values, atol=1e-13)


def test_linear_predictor_zero_load_is_zero():
    op, space = single_dof_op()
    u = galerkin._linear_predictor(
        dataclasses.replace(op, load_factor=0.0), space)
    assert not np.any(u.coeffs)


def test_guard_passes_at_certified_radius():
    report = offset_report()
    assert report.failed_level is None
    for lv in report.levels:
        g = lv.guard
        assert g is not None and g.passed
        assert g.doublings == 0
        assert g.min_pairing > 0.0
        assert g.initial_radius == report.guard_radius
        assert g.radius == report.guard_radius


def test_guard_doubles_past_small_radius():
    problem = offset_problem()
    space = FeSpace(build_mesh(UNIT, 8))
    est = compute_estimates(problem, space)
    weight = truncate_weight(problem.weight, est.sup_radius)
    op = ProblemOperator(problem, weight, space)
    small = est.grad_radius / 5.0
    rec = brouwer_guard(op, space, small, samples=16, seed=0)
    assert rec.passed
    assert rec.doublings >= 1
    assert rec.radius == small * 2.0 ** rec.doublings
    assert rec.min_pairing >= 0.0


def test_guard_is_deterministic():
    problem = offset_problem()
    space = FeSpace(build_mesh(UNIT, 4))
    est = compute_estimates(problem, space)
    op = ProblemOperator(problem, truncate_weight(problem.weight,
                                                  est.sup_radius), space)
    a = brouwer_guard(op, space, est.grad_radius, samples=16, seed=7)
    b = brouwer_guard(op, space, est.grad_radius, samples=16, seed=7)
    assert a.min_pairing == b.min_pairing
    assert jsonable(a) == jsonable(b)


def test_warm_start_agrees_with_cold():
    problem = offset_problem()
    space0 = FeSpace(build_mesh(UNIT, 4))
    est = compute_estimates(problem, space0)
    weight = truncate_weight(problem.weight, est.sup_radius)
    space1 = FeSpace(refine(space0.mesh))
    op0 = ProblemOperator(problem, weight, space0)
    op1 = ProblemOperator(problem, weight, space1)
    cold0 = solve_level(op0, space0)
    warm = solve_level(op1, space1, warm=prolongate(cold0.solution, space1))
    cold1 = solve_level(op1, space1)
    assert warm.path == "newton"
    assert cold1.path == "competition-ramp"
    assert warm.iterations < cold1.iterations
    np.testing.assert_allclose(warm.solution.coeffs, cold1.solution.coeffs,
                               atol=1e-9)


def test_solve_level_raises_when_capped():
    problem = offset_problem()
    space = FeSpace(build_mesh(UNIT, 8))
    weight = truncate_weight(problem.weight, 2.0)
    op = ProblemOperator(problem, weight, space)
    cfg = SolverConfig(max_iterations=1)
    with pytest.raises(SolveError) as exc:
        solve_level(op, space, cfg)
    err = exc.value
    assert err.diagnostics["path"] == "load-continuation"
    assert err.diagnostics["level"] == space.mesh.level
    assert "residual sup" in str(err)


def test_hierarchy_structure():
    report = offset_report()
    assert [lv.dim for lv in report.levels] == [3, 7, 15, 31]
    assert all(lv.converged for lv in report.levels)
    assert report.failed_level is None
    assert report.failure_message == ""
    assert report.test_count == 3 + 5
    assert all(len(row) == report.test_count for row in report.cond_b)
    n = len(report.levels)
    for table in (report.pair_un, report.cond_c, report.cond_c_alt,
                  report.cond_cprime, report.convection_pairs,
                  report.grad_norms, report.sup_norms, report.gaps):
        assert len(table) == n
    assert all(report.within_grad_bound)
    assert all(report.within_sup_bound)
    assert report.truncation_radius == report.estimate.sup_radius


def test_hierarchy_residual_tables_vanish():
    report = offset_report()
    tol = report.solver_tolerance
    for row, lv in zip(report.cond_b, report.levels):
        assert max(abs(x) for x in row) <= 10.0 * tol * lv.dim
    for val in report.pair_un:
        assert abs(val) <= 1e-8


def test_hierarchy_gap_tables_contract():
    report = offset_report()
    gaps = report.gaps
    assert gaps[-1] == 0.0
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 2))
    assert report.cond_c[-1] == 0.0
    mags = [abs(c) for c in report.cond_c[:-1]]
    assert all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))


def test_hierarchy_pairing_routes_agree():
    report = offset_report()
    scale = max(1.0, report.grad_norms[-1])
    for direct, alt in zip(report.cond_c, report.cond_c_alt):
        assert abs(direct - alt) <= 1e-10 * scale
    for cp, cv, c in zip(report.cond_cprime, report.convection_pairs,
                         report.cond_c):
        assert abs((cp - cv) - c) <= 1e-10 * scale


def test_hierarchy_rejects_single_level():
    with pytest.raises(ValueError):
        run_hierarchy(offset_problem(), 4, 1)


def test_hierarchy_failure_is_recorded_not_raised():
    cfg = SolverConfig(max_iterations=1)
    report = run_hierarchy(offset_problem(), 4, 2, cfg=cfg)
    assert report.failed_level == 0
    assert "failed" in report.failure_message
    assert report.levels == []
    assert report.cond_c == [] and report.gaps == []
    d = jsonable(report)
    assert d["failed_level"] == 0


def test_hierarchy_records_assembly_error():
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing", regime="H3")
    with np.errstate(all="ignore"):
        report = run_hierarchy(problem, 4, 3)
    assert report.failed_level == 0
    assert report.failure_message == \
        "level 0 failed: nonfinite weighted p-term contribution on cell 0"
    assert report.levels == []


def test_cooperative_1d_hierarchy_solves_twelve_levels():
    # the finite-difference Jacobian this solver once used had an error
    # growing like 1/h, and this hierarchy stalled at level 11 (8 191 dofs
    # at level 12)
    conv = saturating_convection(3.0, alpha=2.0, h_bound=1.0, offset=1.0)
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=quadratic_weight(1.0),
                      convection=conv, variant="cooperative", regime="H3")
    report = run_hierarchy(problem, 4, 12)
    assert report.failed_level is None, report.failure_message
    assert [lv.dim for lv in report.levels][-1] == 4 * 2 ** 11 - 1
    assert all(lv.residual_sup <= report.solver_tolerance
               for lv in report.levels)


def test_hierarchy_is_deterministic():
    a = run_hierarchy(offset_problem(), 4, 3, seed=11)
    b = run_hierarchy(offset_problem(), 4, 3, seed=11)
    assert jsonable(a) == jsonable(b)


def test_s_probe_on_contracting_run():
    probe = condition_S_probe(offset_report())
    assert probe.classification == "s-consistent: candidate weak solution"
    assert probe.pairings_vanish and probe.gradients_contract
    assert probe.final_pairing == 0.0
    assert probe.gap_ratio < 0.5


def test_s_probe_cooperative_variant():
    report = offset_report("cooperative")
    assert report.failed_level is None
    probe = condition_S_probe(report)
    assert probe.pairings_vanish


def test_s_probe_flags_stalled_gaps():
    report = offset_report()
    fake = dataclasses.replace(report, gaps=[1.0, 1.1, 0.9, 0.0])
    probe = condition_S_probe(fake)
    assert not probe.gradients_contract
    assert probe.classification.startswith("generalized only")


def test_s_probe_flags_surviving_pairing():
    report = offset_report()
    fake = dataclasses.replace(report, cond_c=[1.0, 1.0, 1.0, 1.0])
    assert condition_S_probe(fake).classification == "inconclusive"


def test_s_probe_empty_report_inconclusive():
    report = offset_report()
    fake = dataclasses.replace(report, cond_c=[], gaps=[])
    assert condition_S_probe(fake).classification == "inconclusive"


def test_report_solutions_property():
    report = offset_report()
    sols = report.solutions
    assert len(sols) == len(report.levels)
    assert grad_norm_lp(sols[-1], 3.0) == report.grad_norms[-1]


def test_level_solves_on_load_continuation():
    # the 2D competing problem with a load: warm Newton stalls on level 1
    # and load continuation reaches the zero; the iteration count includes
    # the failed warm attempt
    conv = saturating_convection(3.0, alpha=2.0, h_bound=1.0, offset=1.0)
    problem = Problem(p=3.0, q=2.0,
                      domain=Domain.rectangle(0.0, 1.0, 0.0, 1.0),
                      weight=quadratic_weight(1.0), convection=conv,
                      variant="competing", regime="H3")
    report = run_hierarchy(problem, (2, 2), 2)
    assert report.failed_level is None, report.failure_message
    lv = report.levels[1]
    assert lv.dim == 9
    assert lv.path == "load-continuation"
    assert lv.iterations == 41
    assert lv.residual_sup <= report.solver_tolerance
