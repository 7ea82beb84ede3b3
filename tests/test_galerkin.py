import dataclasses
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pqgalerkin import cli, fespace, galerkin
from pqgalerkin.estimates import compute_estimates
from pqgalerkin.fespace import (FeFunction, FeSpace, assemble_matrix,
                                grad_norm_lp, jsonable, prolongate,
                                sup_norm)
from pqgalerkin.galerkin import (ProblemOperator, SolveError, SolverConfig,
                                 brouwer_guard, run_hierarchy, solve_level)
from pqgalerkin.mesh import Domain, build_mesh, refine
from pqgalerkin.operators import (AssemblyError, Problem,
                                  constant_convection, constant_weight,
                                  quadratic_weight, saturating_convection,
                                  truncate_weight)
from pqgalerkin.verify import condition_S_probe

from test_sweep import assert_no_failure, stall

UNIT = Domain.interval(0.0, 1.0)

GOLDEN = (1.0 + math.sqrt(2.0)) / 4.0


def single_dof_op():
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing", regime="H3")
    weight = truncate_weight(problem.weight, 1.0)
    space = FeSpace(build_mesh(UNIT, 2))
    return ProblemOperator(problem, weight), space


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
    assert abs(op.residual(root)[0]) <= 1e-12


def test_homotopy_scalings_recombine():
    problem = offset_problem()
    weight = truncate_weight(problem.weight, 2.0)
    space = FeSpace(build_mesh(UNIT, 8))
    op = ProblemOperator(problem, weight)
    rng = np.random.default_rng(5)
    u = FeFunction(space, rng.standard_normal(space.dim))
    p_d, q_d, f_d = op.parts_and_pairing(u, u)[0]
    core = dataclasses.replace(op, q_factor=0.0).residual(u)
    np.testing.assert_allclose(core, p_d + f_d, atol=1e-14)
    unloaded = dataclasses.replace(op, load_factor=0.0).residual(u)
    np.testing.assert_allclose(
        unloaded, p_d + q_d, atol=1e-14)
    full = op.residual(u)
    np.testing.assert_allclose(full, core + unloaded - p_d, atol=1e-13)


def test_linear_predictor_zero_load_is_zero():
    op, space = single_dof_op()
    u = galerkin._linear_predictor(
        dataclasses.replace(op, load_factor=0.0), space)
    assert not np.any(u.coeffs)


def test_guard_passes_at_certified_radius():
    report = offset_report()
    assert report.failed_level is None and report.failed_guard is None
    for lv in report.levels:
        g = lv.guard
        assert g is not None and g.passed
        assert g.min_pairing > 0.0
    assert [f.name for f in dataclasses.fields(galerkin.GuardRecord)] == \
        ["min_pairing", "passed"]


def test_solve_level_leaves_the_guard_to_the_hierarchy():
    op, space = single_dof_op()
    assert solve_level(op, space).guard is None


def test_hierarchy_guard_is_the_sampled_record_of_each_level():
    report = run_hierarchy(offset_problem(), 4, 3, seed=5)
    assert report.failed_level is None
    for lv in report.levels:
        expect = brouwer_guard(report.operator, lv.solution.space,
                               report.guard_radius, seed=5)
        assert jsonable(lv.guard) == jsonable(expect)


def test_guard_exception_fails_its_level(monkeypatch):
    def broken_guard(*args, **kwargs):
        raise AssemblyError("nonfinite guard pairing")

    monkeypatch.setattr(galerkin, "brouwer_guard", broken_guard)
    report = run_hierarchy(offset_problem(), 4, 2)
    assert report.failed_level == 0
    assert report.failure_message == \
        "level 0 failed: nonfinite guard pairing"
    assert report.levels == []
    assert report.failed_guard is None


@pytest.fixture
def paired(monkeypatch):
    """The first argument of every `ProblemOperator.pairing` call."""
    calls, pairing = [], ProblemOperator.pairing

    def recorded(self, u, v):
        calls.append(u)
        return pairing(self, u, v)

    monkeypatch.setattr(ProblemOperator, "pairing", recorded)
    return calls


def test_guard_records_a_failure_below_the_certified_radius(paired):
    problem = offset_problem()
    space = FeSpace(build_mesh(UNIT, 8))
    est = compute_estimates(problem)
    weight = truncate_weight(problem.weight, est.sup_radius)
    op = ProblemOperator(problem, weight)
    rec = brouwer_guard(op, space, est.grad_radius / 5.0, seed=0)
    assert not rec.passed
    assert rec.min_pairing < 0.0
    assert len(paired) == 1


@pytest.mark.parametrize("p", [400.0, 800.0])
def test_guard_directions_lie_on_the_sphere_at_large_exponent(p, paired):
    # the plain sum of |grad v|^p of a raw Gaussian direction overflows
    # here; such a direction once scaled to the zero function, paired 0
    # and passed
    problem = Problem(p=p, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing", regime="H3")
    est = compute_estimates(problem)
    op = ProblemOperator(problem, truncate_weight(problem.weight,
                                                  est.sup_radius))
    space = FeSpace(build_mesh(UNIT, 4))
    for _ in range(3):
        rec = brouwer_guard(op, space, est.grad_radius)
        norms = grad_norm_lp(paired.pop(), p)
        assert norms.shape == (galerkin.GUARD_SAMPLES,)
        np.testing.assert_allclose(norms, est.grad_radius, rtol=1e-12)
        assert rec.passed and rec.min_pairing > 0.0
        space = FeSpace(refine(space.mesh))


def test_guard_scales_and_pairs_one_chunk_at_a_time(paired):
    # 1024 cells hold 16 directions per chunk: the guard pairs each chunk
    # as it scales it, and its minimum has the bits of the directions
    # scaled and paired one at a time
    problem = offset_problem()
    est = compute_estimates(problem)
    op = ProblemOperator(problem, truncate_weight(problem.weight,
                                                  est.sup_radius))
    mesh = build_mesh(UNIT, 4)
    for _ in range(8):
        mesh = refine(mesh)
    space = FeSpace(mesh)
    chunks = fespace.row_slices(space, galerkin.GUARD_SAMPLES)
    assert len(chunks) == 2
    rec = brouwer_guard(op, space, est.grad_radius, seed=3)
    assert [v.coeffs.shape[0] for v in paired] == [
        len(range(galerkin.GUARD_SAMPLES)[rows]) for rows in chunks]
    dirs = np.random.default_rng(3).standard_normal(
        (galerkin.GUARD_SAMPLES, space.dim))
    single = []
    for d in dirs:
        scale = grad_norm_lp(FeFunction(space, d), problem.p)
        v = FeFunction(space, d * (est.grad_radius / scale))
        single.append(op.pairing(v, v))
    assert rec.min_pairing == min(single)


def test_guard_is_deterministic():
    problem = offset_problem()
    space = FeSpace(build_mesh(UNIT, 4))
    est = compute_estimates(problem)
    op = ProblemOperator(problem, truncate_weight(problem.weight,
                                                  est.sup_radius))
    a = brouwer_guard(op, space, est.grad_radius, seed=7)
    b = brouwer_guard(op, space, est.grad_radius, seed=7)
    assert a.min_pairing == b.min_pairing
    assert jsonable(a) == jsonable(b)


def test_warm_start_agrees_with_cold():
    problem = offset_problem()
    space0 = FeSpace(build_mesh(UNIT, 4))
    est = compute_estimates(problem)
    weight = truncate_weight(problem.weight, est.sup_radius)
    space1 = FeSpace(refine(space0.mesh))
    op0 = ProblemOperator(problem, weight)
    op1 = ProblemOperator(problem, weight)
    cold0 = solve_level(op0, space0)
    warm = solve_level(op1, space1, warm=prolongate(cold0.solution, space1))
    cold1 = solve_level(op1, space1)
    assert warm.path == "newton"
    assert cold1.path == "competition-ramp"
    assert warm.iterations < cold1.iterations
    np.testing.assert_allclose(warm.solution.coeffs, cold1.solution.coeffs,
                               atol=1e-9)


def test_warm_start_from_another_space_is_rejected():
    op, space0 = single_dof_op()
    space1 = FeSpace(refine(space0.mesh))
    coarse = solve_level(op, space0).solution
    with pytest.raises(ValueError, match="warm start"):
        solve_level(op, space1, warm=coarse)


def test_solve_level_raises_when_capped():
    problem = offset_problem()
    space = FeSpace(build_mesh(UNIT, 8))
    weight = truncate_weight(problem.weight, 2.0)
    op = ProblemOperator(problem, weight)
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
    for lv in report.levels:
        # the coarse basis and EXTRA_TESTS random coarse functions
        assert len(lv.cond_b) == 3 + 5
        assert np.all(np.isfinite(
            [lv.grad_norm, lv.sup_norm, lv.pair_un, lv.cond_c,
             lv.cond_cprime, lv.convection_pair, lv.gap, *lv.cond_b]))
    assert len(report.within_grad_bound) == len(report.levels)
    assert len(report.within_sup_bound) == len(report.levels)
    assert all(report.within_grad_bound)
    assert all(report.within_sup_bound)


def test_solutions_near_the_radius_stay_within_it():
    # strong constant convection pushes every level's ||grad u||_p past
    # 0.8 of the gradient radius: the radius still bounds each solution
    # and the guard passes on its sphere at every level
    problem = Problem(p=2.5, q=2.0, domain=UNIT, weight=constant_weight(0.6),
                      convection=constant_convection(60.0),
                      variant="competing", regime="H3")
    report = run_hierarchy(problem, 4, 4)
    assert report.failed_level is None
    assert len(report.levels) == 4
    assert all(report.within_grad_bound)
    assert all(report.within_sup_bound)
    assert all(lv.guard.passed for lv in report.levels)
    assert max(lv.grad_norm for lv in report.levels) \
        / report.estimate.grad_radius >= 0.8


def test_hierarchy_residual_tables_vanish():
    report = offset_report()
    tol = report.solver_tolerance
    for lv in report.levels:
        assert max(abs(x) for x in lv.cond_b) <= 10.0 * tol * lv.dim
        assert abs(lv.pair_un) <= 1e-8


def test_hierarchy_gap_tables_contract():
    report = offset_report()
    gaps = [lv.gap for lv in report.levels]
    assert gaps[-1] == 0.0
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 2))
    assert report.levels[-1].cond_c == 0.0
    mags = [abs(lv.cond_c) for lv in report.levels[:-1]]
    assert all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))


def test_hierarchy_pairing_routes_agree():
    report = offset_report()
    scale = max(1.0, report.levels[-1].grad_norm)
    for lv in report.levels:
        assert abs((lv.cond_cprime - lv.convection_pair) - lv.cond_c) \
            <= 1e-10 * scale


def test_hierarchy_rejects_single_level():
    with pytest.raises(ValueError):
        run_hierarchy(offset_problem(), 4, 1)


def test_hierarchy_failure_is_recorded_not_raised():
    cfg = SolverConfig(max_iterations=1)
    report = run_hierarchy(offset_problem(), 4, 2, cfg=cfg)
    assert report.failed_level == 0
    assert "failed" in report.failure_message
    assert report.levels == []
    assert report.within_grad_bound == report.within_sup_bound == []
    d = jsonable(report)
    assert d["failed_level"] == 0


P60_STALL = stall(0, "2.500e+06")


def test_hierarchy_records_assembly_error():
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing", regime="H3")
    with np.errstate(all="ignore"):
        report = run_hierarchy(problem, 4, 3)
    # the ramp's start overflows the p-term, so the level falls through to
    # load continuation, which stalls
    assert report.failed_level == 0
    assert report.failure_message == P60_STALL
    assert report.levels == []
    assert report.failed_guard.passed


# the guard passes on level 0 (ROADMAP item 10)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=P60_STALL)
def test_p60_hierarchy_solves_every_level():
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing", regime="H3")
    with np.errstate(all="ignore"):
        report = run_hierarchy(problem, 4, 3)
    assert_no_failure(report, P60_STALL)
    assert len(report.levels) == 3


def test_nonfinite_start_ends_the_stage_not_the_level():
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing", regime="H3")
    est = compute_estimates(problem)
    op = ProblemOperator(problem, truncate_weight(problem.weight,
                                                  est.sup_radius))
    space = FeSpace(build_mesh(UNIT, 4))
    with np.errstate(all="ignore"):
        with pytest.raises(SolveError) as caught:
            solve_level(op, space)
    assert caught.value.diagnostics["path"] == "load-continuation"


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


def with_records(report, name, values):
    """`report` with field `name` of each level record set from `values`."""
    return dataclasses.replace(report, levels=[
        dataclasses.replace(lv, **{name: v})
        for lv, v in zip(report.levels, values, strict=True)])


def test_s_probe_flags_stalled_gaps():
    report = offset_report()
    fake = with_records(report, "gap", [1.0, 1.1, 0.9, 0.0])
    probe = condition_S_probe(fake)
    assert not probe.gradients_contract
    assert probe.classification.startswith("generalized only")


def test_s_probe_flags_surviving_pairing():
    report = offset_report()
    fake = with_records(report, "cond_c", [1.0, 1.0, 1.0, 1.0])
    assert condition_S_probe(fake).classification == "inconclusive"


def test_s_probe_empty_report_inconclusive():
    report = offset_report()
    fake = dataclasses.replace(report, levels=[])
    assert condition_S_probe(fake).classification == "inconclusive"


def test_level_record_norms_reproduce_from_its_solution():
    for lv in offset_report().levels:
        assert grad_norm_lp(lv.solution, 3.0) == lv.grad_norm
        assert sup_norm(lv.solution) == lv.sup_norm


def test_level_solves_on_load_continuation():
    # the 2D competing problem with a load: warm Newton stalls on level 1
    # and load continuation reaches the zero; the iteration count includes
    # the failed warm attempt, whose line search stops at WARM_HALVINGS
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
    assert lv.iterations == 32
    assert lv.residual_sup <= report.solver_tolerance


GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def workload_levels(workload):
    """The operator and the level spaces of a bench workload's config."""
    cfg = cli.load_config(GOLDEN_CONFIGS / f"{workload}.json")
    problem = cli.build_problem(cfg["problem"])
    meshes = [build_mesh(problem.domain, cfg["mesh"]["base_cells"])]
    for _ in range(cfg["mesh"]["levels"] - 1):
        meshes.append(refine(meshes[-1]))
    est = compute_estimates(problem)
    op = ProblemOperator(problem, truncate_weight(problem.weight,
                                                  est.sup_radius))
    return op, [FeSpace(mesh) for mesh in meshes]


@pytest.mark.parametrize("workload",
                         ["coop-1d-deep", "coop-2d", "compete-2d-load"])
def test_sparse_solve_matches_spsolve_bit_for_bit(workload, monkeypatch):
    op, spaces = workload_levels(workload)
    solves, solve = [], fespace.sparse_solve

    def spy(space, A, b):
        x = solve(space, A, b)
        solves.append((A, b, x))
        return x

    monkeypatch.setattr(galerkin, "sparse_solve", spy)
    rng = np.random.default_rng(31)
    for space in spaces:
        # the predictor's stiffness matrix is the space's first factor, so
        # the Jacobians after it take the recorded column order
        galerkin._linear_predictor(op, space)
        assert len(solves) == 1 and space._recorded_order is not None
        for _ in range(2):
            u = FeFunction(space, 0.5 * rng.standard_normal(space.dim))
            galerkin.sparse_solve(space, op.jacobian(u),
                                  rng.standard_normal(space.dim))
        for A, b, x in solves:
            assert np.array_equal(bits(x), bits(spla.spsolve(A, b)))
        solves.clear()


def compete_2d_load_report():
    cfg = cli.load_config(GOLDEN_CONFIGS / "compete-2d-load.json")
    return run_hierarchy(cli.build_problem(cfg["problem"]),
                         cfg["mesh"]["base_cells"], cfg["mesh"]["levels"])


COMPETE_STALL = stall(3, "2.263e-04")


# ROADMAP item 1
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=COMPETE_STALL)
def test_compete_2d_load_solves_every_level():
    report = compete_2d_load_report()
    assert_no_failure(report, COMPETE_STALL)
    assert len(report.levels) == 4
    assert all(0.54 <= lv.sup_norm <= 0.59 for lv in report.levels)


def test_colamd_runs_once_per_space(monkeypatch):
    specs, splu = Counter(), spla.splu

    def counting(A, permc_spec=None, **kwargs):
        specs[permc_spec, A.shape[0]] += 1
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    report = run_hierarchy(offset_problem(), 4, 3)
    assert report.failed_level is None
    dims = [lv.dim for lv in report.levels]
    assert {dim for _, dim in specs} == set(dims)
    for dim, lv in zip(dims, report.levels):
        assert specs["COLAMD", dim] == 1
        # one factorization per Newton iteration and one for a cold
        # start's predictor; all but the first take the recorded order
        assert specs["NATURAL", dim] == lv.iterations - (lv.path == "newton")
    assert set(spec for spec, _ in specs) == {"COLAMD", "NATURAL"}


class SingularJacobian:
    """The operator's residual with an all-zero Jacobian in its pattern."""

    def __init__(self, op):
        self.op = op

    def residual(self, u):
        return self.op.residual(u)

    def jacobian(self, u):
        nv = u.space.cell_dofs.shape[1]
        return assemble_matrix(u.space,
                               np.zeros(u.space.cell_dofs.shape + (nv,)))


def test_exactly_singular_jacobian_is_a_degenerate_step():
    op, _ = single_dof_op()
    space = FeSpace(build_mesh(UNIT, 6))
    u = FeFunction(space, np.linspace(0.1, 0.5, space.dim))
    stub = SingularJacobian(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # first on a fresh space (column order computed), then once the
        # space has recorded its order
        for recorded in (False, True):
            assert (space._recorded_order is not None) == recorded
            _, info = galerkin._newton(stub, u, SolverConfig())
            assert not info.converged
            assert info.message == "degenerate step"
            assert info.iterations == 0
            fespace.sparse_solve(space, op.jacobian(u), np.ones(space.dim))


def test_sparse_solve_rejects_a_matrix_outside_the_pattern():
    space = FeSpace(refine(build_mesh(Domain.rectangle(0, 1, 0, 1), 4)))
    assert space.dim == 49
    stiffness = space.stiffness_blocks * space.cell_measures[:, None, None]
    K = assemble_matrix(space, stiffness)
    # scipy's sum drops the exact zeros that K stores
    shifted = K + sp.identity(space.dim, format="csr")
    assert shifted.nnz < K.nnz
    rhs = np.ones(space.dim)
    # on a fresh space, and once the space has recorded its column order
    for recorded in (False, True):
        with pytest.raises(ValueError, match="not in the pattern"):
            fespace.sparse_solve(space, shifted, rhs)
        assert (space._recorded_order is not None) == recorded
        fespace.sparse_solve(space, K, rhs)


class NoDescent:
    """The operator's Jacobian with a residual frozen at the start state, so
    the merit never falls along any step."""

    def __init__(self, op, u0):
        self.op, self.frozen, self.residuals = op, op.residual(u0), 0

    def residual(self, u):
        self.residuals += 1
        return self.frozen

    def jacobian(self, u):
        return self.op.jacobian(u)


@pytest.mark.parametrize("limit,residuals", [
    ((galerkin.WARM_HALVINGS,), 1 + 7),  # lambda = 1, 1/2, ..., 1/64
    ((), 1 + 40),                        # the default, MAX_HALVINGS
])
def test_stalled_line_search_evaluates_one_residual_per_trial(limit,
                                                             residuals):
    op, _ = single_dof_op()
    space = FeSpace(build_mesh(UNIT, 6))
    u = FeFunction(space, np.linspace(0.1, 0.5, space.dim))
    stub = NoDescent(op, u)
    _, info = galerkin._newton(stub, u, SolverConfig(), *limit)
    assert not info.converged
    assert info.message == "line search stalled"
    assert info.iterations == 0
    # the start state's residual, then one per trial step
    assert stub.residuals == residuals


class CountingFailures:
    """The operator, counting the residuals that raise AssemblyError."""

    def __init__(self, op):
        self.op, self.failures = op, 0

    def residual(self, u):
        try:
            return self.op.residual(u)
        except AssemblyError:
            self.failures += 1
            raise

    def jacobian(self, u):
        return self.op.jacobian(u)


def test_nonfinite_line_search_trial_is_a_rejected_trial():
    # p = 40 under a load of 1e6: from zero, full Newton steps overflow
    # |grad u|^38 in the p-term, and each such trial halves the step instead
    # of ending the solve; no overflow warning escapes either
    problem = Problem(p=40.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e6),
                      variant="competing", regime="H3")
    radius = compute_estimates(problem).sup_radius
    stub = CountingFailures(
        ProblemOperator(problem, truncate_weight(problem.weight, radius)))
    space = FeSpace(build_mesh(UNIT, 4))
    _, info = galerkin._newton(stub, FeFunction.zero(space),
                               SolverConfig(max_iterations=400))
    assert isinstance(info, galerkin._NewtonInfo)
    assert stub.failures > 0


def test_only_the_warm_stage_gets_the_warm_limit(monkeypatch):
    calls, newton = [], galerkin._newton

    def spy(op, u0, cfg, max_halvings=galerkin.MAX_HALVINGS):
        calls.append((u0.space.mesh.level, op, max_halvings))
        return newton(op, u0, cfg, max_halvings)

    monkeypatch.setattr(galerkin, "_newton", spy)
    report = compete_2d_load_report()
    assert [lv.path for lv in report.levels] == \
        ["competition-ramp", "newton", "load-continuation"]
    assert report.failed_level == 3
    for level in range(4):
        stages = [(op, limit) for lv, op, limit in calls if lv == level]
        if level == 0:
            # cold: the competition ramp, monotone core to full strength
            assert [op.q_factor for op, _ in stages] == list(galerkin.RAMP)
        else:
            # one warm stage on the run's operator; on levels 2 and 3 it
            # stalls and load continuation follows from zero
            warm_op, limit = stages.pop(0)
            assert warm_op is report.operator
            assert limit == galerkin.WARM_HALVINGS
            loads = [op.load_factor for op, _ in stages]
            assert loads == list(galerkin.CONTINUATION[:len(loads)])
            assert bool(loads) == (level >= 2)
        assert all(limit == galerkin.MAX_HALVINGS for _, limit in stages)


def test_compete_2d_load_residual_and_jacobian_counts(monkeypatch):
    counts = Counter()
    for name in ("residual", "jacobian"):
        method = getattr(ProblemOperator, name)

        def counting(self, u, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, u)

        monkeypatch.setattr(ProblemOperator, name, counting)
    report = compete_2d_load_report()
    assert report.failed_level == 3
    # a warm line search tries at most 7 steps; with 40 trials, as on a
    # cold stage, this run took 1 024 residuals and 143 Jacobians
    assert counts["residual"] <= 400
    assert counts["jacobian"] <= 120
