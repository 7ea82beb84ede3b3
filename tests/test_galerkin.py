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
from pqgalerkin.galerkin import (ProblemOperator, SolveError, brouwer_guard,
                                 run_hierarchy, solve_level)
from pqgalerkin.mesh import Domain, build_mesh, refine
from pqgalerkin.operators import (AssemblyError, Problem,
                                  constant_convection, constant_weight,
                                  quadratic_weight, saturating_convection,
                                  truncate_weight)
from pqgalerkin.verify import condition_S_probe

from test_sweep import assert_no_failure

UNIT = Domain.interval(0.0, 1.0)

GOLDEN = (1.0 + math.sqrt(2.0)) / 4.0


def single_dof_op():
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing")
    weight = truncate_weight(problem.weight, 1.0)
    space = FeSpace(build_mesh(UNIT, 2))
    return ProblemOperator(problem, weight), space


def offset_problem(variant="competing"):
    conv = saturating_convection(3.0, alpha=2.0, h_bound=1.0, offset=1.0)
    return Problem(p=3.0, q=2.0, domain=UNIT, weight=quadratic_weight(2.0),
                   convection=conv, variant=variant)


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
    assert lv.path == "pseudo-transient"
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
                      variant="competing")
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
    assert cold1.path == "pseudo-transient"
    assert warm.iterations < cold1.iterations
    np.testing.assert_allclose(warm.solution.coeffs, cold1.solution.coeffs,
                               atol=1e-9)


def test_warm_start_from_another_space_is_rejected():
    op, space0 = single_dof_op()
    space1 = FeSpace(refine(space0.mesh))
    coarse = solve_level(op, space0).solution
    with pytest.raises(ValueError, match="warm start"):
        solve_level(op, space1, warm=coarse)


def test_solve_level_raises_when_capped(monkeypatch):
    problem = offset_problem()
    space = FeSpace(build_mesh(UNIT, 8))
    weight = truncate_weight(problem.weight, 2.0)
    op = ProblemOperator(problem, weight)
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    with pytest.raises(SolveError) as exc:
        solve_level(op, space)
    err = exc.value
    assert err.diagnostics["level"] == space.mesh.level
    assert err.diagnostics["iterations"] == 1
    # a cold level makes one attempt, which ends at the cap of one step
    (attempt,) = err.diagnostics["attempts"]
    assert (attempt.path, attempt.converged, attempt.steps,
            attempt.message) == ("pseudo-transient", False, 1,
                                 "iteration cap")
    assert attempt.delta > 0.0
    assert str(err) == f"level {space.mesh.level} failed: iteration cap " \
        f"(residual sup {attempt.residual_sup:.3e})"


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
                      variant="competing")
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


def test_hierarchy_failure_is_recorded_not_raised(monkeypatch):
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    report = run_hierarchy(offset_problem(), 4, 2)
    assert report.failed_level == 0
    assert "failed" in report.failure_message
    assert report.levels == []
    assert report.within_grad_bound == report.within_sup_bound == []
    d = jsonable(report)
    assert d["failed_level"] == 0


P60_STALL = "level 0 failed: iteration cap (residual sup 6.696e+219)"


def test_hierarchy_records_assembly_error():
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing")
    with np.errstate(all="ignore"):
        report = run_hierarchy(problem, 4, 3)
    # from zero, the first pseudo-transient steps overflow the p-term and
    # quarter delta; the level ends at the iteration cap far from a zero
    assert report.failed_level == 0
    assert report.failure_message == P60_STALL
    assert report.levels == []
    assert report.failed_guard.passed


# the guard passes on level 0 (ROADMAP item 10)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=P60_STALL)
def test_p60_hierarchy_solves_every_level():
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing")
    with np.errstate(all="ignore"):
        report = run_hierarchy(problem, 4, 3)
    assert_no_failure(report, P60_STALL)
    assert len(report.levels) == 3


def test_nonfinite_start_ends_the_stage_not_the_level():
    # a warm start whose residual overflows the p-term ends each attempt
    # at its start, and the level fails with both attempts recorded
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing")
    est = compute_estimates(problem)
    op = ProblemOperator(problem, truncate_weight(problem.weight,
                                                  est.sup_radius))
    space = FeSpace(build_mesh(UNIT, 4))
    warm = FeFunction(space, np.array([0.0, 1e10, 0.0]))
    with np.errstate(all="ignore"):
        with pytest.raises(AssemblyError):
            op.residual(warm)
        with pytest.raises(SolveError) as caught:
            solve_level(op, space, warm=warm)
    attempts = caught.value.diagnostics["attempts"]
    assert [(a.path, a.steps, a.residual_sup) for a in attempts] == [
        ("newton", 0, math.inf), ("pseudo-transient", 0, math.inf)]
    assert all(a.message.startswith("nonfinite") for a in attempts)
    assert str(caught.value) == \
        f"level 0 failed: {attempts[0].message} (residual sup inf)"


def test_cooperative_1d_hierarchy_solves_twelve_levels():
    # the finite-difference Jacobian this solver once used had an error
    # growing like 1/h, and this hierarchy stalled at level 11 (8 191 dofs
    # at level 12)
    conv = saturating_convection(3.0, alpha=2.0, h_bound=1.0, offset=1.0)
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=quadratic_weight(1.0),
                      convection=conv, variant="cooperative")
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


def test_level_solves_on_pseudo_transient_after_warm_newton():
    # compete-2d-load: warm Newton stalls in the line search of its fifth
    # step on level 2 and of its first step on level 3, and pseudo-transient
    # continuation from the warm start reaches the zero on the coarse
    # branch; the level-1 count includes its chord steps
    report = compete_2d_load_report()
    assert report.failed_level is None, report.failure_message
    assert [(lv.path, lv.iterations) for lv in report.levels] == [
        ("pseudo-transient", 44), ("newton", 10), ("pseudo-transient", 11),
        ("pseudo-transient", 8)]
    assert all(lv.residual_sup <= report.solver_tolerance
               for lv in report.levels)


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
def test_sparse_solve_meets_a_scaled_residual_bound(workload):
    # a backward-stable solve: ||A x - b|| within a few dozen rounding units
    # of ||A|| ||x|| + ||b|| in the sup norm (measured at most 4.3e-16), on
    # what a level factors: M, and at random states J and J + M/delta
    op, spaces = workload_levels(workload)
    rng = np.random.default_rng(31)
    for space in spaces:
        M = galerkin._pseudo_mass(op, space)
        matrices = [M]
        for delta in (1.0, 1e3):
            u = FeFunction(space, 0.5 * rng.standard_normal(space.dim))
            J = op.jacobian(u)
            matrices += [J, galerkin._shifted(J, M, delta)]
        for A in matrices:
            b = rng.standard_normal(space.dim)
            x, kept = fespace.sparse_solve(space, A, b)
            # the kept solve repeats the bits of the first
            assert np.array_equal(bits(kept(b)), bits(x))
            scale = (spla.norm(A, np.inf) * np.max(np.abs(x))
                     + np.max(np.abs(b)))
            assert np.max(np.abs(A @ x - b)) <= 1e-14 * scale


def factors(run):
    """run() and the SuperLU factors made during it, in order."""
    made, splu = [], spla.splu

    def keeping(*args, **kwargs):
        made.append(splu(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "splu", keeping)
        return run(), made


def fill(lu) -> int:
    """nnz(L + U): L's unit diagonal is stored and counted once."""
    return lu.L.nnz + lu.U.nnz - lu.shape[0]


def test_one_dimensional_jacobians_factor_with_no_fill():
    # the dofs in coordinate order make every matrix tridiagonal
    report, made = factors(lambda: workload_report("coop-1d-deep"))
    assert len(made) == sum(lv.factorizations for lv in report.levels)
    assert all(fill(lu) == 3 * lu.shape[0] - 2 for lu in made)


def test_nested_dissection_fills_less_than_colamd():
    # coop-2d's finest Jacobian at its solution (3 969 dofs): 185 337
    # nonzeros in L + U against 251 779 by COLAMD on the CSC view of A^T
    report = workload_report("coop-2d")
    u = report.levels[-1].solution
    J = report.operator.jacobian(u)
    _, made = factors(lambda: fespace.sparse_solve(u.space, J,
                                                   np.ones(u.space.dim)))
    colamd = spla.splu(sp.csc_matrix((J.data, J.indices, J.indptr),
                                     shape=J.shape), permc_spec="COLAMD")
    assert fill(made[0]) <= 0.8 * fill(colamd)


@pytest.mark.parametrize("domain,cells,levels", [
    (UNIT, 5, 3), (Domain.interval(-2.0, 7.0), 4, 4),
    (Domain.rectangle(0, 1, 0, 1), 4, 4),
    (Domain.rectangle(-1.0, 2.0, 0.5, 1.0), (3, 5), 3)])
def test_factor_order_is_a_deterministic_permutation(domain, cells, levels):
    meshes = [build_mesh(domain, cells)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))
    again = build_mesh(domain, cells)
    for _ in range(levels - 1):
        again = refine(again)
    for mesh in meshes:
        order = FeSpace(mesh).factor_order
        n = len(order.perm)
        assert np.array_equal(np.sort(order.perm), np.arange(n))
        assert np.array_equal(order.inverse[order.perm], np.arange(n))
        assert not order.perm.flags.writeable
    # the order follows from the mesh alone
    for a, b in zip(FeSpace(meshes[-1]).factor_order,
                    FeSpace(again).factor_order):
        assert np.array_equal(a, b)


def test_every_factorization_takes_the_natural_order(monkeypatch):
    specs, splu = Counter(), spla.splu

    def counting(A, permc_spec=None, **kwargs):
        specs[permc_spec, A.shape[0]] += 1
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    report = run_hierarchy(offset_problem(), 4, 3)
    assert report.failed_level is None
    assert {spec for spec, _ in specs} == {"NATURAL"}
    assert [specs["NATURAL", lv.dim] for lv in report.levels] \
        == [lv.factorizations for lv in report.levels]


def test_a_solved_space_holds_no_solver_state():
    # a space caches only what its mesh gives, and a solve releases what
    # only a solver reads: after a hierarchy, no space holds a plan, a
    # factor order or stiffness blocks, and each Jacobian built again has
    # the bits of the one built before the release
    report = workload_report("compete-2d-load")
    solver_caches = {"plan", "factor_order", "stiffness_blocks"}
    for lv in report.levels:
        space = lv.solution.space
        fresh = FeSpace(space.mesh)
        for name, value in vars(space).items():
            assert not isinstance(value, spla.SuperLU), name
            assert name not in solver_caches, name
            assert hasattr(fresh, name), name
        J = report.operator.jacobian(lv.solution)
        assert {"plan", "stiffness_blocks"} <= set(vars(space))
        fespace.release_solver_caches(space)
        assert not solver_caches & set(vars(space))
        again = report.operator.jacobian(lv.solution)
        for a, b in ((J.data, again.data), (J.indices, again.indices),
                     (J.indptr, again.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def workload_report(workload):
    cfg = cli.load_config(GOLDEN_CONFIGS / f"{workload}.json")
    return run_hierarchy(cli.build_problem(cfg["problem"]),
                         cfg["mesh"]["base_cells"], cfg["mesh"]["levels"])


def compete_2d_load_report():
    return workload_report("compete-2d-load")


def test_compete_2d_load_solves_every_level():
    report = compete_2d_load_report()
    assert_no_failure(report)
    assert len(report.levels) == 4
    assert all(0.54 <= lv.sup_norm <= 0.59 for lv in report.levels)


def test_compete_2d_load_keeps_its_branch():
    # every warm level stays within its own size of the prolongated coarse
    # solution; the cold level 0 has no warm start
    distances = [lv.warm_distance for lv in compete_2d_load_report().levels]
    assert math.isnan(distances[0])
    assert all(d <= 1.0 for d in distances[1:]), distances


def test_warm_distance_is_the_gradient_gap_to_the_warm_start():
    report = offset_report()
    p = report.operator.problem.p
    for coarse, lv in zip(report.levels, report.levels[1:]):
        warm = prolongate(coarse.solution, lv.solution.space)
        assert lv.warm_distance == \
            grad_norm_lp(lv.solution - warm, p) / lv.grad_norm


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
        _, info = galerkin._newton(stub, u)
        assert not info.converged
        assert info.message == "degenerate step"
        assert info.steps == 0
        x, solve = fespace.sparse_solve(space, stub.jacobian(u),
                                        np.ones(space.dim))
        assert np.all(np.isnan(x)) and np.all(np.isnan(solve(x)))
        # a regular matrix on the same space solves after it
        x, _ = fespace.sparse_solve(space, op.jacobian(u), np.ones(space.dim))
        assert np.all(np.isfinite(x))


def test_sparse_solve_rejects_a_matrix_outside_the_pattern():
    space = FeSpace(refine(build_mesh(Domain.rectangle(0, 1, 0, 1), 4)))
    assert space.dim == 49
    stiffness = space.stiffness_blocks * space.cell_measures[:, None, None]
    K = assemble_matrix(space, stiffness)
    # scipy's sum drops the exact zeros that K stores
    shifted = K + sp.identity(space.dim, format="csr")
    assert shifted.nnz < K.nnz
    rhs = np.ones(space.dim)
    # on a fresh space, and on one that has factored a matrix
    for _ in range(2):
        with pytest.raises(ValueError, match="not in the pattern"):
            fespace.sparse_solve(space, shifted, rhs)
        fespace.sparse_solve(space, K, rhs)


class NoDescent:
    """The operator's Jacobian with a residual frozen at the start state, so
    the merit never falls along any step."""

    def __init__(self, op, u0):
        self.op, self.weight = op, op.weight
        self.frozen, self.residuals = op.residual(u0), 0

    def residual(self, u):
        self.residuals += 1
        return self.frozen

    def jacobian(self, u):
        return self.op.jacobian(u)


# `limit` is the walker and its iteration cap: warm Newton stalls in its
# first line search after lambda = 1, 1/2, 1/4, 1/8 (WARM_HALVINGS); pseudo-
# transient continuation has no line search, so a merit that never falls
# keeps delta and takes one residual per step up to the cap
@pytest.mark.parametrize("limit,residuals", [
    ((galerkin._newton, 200, 0, "line search stalled"), 1 + 4),
    ((galerkin._pseudo_transient, 40, 40, "iteration cap"), 1 + 40),
])
def test_stalled_line_search_evaluates_one_residual_per_trial(limit,
                                                             residuals,
                                                             monkeypatch):
    walk, cap, steps, message = limit
    assert galerkin.WARM_HALVINGS == 4
    op, _ = single_dof_op()
    space = FeSpace(build_mesh(UNIT, 6))
    u = FeFunction(space, np.linspace(0.1, 0.5, space.dim))
    stub = NoDescent(op, u)
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", cap)
    _, info = walk(stub, u)
    assert not info.converged
    assert info.message == message
    assert info.steps == steps
    # the start state's residual, then one per trial step
    assert stub.residuals == residuals


class CountingFailures:
    """The operator, counting the residuals that raise AssemblyError."""

    def __init__(self, op):
        self.op, self.weight, self.failures = op, op.weight, 0

    def residual(self, u):
        try:
            return self.op.residual(u)
        except AssemblyError:
            self.failures += 1
            raise

    def jacobian(self, u):
        return self.op.jacobian(u)


def test_nonfinite_line_search_trial_is_a_rejected_trial(monkeypatch):
    # p = 60 under a load of 1e8 (config k): from zero, full Newton and
    # pseudo-transient steps overflow |grad u|^58 in the p-term; each such
    # trial halves the step or quarters delta instead of ending the solve,
    # and no overflow warning escapes
    problem = Problem(p=60.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1e8),
                      variant="competing")
    radius = compute_estimates(problem).sup_radius
    space = FeSpace(build_mesh(UNIT, 4))
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 400)
    for walk in (galerkin._newton, galerkin._pseudo_transient):
        stub = CountingFailures(
            ProblemOperator(problem, truncate_weight(problem.weight, radius)))
        _, info = walk(stub, FeFunction.zero(space))
        assert isinstance(info, galerkin.Attempt)
        assert not info.converged
        assert stub.failures > 0


class FailingTrials:
    """The operator, with its first `fails` trial residuals raising
    AssemblyError, counting Jacobians."""

    def __init__(self, op, fails):
        self.op, self.weight, self.fails, self.jacobians = op, op.weight, \
            fails, 0
        self.starts = 1

    def residual(self, u):
        if self.starts:
            self.starts -= 1
        elif self.fails:
            self.fails -= 1
            raise AssemblyError("nonfinite trial")
        return self.op.residual(u)

    def jacobian(self, u):
        self.jacobians += 1
        return self.op.jacobian(u)


def test_rejected_pseudo_transient_step_quarters_delta(monkeypatch):
    deltas, shifted = [], galerkin._shifted

    def spy(J, M, delta):
        deltas.append(delta)
        return shifted(J, M, delta)

    monkeypatch.setattr(galerkin, "_shifted", spy)
    op, _ = single_dof_op()
    space = FeSpace(build_mesh(UNIT, 6))
    stub = FailingTrials(op, 2)
    u = FeFunction(space, np.linspace(0.1, 0.5, space.dim))
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 3)
    _, info = galerkin._pseudo_transient(stub, u)
    # two rejected steps from the start state share its Jacobian; the third
    # is taken with delta = 1/16, which then grows as the merit falls
    assert deltas == [1.0, 0.25, 0.0625]
    assert stub.jacobians == 1
    assert (info.steps, info.message) == (3, "iteration cap")
    assert info.residual_sup < float(np.max(np.abs(op.residual(u))))
    assert info.delta > deltas[-1]


def test_shifted_matrix_keeps_the_plan_pattern_where_an_entry_cancels():
    op, _ = single_dof_op()
    space = FeSpace(refine(build_mesh(Domain.rectangle(0, 1, 0, 1), 4)))
    u = FeFunction(space, np.random.default_rng(2).standard_normal(space.dim))
    J, M, delta = op.jacobian(u), galerkin._pseudo_mass(op, space), 4.0
    # an off-diagonal entry of J that sums with M/delta to exactly 0.0
    k = int(np.flatnonzero(M.data)[1])
    J.data[k] = -M.data[k] / delta
    assert (J + M / delta).nnz < J.nnz
    A = galerkin._shifted(J, M, delta)
    assert A.data[k] == 0.0
    assert np.array_equal(A.indptr, J.indptr)
    assert np.array_equal(A.indices, J.indices)
    np.testing.assert_array_equal(A.toarray(), (J + M / delta).toarray())
    x, _ = fespace.sparse_solve(space, A, np.ones(space.dim))
    assert np.all(np.isfinite(x))


def test_guard_does_not_pass_directions_it_cannot_scale():
    # on a space with no dofs every direction has gradient norm 0; the
    # guard once divided by it, warned and passed
    op, _ = single_dof_op()
    mesh = build_mesh(UNIT, 4)
    mesh.boundary[:] = True
    space = FeSpace(mesh)
    assert space.dim == 0
    assert brouwer_guard(op, space, 1.0) == galerkin.GuardRecord(
        min_pairing=math.inf, passed=False)


@pytest.mark.parametrize("domain,cells", [
    (UNIT, 4), (Domain.rectangle(0.0, 1.0, 0.0, 1.0), (4, 4))])
def test_a_space_with_no_dofs_assembles_and_solves_empty(domain, cells):
    # the plan's pattern lookup once returned a sparse array on no dofs,
    # and every assembly and solve on the space raised a TypeError
    mesh = build_mesh(domain, cells)
    mesh.boundary[:] = True
    space = FeSpace(mesh)
    assert space.dim == 0
    plan = space.plan
    assert plan.indices.size == 0 and np.array_equal(plan.indptr, [0])
    # every block position is dropped into the bin past the empty pattern
    assert not np.any(plan.entry)
    assert len(space.factor_order.perm) == 0
    nv = space.cell_dofs.shape[1]
    A = assemble_matrix(space, np.ones(space.cell_dofs.shape + (nv,)))
    assert A.shape == (0, 0)
    x, solve = fespace.sparse_solve(space, A, np.zeros(0))
    assert x.shape == (0,) and solve(x).shape == (0,)


def test_guard_draws_its_chunks_with_the_bits_of_one_draw(monkeypatch):
    # each chunk draws its rows from one generator, which continues its
    # stream, so the guard scales the rows of one (GUARD_SAMPLES, n) draw
    op, _ = single_dof_op()
    space = FeSpace(refine(build_mesh(UNIT, 8)))
    monkeypatch.setattr(fespace, "CHUNK_BYTES", 3 * space.qp_weights.size * 8)
    assert len(galerkin.row_slices(space, galerkin.GUARD_SAMPLES)) == 11
    drawn, norm = [], galerkin.grad_norm_lp

    def recording(u, p):
        drawn.append(u.coeffs)
        return norm(u, p)

    monkeypatch.setattr(galerkin, "grad_norm_lp", recording)
    brouwer_guard(op, space, 1.0, seed=4)
    whole = np.random.default_rng(4).standard_normal(
        (galerkin.GUARD_SAMPLES, space.dim))
    assert [len(rows) for rows in drawn] == [3] * 10 + [2]
    assert np.array_equal(np.concatenate(drawn).view(np.int64),
                          whole.view(np.int64))


def test_short_interval_keeps_its_interior_dofs():
    # the boundary is matched exactly: on [0, 1e-100] an absolute 1e-12
    # once put every vertex on the boundary, so each space had no dofs and
    # no guard passed
    conv = saturating_convection(3.0, offset=1.0)
    problem = Problem(p=3.0, q=2.0, domain=Domain.interval(0.0, 1e-100),
                      weight=quadratic_weight(2.0), convection=conv,
                      variant="competing")
    report = run_hierarchy(problem, 4, 3)
    assert [lv.dim for lv in report.levels] == [3, 7, 15]
    assert all(lv.guard.passed for lv in report.levels)


def test_only_the_warm_stage_gets_the_warm_limit(monkeypatch):
    # the line-searched Newton attempt, with its WARM_HALVINGS limit, runs
    # only from a warm start; pseudo-transient continuation starts from
    # zero on the cold level and from the same warm start where Newton fails
    calls = []

    def spy(walk):
        def recorded(op, u0, start):
            u, info = walk(op, u0, start)
            calls.append((u0.space.mesh.level, info.path, u0, info))
            return u, info
        return recorded

    for name in ("_newton", "_pseudo_transient"):
        monkeypatch.setattr(galerkin, name, spy(getattr(galerkin, name)))
    report = compete_2d_load_report()
    assert report.failed_level is None, report.failure_message
    assert [(level, path) for level, path, _, _ in calls] == [
        (0, "pseudo-transient"), (1, "newton"), (2, "newton"),
        (2, "pseudo-transient"), (3, "newton"), (3, "pseudo-transient")]
    assert not np.any(calls[0][2].coeffs)
    for level in (2, 3):
        (_, _, start, newton), (_, _, restart, ptc) = \
            [c for c in calls if c[0] == level]
        assert restart is start
        assert newton.message == "line search stalled"
        assert ptc.converged
        assert report.levels[level].iterations == newton.steps + ptc.steps
    # level 3's first Newton step must be damped below 1/8: the attempt
    # stops after one factorization and no step
    newton = calls[4][3]
    assert (newton.steps, newton.factorizations) == (0, 1)


def test_the_warm_limit_moves_no_solution_bit(monkeypatch):
    # a warm Newton attempt that stalls hands its start to pseudo-transient
    # continuation, so the line-search floor picks the path and its cost,
    # not the zero: with the floor at 1/64 (7 trials), level 3's Newton
    # attempt damps its first step to 1/16 and stalls in its eighth step
    report = compete_2d_load_report()
    monkeypatch.setattr(galerkin, "WARM_HALVINGS", 7)
    old = compete_2d_load_report()
    assert old.failed_level is None, old.failure_message
    for lv, was in zip(report.levels, old.levels, strict=True):
        assert np.array_equal(bits(lv.solution.coeffs),
                              bits(was.solution.coeffs))
        assert lv.path == was.path
    assert (old.levels[3].factorizations,
            report.levels[3].factorizations) == (16, 9)


def test_compete_2d_load_residual_and_jacobian_counts(monkeypatch):
    counts = Counter()
    for name in ("residual", "jacobian"):
        method = getattr(ProblemOperator, name)

        def counting(self, u, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, u)

        monkeypatch.setattr(ProblemOperator, name, counting)
    report = compete_2d_load_report()
    assert report.failed_level is None, report.failure_message
    # the staged walker this replaced took 388 residuals and 120 Jacobians
    # to solve three of the four levels; with the warm line search down to
    # 1/64 the walker took 115 and 75, with its floor at 1/8 it takes 91
    # and 68
    assert counts["residual"] <= 100
    assert counts["jacobian"] <= 70


# the factorizations of the whole hierarchy; before chord steps, coop-2d
# took 19 and coop-1d-deep 30
@pytest.mark.parametrize("workload,most", [("coop-2d", 12),
                                           ("coop-1d-deep", 17)])
def test_warm_newton_reuses_its_factor(workload, most, monkeypatch):
    dims, splu = Counter(), spla.splu

    def counting(A, **kwargs):
        dims[A.shape[0]] += 1
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    report = workload_report(workload)
    assert report.failed_level is None, report.failure_message
    # each record counts its level's SuperLU factorizations
    assert [lv.factorizations for lv in report.levels] \
        == [dims[lv.dim] for lv in report.levels]
    assert sum(dims.values()) <= most
    if workload == "coop-2d":
        assert report.levels[-1].factorizations == 1


class Scripted:
    """The operator, logging the state of every residual and Jacobian, with
    the residual of call k (0 is the start) replaced by `script[k]`: a
    scale of the true residual, or "fail" for an AssemblyError."""

    def __init__(self, op, script):
        self.op, self.weight, self.script, self.log = op, op.weight, \
            script, []

    def residual(self, u):
        k = sum(kind == "F" for kind, _ in self.log)
        self.log.append(("F", u.coeffs.copy()))
        action = self.script.get(k, 1.0)
        if action == "fail":
            raise AssemblyError("nonfinite trial")
        return action * self.op.residual(u)

    def jacobian(self, u):
        self.log.append(("J", u.coeffs.copy()))
        return self.op.jacobian(u)


def scripted_newton(script):
    """Two Newton steps of the scripted operator: its log and Attempt."""
    op, _ = single_dof_op()
    space = FeSpace(build_mesh(UNIT, 6))
    stub = Scripted(op, script)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(galerkin, "MAX_ITERATIONS", 2)
        _, info = galerkin._newton(
            stub, FeFunction(space, np.linspace(0.1, 0.5, space.dim)))
    return stub.log, info


def test_discarded_chord_trial_keeps_the_state():
    # a full step that cuts the merit a thousandfold makes the next step a
    # chord step; its trial fails, so the Jacobian is rebuilt at the state
    # the full step reached, and the trial is no step
    log, info = scripted_newton({1: 1e-3, 2: "fail", 3: 1e-6})
    assert [kind for kind, _ in log] == ["F", "J", "F", "F", "J", "F"]
    (_, start), _, (_, full), (_, chord), (_, rebuilt), _ = log
    assert np.array_equal(rebuilt, full)
    assert not np.array_equal(chord, full)
    assert (info.steps, info.factorizations, info.message) \
        == (2, 2, "iteration cap")


def test_chord_step_follows_only_a_full_step():
    # the same thousandfold cut, once by a full step and once by a step
    # halved after a failed full trial: only the full step is followed by
    # a chord trial, which builds no Jacobian and factors nothing
    log, info = scripted_newton({1: 1e-3, 2: 1e-6})
    assert [kind for kind, _ in log] == ["F", "J", "F", "F"]
    assert (info.steps, info.factorizations) == (2, 1)
    log, info = scripted_newton({1: "fail", 2: 1e-3, 3: 1e-6})
    assert [kind for kind, _ in log] == ["F", "J", "F", "F", "J", "F"]
    assert np.array_equal(log[4][1], log[3][1])
    assert (info.steps, info.factorizations) == (2, 2)
