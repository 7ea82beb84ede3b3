"""Guarded Galerkin hierarchy: level solves and condition tables.

Each level solves the discrete residual system with damped Newton (the
operator's sparse Jacobian, Armijo line search on the residual merit).  One
walker runs Newton through a list of operator stages, each starting where the
last one ended, and stops at the first stage that does not converge; every
solve path is such a list.  Warm starts (prolongated coarser solutions) are a
single stage, whose line search gives up below a step of 1/64; every cold
stage tries 40 steps, down to 2**-39.  The competing operator is nonmonotone
and admits spurious branches reachable from a zero start, so cold starts walk
the competition ramp: a linear predictor seeds Newton on the monotone core
(the competing divergence term switched off), then the competing term is
ramped back to full strength.  When either path stalls, load continuation
ramps the convection term up from a zero start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .estimates import EstimateReport, compute_estimates
from .fespace import (FeFunction, FeSpace, assemble_matrix, grad_norm_lp,
                      prolongate, row_slices, sparse_solve, sup_norm)
from .mesh import build_mesh, refine
from .operators import (DEFAULT_REGULARIZATION, AssemblyError, Problem,
                        ProblemOperator, truncate_weight)

__all__ = [
    "SolveError",
    "SolverConfig",
    "ProblemOperator",
    "GuardRecord",
    "brouwer_guard",
    "LevelSolve",
    "solve_level",
    "HierarchyReport",
    "run_hierarchy",
]


class SolveError(RuntimeError):
    """A level solve failed after Newton and every fallback."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    max_iterations: int = 200
    regularization: float = DEFAULT_REGULARIZATION


# line-search trials (lambda = 1, 1/2, ...) before a cold stage counts as
# stalled
MAX_HALVINGS = 40
# trials of the warm stage, lambda = 1 down to 1/64: a converging warm step
# halves at most once, so this minimum step sits a factor of 32 below the
# smallest accepted warm step, and a failing warm attempt, whose state load
# continuation never uses, gives up early instead of crawling
WARM_HALVINGS = 7
# q_factor stages of the competition ramp, from the monotone core to full
RAMP = np.linspace(0.0, 1.0, 5)
# load_factor stages of load continuation
CONTINUATION = np.linspace(0.0, 1.0, 11)[1:]
# Gaussian directions the coercivity guard pairs on its sphere
GUARD_SAMPLES = 32
# random coarse functions added to the coarse basis in the condition-(b) table
EXTRA_TESTS = 5


# ---------------------------------------------------------------------------
# coercivity guard
# ---------------------------------------------------------------------------

@dataclass
class GuardRecord:
    min_pairing: float
    passed: bool


def brouwer_guard(op: ProblemOperator, space: FeSpace, radius: float,
                  seed: int = 0) -> GuardRecord:
    """Pair <A(v), v> at GUARD_SAMPLES Gaussian directions, scaled onto the
    sphere ||grad v||_p = radius (the a-priori radius), as one stack.

    A nonnegative minimum supports the acute-angle argument for a zero
    inside the ball; a negative minimum is data, recorded as a failed guard.
    """
    dirs = np.random.default_rng(seed).standard_normal((GUARD_SAMPLES,
                                                        space.dim))
    scales = np.empty(GUARD_SAMPLES)
    for rows in row_slices(space, GUARD_SAMPLES):
        scales[rows] = grad_norm_lp(FeFunction(space, dirs[rows]),
                                    op.problem.p)
    v = FeFunction(space, dirs * (float(radius) / scales)[:, None])
    # min over the floats in sample order, so a NaN pairing is skipped
    worst = min([np.inf, *op.pairing(v, v).tolist()])
    return GuardRecord(min_pairing=float(worst), passed=bool(worst >= 0.0))


# ---------------------------------------------------------------------------
# damped Newton
# ---------------------------------------------------------------------------

@dataclass
class _NewtonInfo:
    converged: bool
    iterations: int
    residual_sup: float
    message: str = ""


def _merit(F: np.ndarray) -> float:
    """Euclidean norm of F, rescaled by its largest entry only where the
    plain sum of squares overflows, so every finite merit keeps its bits."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(F))
    if np.isfinite(norm):
        return norm
    scale = float(np.max(np.abs(F)))
    return scale * float(np.linalg.norm(F / scale))


def _newton(op, u0: FeFunction, cfg: SolverConfig,
            max_halvings: int = MAX_HALVINGS) -> tuple:
    u, its = u0.copy(), 0
    try:  # a start with a nonfinite residual ends the stage
        F = op.residual(u)
    except AssemblyError as err:
        return u, _NewtonInfo(False, its, np.inf, str(err))
    while True:
        res_sup = float(np.max(np.abs(F))) if F.size else 0.0
        if res_sup <= cfg.tolerance:
            return u, _NewtonInfo(True, its, res_sup)
        if its >= cfg.max_iterations:
            return u, _NewtonInfo(False, its, res_sup, "iteration cap")
        # a singular Jacobian gives a NaN step
        delta = sparse_solve(u.space, op.jacobian(u), -F)
        if not np.all(np.isfinite(delta)) or not np.any(delta):
            return u, _NewtonInfo(False, its, res_sup, "degenerate step")
        merit = _merit(F)
        lam = 1.0
        for _ in range(max_halvings):
            trial = FeFunction(u.space, u.coeffs + lam * delta)
            try:  # a trial with a nonfinite residual is a rejected trial
                with np.errstate(over="ignore", invalid="ignore"):
                    Ft = op.residual(trial)
                if _merit(Ft) <= (1.0 - 1e-4 * lam) * merit:
                    break
            except AssemblyError:
                pass
            lam *= 0.5
        else:
            return u, _NewtonInfo(False, its, res_sup, "line search stalled")
        u, F = trial, Ft
        its += 1


def _linear_predictor(op: ProblemOperator, space: FeSpace) -> FeFunction:
    """Seed for the monotone core: solve a0 * stiffness = load at zero."""
    zero = FeFunction.zero(space)
    # at zero the residual is its f-part, minus the scaled load
    load = -op.residual(zero)
    if not np.any(load):
        return zero
    stiffness = space.stiffness_blocks * space.cell_measures[:, None, None]
    K = op.weight.lower_bound * assemble_matrix(space, stiffness)
    return FeFunction(space, sparse_solve(space, K, load))


def _walk(stages: List[ProblemOperator], u: FeFunction, cfg: SolverConfig,
          max_halvings: int = MAX_HALVINGS):
    """Newton through each stage from where the last one ended; stop at the
    first stage that does not converge.  Returns the last state, the last
    stage's Newton info and the iterations of every stage run."""
    total = 0
    for op in stages:
        u, info = _newton(op, u, cfg, max_halvings)
        total += info.iterations
        if not info.converged:
            break
    return u, info, total


@dataclass
class LevelSolve:
    level: int
    dim: int
    solution: FeFunction = field(metadata={"live": True})
    residual_sup: float
    iterations: int
    path: str
    converged: bool
    guard: Optional[GuardRecord] = None


def solve_level(op: ProblemOperator, space: FeSpace,
                cfg: Optional[SolverConfig] = None,
                warm: Optional[FeFunction] = None) -> LevelSolve:
    """Solve one Galerkin level; failure is an exception.  A warm start
    must live on `space`.  The result has no guard record: `run_hierarchy`
    samples the guard and sets it."""
    cfg = cfg or SolverConfig()
    if warm is not None:
        if warm.space is not space:
            raise ValueError("a warm start must live on the level's space")
        path, start, stages = "newton", warm, [op]
        halvings = WARM_HALVINGS
    else:
        path, start = "competition-ramp", _linear_predictor(op, space)
        stages = [replace(op, q_factor=float(k)) for k in RAMP]
        halvings = MAX_HALVINGS
    u, info, total = _walk(stages, start, cfg, halvings)
    if not info.converged:
        path = "load-continuation"
        stages = [replace(op, load_factor=float(t)) for t in CONTINUATION]
        u, info, extra = _walk(stages, FeFunction.zero(space), cfg)
        total += extra
    if not info.converged:
        raise SolveError(
            f"level {space.mesh.level} failed: {info.message} "
            f"(residual sup {info.residual_sup:.3e})",
            {"level": space.mesh.level, "path": path,
             "residual_sup": info.residual_sup, "iterations": total})
    return LevelSolve(level=space.mesh.level, dim=space.dim, solution=u,
                      residual_sup=info.residual_sup, iterations=total,
                      path=path, converged=True)


# ---------------------------------------------------------------------------
# hierarchy driver
# ---------------------------------------------------------------------------

@dataclass
class HierarchyReport:
    estimate: EstimateReport
    guard_radius: float
    solver_tolerance: float
    seed: int
    levels: List[LevelSolve] = field(default_factory=list)
    test_count: int = 0
    cond_b: List[List[float]] = field(default_factory=list)
    pair_un: List[float] = field(default_factory=list)
    cond_c: List[float] = field(default_factory=list)
    cond_cprime: List[float] = field(default_factory=list)
    convection_pairs: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    sup_norms: List[float] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    within_grad_bound: List[bool] = field(default_factory=list)
    within_sup_bound: List[bool] = field(default_factory=list)
    failed_level: Optional[int] = None
    failure_message: str = ""
    failed_guard: Optional[GuardRecord] = None
    operator: Optional[ProblemOperator] = field(default=None,
                                                metadata={"live": True})

    @property
    def solutions(self) -> List[FeFunction]:
        return [lv.solution for lv in self.levels]


def _test_set(space0: FeSpace, seed: int) -> FeFunction:
    """One stack of the full coarse basis plus a few fixed random coarse
    functions, each of unit L^2 gradient norm."""
    extra = np.random.default_rng(seed).standard_normal((EXTRA_TESTS,
                                                         space0.dim))
    scales = grad_norm_lp(FeFunction(space0, extra), 2.0)
    for row, scale in zip(extra, scales):
        if scale > 0.0:
            row *= 1.0 / scale
    return FeFunction(space0, np.concatenate([np.eye(space0.dim), extra]))


def run_hierarchy(problem: Problem, base_cells, levels: int,
                  cfg: Optional[SolverConfig] = None,
                  seed: int = 0) -> HierarchyReport:
    """Solve a nested hierarchy and tabulate the generalized-solution data.

    Each level samples the coercivity guard on its space, then solves; a
    failed guard is data in the level's record, while a guard or solve
    exception fails the level.  The finest solved level stands proxy for the
    weak limit in every gap and pairing table; tables are filled for however
    many levels solved, and a failed level, instead of raising, sets
    `failed_level` and, unless its guard raised, `failed_guard`.
    """
    if levels < 2:
        raise ValueError("a hierarchy needs at least 2 levels")
    cfg = cfg or SolverConfig()
    meshes = [build_mesh(problem.domain, base_cells)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))
    spaces = [FeSpace(m) for m in meshes]

    estimate = compute_estimates(problem)
    weight = truncate_weight(problem.weight, estimate.sup_radius)
    # a hair above the psi-root keeps the sampled pairing clear of rounding
    guard_radius = estimate.grad_radius * (1.0 + 1e-9)

    op = ProblemOperator(problem, weight, eps=cfg.regularization)
    report = HierarchyReport(
        estimate=estimate, guard_radius=guard_radius,
        solver_tolerance=cfg.tolerance, seed=seed, operator=op)

    warm = None
    for n, sp in enumerate(spaces):
        guard = None
        try:
            guard = brouwer_guard(op, sp, guard_radius, seed=seed)
            lv = solve_level(op, sp, cfg, warm=warm)
        except (SolveError, AssemblyError) as err:
            report.failed_level, report.failed_guard = n, guard
            # a SolveError message already names its level
            report.failure_message = (str(err) if isinstance(err, SolveError)
                                      else f"level {n} failed: {err}")
            break
        lv.guard = guard
        report.levels.append(lv)
        if n + 1 < len(spaces):
            warm = prolongate(lv.solution, spaces[n + 1])

    if not report.levels:
        return report

    tests = _test_set(spaces[0], seed)
    report.test_count = tests.coeffs.shape[0]
    for u in report.solutions:
        F = op.residual(u)
        # each row is dotted as a fresh copy: a dot on a view into the
        # stack can round differently in the last bit
        report.cond_b.append([float(F @ np.array(row)) for row
                              in prolongate(tests, u.space).coeffs])
        report.pair_un.append(float(F @ u.coeffs))
        report.grad_norms.append(grad_norm_lp(u, problem.p))
        report.sup_norms.append(sup_norm(u))
        slack = 1.0 + 1e-12
        report.within_grad_bound.append(
            report.grad_norms[-1] <= estimate.grad_radius * slack)
        report.within_sup_bound.append(
            report.sup_norms[-1] <= estimate.sup_radius * slack)

    u_star = report.solutions[-1]
    for u in report.solutions:
        u_fine = prolongate(u, u_star.space)
        diff = u_fine - u_star
        (p_part, q_part, f_part), direct = op.parts_and_pairing(u_fine, diff)
        report.cond_c.append(direct)
        report.cond_cprime.append(float((p_part + q_part) @ diff.coeffs))
        # the f-part carries the minus sign of the convection term
        report.convection_pairs.append(float(-f_part @ diff.coeffs))
        report.gaps.append(grad_norm_lp(diff, problem.p))
    return report
