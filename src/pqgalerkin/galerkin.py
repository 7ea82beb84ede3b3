"""Guarded Galerkin hierarchy: level solves and condition tables.

A level solve makes at most two attempts on the full operator.  A warm
level, whose start is the prolongated coarser solution, first runs damped
Newton: the operator's sparse Jacobian and an Armijo line search on the
residual merit that gives up below a step of 1/8.  Once a full Newton step
cuts the merit tenfold, the next step is a chord step (Shamanskii; Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003, 2.3), which
solves with the last Jacobian's LU factor; chord steps go on while each
cuts the merit tenfold again.  A cold level, and a warm level whose Newton
attempt fails, runs pseudo-transient continuation (Psi-tc; Kelley & Keyes,
SIAM J. Numer. Anal. 35 (1998) 508-523) from zero or from the warm start,
whose residual and Jacobian warm Newton already evaluated.  Each Psi-tc
step solves (J(u) + M/delta) s = -F(u), with M the P1 stiffness times the
weight's lower bound, and takes u + s without a line search.  The
pseudo-time step delta starts at 1 and follows the ratio of successive
residual merits up to 1e14, where the step is Newton's; a step whose update
or residual is not finite quarters delta and retries.
The competing operator is nonmonotone and admits spurious branches, which
a full Newton step from a cold start can reach; the short early Psi-tc
steps follow the pseudo-time flow from the start instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .estimates import EstimateReport, compute_estimates
from .fespace import (FeFunction, FeSpace, assemble_matrix, grad_norm_lp,
                      prolongate, release_solver_caches, row_slices,
                      sparse_solve, sup_norm)
from .mesh import build_mesh, refine
from .operators import (AssemblyError, Problem, ProblemOperator,
                        truncate_weight)

__all__ = [
    "SolveError",
    "GuardRecord",
    "brouwer_guard",
    "Attempt",
    "LevelSolve",
    "solve_level",
    "HierarchyReport",
    "run_hierarchy",
]


class SolveError(RuntimeError):
    """A level solve failed after every attempt.  `diagnostics` holds the
    level, the steps of all attempts and each `Attempt`."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# a level counts as solved once every entry of its residual is at most this
TOLERANCE = 1e-10
# linear solves one attempt may make before it stops at its iteration cap
MAX_ITERATIONS = 200
# trials of the warm Newton line search, lambda = 1 down to 1/8.  Of the
# 380 warm attempts that converge over the seeded sweep (tests/sweep.py)
# with the floor at 1/64, 33 accept a step of 1/4 or less and 4 one below
# 1/8; those 4 levels reach the same zero by pseudo-transient continuation
# from the same warm start.  A warm attempt that needs a shorter step
# stops at once and hands over instead of crawling.  4 is the smallest
# count at which every sweep level that solves still solves, and of 4, 5
# and 7 it spends the fewest residuals and Jacobians over the sweep
WARM_HALVINGS = 4
# a full warm Newton step that cuts the residual merit this many times over
# makes the next step a chord step, which is kept only where it again cuts
# the merit this many times over
CHORD_CUT = 10.0
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
    sphere ||grad v||_p = radius (the a-priori radius), one `row_slices`
    chunk of the stack at a time.

    A nonnegative minimum supports the acute-angle argument for a zero
    inside the ball; a negative minimum is data, recorded as a failed guard.
    A direction whose gradient norm is not finite and positive cannot be
    scaled onto the sphere: it is not measured, and the guard fails.
    """
    # one generator draws the chunks in turn, so each direction has the
    # bits of the same row of one (GUARD_SAMPLES, n) draw
    rng = np.random.default_rng(seed)
    pairs, unmeasured = [], 0
    for rows in row_slices(space, GUARD_SAMPLES):
        dirs = rng.standard_normal((len(range(GUARD_SAMPLES)[rows]),
                                    space.dim))
        scales = grad_norm_lp(FeFunction(space, dirs), op.problem.p)
        measured = np.isfinite(scales) & (scales > 0.0)
        unmeasured += int(np.sum(~measured))
        # an unmeasured direction is paired as the zero state and dropped
        factors = float(radius) / np.where(measured, scales, np.inf)
        v = FeFunction(space, dirs * factors[:, None])
        pairs += op.pairing(v, v)[measured].tolist()
    # min over the floats in sample order, so a NaN pairing is skipped
    worst = min([np.inf, *pairs])
    return GuardRecord(min_pairing=float(worst),
                       passed=bool(worst >= 0.0 and not unmeasured))


# ---------------------------------------------------------------------------
# level solves: warm Newton, pseudo-transient continuation
# ---------------------------------------------------------------------------

@dataclass
class Attempt:
    """One solve attempt on a level: its path, whether it converged, its
    steps, the residual sup where it ended, why it stopped, for
    pseudo-transient continuation the last pseudo-time step delta, and its
    SuperLU factorizations.  `residual` is F at the state where it ended,
    None where that is not finite."""
    path: str
    converged: bool
    steps: int
    residual_sup: float
    message: str = ""
    delta: Optional[float] = None
    factorizations: int = 0
    residual: Optional[np.ndarray] = field(default=None, repr=False,
                                           metadata={"live": True})


def _merit(F: np.ndarray) -> float:
    """Euclidean norm of F, rescaled by its largest entry only where the
    plain sum of squares overflows, so every finite merit keeps its bits."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(F))
    if np.isfinite(norm):
        return norm
    scale = float(np.max(np.abs(F)))
    return scale * float(np.linalg.norm(F / scale))


def _sup(F: np.ndarray) -> float:
    return float(np.max(np.abs(F)))


def _trial(op, u: FeFunction, step: np.ndarray) -> tuple:
    """u + step, its residual and merit; a trial whose residual is not
    finite has merit inf, a rejected trial."""
    trial = FeFunction(u.space, u.coeffs + step)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            Ft = op.residual(trial)
            return trial, Ft, _merit(Ft)
    except AssemblyError:
        return trial, None, np.inf


def _newton(op, u0: FeFunction, start: Optional[dict] = None) -> tuple:
    """Damped Newton from u0, each line search down to a step of
    2**-(WARM_HALVINGS - 1); returns the last state and its Attempt.

    A full step that cuts the merit at least CHORD_CUT-fold makes the next
    step a chord step, a solve with the last Jacobian's factor that builds
    and factors nothing.  A chord step is kept, and the next is a chord
    step too, where it again cuts the merit CHORD_CUT-fold; otherwise its
    trial is discarded and a damped step from the same state follows.  The
    factor is dropped before the next Jacobian is built.  `start`, where
    given, receives F and J at u0 as "F" and "J"."""
    u, its, factors, solve, chord = u0.copy(), 0, 0, None, False
    start = {} if start is None else start

    def attempt(converged, res_sup, message=""):
        return u, Attempt("newton", converged, its, res_sup, message,
                          factorizations=factors, residual=F)

    F = None
    try:  # a start with a nonfinite residual ends the attempt
        F = start["F"] = op.residual(u)
    except AssemblyError as err:
        return attempt(False, np.inf, str(err))
    while True:
        res_sup = _sup(F)
        if res_sup <= TOLERANCE:
            return attempt(True, res_sup)
        if its >= MAX_ITERATIONS:
            return attempt(False, res_sup, "iteration cap")
        merit = _merit(F)
        if chord:
            trial, Ft, new = _trial(op, u, solve(-F))
            if new <= merit / CHORD_CUT:
                u, F, its = trial, Ft, its + 1
                continue
        # the kept factor goes before the next Jacobian is built
        solve = None
        J = op.jacobian(u)
        # the first Jacobian is the one at u0
        start.setdefault("J", J)
        # a singular Jacobian gives a NaN step
        step, solve = sparse_solve(u.space, J, -F)
        # chord steps need only the factor: J goes before the line search
        del J
        factors += 1
        if not np.all(np.isfinite(step)) or not np.any(step):
            return attempt(False, res_sup, "degenerate step")
        lam = 1.0
        for _ in range(WARM_HALVINGS):
            trial, Ft, new = _trial(op, u, lam * step)
            if new <= (1.0 - 1e-4 * lam) * merit:
                break
            lam *= 0.5
        else:
            return attempt(False, res_sup, "line search stalled")
        chord = lam == 1.0 and new <= merit / CHORD_CUT
        u, F, its = trial, Ft, its + 1


def _pseudo_mass(op: ProblemOperator, space: FeSpace):
    """M = a0 K, the P1 stiffness matrix times the weight's lower bound, in
    the space's assembly pattern."""
    stiffness = space.stiffness_blocks * space.cell_measures[:, None, None]
    return op.weight.lower_bound * assemble_matrix(space, stiffness)


def _shifted(J, M, delta: float):
    """J + M/delta, added on the data arrays: both matrices are in the
    plan's pattern, which a scipy sum leaves wherever an entry sums to
    exactly 0.0, and which `sparse_solve` requires.  The sum shares J's
    index arrays."""
    return type(J)((J.data + M.data / delta, J.indices, J.indptr),
                   shape=J.shape)


def _pseudo_transient(op, u0: FeFunction,
                      start: Optional[dict] = None) -> tuple:
    """Pseudo-transient continuation from u0; returns the last state and
    its Attempt.  Every linear solve is a step of the iteration cap and one
    factorization; a rejected step keeps the state and its Jacobian.  M is
    built for the first step, so a start that already solves assembles
    nothing.  `start` may hold F and J at u0, as `_newton` records them;
    they are taken from it."""
    u, its, delta, M = u0.copy(), 0, 1.0, None
    start = {} if start is None else start

    def attempt(converged, res_sup, message=""):
        return u, Attempt("pseudo-transient", converged, its, res_sup,
                          message, delta, factorizations=its, residual=F)

    F = None
    try:
        F = start.pop("F") if "F" in start else op.residual(u)
    except AssemblyError as err:
        return attempt(False, np.inf, str(err))
    # taken out of `start`, so the Jacobian is freed with the first step
    merit, J = _merit(F), start.pop("J", None)
    while True:
        res_sup = _sup(F)
        if res_sup <= TOLERANCE:
            return attempt(True, res_sup)
        if its >= MAX_ITERATIONS:
            return attempt(False, res_sup, "iteration cap")
        its += 1
        M = _pseudo_mass(op, u.space) if M is None else M
        J = op.jacobian(u) if J is None else J
        step = sparse_solve(u.space, _shifted(J, M, delta), -F)[0]
        new = np.nan
        if np.all(np.isfinite(step)):
            trial, Ft, new = _trial(op, u, step)
        if not np.isfinite(new):
            delta *= 0.25
            continue
        # switched evolution relaxation: delta grows as the merit falls
        delta = min(delta * merit / new, 1e14) if new > 0.0 else 1e14
        u, F, merit, J = trial, Ft, new, None


@dataclass
class LevelSolve:
    """One solved level: the solve, then the facts `run_hierarchy` tabulates
    for it.  `cond_b` pairs the residual with each fixed coarse test;
    `pair_un` with the level's own solution.  The (c)-row pairs the operator
    with the gap u_n - u_N to the finest solved level: `cond_c` directly,
    `cond_cprime` its convection-free part and `convection_pair` the
    convection part; `gap` is ||grad(u_n - u_N)||_p.  `warm_distance` is
    ||grad(u_n - P u_{n-1})||_p / ||grad u_n||_p, the distance from the
    prolongated coarser solution, NaN on the cold level 0: above 1, the
    level left the coarse branch."""
    level: int
    dim: int
    solution: FeFunction = field(metadata={"live": True})
    # F at the solution, which the tables pair
    residual: np.ndarray = field(repr=False, metadata={"live": True})
    residual_sup: float
    iterations: int
    factorizations: int
    path: str
    converged: bool
    guard: Optional[GuardRecord] = None
    grad_norm: float = np.nan
    sup_norm: float = np.nan
    cond_b: List[float] = field(default_factory=list)
    pair_un: float = np.nan
    cond_c: float = np.nan
    cond_cprime: float = np.nan
    convection_pair: float = np.nan
    gap: float = np.nan
    warm_distance: float = np.nan


def solve_level(op: ProblemOperator, space: FeSpace,
                warm: Optional[FeFunction] = None) -> LevelSolve:
    """Solve one Galerkin level; failure is an exception.  A warm start
    must live on `space`: warm Newton runs from it first, and if that
    fails, pseudo-transient continuation restarts from it; a cold level
    runs pseudo-transient continuation from zero.  A failure's message
    names the attempt that ended nearer a zero, and its diagnostics hold
    every attempt.  The result has no guard record and no tables:
    `run_hierarchy` samples the guard and fills both.  Whether it returns
    or raises, the space's solver caches are released: nothing after a
    solve reads them."""
    attempts, start = [], {}
    if warm is not None and warm.space is not space:
        raise ValueError("a warm start must live on the level's space")
    try:
        if warm is not None:
            u, info = _newton(op, warm, start)
            attempts.append(info)
        if not attempts or not info.converged:
            u0 = FeFunction.zero(space) if warm is None else warm
            u, info = _pseudo_transient(op, u0, start)
            attempts.append(info)
    finally:
        release_solver_caches(space)
    steps = sum(a.steps for a in attempts)
    if not info.converged:
        nearest = min(attempts, key=lambda a: a.residual_sup)
        raise SolveError(
            f"level {space.mesh.level} failed: {nearest.message} "
            f"(residual sup {nearest.residual_sup:.3e})",
            {"level": space.mesh.level, "iterations": steps,
             "attempts": attempts})
    return LevelSolve(level=space.mesh.level, dim=space.dim, solution=u,
                      residual=info.residual,
                      residual_sup=info.residual_sup, iterations=steps,
                      factorizations=sum(a.factorizations for a in attempts),
                      path=info.path, converged=True)


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
    # per level, yet kept here: bench/run.py's output check reads them
    within_grad_bound: List[bool] = field(default_factory=list)
    within_sup_bound: List[bool] = field(default_factory=list)
    failed_level: Optional[int] = None
    failure_message: str = ""
    # the failed level's SolveError diagnostics
    failure_diagnostics: Optional[dict] = None
    failed_guard: Optional[GuardRecord] = None
    operator: Optional[ProblemOperator] = field(default=None,
                                                metadata={"live": True})


def _test_set(space0: FeSpace, seed: int) -> FeFunction:
    """One stack of the full coarse basis plus a few fixed random coarse
    functions, each of unit L^2 gradient norm."""
    extra = np.random.default_rng(seed).standard_normal((EXTRA_TESTS,
                                                         space0.dim))
    extra *= 1.0 / grad_norm_lp(FeFunction(space0, extra), 2.0)[:, None]
    return FeFunction(space0, np.concatenate([np.eye(space0.dim), extra]))


def run_hierarchy(problem: Problem, base_cells, levels: int,
                  seed: int = 0) -> HierarchyReport:
    """Solve a nested hierarchy and tabulate the generalized-solution data.

    Each level samples the coercivity guard on its space, then solves; a
    failed guard is data in the level's record, while a `SolveError` fails
    the level.  A solved level records its gradient norm and its distance
    from the warm start at once.  Once the solve loop ends, one pass fills
    each solved level's tables; the finest solved level stands proxy for
    the weak limit in every gap and (c)-pairing.  A failed level, instead
    of raising, sets `failed_level`, `failure_message`,
    `failure_diagnostics` and `failed_guard`.
    """
    if levels < 2:
        raise ValueError("a hierarchy needs at least 2 levels")
    meshes = [build_mesh(problem.domain, base_cells)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))
    spaces = [FeSpace(m) for m in meshes]

    estimate = compute_estimates(problem)
    weight = truncate_weight(problem.weight, estimate.sup_radius)
    # a hair above the psi-root keeps the sampled pairing clear of rounding
    guard_radius = estimate.grad_radius * (1.0 + 1e-9)

    op = ProblemOperator(problem, weight)
    report = HierarchyReport(
        estimate=estimate, guard_radius=guard_radius,
        solver_tolerance=TOLERANCE, seed=seed, operator=op)

    warm = None
    for n, sp in enumerate(spaces):
        guard = brouwer_guard(op, sp, guard_radius, seed=seed)
        try:
            lv = solve_level(op, sp, warm=warm)
        except SolveError as err:
            # its message already names its level
            report.failed_level, report.failed_guard = n, guard
            report.failure_message = str(err)
            report.failure_diagnostics = err.diagnostics
            break
        lv.guard = guard
        lv.grad_norm = grad_norm_lp(lv.solution, problem.p)
        if warm is not None:
            # the warm start is P u_{n-1}; 0/0 on a zero level is NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                lv.warm_distance = float(np.divide(
                    grad_norm_lp(lv.solution - warm, problem.p),
                    lv.grad_norm))
        report.levels.append(lv)
        if n + 1 < len(spaces):
            warm = prolongate(lv.solution, spaces[n + 1])

    if not report.levels:
        return report

    tests = _test_set(spaces[0], seed)
    u_star = report.levels[-1].solution
    slack = 1.0 + 1e-12
    for lv in report.levels:
        u, F = lv.solution, lv.residual
        # the solved levels are consecutive: the stack goes up one level
        tests = prolongate(tests, u.space)
        # each row is dotted as a fresh copy: a dot on a view into the
        # stack can round differently in the last bit
        lv.cond_b = [float(F @ np.array(row)) for row in tests.coeffs]
        lv.pair_un = float(F @ u.coeffs)
        lv.sup_norm = sup_norm(u)
        report.within_grad_bound.append(
            lv.grad_norm <= estimate.grad_radius * slack)
        report.within_sup_bound.append(
            lv.sup_norm <= estimate.sup_radius * slack)
        u_fine = prolongate(u, u_star.space)
        diff = u_fine - u_star
        (p_part, q_part, f_part), lv.cond_c = op.parts_and_pairing(u_fine,
                                                                   diff)
        lv.cond_cprime = float((p_part + q_part) @ diff.coeffs)
        # the f-part carries the minus sign of the convection term
        lv.convection_pair = float(-f_part @ diff.coeffs)
        lv.gap = grad_norm_lp(diff, problem.p)
    return report
