"""Guarded Galerkin hierarchy: level solves, condition tables, S-probe.

Each level solves the discrete residual system with damped Newton (the
operator's sparse Jacobian, Armijo line search on the residual merit).  One
walker runs Newton through a list of operator stages, each starting where the
last one ended, and stops at the first stage that does not converge; every
solve path is such a list.  Warm starts (prolongated coarser solutions) are a
single stage.  The competing operator is nonmonotone and admits spurious
branches reachable from a zero start, so cold starts walk the competition
ramp: a linear predictor seeds Newton on the monotone core (the competing
divergence term switched off), then the competing term is ramped back to full
strength.  When either path stalls, load continuation ramps the convection
term up from a zero start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np
import scipy.sparse.linalg as spla

from .estimates import EstimateReport, compute_estimates
from .fespace import (FeFunction, FeSpace, grad_norm_lp, pair, prolongate,
                      sup_norm)
from .mesh import build_mesh, refine
from .operators import (DEFAULT_REGULARIZATION, AssemblyError, Problem,
                        ProblemOperator, assemble_matrix, truncate_weight)

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
    "SProbe",
    "condition_S_probe",
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


# step halvings before the Newton line search counts as stalled
MAX_HALVINGS = 40
# q_factor stages of the competition ramp, from the monotone core to full
RAMP = np.linspace(0.0, 1.0, 5)
# load_factor stages of load continuation
CONTINUATION = np.linspace(0.0, 1.0, 11)[1:]
# radius doublings the coercivity guard tries before it records a failure
MAX_DOUBLINGS = 8
# random coarse functions added to the coarse basis in the condition-(b) table
EXTRA_TESTS = 5


# ---------------------------------------------------------------------------
# coercivity guard
# ---------------------------------------------------------------------------

@dataclass
class GuardRecord:
    initial_radius: float
    radius: float
    min_pairing: float
    samples: int
    doublings: int
    passed: bool


def brouwer_guard(op: ProblemOperator, space: FeSpace, radius: float,
                  samples: int = 32, seed: int = 0) -> GuardRecord:
    """Sample <A(v), v> on the sphere ||grad v||_p = radius.

    A nonnegative minimum supports the zero-of-degree argument for a solution
    inside the ball; a negative minimum is data, answered by doubling the
    radius up to the cap and recording the outcome.
    """
    dirs = np.random.default_rng(seed).standard_normal((samples, space.dim))
    p = op.problem.p
    r = float(radius)
    doublings = 0
    while True:
        worst = np.inf
        for row in dirs:
            v = FeFunction(space, row)
            scale = grad_norm_lp(v, p)
            if scale == 0.0:
                continue
            v = (r / scale) * v
            worst = min(worst, op.pairing(v, v))
        if worst >= 0.0 or doublings >= MAX_DOUBLINGS:
            return GuardRecord(initial_radius=float(radius), radius=r,
                               min_pairing=float(worst), samples=samples,
                               doublings=doublings, passed=bool(worst >= 0.0))
        r *= 2.0
        doublings += 1


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


def _newton(op, space: FeSpace, u0: FeFunction, cfg: SolverConfig) -> tuple:
    u = u0.copy()
    F = op.residual(u).values
    its = 0
    while True:
        res_sup = float(np.max(np.abs(F))) if F.size else 0.0
        if res_sup <= cfg.tolerance:
            return u, _NewtonInfo(True, its, res_sup)
        if its >= cfg.max_iterations:
            return u, _NewtonInfo(False, its, res_sup, "iteration cap")
        # a singular Jacobian gives a NaN step
        delta = spla.spsolve(op.jacobian(u), -F)
        if not np.all(np.isfinite(delta)) or not np.any(delta):
            return u, _NewtonInfo(False, its, res_sup, "degenerate step")
        merit = _merit(F)
        lam = 1.0
        for _ in range(MAX_HALVINGS):
            trial = FeFunction(space, u.coeffs + lam * delta)
            Ft = op.residual(trial).values
            if _merit(Ft) <= (1.0 - 1e-4 * lam) * merit:
                break
            lam *= 0.5
        else:
            return u, _NewtonInfo(False, its, res_sup, "line search stalled")
        u, F = trial, Ft
        its += 1


def _linear_predictor(op: ProblemOperator, space: FeSpace) -> FeFunction:
    """Seed for the monotone core: solve a0 * stiffness = load at zero."""
    zero = FeFunction.zero(space)
    # the f-part of the residual is minus the scaled load
    load = -op.parts(zero)[2].values
    if not np.any(load):
        return zero
    stiffness = (np.einsum("cvd,cwd->cvw", space.grads, space.grads)
                 * space.cell_measures[:, None, None])
    K = op.weight.lower_bound * assemble_matrix(space, stiffness)
    return FeFunction(space, spla.spsolve(K, load))


def _walk(stages: List[ProblemOperator], space: FeSpace, u: FeFunction,
          cfg: SolverConfig):
    """Newton through each stage from where the last one ended; stop at the
    first stage that does not converge.  Returns the last state, the last
    stage's Newton info and the iterations of every stage run."""
    total = 0
    for op in stages:
        u, info = _newton(op, space, u, cfg)
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
                warm: Optional[FeFunction] = None,
                guard_radius: Optional[float] = None,
                seed: int = 0) -> LevelSolve:
    """Solve one Galerkin level; failure is an exception, a failed guard is data."""
    cfg = cfg or SolverConfig()
    guard = None
    if guard_radius is not None:
        guard = brouwer_guard(op, space, guard_radius, seed=seed)
    if warm is not None:
        path, start, stages = "newton", warm, [op]
    else:
        path, start = "competition-ramp", _linear_predictor(op, space)
        stages = [replace(op, q_factor=float(k)) for k in RAMP]
    u, info, total = _walk(stages, space, start, cfg)
    if not info.converged:
        path = "load-continuation"
        stages = [replace(op, load_factor=float(t)) for t in CONTINUATION]
        u, info, extra = _walk(stages, space, FeFunction.zero(space), cfg)
        total += extra
    if not info.converged:
        raise SolveError(
            f"level {space.mesh.level} failed: {info.message} "
            f"(residual sup {info.residual_sup:.3e})",
            {"level": space.mesh.level, "path": path,
             "residual_sup": info.residual_sup, "iterations": total})
    return LevelSolve(level=space.mesh.level, dim=space.dim, solution=u,
                      residual_sup=info.residual_sup, iterations=total,
                      path=path, converged=True, guard=guard)


# ---------------------------------------------------------------------------
# hierarchy driver
# ---------------------------------------------------------------------------

@dataclass
class HierarchyReport:
    estimate: EstimateReport
    truncation_radius: float
    guard_radius: float
    solver_tolerance: float
    seed: int
    levels: List[LevelSolve] = field(default_factory=list)
    test_count: int = 0
    cond_b: List[List[float]] = field(default_factory=list)
    pair_un: List[float] = field(default_factory=list)
    cond_c: List[float] = field(default_factory=list)
    cond_c_alt: List[float] = field(default_factory=list)
    cond_cprime: List[float] = field(default_factory=list)
    convection_pairs: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    sup_norms: List[float] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    within_grad_bound: List[bool] = field(default_factory=list)
    within_sup_bound: List[bool] = field(default_factory=list)
    failed_level: Optional[int] = None
    failure_message: str = ""
    problem: Optional[Problem] = field(default=None, metadata={"live": True})
    operators: List[ProblemOperator] = field(default_factory=list,
                                             metadata={"live": True})

    @property
    def solutions(self) -> List[FeFunction]:
        return [lv.solution for lv in self.levels]


def _test_set(space0: FeSpace, seed: int) -> List[FeFunction]:
    """Full coarse basis plus a few fixed random coarse functions."""
    out = [FeFunction(space0, row) for row in np.eye(space0.dim)]
    rng = np.random.default_rng(seed)
    for _ in range(EXTRA_TESTS):
        coeffs = rng.standard_normal(space0.dim)
        v = FeFunction(space0, coeffs)
        scale = grad_norm_lp(v, 2.0)
        if scale > 0.0:
            v = (1.0 / scale) * v
        out.append(v)
    return out


def run_hierarchy(problem: Problem, base_cells, levels: int,
                  cfg: Optional[SolverConfig] = None,
                  convention: str = "standard", seed: int = 0,
                  estimate: Optional[EstimateReport] = None) -> HierarchyReport:
    """Solve a nested hierarchy and tabulate the generalized-solution data.

    The finest solved level stands proxy for the weak limit in every gap and
    pairing table; tables are filled for however many levels solved, and a
    failed level leaves `failed_level` set instead of raising.
    """
    if levels < 2:
        raise ValueError("a hierarchy needs at least 2 levels")
    cfg = cfg or SolverConfig()
    meshes = [build_mesh(problem.domain, base_cells)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))
    spaces = [FeSpace(m) for m in meshes]

    if estimate is None:
        estimate = compute_estimates(problem, spaces[0], convention, seed)
    weight = truncate_weight(problem.weight, estimate.sup_radius)
    # a hair above the psi-root keeps the sampled pairing clear of rounding
    guard_radius = estimate.grad_radius * (1.0 + 1e-9)

    ops = [ProblemOperator(problem, weight, sp, eps=cfg.regularization)
           for sp in spaces]
    report = HierarchyReport(
        estimate=estimate, truncation_radius=weight.radius,
        guard_radius=guard_radius, solver_tolerance=cfg.tolerance,
        seed=seed, problem=problem, operators=ops)

    warm = None
    for n, (op, sp) in enumerate(zip(ops, spaces)):
        try:
            lv = solve_level(op, sp, cfg, warm=warm, guard_radius=guard_radius,
                             seed=seed)
        except (SolveError, AssemblyError) as err:
            report.failed_level = n
            # a SolveError message already names its level
            report.failure_message = (str(err) if isinstance(err, SolveError)
                                      else f"level {n} failed: {err}")
            break
        report.levels.append(lv)
        if n + 1 < len(spaces):
            warm = prolongate(lv.solution, spaces[n + 1])

    solved = report.levels
    if not solved:
        return report

    tests = _test_set(spaces[0], seed)
    report.test_count = len(tests)
    for n, lv in enumerate(solved):
        op, sp, u = ops[n], spaces[n], lv.solution
        F = op.residual(u)
        report.cond_b.append([pair(F, prolongate(v, sp)) for v in tests])
        report.pair_un.append(pair(F, u))
        report.grad_norms.append(grad_norm_lp(u, problem.p))
        report.sup_norms.append(sup_norm(u))
        slack = 1.0 + 1e-12
        report.within_grad_bound.append(
            report.grad_norms[-1] <= estimate.grad_radius * slack)
        report.within_sup_bound.append(
            report.sup_norms[-1] <= estimate.sup_radius * slack)

    fine_space = spaces[len(solved) - 1]
    fine_op = ops[len(solved) - 1]
    u_star = solved[-1].solution
    for lv in solved:
        u_fine = prolongate(lv.solution, fine_space)
        diff = u_fine - u_star
        p_part, q_part, f_part = fine_op.parts(u_fine)
        principal_pq = p_part + q_part
        report.cond_c.append(fine_op.pairing(u_fine, diff))
        report.cond_c_alt.append(pair(principal_pq + f_part, diff))
        report.cond_cprime.append(pair(principal_pq, diff))
        # the f-part carries the minus sign of the convection term
        report.convection_pairs.append(pair(-1.0 * f_part, diff))
        report.gaps.append(grad_norm_lp(diff, problem.p))
    return report


# ---------------------------------------------------------------------------
# condition (S) probe
# ---------------------------------------------------------------------------

@dataclass
class SProbe:
    classification: str
    pairings_vanish: bool
    gradients_contract: bool
    final_pairing: float
    final_gap: float
    gap_ratio: float


def condition_S_probe(report: HierarchyReport, pair_tol: float = 1e-6,
                      contract_ratio: float = 0.5) -> SProbe:
    """Observe, never assert: do the (c)-pairings vanish and do the gradient
    gaps contract toward the proxy limit?

    Strong convergence of competing sequences is an open question, so the
    probe only reports the observed classification.
    """
    if not report.cond_c or not report.gaps:
        return SProbe("inconclusive", False, False, np.nan, np.nan, np.nan)
    scale = max(1.0, report.grad_norms[-1] if report.grad_norms else 1.0)
    final_pairing = report.cond_c[-1]
    vanish = abs(final_pairing) <= pair_tol * scale
    gaps = report.gaps
    tiny = 1e-14 * scale
    if all(g <= tiny for g in gaps):
        contract = True
        ratio = 0.0
    elif len(gaps) >= 3 and gaps[0] > 0.0:
        decreasing = all(gaps[i + 1] < gaps[i] + tiny for i in range(len(gaps) - 1))
        ratio = gaps[-2] / gaps[0]
        contract = decreasing and ratio <= contract_ratio
    else:
        contract = False
        ratio = np.nan
    if vanish and contract:
        cls = "s-consistent: candidate weak solution"
    elif vanish:
        cls = "generalized only: pairings vanish without gradient contraction"
    else:
        cls = "inconclusive"
    return SProbe(cls, vanish, contract, final_pairing,
                  gaps[-2] if len(gaps) >= 2 else gaps[-1], ratio)
