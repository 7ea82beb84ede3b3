"""Certificates and the condition-(S) probe over a finished hierarchy run.

Each check condenses into a `Certificate`: a named pass/fail with the
measured quantity, the threshold it was held against, and enough detail to
re-derive the verdict.  The probe only observes.  Neither mutates the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

import numpy as np

from .fespace import (FeFunction, axis_dot, grad_norm_lp, jsonable, lr_norm,
                      sup_norm, vector_norm)
from .galerkin import HierarchyReport
from .operators import ProblemOperator, power_flux

__all__ = [
    "Certificate",
    "check_truncation_consistency",
    "check_generalized_conditions",
    "check_strong_condition",
    "check_monotonicity_inequalities",
    "weak_implies_generalized_demo",
    "run_certificates",
    "SProbe",
    "condition_S_probe",
]

PAIR_TOL = 1e-6
IDENTITY_TOL = 1e-10
# largest gap ratio, second-to-last over first, that counts as contraction
CONTRACT_RATIO = 0.5


@dataclass
class Certificate:
    name: str
    anchor: str
    passed: bool
    measured: float
    threshold: float
    skipped: bool = False
    reason: str = ""
    details: dict = field(default_factory=dict)


def _scale(report: HierarchyReport) -> float:
    return max(1.0, report.grad_norms[-1]) if report.grad_norms else 1.0


def check_truncation_consistency(raw_op: ProblemOperator, u: FeFunction,
                                 radius: float, tolerance: float = 1e-10
                                 ) -> Certificate:
    """The truncation is inactive on a solved state.

    `raw_op` is the untruncated operator, the run's operator with the
    problem's own weight in place of g_R.  When the sup norm stays at or
    below the truncation radius, the raw weight agrees with the truncated
    one along the state, so the residual of `raw_op` must reproduce the
    solver's convergence.
    """
    sup = sup_norm(u)
    raw = raw_op.residual(u)
    raw_sup = float(np.max(np.abs(raw))) if raw.size else 0.0
    tol = tolerance * 10.0 + 1e-14
    details = {"sup_norm": float(sup), "radius": float(radius)}
    if sup <= radius * (1.0 + 1e-12):
        passed, measured, threshold = raw_sup <= tol, raw_sup, tol
        details["untruncated_residual_sup"] = raw_sup
    else:
        passed, measured, threshold = False, float(sup), float(radius)
        details["excess"] = float(sup - radius)
    return Certificate(
        name="truncation-consistency",
        anchor="truncated weight inactive on the solved ball",
        passed=passed, measured=measured, threshold=threshold,
        details=details)


def check_generalized_conditions(report: HierarchyReport) -> List[Certificate]:
    """Conditions (b) and (c) against the proxy limit, plus bookkeeping.

    (b): residual pairings with every fixed coarse test function vanish on
    each level (the discrete residual annihilates its own space); the decay
    across levels is tabulated and the final value held to a tighter bound.
    (c): the operator pairing with u_n - u_N vanishes at the final level,
    its two computation routes agree to rounding, and the self-pairing
    equals the (c)-row minus the cross pairing at solver tolerance.
    """
    out: List[Certificate] = []
    scale = _scale(report)
    tol_pair = PAIR_TOL * scale

    b_rows = np.array(report.cond_b) if report.cond_b else np.zeros((0, 0))
    b_max = float(np.max(np.abs(b_rows))) if b_rows.size else np.inf
    b_final = float(np.max(np.abs(b_rows[-1]))) if b_rows.size else np.inf
    out.append(Certificate(
        name="condition-b",
        anchor="residual pairings with fixed coarse tests vanish",
        passed=b_max <= tol_pair and b_final <= 10.0 * report.solver_tolerance
        * max(1.0, scale),
        measured=b_max,
        threshold=tol_pair,
        details={"per_level_max": [float(np.max(np.abs(r))) for r in b_rows],
                 "final_max": b_final,
                 "test_count": report.test_count}))

    c_final = abs(report.cond_c[-1]) if report.cond_c else np.inf
    out.append(Certificate(
        name="condition-c",
        anchor="operator pairing with the gap to the proxy limit vanishes",
        passed=c_final <= tol_pair,
        measured=float(c_final),
        threshold=tol_pair,
        details={"sequence": [float(x) for x in report.cond_c]}))

    route_gap = max((abs(a - b) for a, b in
                     zip(report.cond_c, report.cond_c_alt)), default=np.inf)
    out.append(Certificate(
        name="condition-c-routes",
        anchor="direct integration and dual-vector routes agree",
        passed=route_gap <= IDENTITY_TOL * scale,
        measured=float(route_gap),
        threshold=IDENTITY_TOL * scale,
        details={}))

    if report.pair_un and report.levels:
        worst = 0.0
        for lv, val in zip(report.levels, report.pair_un):
            l1 = lr_norm(lv.solution, 1.0)
            allowance = report.solver_tolerance * 10.0 * max(1.0, lv.dim) \
                * max(1.0, l1) + 1e-14
            worst = max(worst, abs(val) / allowance)
        passed = worst <= 1.0
    else:
        worst, passed = np.inf, False
    out.append(Certificate(
        name="self-pairing-bookkeeping",
        anchor="residual pairs to zero against its own solution",
        passed=passed,
        measured=float(worst),
        threshold=1.0,
        details={"pair_un": [float(x) for x in report.pair_un]}))
    return out


def check_strong_condition(report: HierarchyReport) -> List[Certificate]:
    """Strong variant of (c): split off the convection pairing.

    Requires declared explicit growth exponents on the convection family;
    skipped (not failed) when absent.  The identity
    (convection-free pairing) - (convection pairing) = (c)-row must hold to
    rounding, and both final-level entries must vanish.
    """
    out: List[Certificate] = []
    family = report.operator.problem.convection
    if family.h4 is None:
        return [Certificate(
            name="condition-cprime",
            anchor="convection-free pairing vanishes against the gap",
            passed=True, measured=np.nan, threshold=np.nan, skipped=True,
            reason="convection family declares no explicit growth exponents")]
    scale = _scale(report)
    ident = max(abs(cp - cv - c) for cp, cv, c in
                zip(report.cond_cprime, report.convection_pairs,
                    report.cond_c)) if report.cond_c else np.inf
    out.append(Certificate(
        name="cprime-identity",
        anchor="pairing splits into convection-free and convection parts",
        passed=ident <= IDENTITY_TOL * scale,
        measured=float(ident),
        threshold=IDENTITY_TOL * scale,
        details={}))
    tol_pair = PAIR_TOL * scale
    cp_final = abs(report.cond_cprime[-1]) if report.cond_cprime else np.inf
    cv_final = abs(report.convection_pairs[-1]) if report.convection_pairs \
        else np.inf
    out.append(Certificate(
        name="condition-cprime",
        anchor="convection-free pairing vanishes against the gap",
        passed=cp_final <= tol_pair and cv_final <= tol_pair,
        measured=float(max(cp_final, cv_final)),
        threshold=tol_pair,
        details={"cprime": [float(x) for x in report.cond_cprime],
                 "convection": [float(x) for x in report.convection_pairs],
                 "growth_exponents": {
                     "state": family.h4.s_exponent,
                     "gradient": family.h4.xi_exponent}}))
    return out


def _lemma_pairs(dim: int, e: float, seed: int = 0):
    """Pairs (a, b) in R^dim: b = t a for t = -1, 0, +-1/2, +-2 and, in the
    plane, |b| = |a| at five angles, at magnitudes 10^-3..10^3, narrower
    above e = 100/3 (|a - b|^e finite to e = 400); 256 seeded random pairs."""
    span = min(3.0, 100.0 / e)
    mags = 10.0 ** np.linspace(-span, span, 7)[:, None]
    a = mags * np.eye(dim)[0]
    turns = np.pi * np.arange(1, 6) / 6 if dim == 2 else []
    bs = [t * a for t in (-1.0, 0.0, -2.0, -0.5, 0.5, 2.0)] \
        + [mags * [np.cos(t), np.sin(t)] for t in turns]
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal((2, 256, dim))
    rand = unit / vector_norm(unit)[..., None] \
        * 10.0 ** (span * rng.uniform(-1.0, 1.0, (2, 256, 1)))
    return (np.concatenate([a] * len(bs) + [rand[0]]),
            np.concatenate(bs + [rand[1]]))


def _lemma_ratios(a: np.ndarray, b: np.ndarray, e: float):
    """Per pair <flux(a) - flux(b), a - b> / (2^{-e} |a - b|^e), or NaN/inf."""
    with np.errstate(all="ignore"):
        lhs = axis_dot(power_flux(a, e) - power_flux(b, e), a - b)
        return lhs / (2.0 ** -e * vector_norm(a - b) ** e)


def check_monotonicity_inequalities(p: float, q: float, dim: int,
                                    seed: int = 0) -> List[Certificate]:
    """<|a|^{e-2} a - |b|^{e-2} b, a - b> >= 2^{-e} |a - b|^e, of which the
    P1 pairing and gap norm are positive cell sums, on `_lemma_pairs`.  The
    sharp constant for e >= 2 is 2^{2-e} (Lindqvist, Notes on the p-Laplace
    equation, ch. 12), a ratio of 4 at b = -a; a ratio below 1, NaN or inf
    is a violation.  Exponents below 2 are skipped, not failed."""
    out: List[Certificate] = []
    for label, exponent in (("p", p), ("q", q)):
        name = f"monotonicity-{label}"
        anchor = (f"{label}-power flux difference pairing dominates "
                  f"2^-{label} gap norm")
        if exponent < 2.0:
            out.append(Certificate(
                name, anchor, True, np.nan, np.nan, skipped=True,
                reason=f"exponent {exponent} below 2, bound not applicable"))
            continue
        ratios = _lemma_ratios(*_lemma_pairs(dim, exponent, seed), exponent)
        violations = int(np.sum(~(ratios >= 1.0)))
        out.append(Certificate(
            name, anchor, violations == 0, float(np.min(ratios)), 1.0,
            details={"exponent": float(exponent), "pairs": ratios.size,
                     "constant": 2.0 ** -exponent, "violations": violations,
                     "sharp_constant": 4.0 * 2.0 ** -exponent}))
    return out


def weak_implies_generalized_demo(op: ProblemOperator, u_weak: FeFunction,
                                  tolerance: float = 1e-10) -> Certificate:
    """A certified discrete solution, read as a constant sequence, satisfies
    the generalized conditions outright: every (b)-pairing is the residual
    entry and the (c)-pairing is against a zero gap."""
    # pairing F with the i-th hat is F[i]
    b_max = float(np.max(np.abs(op.residual(u_weak)), initial=0.0))
    grad = grad_norm_lp(u_weak, op.problem.p)
    tol = tolerance * 10.0 * max(1.0, grad) + 1e-14
    # the pairing is linear in the test function, so against the zero gap
    # it is 0.0 and the (b)-maximum alone is measured
    return Certificate(
        name="weak-implies-generalized",
        anchor="constant sequence at a certified state passes (a)-(c)",
        passed=b_max <= tol,
        measured=b_max,
        threshold=tol,
        details={"b_max": b_max, "c_value": 0.0,
                 "grad_norm": float(grad)})


def _report_consistency(report: HierarchyReport) -> Certificate:
    """Recompute one tabulated row from scratch and compare."""
    n = len(report.levels) - 1
    u = report.levels[n].solution
    res_sup = float(np.max(np.abs(report.operator.residual(u))))
    grad = grad_norm_lp(u, report.operator.problem.p)
    measured = max(abs(res_sup - report.levels[n].residual_sup),
                   abs(grad - report.grad_norms[n]))
    tol = 1e-12 * max(1.0, grad)
    return Certificate(
        name="report-consistency",
        anchor="tabulated finest-level numbers reproduce from the solution",
        passed=measured <= tol,
        measured=measured,
        threshold=tol,
        details={"residual_sup": res_sup, "grad_norm": float(grad)})


def _merge_truncation(report: HierarchyReport) -> Certificate:
    op = report.operator
    raw_op = replace(op, weight=op.problem.weight)
    certs = [check_truncation_consistency(
        raw_op, lv.solution, report.truncation_radius,
        report.solver_tolerance) for lv in report.levels]
    worst = max(certs, key=lambda c: (not c.passed,
                                      c.measured / max(c.threshold, 1e-300)))
    worst.details["per_level_measured"] = [float(c.measured) for c in certs]
    worst.passed = all(c.passed for c in certs)
    return worst


@dataclass
class SProbe:
    classification: str
    pairings_vanish: bool
    gradients_contract: bool
    final_pairing: float
    final_gap: float
    gap_ratio: float


def condition_S_probe(report: HierarchyReport) -> SProbe:
    """Observe, never assert: do the (c)-pairings vanish and do the gradient
    gaps contract toward the proxy limit?

    Strong convergence of competing sequences is an open question, so the
    probe only reports the observed classification.  The pairing test is
    the condition-c certificate's.
    """
    if not report.cond_c or not report.gaps:
        return SProbe("inconclusive", False, False, np.nan, np.nan, np.nan)
    scale = _scale(report)
    final_pairing = report.cond_c[-1]
    vanish = abs(final_pairing) <= PAIR_TOL * scale
    gaps = report.gaps
    tiny = 1e-14 * scale
    if all(g <= tiny for g in gaps):
        contract, ratio = True, 0.0
    elif len(gaps) >= 3 and gaps[0] > 0.0:
        decreasing = all(gaps[i + 1] < gaps[i] + tiny for i in range(len(gaps) - 1))
        ratio = gaps[-2] / gaps[0]
        contract = decreasing and ratio <= CONTRACT_RATIO
    else:
        contract, ratio = False, np.nan
    if vanish and contract:
        cls = "s-consistent: candidate weak solution"
    elif vanish:
        cls = "generalized only: pairings vanish without gradient contraction"
    else:
        cls = "inconclusive"
    return SProbe(cls, vanish, contract, final_pairing,
                  gaps[-2] if len(gaps) >= 2 else gaps[-1], ratio)


def run_certificates(report: HierarchyReport, seed: int = 0) -> dict:
    """All certificates plus the observational S-probe.

    Returns {"certificates": [...], "s_probe": {...}, "all_passed": bool};
    skipped certificates count as passed for the aggregate.
    """
    if report.failed_level is not None or not report.levels:
        raise ValueError(
            "cannot certify a hierarchy with a failed or missing level: "
            + (report.failure_message or "no levels solved"))
    op, u_star = report.operator, report.levels[-1].solution
    fine_space, problem = u_star.space, op.problem
    certs = [_merge_truncation(report)]
    certs.extend(check_generalized_conditions(report))
    certs.extend(check_strong_condition(report))
    certs.extend(check_monotonicity_inequalities(
        problem.p, problem.q, problem.domain.dim, seed=seed))
    certs.append(weak_implies_generalized_demo(
        op, u_star, report.solver_tolerance))

    rng = np.random.default_rng(seed + 1)
    fake = FeFunction(fine_space, u_star.coeffs
                      + rng.standard_normal(fine_space.dim))
    demo = weak_implies_generalized_demo(op, fake, report.solver_tolerance)
    certs.append(Certificate(
        name="non-solution-contrast",
        anchor="perturbed state visibly fails the constant-sequence check",
        passed=not demo.passed,
        measured=demo.measured,
        threshold=demo.threshold,
        details={"note": "pass means the violation is visible"}))

    certs.append(_report_consistency(report))
    probe = condition_S_probe(report)
    return {
        "certificates": jsonable(certs),
        "s_probe": jsonable(probe),
        "all_passed": all(c.passed or c.skipped for c in certs),
    }
