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
from .galerkin import TOLERANCE, HierarchyReport
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
    return max(1.0, report.levels[-1].grad_norm) if report.levels else 1.0


def check_truncation_consistency(raw_op: ProblemOperator, u: FeFunction,
                                 radius: float) -> Certificate:
    """The truncation is inactive on a solved state.

    `raw_op` is the untruncated operator, the run's operator with the
    problem's own weight in place of g_R.  When the sup norm stays at or
    below the truncation radius, the raw weight agrees with the truncated
    one along the state, so the residual of `raw_op` must reproduce the
    solver's convergence.
    """
    sup = sup_norm(u)
    raw = raw_op.residual(u)
    raw_sup = float(np.max(np.abs(raw)))
    tol = TOLERANCE * 10.0 + 1e-14
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
    and on every level the direct pairing agrees to rounding with the
    convection-free pairing minus the convection pairing, the parts'
    pairings summed after their dots.  The residual pairs to zero against
    each level's own solution at solver tolerance.
    """
    out: List[Certificate] = []
    levels = report.levels
    scale = _scale(report)
    tol_pair = PAIR_TOL * scale
    final_tol = 10.0 * TOLERANCE * scale
    b_levels = [float(np.max(np.abs(lv.cond_b))) for lv in levels]
    b_max = b_final = c_final = route_gap = worst = np.inf
    test_count = 0
    if levels:
        b_max, b_final = float(np.max(b_levels)), b_levels[-1]
        c_final = abs(levels[-1].cond_c)
        route_gap = max(abs(lv.cond_cprime - lv.convection_pair - lv.cond_c)
                        for lv in levels)
        worst = max(abs(lv.pair_un) / (
            TOLERANCE * 10.0 * max(1.0, lv.dim)
            * max(1.0, lr_norm(lv.solution, 1.0)) + 1e-14) for lv in levels)
        test_count = len(levels[-1].cond_b)
    out.append(Certificate(
        name="condition-b",
        anchor="residual pairings with fixed coarse tests vanish",
        passed=b_max <= tol_pair and b_final <= final_tol,
        measured=b_max,
        threshold=tol_pair,
        details={"per_level_max": b_levels,
                 "final_max": b_final,
                 "final_threshold": final_tol,
                 "test_count": test_count}))

    out.append(Certificate(
        name="condition-c",
        anchor="operator pairing with the gap to the proxy limit vanishes",
        passed=c_final <= tol_pair,
        measured=float(c_final),
        threshold=tol_pair,
        details={"sequence": [lv.cond_c for lv in levels]}))

    out.append(Certificate(
        name="condition-c-routes",
        anchor="direct integration and dual-vector routes agree",
        passed=route_gap <= IDENTITY_TOL * scale,
        measured=float(route_gap),
        threshold=IDENTITY_TOL * scale,
        details={}))

    out.append(Certificate(
        name="self-pairing-bookkeeping",
        anchor="residual pairs to zero against its own solution",
        passed=worst <= 1.0,
        measured=float(worst),
        threshold=1.0,
        details={"pair_un": [lv.pair_un for lv in levels]}))
    return out


def check_strong_condition(report: HierarchyReport) -> Certificate:
    """Strong variant of (c): both final-level entries of the split, the
    convection-free pairing and the convection pairing, vanish.

    Requires declared explicit growth exponents on the convection family;
    skipped (not failed) when absent.  That the split sums to the (c)-row
    is the condition-c-routes certificate.
    """
    family = report.operator.problem.convection
    if family.h4 is None:
        return Certificate(
            name="condition-cprime",
            anchor="convection-free pairing vanishes against the gap",
            passed=True, measured=np.nan, threshold=np.nan, skipped=True,
            reason="convection family declares no explicit growth exponents")
    tol_pair = PAIR_TOL * _scale(report)
    cp_final = cv_final = np.inf
    if report.levels:
        cp_final = abs(report.levels[-1].cond_cprime)
        cv_final = abs(report.levels[-1].convection_pair)
    return Certificate(
        name="condition-cprime",
        anchor="convection-free pairing vanishes against the gap",
        passed=cp_final <= tol_pair and cv_final <= tol_pair,
        measured=float(max(cp_final, cv_final)),
        threshold=tol_pair,
        details={"cprime": [lv.cond_cprime for lv in report.levels],
                 "convection": [lv.convection_pair for lv in report.levels],
                 "growth_exponents": {
                     "state": family.h4.s_exponent,
                     "gradient": family.h4.xi_exponent}})


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


def weak_implies_generalized_demo(op: ProblemOperator,
                                  u_weak: FeFunction) -> Certificate:
    """A certified discrete solution, read as a constant sequence, satisfies
    the generalized conditions outright: every (b)-pairing is the residual
    entry and the (c)-pairing is against a zero gap."""
    # pairing F with the i-th hat is F[i]
    b_max = float(np.max(np.abs(op.residual(u_weak))))
    grad = grad_norm_lp(u_weak, op.problem.p)
    tol = TOLERANCE * 10.0 * max(1.0, grad) + 1e-14
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


def _report_consistency(report: HierarchyReport,
                        weak: Certificate) -> Certificate:
    """Compare the tabulated finest-level numbers with the ones that the
    weak-implies-generalized certificate recomputed from the solution."""
    res_sup, grad = weak.measured, weak.details["grad_norm"]
    measured = max(abs(res_sup - report.levels[-1].residual_sup),
                   abs(grad - report.levels[-1].grad_norm))
    tol = 1e-12 * max(1.0, grad)
    return Certificate(
        name="report-consistency",
        anchor="tabulated finest-level numbers reproduce from the solution",
        passed=measured <= tol,
        measured=measured,
        threshold=tol,
        details={"residual_sup": res_sup, "grad_norm": grad})


def _merge_truncation(report: HierarchyReport) -> Certificate:
    op = report.operator
    raw_op = replace(op, weight=op.problem.weight)
    certs = [check_truncation_consistency(
        raw_op, lv.solution, report.estimate.sup_radius)
        for lv in report.levels]
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
    if not report.levels:
        return SProbe("inconclusive", False, False, np.nan, np.nan, np.nan)
    scale = _scale(report)
    final_pairing = report.levels[-1].cond_c
    vanish = abs(final_pairing) <= PAIR_TOL * scale
    gaps = [lv.gap for lv in report.levels]
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
    problem = report.operator.problem
    certs = [_merge_truncation(report)]
    certs.extend(check_generalized_conditions(report))
    certs.append(check_strong_condition(report))
    certs.extend(check_monotonicity_inequalities(
        problem.p, problem.q, problem.domain.dim, seed=seed))
    weak = weak_implies_generalized_demo(report.operator,
                                         report.levels[-1].solution)
    certs += [weak, _report_consistency(report, weak)]
    probe = condition_S_probe(report)
    return {
        "certificates": jsonable(certs),
        "s_probe": jsonable(probe),
        "all_passed": all(c.passed or c.skipped for c in certs),
    }
