import dataclasses
import math

import numpy as np
import pytest

from pqgalerkin import galerkin, operators, verify
from pqgalerkin.fespace import FeFunction, FeSpace, jsonable
from pqgalerkin.galerkin import run_hierarchy, solve_level
from pqgalerkin.galerkin import ProblemOperator
from pqgalerkin.mesh import Domain, build_mesh
from pqgalerkin.operators import (Problem, adversarial_convection,
                                  constant_convection, constant_weight,
                                  quadratic_weight, saturating_convection,
                                  truncate_weight, zero_convection)
from pqgalerkin.verify import (check_generalized_conditions,
                               check_monotonicity_inequalities,
                               check_strong_condition,
                               check_truncation_consistency,
                               run_certificates,
                               weak_implies_generalized_demo)

UNIT = Domain.interval(0.0, 1.0)
# truncation radius of the single-dof solution
RADIUS = 1.0


def offset_problem():
    conv = saturating_convection(3.0, alpha=2.0, h_bound=1.0, offset=1.0)
    return Problem(p=3.0, q=2.0, domain=UNIT, weight=quadratic_weight(2.0),
                   convection=conv, variant="competing")


_CACHE = {}


def good_report():
    if "report" not in _CACHE:
        _CACHE["report"] = run_hierarchy(offset_problem(), 4, 3)
    return _CACHE["report"]


def single_dof_solution():
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing")
    weight = truncate_weight(problem.weight, RADIUS)
    space = FeSpace(build_mesh(UNIT, 2))
    lv = solve_level(ProblemOperator(problem, weight), space)
    return problem, weight, lv.solution


def test_truncation_consistency_on_solved_state():
    problem, weight, u = single_dof_solution()
    cert = check_truncation_consistency(
        ProblemOperator(problem, problem.weight), u, RADIUS)
    assert cert.passed
    assert cert.measured <= cert.threshold
    assert cert.details["untruncated_residual_sup"] == cert.measured
    assert cert.details["sup_norm"] <= RADIUS


def test_truncation_flags_state_outside_radius():
    problem, weight, u = single_dof_solution()
    big = FeFunction(u.space, np.array([5.0]))
    cert = check_truncation_consistency(
        ProblemOperator(problem, problem.weight), big, RADIUS)
    assert not cert.passed
    assert cert.measured == 5.0
    assert cert.threshold == RADIUS
    assert cert.details["excess"] == 4.0


def test_truncation_zero_state_without_load():
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=quadratic_weight(2.0),
                      convection=zero_convection(),
                      variant="competing")
    space = FeSpace(build_mesh(UNIT, 4))
    cert = check_truncation_consistency(
        ProblemOperator(problem, problem.weight), FeFunction.zero(space), 1.0)
    assert cert.passed
    assert cert.measured == 0.0


def test_generalized_conditions_pass_on_good_run():
    certs = check_generalized_conditions(good_report())
    names = [c.name for c in certs]
    assert names == ["condition-b", "condition-c", "condition-c-routes",
                     "self-pairing-bookkeeping"]
    assert all(c.passed for c in certs)
    b = certs[0]
    assert len(b.details["per_level_max"]) == len(good_report().levels)
    c = certs[1]
    assert c.details["sequence"][-1] == 0.0


def test_strong_condition_certificates():
    cert = check_strong_condition(good_report())
    assert cert.name == "condition-cprime"
    assert cert.passed and not cert.skipped
    growth = cert.details["growth_exponents"]
    assert growth["gradient"] == 2.0


def bare_report():
    """`good_report()` read with a convection family that declares no
    growth exponents."""
    report = good_report()
    bare = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(2.0),
                   convection=adversarial_convection(1.0, 3.0),
                   variant="competing")
    return dataclasses.replace(
        report, operator=dataclasses.replace(report.operator, problem=bare))


def test_strong_condition_skipped_without_declared_growth():
    cert = check_strong_condition(bare_report())
    assert cert.skipped and cert.passed
    assert "growth exponents" in cert.reason


def test_monotonicity_certificates():
    certs = check_monotonicity_inequalities(4.0, 2.0, UNIT.dim)
    assert [c.name for c in certs] == ["monotonicity-p", "monotonicity-q"]
    for c in certs:
        assert c.passed and not c.skipped
        assert c.details["violations"] == 0
        assert c.measured >= 0.0


def test_monotonicity_skips_subquadratic_exponent():
    certs = check_monotonicity_inequalities(3.0, 1.5, UNIT.dim)
    q_cert = certs[1]
    assert q_cert.skipped and q_cert.passed
    assert math.isnan(q_cert.measured)
    assert not certs[0].skipped


def test_weak_implies_generalized_demo_passes():
    problem, weight, u = single_dof_solution()
    cert = weak_implies_generalized_demo(
        ProblemOperator(problem, weight), u)
    assert cert.passed
    assert cert.details["c_value"] == 0.0
    assert cert.details["b_max"] == cert.measured


def test_weak_implies_generalized_demo_rejects_perturbed():
    problem, weight, u = single_dof_solution()
    fake = FeFunction(u.space, u.coeffs + 0.5)
    cert = weak_implies_generalized_demo(
        ProblemOperator(problem, weight), fake)
    assert not cert.passed
    assert cert.measured > 100.0 * cert.threshold


def test_run_certificates_all_pass():
    result = run_certificates(good_report())
    assert result["all_passed"]
    names = [c["name"] for c in result["certificates"]]
    assert names == ["truncation-consistency", "condition-b", "condition-c",
                     "condition-c-routes", "self-pairing-bookkeeping",
                     "condition-cprime", "monotonicity-p", "monotonicity-q",
                     "weak-implies-generalized", "report-consistency"]
    assert result["s_probe"]["pairings_vanish"]


def test_run_certificates_rejects_failed_report(monkeypatch):
    monkeypatch.setattr(galerkin, "MAX_ITERATIONS", 1)
    report = run_hierarchy(offset_problem(), 4, 2)
    assert report.failed_level == 0
    with pytest.raises(ValueError, match="failed or missing"):
        run_certificates(report)


def _noisy(lv):
    u = lv.solution
    noise = np.random.default_rng(1).standard_normal(u.space.dim)
    return {"solution": FeFunction(u.space, u.coeffs + 1e-3 * noise)}


def _eighth_flux(report, monkeypatch):
    """The certificates' flux kernel at an eighth of the operator's."""
    kernel = operators.power_flux
    monkeypatch.setattr(verify, "power_flux",
                        lambda grad, e: 0.125 * kernel(grad, e))
    return report


def _replace(changes):
    return lambda r, _: dataclasses.replace(r, **changes(r))


def _levels(changes, which=None):
    """Replace fields of the level records at the indices `which` (every
    level by default); `changes` maps a record to its new fields."""
    def tamper(r, _):
        picked = range(len(r.levels)) if which is None else \
            {i % len(r.levels) for i in which}
        return dataclasses.replace(r, levels=[
            dataclasses.replace(lv, **changes(lv)) if i in picked else lv
            for i, lv in enumerate(r.levels)])
    return tamper


def _halved(family):
    """The convection family at half its value, partials and constants
    unchanged."""
    return dataclasses.replace(family,
                               fn=lambda x, s, xi: 0.5 * family.fn(x, s, xi))


def _operator(changes):
    return lambda r, _: dataclasses.replace(
        r, operator=dataclasses.replace(r.operator, **changes(r)))


# id: (tamper, the exact set of certificates it fails on good_report()).
# A tamper maps the report and pytest's monkeypatch to the report to
# certify.  weak-implies-generalized has no tamper of its own: its bound
# follows from report-consistency and the solve's stopping test, so every
# tamper that fails it fails report-consistency too.  It stays as the
# paper's "a weak solution is a generalized one" anchor.
TAMPERS = {
    "grad-norms": (
        _levels(lambda lv: {"grad_norm": lv.grad_norm + 1e-3}),
        {"report-consistency"}),
    # above the bound of every level: the bound is tolerance * 10 * dim *
    # max(1, ||u||_1), at most 1e-9 * 15 * 1 on these levels
    "pair-un": (
        _levels(lambda lv: {"pair_un": lv.pair_un + 1e-6}),
        {"self-pairing-bookkeeping"}),
    "cond-b": (
        _levels(lambda lv: {"cond_b": [x + 1e-6 for x in lv.cond_b]}, [-1]),
        {"condition-b"}),
    # within the pairing bound, above the tighter final one
    "cond-b-final": (
        _levels(lambda lv: {"cond_b": [x + 1e-8 for x in lv.cond_b]}, [-1]),
        {"condition-b"}),
    "sup-radius": (
        _replace(lambda r: {"estimate": dataclasses.replace(
            r.estimate, sup_radius=1e-3)}),
        {"truncation-consistency"}),
    # the split moves, its sum does not
    "cprime-and-convection": (
        _levels(lambda lv: {"cond_cprime": lv.cond_cprime + 1e-3,
                            "convection_pair": lv.convection_pair + 1e-3},
                [-1]),
        {"condition-cprime"}),
    "coarse-convection": (
        _levels(lambda lv: {"convection_pair": lv.convection_pair + 1.0},
                [0]),
        {"condition-c-routes"}),
    "cond-c": (
        _levels(lambda lv: {"cond_c": 1e-3}, [-1]),
        {"condition-c", "condition-c-routes"}),
    # below every solution's sup norm, so the truncation acts on the
    # solutions; the truncation certificate reads the problem's own weight
    "weight-truncated": (
        _operator(lambda r: {"weight": truncate_weight(
            r.operator.problem.weight,
            0.5 * min(lv.sup_norm for lv in r.levels))}),
        {"weak-implies-generalized", "report-consistency"}),
    "noisy-finest": (
        _levels(_noisy, [-1]),
        {"truncation-consistency", "weak-implies-generalized",
         "report-consistency"}),
    "half-load": (
        _operator(lambda r: {"problem": dataclasses.replace(
            r.operator.problem, convection=_halved(
                r.operator.problem.convection))}),
        {"truncation-consistency", "weak-implies-generalized",
         "report-consistency"}),
    "flux-kernel": (_eighth_flux, {"monotonicity-p", "monotonicity-q"}),
}


@pytest.mark.parametrize("name", list(TAMPERS))
def test_tamper_fails_exactly_its_certificates(name, monkeypatch):
    tamper, expected = TAMPERS[name]
    result = run_certificates(tamper(good_report(), monkeypatch))
    failed = {c["name"] for c in result["certificates"] if not c["passed"]}
    assert failed == expected
    assert not result["all_passed"]


def test_condition_b_records_the_final_bound_that_fails(monkeypatch):
    tamper, _ = TAMPERS["cond-b-final"]
    (cert, *_) = check_generalized_conditions(tamper(good_report(),
                                                     monkeypatch))
    assert cert.name == "condition-b" and not cert.passed
    assert cert.measured <= cert.threshold
    assert cert.details["final_max"] > cert.details["final_threshold"]
    assert cert.details["final_threshold"] == \
        10.0 * good_report().solver_tolerance \
        * max(1.0, good_report().levels[-1].grad_norm)


def test_every_certificate_has_a_tamper():
    covered = set().union(*(expected for _, expected in TAMPERS.values()))
    for report in (good_report(), bare_report()):
        names = [c["name"] for c in run_certificates(report)["certificates"]]
        assert len(set(names)) == len(names)
        assert set(names) == covered


def test_run_certificates_evaluates_the_finest_residual_twice(monkeypatch):
    report = good_report()
    finest = report.levels[-1].solution.space
    residual, weights = operators.ProblemOperator.residual, []

    def counting(op, u):
        if u.space is finest:
            weights.append(op.weight)
        return residual(op, u)

    monkeypatch.setattr(operators.ProblemOperator, "residual", counting)
    run_certificates(report)
    # one untruncated residual for the truncation certificate, one
    # truncated for weak-implies-generalized and report-consistency
    assert len(weights) == 2
    assert {w is report.operator.weight for w in weights} == {True, False}


def test_certificate_serialization():
    problem, weight, u = single_dof_solution()
    d = jsonable(check_truncation_consistency(
        ProblemOperator(problem, problem.weight), u, RADIUS))
    assert isinstance(d["passed"], bool)
    assert isinstance(d["measured"], float)
    assert d["name"] == "truncation-consistency"
    assert d["skipped"] is False


@pytest.mark.parametrize("exponent", [2.0, 2.5, 3.0, 4.0, 7.5, 40.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_opposite_gradients_attain_the_sharp_lemma_ratio(dim, exponent):
    a, _ = verify._lemma_pairs(dim, exponent)
    a = a[np.any(a != 0.0, axis=-1)]
    # b = -a attains the sharp constant 2^{2-e}: four times the checked one
    ratios = verify._lemma_ratios(a, -a, exponent)
    assert np.allclose(ratios, 4.0, rtol=1e-14, atol=0.0)
    (cert, _) = check_monotonicity_inequalities(exponent, 1.5, dim)
    assert cert.passed and cert.details["violations"] == 0
    assert cert.measured == pytest.approx(4.0, rel=1e-14)
    assert cert.threshold == 1.0
    assert cert.details["constant"] == 2.0 ** -exponent
    assert cert.details["sharp_constant"] == 4.0 * 2.0 ** -exponent


def test_monotonicity_skips_both_exponents_below_two():
    for cert in check_monotonicity_inequalities(1.8, 1.5, 1):
        assert cert.skipped and cert.passed
        assert math.isnan(cert.measured) and math.isnan(cert.threshold)
        assert cert.details == {}


def test_monotonicity_certificate_reads_the_operators_flux_kernel(
        monkeypatch):
    assert verify.power_flux is operators.power_flux
    a, b = verify._lemma_pairs(2, 3.0)
    # the certificate's constant has a factor 4 in hand, so a kernel at an
    # eighth of its value fails on every pair whose true ratio is below 8
    short = int(np.sum(verify._lemma_ratios(a, b, 3.0) < 8.0))
    assert 0 < short < a.shape[0]
    _eighth_flux(None, monkeypatch)
    cert_p, cert_q = check_monotonicity_inequalities(3.0, 2.5, 2)
    assert not cert_p.passed and not cert_q.passed
    assert cert_p.details["violations"] == short
    assert cert_p.measured == pytest.approx(0.5, rel=1e-14)


def test_nonfinite_lemma_ratio_is_a_violation(monkeypatch):
    monkeypatch.setattr(verify, "power_flux",
                        lambda grad, e: np.full_like(grad, np.inf))
    (cert, _) = check_monotonicity_inequalities(3.0, 1.5, 1)
    assert not cert.passed
    assert cert.details["violations"] == cert.details["pairs"]
    assert math.isnan(cert.measured)
