import dataclasses
import math

import numpy as np
import pytest

from pqgalerkin import operators, verify
from pqgalerkin.fespace import FeFunction, FeSpace, jsonable
from pqgalerkin.galerkin import SolverConfig, run_hierarchy, solve_level
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
                   convection=conv, variant="competing", regime="H3")


_CACHE = {}


def good_report():
    if "report" not in _CACHE:
        _CACHE["report"] = run_hierarchy(offset_problem(), 4, 3)
    return _CACHE["report"]


def single_dof_solution():
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing", regime="H3")
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
                      variant="competing", regime="H3")
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
    certs = check_strong_condition(good_report())
    assert [c.name for c in certs] == ["cprime-identity", "condition-cprime"]
    assert all(c.passed and not c.skipped for c in certs)
    growth = certs[1].details["growth_exponents"]
    assert growth["gradient"] == 2.0


def test_strong_condition_skipped_without_declared_growth():
    report = good_report()
    bare = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(2.0),
                   convection=adversarial_convection(1.0, 3.0),
                   variant="competing", regime="H3")
    certs = check_strong_condition(dataclasses.replace(
        report, operator=dataclasses.replace(report.operator, problem=bare)))
    assert len(certs) == 1
    assert certs[0].skipped and certs[0].passed
    assert "growth exponents" in certs[0].reason


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
                     "cprime-identity", "condition-cprime", "monotonicity-p",
                     "monotonicity-q", "weak-implies-generalized",
                     "non-solution-contrast", "report-consistency"]
    assert result["s_probe"]["pairings_vanish"]


def test_run_certificates_contrast_sees_violation():
    result = run_certificates(good_report())
    contrast = next(c for c in result["certificates"]
                    if c["name"] == "non-solution-contrast")
    assert contrast["passed"]
    assert contrast["measured"] > contrast["threshold"]


def test_run_certificates_use_the_run_regularization():
    problem = Problem(p=3.0, q=1.5, domain=UNIT, weight=quadratic_weight(1.0),
                      convection=constant_convection(1e-4),
                      variant="cooperative", regime="H3")
    report = run_hierarchy(problem, 4, 4,
                           cfg=SolverConfig(regularization=1e-3))
    assert report.failed_level is None
    result = run_certificates(report)
    failed = [c["name"] for c in result["certificates"] if not c["passed"]]
    assert result["all_passed"], failed


def test_run_certificates_rejects_failed_report():
    report = run_hierarchy(offset_problem(), 4, 2,
                           cfg=SolverConfig(max_iterations=1))
    assert report.failed_level == 0
    with pytest.raises(ValueError, match="failed or missing"):
        run_certificates(report)


def test_tampered_truncation_radius_fails():
    report = good_report()
    report = dataclasses.replace(
        report, estimate=dataclasses.replace(report.estimate, sup_radius=1e-3))
    result = run_certificates(report)
    assert not result["all_passed"]
    trunc = next(c for c in result["certificates"]
                 if c["name"] == "truncation-consistency")
    assert not trunc["passed"]
    assert trunc["details"]["excess"] > 0.0


def test_tampered_norm_table_fails_consistency():
    report = good_report()
    wrong = [g + 1e-3 for g in report.grad_norms]
    result = run_certificates(dataclasses.replace(report, grad_norms=wrong))
    assert not result["all_passed"]
    cons = next(c for c in result["certificates"]
                if c["name"] == "report-consistency")
    assert not cons["passed"]


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
    kernel = operators.power_flux
    a, b = verify._lemma_pairs(2, 3.0)
    # the certificate's constant has a factor 4 in hand, so a kernel at an
    # eighth of its value fails on every pair whose true ratio is below 8
    short = int(np.sum(verify._lemma_ratios(a, b, 3.0) < 8.0))
    assert 0 < short < a.shape[0]
    monkeypatch.setattr(verify, "power_flux",
                        lambda grad, e, eps=1e-10: 0.125 * kernel(grad, e,
                                                                  eps))
    cert_p, cert_q = check_monotonicity_inequalities(3.0, 2.5, 2)
    assert not cert_p.passed and not cert_q.passed
    assert cert_p.details["violations"] == short
    assert cert_p.measured == pytest.approx(0.5, rel=1e-14)


def test_nonfinite_lemma_ratio_is_a_violation(monkeypatch):
    monkeypatch.setattr(verify, "power_flux",
                        lambda grad, e, eps=1e-10: np.full_like(grad, np.inf))
    (cert, _) = check_monotonicity_inequalities(3.0, 1.5, 1)
    assert not cert.passed
    assert cert.details["violations"] == cert.details["pairs"]
    assert math.isnan(cert.measured)
