import math

import numpy as np
import pytest

from pqgalerkin.fespace import FeFunction, FeSpace, grad_norm_lp, lr_norm, pair
from pqgalerkin.mesh import Domain, build_mesh
from pqgalerkin.operators import (AssemblyError, ConvectionFamily, GrowthH2,
                                  HypothesisViolation, Problem,
                                  ProblemOperator, SignH3,
                                  adversarial_convection, constant_convection,
                                  constant_weight, convection_pairing,
                                  power_laplacian_pairing, quadratic_weight,
                                  saturating_convection, truncate_weight,
                                  weighted_p_pairing, zero_convection)

UNIT = Domain.interval(0.0, 1.0)


def single_dof_setup(f_value=None):
    weight = constant_weight(1.0)
    conv = zero_convection() if f_value is None else constant_convection(f_value)
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight,
                      convection=conv, variant="competing", regime="H3")
    space = FeSpace(build_mesh(UNIT, 2))
    return problem, truncate_weight(weight, 1.0), space


def test_truncation_evaluations():
    gr = truncate_weight(quadratic_weight(2.0), 1.0)
    assert gr.evaluate(np.array([0.5]))[0] == 2.25
    assert gr.evaluate(np.array([5.0]))[0] == 3.0
    assert gr.evaluate(np.array([-5.0]))[0] == 3.0


def test_truncation_identity_inside_window():
    base = quadratic_weight(2.0)
    gr = truncate_weight(base, 1.5)
    ts = np.linspace(-1.5, 1.5, 101)
    np.testing.assert_array_equal(gr.evaluate(ts), base.evaluate(ts))


def test_truncate_rejects_bad_radius():
    with pytest.raises(ValueError):
        truncate_weight(constant_weight(1.0), 0.0)


def test_weight_needs_positive_floor():
    with pytest.raises(HypothesisViolation, match=r"\(H1\)"):
        constant_weight(0.0)


def test_zero_state_zero_residual():
    problem, gr, space = single_dof_setup()
    F = ProblemOperator(problem, gr, space).residual(FeFunction.zero(space))
    np.testing.assert_array_equal(F.values, 0.0)


def test_single_dof_residual_no_load():
    problem, gr, space = single_dof_setup()
    for t in (0.1, 0.25, 0.8):
        F = ProblemOperator(problem, gr, space).residual(
            FeFunction(space, np.array([t])))
        assert math.isclose(F.values[0], 8 * t * t - 4 * t, rel_tol=1e-13)


def test_single_dof_residual_unit_load():
    problem, gr, space = single_dof_setup(f_value=1.0)
    for t in (0.25, 0.7, -0.3):
        F = ProblemOperator(problem, gr, space).residual(
            FeFunction(space, np.array([t])))
        expect = 8 * t * abs(t) - 4 * t - 0.5
        assert math.isclose(F.values[0], expect, rel_tol=1e-13, abs_tol=1e-15)


def test_single_dof_self_pairing():
    problem, gr, space = single_dof_setup(f_value=1.0)
    t = 0.25
    u = FeFunction(space, np.array([t]))
    val = ProblemOperator(problem, gr, space).pairing(u, u)
    assert math.isclose(val, 8 * t ** 3 - 4 * t ** 2 - t / 2, rel_tol=1e-13)


def test_pairing_consistency_random():
    weight = quadratic_weight(2.0)
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight,
                      convection=saturating_convection(3.0),
                      variant="competing", regime="H3")
    gr = truncate_weight(weight, 2.0)
    space = FeSpace(build_mesh(UNIT, 8))
    op = ProblemOperator(problem, gr, space)
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = FeFunction(space, rng.standard_normal(space.dim))
        v = FeFunction(space, rng.standard_normal(space.dim))
        direct = op.pairing(u, v)
        via_dual = pair(op.residual(u), v)
        assert math.isclose(direct, via_dual, rel_tol=1e-12, abs_tol=1e-12)


def test_variants_differ_by_twice_q_term():
    weight = quadratic_weight(2.0)
    gr = truncate_weight(weight, 2.0)
    space = FeSpace(build_mesh(UNIT, 8))
    conv = saturating_convection(3.0)
    comp = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight, convection=conv,
                   variant="competing", regime="H3")
    coop = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight, convection=conv,
                   variant="cooperative", regime="H3")
    comp_op = ProblemOperator(comp, gr, space)
    coop_op = ProblemOperator(coop, gr, space)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = FeFunction(space, rng.standard_normal(space.dim))
        # the cooperative q-part carries the + sign
        _, q_dual, _ = coop_op.parts(u)
        diff = coop_op.residual(u).values - comp_op.residual(u).values
        np.testing.assert_allclose(diff, 2.0 * q_dual.values,
                                   rtol=1e-12, atol=1e-13)


def test_eval_convection_cases():
    fam = saturating_convection(3.0, alpha=2.0, h_bound=0.0)
    assert fam.evaluate(np.array([0.5]), 0.0, np.array([7.0])) == 0.0
    assert math.isclose(
        fam.evaluate(np.array([0.5]), 1.0, np.array([2.0])), 3.0,
        rel_tol=1e-14)
    fam_h = saturating_convection(3.0, alpha=2.0, h_bound=1.0)
    assert math.isclose(
        fam_h.evaluate(np.array([0.5]), -1.0, np.array([0.0])), -1.5,
        rel_tol=1e-14)


def test_coercivity_floor():
    weight = quadratic_weight(2.0)
    gr = truncate_weight(weight, 1.0)
    space = FeSpace(build_mesh(UNIT, 8))
    p = 3.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = FeFunction(space, rng.standard_normal(space.dim))
        energy = weighted_p_pairing(gr, u, u, p)
        floor = gr.lower_bound * grad_norm_lp(u, p) ** p
        assert energy >= floor * (1.0 - 1e-12)


def test_growth_bound_discrete():
    from pqgalerkin.estimates import (estimate_lambda1,
                                      rhs_estimate_constant,
                                      sobolev_constant)
    p = 3.0
    fam = saturating_convection(p, alpha=2.0, h_bound=1.0)
    problem = Problem(p=p, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=fam, variant="competing", regime="H3")
    space = FeSpace(build_mesh(UNIT, 8))
    lam = estimate_lambda1(space, p).value
    cs = sobolev_constant(UNIT, p).value
    C = rhs_estimate_constant(problem, lam, cs)
    h2 = fam.h2
    sigma_norm = h2.sigma * UNIT.measure ** (1.0 / h2.r1)
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = FeFunction(space, rng.standard_normal(space.dim))
        v = FeFunction(space, rng.standard_normal(space.dim))
        lhs = abs(convection_pairing(fam, u, v))
        rhs = C * (sigma_norm + lr_norm(u, h2.r2) ** h2.r2
                   + grad_norm_lp(u, p) ** (p - 1.0)) * grad_norm_lp(v, p)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_p_monotonicity_hand_case():
    # p=4, u = unit hat on 2 cells, v = 0: pairing 16, bound 2^-4 * 2^4 = 1
    space = FeSpace(build_mesh(UNIT, 2))
    u = FeFunction(space, np.array([1.0]))
    v = FeFunction.zero(space)
    lhs = (power_laplacian_pairing(u, u - v, 4.0)
           - power_laplacian_pairing(v, u - v, 4.0))
    assert math.isclose(lhs, 16.0, rel_tol=1e-13)
    rhs = 2.0 ** (-4.0) * grad_norm_lp(u - v, 4.0) ** 4.0
    assert math.isclose(rhs, 1.0, rel_tol=1e-13)
    assert lhs >= rhs


def test_growth_h2_rejects_small_exponent():
    with pytest.raises(HypothesisViolation, match=r"\(H2\)"):
        GrowthH2(1.0, 1.0, 1.0, 0.5, 1.0)


def test_problem_validation():
    weight = constant_weight(1.0)
    conv = zero_convection()
    with pytest.raises(ValueError):
        Problem(p=2.0, q=2.0, domain=UNIT, weight=weight, convection=conv)
    with pytest.raises(ValueError):
        Problem(p=1.8, q=1.2, domain=Domain.rectangle(0, 1, 0, 1),
                weight=weight, convection=conv)
    with pytest.raises(HypothesisViolation, match=r"\(H3\)"):
        Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(0.4),
                convection=adversarial_convection(1.0, 3.0))


def test_problem_h3a_requires_block():
    weight = constant_weight(1.0)
    fam = adversarial_convection(1.0, 3.0)  # declares no (H3a) block
    with pytest.raises(HypothesisViolation, match=r"\(H3a\)"):
        Problem(p=3.0, q=2.0, domain=UNIT, weight=weight, convection=fam,
                regime="H3a")


def test_saturating_alpha_range():
    with pytest.raises(HypothesisViolation):
        saturating_convection(3.0, alpha=3.5)
    with pytest.raises(HypothesisViolation):
        saturating_convection(3.0, alpha=0.5)


def test_nonfinite_integrand_names_cell():
    def bad(x, s, xi):
        return np.full_like(s, np.nan)

    fam = ConvectionFamily(name="bad", fn=bad,
                           h2=GrowthH2(0.0, 0.0, 0.0, 1.0, 1.0),
                           h3=SignH3(0.0, 0.0, 1.0))
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=fam, variant="competing", regime="H3")
    gr = truncate_weight(problem.weight, 1.0)
    space = FeSpace(build_mesh(UNIT, 2))
    with pytest.raises(AssemblyError, match="cell"):
        ProblemOperator(problem, gr, space).residual(
            FeFunction(space, np.array([0.5])))
