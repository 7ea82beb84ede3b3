import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from pqgalerkin import cli, fespace, operators
from pqgalerkin.fespace import (FeFunction, FeSpace, assemble_matrix,
                                cell_gradients, grad_norm_lp, lr_norm)
from pqgalerkin.mesh import Domain, build_mesh, refine
from pqgalerkin.operators import (AssemblyError, ConvectionFamily, GrowthH2,
                                  HypothesisViolation, Problem,
                                  ProblemOperator, SignH3,
                                  adversarial_convection,
                                  constant_convection,
                                  constant_weight, power_flux_pairing,
                                  quadratic_weight,
                                  saturating_convection,
                                  truncate_weight, zero_convection)

UNIT = Domain.interval(0.0, 1.0)


def single_dof_setup(f_value=None):
    weight = constant_weight(1.0)
    conv = zero_convection() if f_value is None else constant_convection(f_value)
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight,
                      convection=conv, variant="competing")
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


def test_operator_takes_no_space_and_keyword_only_factors():
    problem, gr, space = single_dof_setup()
    # the operator takes the problem and the weight alone: a space passed
    # where an old signature had one, or any third argument, is refused
    with pytest.raises(TypeError):
        ProblemOperator(problem, gr, space)
    with pytest.raises(TypeError):
        ProblemOperator(problem, gr, 0.5)
    assert "space" not in {f.name for f in dataclasses.fields(ProblemOperator)}


def test_zero_state_zero_residual():
    problem, gr, space = single_dof_setup()
    F = ProblemOperator(problem, gr).residual(FeFunction.zero(space))
    np.testing.assert_array_equal(F, 0.0)


def test_single_dof_residual_no_load():
    problem, gr, space = single_dof_setup()
    for t in (0.1, 0.25, 0.8):
        F = ProblemOperator(problem, gr).residual(
            FeFunction(space, np.array([t])))
        assert math.isclose(F[0], 8 * t * t - 4 * t, rel_tol=1e-13)


def test_single_dof_residual_unit_load():
    problem, gr, space = single_dof_setup(f_value=1.0)
    for t in (0.25, 0.7, -0.3):
        F = ProblemOperator(problem, gr).residual(
            FeFunction(space, np.array([t])))
        expect = 8 * t * abs(t) - 4 * t - 0.5
        assert math.isclose(F[0], expect, rel_tol=1e-13, abs_tol=1e-15)


def test_single_dof_self_pairing():
    problem, gr, space = single_dof_setup(f_value=1.0)
    t = 0.25
    u = FeFunction(space, np.array([t]))
    val = ProblemOperator(problem, gr).pairing(u, u)
    assert math.isclose(val, 8 * t ** 3 - 4 * t ** 2 - t / 2, rel_tol=1e-13)


def test_pairing_consistency_random():
    weight = quadratic_weight(2.0)
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight,
                      convection=saturating_convection(3.0),
                      variant="competing")
    gr = truncate_weight(weight, 2.0)
    space = FeSpace(build_mesh(UNIT, 8))
    op = ProblemOperator(problem, gr)
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = FeFunction(space, rng.standard_normal(space.dim))
        v = FeFunction(space, rng.standard_normal(space.dim))
        direct = op.pairing(u, v)
        via_dual = float(op.residual(u) @ v.coeffs)
        assert math.isclose(direct, via_dual, rel_tol=1e-12, abs_tol=1e-12)


def test_variants_differ_by_twice_q_term():
    weight = quadratic_weight(2.0)
    gr = truncate_weight(weight, 2.0)
    space = FeSpace(build_mesh(UNIT, 8))
    conv = saturating_convection(3.0)
    comp = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight, convection=conv,
                   variant="competing")
    coop = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight, convection=conv,
                   variant="cooperative")
    comp_op = ProblemOperator(comp, gr)
    coop_op = ProblemOperator(coop, gr)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = FeFunction(space, rng.standard_normal(space.dim))
        # the cooperative q-part carries the + sign
        _, q_dual, _ = coop_op.parts_and_pairing(u, u)[0]
        diff = coop_op.residual(u) - comp_op.residual(u)
        np.testing.assert_allclose(diff, 2.0 * q_dual,
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
    problem = Problem(p=p, q=2.0, domain=UNIT, weight=weight,
                      convection=zero_convection())
    op = ProblemOperator(problem, gr)
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = FeFunction(space, rng.standard_normal(space.dim))
        energy = float(op.parts_and_pairing(u, u)[0][0] @ u.coeffs)
        floor = gr.lower_bound * grad_norm_lp(u, p) ** p
        assert energy >= floor * (1.0 - 1e-12)


def test_growth_bound_discrete():
    from pqgalerkin.estimates import (estimate_lambda1,
                                      rhs_estimate_constant,
                                      sobolev_constant)
    p = 3.0
    fam = saturating_convection(p, alpha=2.0, h_bound=1.0)
    problem = Problem(p=p, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=fam, variant="competing")
    space = FeSpace(build_mesh(UNIT, 8))
    lam = estimate_lambda1(UNIT, p).value
    cs = sobolev_constant(UNIT, p).value
    C = rhs_estimate_constant(problem, lam, cs)
    h2 = fam.h2
    sigma_norm = h2.sigma * UNIT.measure ** (1.0 / h2.r1)
    op = ProblemOperator(problem, problem.weight)
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = FeFunction(space, rng.standard_normal(space.dim))
        v = FeFunction(space, rng.standard_normal(space.dim))
        lhs = abs(float(op.parts_and_pairing(u, u)[0][2] @ v.coeffs))
        rhs = C * (sigma_norm + lr_norm(u, h2.r2) ** h2.r2
                   + grad_norm_lp(u, p) ** (p - 1.0)) * grad_norm_lp(v, p)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_p_monotonicity_hand_case():
    # p=4, u = unit hat on 2 cells, v = 0: pairing 16, bound 2^-4 * 2^4 = 1
    space = FeSpace(build_mesh(UNIT, 2))
    u = FeFunction(space, np.array([1.0]))
    v = FeFunction.zero(space)
    lhs = (power_flux_pairing(u, cell_gradients(u - v), 4.0)
           - power_flux_pairing(v, cell_gradients(u - v), 4.0))
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


def test_sign_constants_follow_the_regime():
    weight = constant_weight(1.0)
    # saturating p = 3: c0 = 1/2, c1 = max(1 + |offset|, 2^2 + h + |offset|)
    h3 = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight,
                 convection=saturating_convection(3.0, offset=1.0))
    assert h3.sign_constants == (0.5, 6.0, 2.0)
    # under (H3a) the |s|^alpha power is |s|^p
    h3a = Problem(p=3.0, q=2.0, domain=UNIT, weight=weight,
                  convection=saturating_convection(3.0, alpha=3.0))
    assert h3a.sign_constants == (0.5, 5.0, 3.0)


def test_saturating_alpha_range():
    # the family leaves alpha to Problem, which checks it for every family
    for alpha in (0.5, 3.5):
        with pytest.raises(HypothesisViolation, match="alpha"):
            Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                    convection=saturating_convection(3.0, alpha=alpha))


def test_sign_block_rejects_a_negative_c1():
    # at s = 0, xi = 0 the sign condition reads 0 <= c1
    with pytest.raises(HypothesisViolation, match="c1"):
        SignH3(0.5, -1.0, 1.0)


def test_nonfinite_integrand_names_cell():
    def bad(x, s, xi):
        return np.full_like(s, np.nan)

    fam = ConvectionFamily(name="bad", fn=bad, ds=bad, dxi=bad,
                           h2=GrowthH2(0.0, 0.0, 0.0, 1.0, 1.0),
                           h3=SignH3(0.0, 0.0, 1.0))
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=fam, variant="competing")
    gr = truncate_weight(problem.weight, 1.0)
    space = FeSpace(build_mesh(UNIT, 2))
    with pytest.raises(AssemblyError, match="cell"):
        ProblemOperator(problem, gr).residual(
            FeFunction(space, np.array([0.5])))


def test_nonfinite_q_term_names_its_label_and_cell(monkeypatch):
    # without regularization the q < 2 flux is 0 * inf on a flat cell,
    # while the p = 3 flux there is a finite 0
    monkeypatch.setattr(operators, "REGULARIZATION", 0.0)
    problem = Problem(p=3.0, q=1.5, domain=UNIT, weight=constant_weight(1.0),
                      convection=zero_convection(), variant="competing")
    space = FeSpace(build_mesh(UNIT, 4))
    op = ProblemOperator(problem, truncate_weight(problem.weight, 1.0))
    with np.errstate(all="ignore"), pytest.raises(
            AssemblyError, match="nonfinite gradient power term contribution"
                                 " on cell 1$"):
        op.residual(FeFunction(space, np.array([0.5, 0.5, 1.0])))


def central_difference_jacobian(op, u, step=1e-7):
    """Dense oracle: column j is (F(u + h e_j) - F(u - h e_j)) / 2h.

    Its error is O(h) on flat cells, where the p-flux |g| g has no second
    derivative."""
    cols = []
    for e in step * np.eye(u.space.dim):
        plus = op.residual(FeFunction(u.space, u.coeffs + e))
        minus = op.residual(FeFunction(u.space, u.coeffs - e))
        cols.append((plus - minus) / (2.0 * step))
    return np.stack(cols, axis=1)


# truncation radius of the Jacobian checks: the state below reaches past it
RADIUS = 0.5


def jacobian_setup(dim, variant="competing", q=2.0, monkeypatch=None):
    domain = UNIT if dim == 1 else Domain.rectangle(0.0, 1.0, 0.0, 1.0)
    problem = Problem(p=3.0, q=q, domain=domain, weight=quadratic_weight(2.0),
                      convection=saturating_convection(3.0, offset=1.0),
                      variant=variant)
    space = FeSpace(build_mesh(domain, 8 if dim == 1 else (4, 4)))
    if q < 2.0:
        # eps = 0.05 puts the flat cells of the state below in the
        # regularized branch of the q-flux, far from the oracle's step
        monkeypatch.setattr(operators, "REGULARIZATION", 0.05)
    op = ProblemOperator(problem, truncate_weight(problem.weight, RADIUS))
    coeffs = np.random.default_rng(3).standard_normal(space.dim)
    coeffs[space.dim // 2:] = coeffs[space.dim // 2]
    return op, FeFunction(space, coeffs)


@pytest.mark.parametrize("q", [2.0, 1.5])
@pytest.mark.parametrize("variant", ["competing", "cooperative"])
@pytest.mark.parametrize("dim", [1, 2])
def test_jacobian_matches_central_difference(dim, variant, q, monkeypatch):
    op, u = jacobian_setup(dim, variant, q, monkeypatch)
    assert np.max(np.abs(u.coeffs)) > RADIUS
    assert np.any(np.linalg.norm(cell_gradients(u), axis=1) == 0.0)
    oracle = central_difference_jacobian(op, u)
    np.testing.assert_allclose(op.jacobian(u).toarray(), oracle, rtol=0.0,
                               atol=1e-7 * np.max(np.abs(oracle)))


def taylor_remainders(op, u, v, steps):
    """||F(u + h v) - F(u) - h J(u) v|| for each step h."""
    F, Jv = op.residual(u), op.jacobian(u) @ v.coeffs
    return np.array([np.linalg.norm(
        op.residual(FeFunction(u.space, u.coeffs + h * v.coeffs)) - F
        - h * Jv) for h in steps])


@pytest.mark.parametrize("q", [2.0, 1.5])
@pytest.mark.parametrize("variant", ["competing", "cooperative"])
@pytest.mark.parametrize("dim", [1, 2])
def test_jacobian_taylor_remainder_falls_as_h_squared(dim, variant, q,
                                                     monkeypatch):
    op, u = jacobian_setup(dim, variant, q, monkeypatch)
    assert np.max(np.abs(u.coeffs)) > RADIUS
    v = FeFunction(u.space, np.random.default_rng(4).standard_normal(
        u.space.dim))
    steps = 10.0 ** -np.arange(2.0, 6.0)
    remainders = taylor_remainders(op, u, v, steps)
    # each tenth of h cuts the remainder by a hundred, over three decades
    rates = np.log10(remainders[:-1] / remainders[1:])
    assert np.all(rates > 1.9), rates


def central_slope(fn, t, step=1e-6):
    """(fn(t + h) - fn(t - h)) / 2h, h scaled to max(1, |t|)."""
    h = step * np.maximum(1.0, np.abs(t))
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


# the families of the partial-derivative checks, with the point where each
# has a kink: there the declared partials take a documented generalized value
FAMILIES = {
    "saturating-1.5": (saturating_convection(3.0, alpha=1.5, offset=1.0), 0.0),
    "saturating-2": (saturating_convection(3.0, alpha=2.0, offset=1.0), None),
    "saturating-3": (saturating_convection(3.0, alpha=3.0, offset=1.0), None),
    "adversarial": (adversarial_convection(2.0, 3.0), 0.0),
    "constant": (constant_convection(-1.5), None),
}


def partials_box(dim, kink):
    """x, s and xi on a sample box: s in [-3, 3] clear of the kink by 0.05,
    and one gradient per cell in [-2, 2]^d."""
    rng = np.random.default_rng(30)
    s = rng.uniform(-3.0, 3.0, (40, 5))
    if kink is not None:
        s = np.where(np.abs(s - kink) < 0.05, s + 0.1, s)
    return (rng.uniform(size=s.shape + (dim,)), s,
            rng.uniform(-2.0, 2.0, (40, 1, dim)))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("dim", [1, 2])
def test_declared_partials_match_central_differences(dim, name):
    family, kink = FAMILIES[name]
    x, s, xi = partials_box(dim, kink)
    f_s = central_slope(lambda t: family.fn(x, t, xi), s)
    assert np.allclose(family.ds(x, s, xi), f_s, rtol=1e-6, atol=1e-6)
    f_xi = family.dxi(x, s, xi)
    assert f_xi.shape == s.shape + (dim,)
    for d in range(dim):
        def along(t):
            moved = xi.copy()
            moved[..., d] = t
            return family.fn(x, s, moved)
        expected = central_slope(along, xi[..., d])
        assert np.allclose(f_xi[..., d], expected, rtol=1e-6, atol=1e-6)


def test_partials_take_their_generalized_values_at_the_kinks():
    x, s, xi = partials_box(2, None)
    s[:, 0], xi[:4] = 0.0, 0.0
    amp = np.linalg.norm(xi[..., 0, :], axis=-1)[:, None]
    # alpha < 2: the power term's infinite slope at s = 0 is declared 0
    family = FAMILIES["saturating-1.5"][0]
    slope = family.ds(x, s, xi)
    assert np.allclose(slope[:, 0], amp[:, 0] ** 2.0 + 1.0, rtol=1e-14)
    assert np.all(np.isfinite(slope))
    # every family's gradient slope is 0 at xi = 0
    for family, _ in FAMILIES.values():
        assert np.all(family.dxi(x, s, xi)[:4] == 0.0)
    # the adversarial jump at s = 0: the common one-sided slope in s, and
    # the slope 0 of f(x, 0, .) = 0 in xi
    family = FAMILIES["adversarial"][0]
    assert np.allclose(family.ds(x, s, xi)[:, 0],
                       -4.0 * amp[:, 0] ** 3.0, rtol=1e-14)
    assert np.all(family.dxi(x, s, xi)[:, 0] == 0.0)


@pytest.mark.parametrize("weight", [constant_weight(2.0),
                                    quadratic_weight(1.0, 3.0)],
                         ids=["constant", "quadratic"])
def test_declared_weight_derivatives_match_central_differences(weight):
    t = np.random.default_rng(31).uniform(-3.0, 3.0, (20, 6))
    assert np.allclose(weight.derivative(t), central_slope(weight.fn, t),
                       rtol=1e-7, atol=1e-7)


def test_truncated_weight_derivative_on_both_sides_of_the_radius():
    weight = truncate_weight(quadratic_weight(1.0, 3.0), 0.8)
    t = np.random.default_rng(32).uniform(-3.0, 3.0, 400)
    t = t[np.abs(np.abs(t) - 0.8) > 1e-3]
    inside = np.abs(t) < 0.8
    assert inside.any() and (~inside).any()
    slope = weight.derivative(t)
    assert np.allclose(slope, central_slope(weight.fn, t), rtol=1e-7,
                       atol=1e-7)
    assert np.array_equal(slope[inside], 6.0 * t[inside])
    assert np.all(slope[~inside] == 0.0)
    # the kinks at +-R take the generalized value 0
    assert np.all(weight.derivative(np.array([-0.8, 0.8])) == 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_jacobian_evaluates_neither_the_weight_nor_the_convection(
        dim, monkeypatch):
    # nothing is differenced: the weight is evaluated once, at the state's
    # own quadrature values, for the p-term's cell weight, and the
    # convection not at all
    op, u = jacobian_setup(dim)
    expected = dataclasses.replace(op).jacobian(u)
    weight_fn, seen = op.weight.fn, []

    def recorded(t):
        seen.append(bits(t).copy())
        return weight_fn(t)

    def forbidden(*args):
        raise AssertionError("the Jacobian evaluated the convection")

    # the instance fields of the frozen weight and family
    monkeypatch.setitem(vars(op.weight), "fn", recorded)
    monkeypatch.setitem(vars(op.problem.convection), "fn", forbidden)
    J = op.jacobian(u)
    assert np.array_equal(bits(J.data), bits(expected.data))
    assert len(seen) == 1
    assert np.array_equal(seen[0], bits(fespace.values_at_qp(u)))


@pytest.mark.parametrize("dim", [1, 2])
def test_jacobian_keeps_the_p1_stencil(dim):
    op, u = jacobian_setup(dim)
    pairs = {(a, b) for row in u.space.cell_dofs for a in row for b in row
             if a >= 0 and b >= 0}
    for state in (u, FeFunction.zero(u.space)):
        J = op.jacobian(state)
        assert J.format == "csr"
        assert J.nnz == len(pairs)
        assert set(zip(*J.nonzero())) <= pairs


def add_at_scatter(space, contrib):
    """Reference scatter: np.add.at into zeros, in cell order."""
    out = np.zeros(space.dim)
    mask = space.cell_dofs >= 0
    np.add.at(out, space.cell_dofs[mask], contrib[mask])
    return out


def spread(rng, shape):
    """Random entries over sixteen decades, so any change in the order of a
    sum shows in the last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


@pytest.mark.parametrize("dim", [1, 2])
def test_assembly_kernels_match_their_references_bit_for_bit(dim):
    space = jacobian_setup(dim)[1].space
    rng = np.random.default_rng(11)
    for _ in range(5):
        contrib = spread(rng, space.cell_dofs.shape)
        assert np.array_equal(space.incidence_transpose @ contrib.ravel(),
                              add_at_scatter(space, contrib))
    assert space.incidence_transpose is space.incidence_transpose
    assert space.gradient_transpose is space.gradient_transpose


@pytest.mark.parametrize("dim", [1, 2])
def test_dual_vectors_match_the_einsum_references(dim):
    # the signed parts that parts_and_pairing builds from its kept terms
    op = jacobian_setup(dim)[0]
    q_scale = op.problem.q_sign
    rng = np.random.default_rng(21)
    for space in kernel_spaces(dim):
        u = FeFunction(space, rng.standard_normal(space.dim))
        p_part, q_part, f_part = op.parts_and_pairing(u, u)[0]
        _, (p_flux, p_w), (q_flux, q_w), fvals = op._terms(u)
        # the f-part keeps the bits of the einsum and add_at reference
        reference = add_at_scatter(space, np.einsum(
            "cq,cq,vq->cv", space.qp_weights, fvals, space.basis_qp))
        assert np.array_equal(bits(f_part),
                              bits(-reference))
        # G^T sums (w * flux_j) * g_j, not (flux . g) * w: each entry is
        # within rounding of the sum of its terms' magnitudes
        for got, scale, flux, cell_w in [(p_part, 1.0, p_flux, p_w),
                                         (q_part, q_scale, q_flux, q_w)]:
            reference = scale * add_at_scatter(space, np.einsum(
                "cd,cvd->cv", flux, space.grads) * cell_w[:, None])
            size = abs(scale) * add_at_scatter(space, np.einsum(
                "cd,cvd->cv", np.abs(flux), np.abs(space.grads))
                * np.abs(cell_w)[:, None])
            assert np.all(np.abs(got - reference)
                          <= 16 * np.finfo(float).eps * size)


def signed_spread(rng, shape):
    """`spread` with about a tenth of the entries +0.0 and a tenth -0.0."""
    out = spread(rng, shape)
    pick = rng.random(shape)
    out[pick < 0.1] = 0.0
    out[pick > 0.9] = -0.0
    return out


def bits(a):
    """The float64 bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def kernel_spaces(dim):
    """The Jacobian-check space and two refinements of it (225 dofs in 2D)."""
    spaces = [jacobian_setup(dim)[1].space]
    for _ in range(2):
        spaces.append(FeSpace(refine(spaces[-1].mesh)))
    return spaces


@pytest.mark.parametrize("dim", [1, 2])
def test_assemble_matrix_matches_add_at_bit_for_bit(dim):
    rng = np.random.default_rng(13)
    for space in kernel_spaces(dim):
        shape = space.cell_dofs.shape + space.cell_dofs.shape[1:]
        cases = [spread(rng, shape) for _ in range(3)]
        cases += [signed_spread(rng, shape), np.full(shape, -0.0)]
        idx = space.cell_dofs
        rows = np.broadcast_to(idx[:, :, None], shape)
        cols = np.broadcast_to(idx[:, None, :], shape)
        keep = (rows >= 0) & (cols >= 0)
        # the pattern is scipy's own COO-to-CSR conversion
        pattern = sp.csr_matrix(
            (np.ones(int(keep.sum())), (rows[keep], cols[keep])),
            shape=(space.dim, space.dim))
        for blocks in cases:
            # the reference: each entry sums its blocks from +0.0 in cell
            # order, so an all -0.0 sum reads +0.0
            dense = np.zeros((space.dim, space.dim))
            np.add.at(dense, (rows[keep], cols[keep]), blocks[keep])
            got = assemble_matrix(space, blocks)
            assert np.array_equal(got.indices, pattern.indices)
            assert np.array_equal(got.indptr, pattern.indptr)
            reference = dense[np.repeat(np.arange(space.dim),
                                        np.diff(got.indptr)), got.indices]
            assert np.array_equal(bits(got.data), bits(reference))
        assert not np.signbit(
            assemble_matrix(space, np.full(shape, -0.0)).data).any()


def test_assembly_plan_is_built_once_and_read_only():
    space = jacobian_setup(2)[1].space
    plan = space.plan
    assert space.plan is plan
    assert not any(arr.flags.writeable for arr in plan)
    assert all(np.issubdtype(arr.dtype, np.integer) for arr in plan)
    # one entry per block position: a CSR entry where both of its vertices
    # are dofs, and nnz, which no entry has, where either is on the boundary
    idx, nnz = space.cell_dofs, plan.indices.size
    kept = ((idx >= 0)[:, :, None] & (idx >= 0)[:, None, :]).ravel()
    assert plan.entry.shape == (idx.size * 3,)
    assert np.all(plan.entry[kept] < nnz) and np.all(plan.entry[~kept] == nnz)
    assert np.array_equal(np.unique(plan.entry[kept]), np.arange(nnz))
    J = assemble_matrix(space, np.ones(space.cell_dofs.shape + (3,)))
    with pytest.raises(ValueError):
        J.indices[0] = 0


@pytest.mark.parametrize("dim", [1, 2])
def test_exponent_two_flux_matches_the_general_formula(dim):
    grad = signed_spread(np.random.default_rng(15), (400, dim))
    grad[:40] = 0.0
    grad[40:60] = -0.0
    # the e >= 2 branch, written out at e = 2
    amp = np.linalg.norm(grad, axis=-1)
    flux = (amp ** 0.0)[..., None] * grad
    assert np.array_equal(bits(operators.power_flux(grad, 2.0)),
                          bits(flux))


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_values_match_the_full_vertex_gather(dim):
    rng = np.random.default_rng(16)
    for space in kernel_spaces(dim):
        u = FeFunction(space, signed_spread(rng, space.dim))
        E = space.incidence_operator
        assert space.incidence_operator is E
        assert E.shape == (space.cells.size, space.dim)
        assert E.nnz == int(np.sum(space.cell_dofs >= 0))
        # a product sums from +0.0, so a -0.0 coefficient reads +0.0
        assert np.array_equal(bits(E @ u.coeffs),
                              bits(u.full_values()[space.cells].ravel()
                                   + 0.0))
        block = np.array([u.coeffs, -u.coeffs])
        assert np.array_equal(
            bits(fespace.values_at_qp(FeFunction(space, block))[1]),
            bits(fespace.values_at_qp(FeFunction(space, -u.coeffs))))


def test_self_pairing_equals_pairing_with_a_copy():
    op, u = jacobian_setup(2)
    assert op.pairing(u, u) == op.pairing(u, u.copy())


def with_convection(op, fn, ds=None, dxi=None):
    """op with the family's evaluators replaced; the partials are kept
    unless given."""
    family = op.problem.convection
    family = dataclasses.replace(family, fn=fn, ds=ds or family.ds,
                                 dxi=dxi or family.dxi)
    return dataclasses.replace(
        op, problem=dataclasses.replace(op.problem, convection=family))


@pytest.mark.parametrize("family", ["saturating", "adversarial"])
@pytest.mark.parametrize("dim", [1, 2])
def test_per_cell_convection_keeps_every_bit(dim, family):
    op, u = jacobian_setup(dim)
    if family == "adversarial":
        adversarial = adversarial_convection(2.0, 3.0)
        op = with_convection(op, adversarial.fn, adversarial.ds,
                             adversarial.dxi)

    def on_broadcast_xi(fn):
        def evaluate(x, s, xi):
            # xi copied to every quadrature point, shape (m, k, d)
            return fn(x, s, np.broadcast_to(xi, s.shape + xi.shape[-1:]))
        return evaluate

    conv = op.problem.convection
    reference = with_convection(op, *map(on_broadcast_xi, (
        conv.fn, conv.ds, conv.dxi)))
    rng = np.random.default_rng(12)
    states = [u] + [FeFunction(u.space, rng.standard_normal(u.space.dim))
                    for _ in range(3)]
    for state in states:
        assert np.array_equal(op.residual(state),
                              reference.residual(state))
        assert np.array_equal(op.jacobian(state).toarray(),
                              reference.jacobian(state).toarray())
        assert op.pairing(state, state) == reference.pairing(state, state)


@pytest.mark.parametrize("dim", [1, 2])
def test_convection_gets_one_gradient_per_cell(dim):
    op, u = jacobian_setup(dim)
    shapes = set()

    def spying(fn):
        def spy(x, s, xi):
            shapes.add((x.shape, s.shape, xi.shape))
            return fn(x, s, xi)
        return spy

    conv = op.problem.convection
    spied = with_convection(op, *map(spying, (conv.fn, conv.ds, conv.dxi)))
    spied.residual(u)
    spied.jacobian(u)
    spied.pairing(u, u)
    m, k = u.space.qp_weights.shape
    assert shapes == {((m, k, dim), (m, k), (m, 1, dim))}


def einsum_gradients(space, coeffs):
    """The reference: the full vertex gather contracted by einsum."""
    full = FeFunction(space, coeffs).full_values()
    return np.einsum("cv,cvd->cd", full[space.cells], space.grads)


def general_gradient_spaces(dim, rng):
    """The kernel spaces, and copies whose hat gradients are random: on
    these meshes each gradient component has at most two nonzero terms, so
    only general gradients show the order of a sum."""
    for space in kernel_spaces(dim):
        yield space
        skewed = FeSpace(space.mesh)
        skewed.grads = signed_spread(rng, space.grads.shape)
        yield skewed


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_operator_matches_einsum_bit_for_bit(dim):
    rng = np.random.default_rng(17)
    for space in general_gradient_spaces(dim, rng):
        G = space.gradient_operator
        m, nv, d = space.grads.shape
        interior = int(np.sum(space.cell_dofs >= 0))
        assert space.gradient_operator is G
        assert G.shape == (m * d, space.dim) and G.nnz == interior * d
        # boundary cells exist, so some rows skip a vertex
        assert interior < space.cell_dofs.size
        cases = [signed_spread(rng, space.dim) for _ in range(3)]
        cases += [np.full(space.dim, -0.0), np.zeros(space.dim)]
        for coeffs in cases:
            got = cell_gradients(FeFunction(space, coeffs))
            assert np.array_equal(bits(got), bits(einsum_gradients(space,
                                                                   coeffs)))
        block = np.array(cases)
        got = cell_gradients(FeFunction(space, block))
        assert got.shape == (len(cases), m, d)
        for row, coeffs in zip(got, cases):
            assert np.array_equal(bits(row), bits(einsum_gradients(space,
                                                                   coeffs)))


@pytest.mark.parametrize("dim", [1, 2])
def test_vector_norm_matches_numpy_bit_for_bit(dim):
    rng = np.random.default_rng(18)
    for shape in [(500, dim), (7, 60, 1, dim)]:
        a = signed_spread(rng, shape)
        a.flat[:3] = [1e200, -1e-200, np.inf]
        with np.errstate(over="ignore", under="ignore"):
            assert np.array_equal(bits(fespace.vector_norm(a)),
                                  bits(np.linalg.norm(a, axis=-1)))


@pytest.mark.parametrize("shapes", [((300,), (300,)),
                                    ((4, 300), (4, 300)),
                                    ((300,), (4, 300)),
                                    # the f-dual's (nv, 1, k) x (m, k)
                                    ((3, 1), (300,))],
                         ids=["cells", "stack", "broadcast", "qp-dual"])
@pytest.mark.parametrize("k", [1, 2, 6])
def test_axis_dot_matches_numpy_bit_for_bit(k, shapes):
    rng = np.random.default_rng(19)
    a_shape, b_shape = (shape + (k,) for shape in shapes)
    a, b = signed_spread(rng, a_shape), signed_spread(rng, b_shape)
    assert np.array_equal(bits(fespace.axis_dot(a, np.ones(k))),
                          bits(np.sum(a, axis=-1)))
    assert np.array_equal(bits(fespace.axis_dot(a, b)),
                          bits(np.sum(a * b, axis=-1)))


# row lengths below numpy's 8-way unrolled block, between it and the 128
# pairwise block, and above; the (m,) states of the flux pairings and the
# (m, k) states of the load pairing
@pytest.mark.parametrize("layout", ["C", "transposed"])
@pytest.mark.parametrize("state", [(5,), (40,), (300,), (2, 3), (20, 6),
                                   (300, 6)],
                         ids=lambda s: "x".join(map(str, s)))
def test_state_sums_match_per_state_sums_bit_for_bit(state, layout):
    # "transposed" is the layout of cell_gradients' stacks, whose leading
    # axis is the fastest; each state's reference is np.sum of its own
    # fresh C-ordered array, as one state alone is evaluated
    rng = np.random.default_rng(20)
    for rows in (0, 1, 3, 32):
        a = signed_spread(rng, (rows,) + state)
        if layout == "transposed":
            a = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)),
                            -1, 0)
        assert np.array_equal(bits(fespace.state_sums(a, len(state))),
                              bits([np.sum(row.copy()) for row in a]))


def rows_per_chunk(space):
    return fespace.row_slices(space, 10 ** 6)[0].stop


@pytest.mark.parametrize("variant", ["competing", "cooperative"])
@pytest.mark.parametrize("dim", [1, 2])
def test_block_pairing_matches_row_by_row_bit_for_bit(dim, variant):
    op = jacobian_setup(dim, variant)[0]
    rng = np.random.default_rng(20)
    for space in kernel_spaces(dim)[::2]:
        step = rows_per_chunk(space)
        for rows in sorted({1, step + 1, 32}):
            U = spread(rng, (rows, space.dim))
            V = signed_spread(rng, (rows, space.dim))
            block_u, block_v = FeFunction(space, U), FeFunction(space, V)
            self_pairs = op.pairing(block_u, block_u)
            cross_pairs = op.pairing(block_u, block_v)
            assert self_pairs.shape == cross_pairs.shape == (rows,)
            for i in range(rows):
                u, v = FeFunction(space, U[i]), FeFunction(space, V[i])
                assert bits(self_pairs[i]) == bits(op.pairing(u, u))
                assert bits(cross_pairs[i]) == bits(op.pairing(u, v))


def test_block_pairing_hands_the_family_one_leading_axis():
    op, u = jacobian_setup(2)
    fn, shapes = op.problem.convection.fn, set()

    def spy(x, s, xi):
        shapes.add((x.shape, s.shape, xi.shape))
        return fn(x, s, xi)

    block = FeFunction(u.space, np.stack([u.coeffs, -u.coeffs, u.coeffs]))
    with_convection(op, spy).pairing(block, block)
    m, k = u.space.qp_weights.shape
    assert shapes == {((m, k, 2), (3, m, k), (3, m, 1, 2))}


def test_block_pairing_needs_matching_blocks():
    op, u = jacobian_setup(1)
    block = FeFunction(u.space, np.stack([u.coeffs, u.coeffs]))
    with pytest.raises(ValueError, match="one shape"):
        op.pairing(block, u)
    empty = FeFunction(u.space, np.zeros((0, u.space.dim)))
    assert op.pairing(empty, empty).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2])
def test_block_norms_and_flux_pairings_match_row_by_row(dim):
    rng = np.random.default_rng(21)
    space = kernel_spaces(dim)[-1]
    U = spread(rng, (5, space.dim))
    G = cell_gradients(FeFunction(space, U[::-1]))
    for exponent in (1.5, 2.0, 3.0):
        norms = grad_norm_lp(FeFunction(space, U), exponent)
        pairs = power_flux_pairing(FeFunction(space, U), G, exponent)
        for i, row in enumerate(U):
            u = FeFunction(space, row)
            assert bits(norms[i]) == bits(grad_norm_lp(u, exponent))
            assert bits(pairs[i]) == bits(power_flux_pairing(u, G[i],
                                                             exponent))


def test_parts_and_pairing_match_the_two_routes():
    op, u = jacobian_setup(2)
    v = FeFunction(u.space, np.random.default_rng(22).standard_normal(
        u.space.dim))
    parts, direct = op.parts_and_pairing(u, v)
    assert direct == op.pairing(u, v)
    for got, ref in zip(parts, op.parts_and_pairing(u, u)[0]):
        assert np.array_equal(bits(got), bits(ref))
    p_part, q_part, f_part = parts
    assert np.array_equal(bits(p_part + q_part + f_part),
                          bits(op.residual(u)))


@pytest.mark.parametrize("dim", [1, 2])
def test_residual_is_a_fresh_dof_array(dim):
    op, u = jacobian_setup(dim)
    F = op.residual(u)
    assert type(F) is np.ndarray
    assert F.dtype == np.float64 and F.shape == (u.space.dim,)
    p_part, q_part, f_part = op.parts_and_pairing(u, u)[0]
    assert np.array_equal(bits(F), bits(p_part + q_part + f_part))
    # each call assembles its own array, which owns its memory
    G = op.residual(u)
    assert F.flags.owndata and not np.shares_memory(F, G)
    G[:] = np.nan
    assert np.array_equal(bits(F), bits(op.residual(u)))


GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"


@pytest.mark.parametrize("workload",
                         ["coop-1d-deep", "coop-2d", "compete-2d-load"])
def test_pairing_chunks_stay_within_the_byte_budget(workload):
    cfg = cli.load_config(GOLDEN_CONFIGS / f"{workload}.json")
    problem = cli.build_problem(cfg["problem"])
    mesh = build_mesh(problem.domain, cfg["mesh"]["base_cells"])
    for _ in range(cfg["mesh"]["levels"] - 1):
        mesh = refine(mesh)
    space = FeSpace(mesh)
    row_bytes = space.qp_weights.size * 8
    slices = fespace.row_slices(space, 40)
    rows = slices[0].stop
    assert rows >= 1
    assert rows == 1 or rows * row_bytes <= fespace.CHUNK_BYTES
    assert [i for s in slices for i in range(40)[s]] == list(range(40))
    if row_bytes > fespace.CHUNK_BYTES:
        # one state above the budget is still one chunk, and evaluates
        assert rows == 1
        op = ProblemOperator(problem, truncate_weight(problem.weight, 1.0))
        U = np.random.default_rng(23).standard_normal((2, space.dim))
        block = op.pairing(FeFunction(space, U), FeFunction(space, U))
        for i in range(2):
            u = FeFunction(space, U[i])
            assert bits(block[i]) == bits(op.pairing(u, u))


@pytest.mark.parametrize("dim", [1, 2])
def test_flux_contractions_match_einsum_bit_for_bit(dim):
    rng = np.random.default_rng(24)
    m, nv = 300, dim + 1
    for _ in range(3):
        flux = signed_spread(rng, (m, dim))
        grad_v = signed_spread(rng, (m, dim))
        G, cell_w = signed_spread(rng, (m, nv, dim)), spread(rng, m)
        assert np.array_equal(bits(fespace.axis_dot(flux[:, None, :], G)),
                              bits(np.einsum("cd,cvd->cv", flux, G)))
        assert np.array_equal(bits(fespace.axis_dot(flux, grad_v)),
                              bits(np.einsum("cd,cd->c", flux, grad_v)))
        reference = np.sum(cell_w * np.einsum("cd,cd->c", flux, grad_v))
        assert bits(operators._flux_pairing(flux, cell_w, grad_v)) \
            == bits(reference)


def saturating_reference(p, alpha, h_bound, offset):
    """The saturating family's formula with the general power term."""
    def fn(x, s, xi):
        amp = fespace.vector_norm(xi)
        power = np.sign(s) * np.abs(s) ** (alpha - 1.0)
        return power + s / (1.0 + s * s) * (amp ** (p - 1.0) + h_bound) \
            + offset
    return fn


def same_floats(a, b):
    """Equal bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(bits(a[~nan]), bits(b[~nan])))


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_saturating_power_keeps_the_general_formulas_bits(alpha):
    rng = np.random.default_rng(25)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                        -5e-324, 2.2e-308, -1e-310])
    s = np.concatenate([special, spread(rng, 391)]).reshape(100, 4)
    xi = spread(rng, (100, 1, 2))
    x = np.zeros(s.shape + (2,))
    # the one-pass form used at alpha = 2 is the general power term there
    assert np.array_equal(s + 0.0, np.sign(s) * np.abs(s) ** 1.0,
                          equal_nan=True)
    assert same_floats(s + 0.0, np.sign(s) * np.abs(s) ** 1.0)
    for offset in (0.0, 1.0):
        family = saturating_convection(3.0, alpha=alpha, h_bound=1.0,
                                       offset=offset)
        reference = saturating_reference(3.0, alpha, 1.0, offset)
        # inf / inf in the saturating factor is NaN in both
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = family.fn(x, s, xi), reference(x, s, xi)
        assert np.array_equal(got, want, equal_nan=True)
        assert same_floats(got, want)


@pytest.mark.parametrize("dim", [1, 2])
def test_jacobian_does_not_depend_on_call_history(dim):
    op, u = jacobian_setup(dim)
    zero = FeFunction.zero(u.space)
    stack = FeFunction(u.space, np.stack([u.coeffs, -u.coeffs]))

    def fresh(v):
        return bits(dataclasses.replace(op).jacobian(v).data)

    expected = fresh(u)
    assert np.array_equal(bits(op.jacobian(u).data), expected)
    for before in (lambda: op.residual(u), lambda: op.residual(zero),
                   lambda: op.pairing(stack, stack)):
        before()
        assert np.array_equal(bits(op.jacobian(u).data), expected)
    # a sign flip in place after a residual at the state: one entry, and
    # every entry of zero, whose +0.0 become -0.0
    for state, flip in ((u.copy(), 0), (zero.copy(), slice(None))):
        op.residual(state)
        state.coeffs[flip] = -state.coeffs[flip]
        assert np.array_equal(bits(op.jacobian(state).data), fresh(state))
    assert np.all(bits(state.coeffs) == bits(np.array(-0.0)))
