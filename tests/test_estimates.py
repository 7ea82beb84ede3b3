import math

import numpy as np
import pytest

from pqgalerkin.estimates import (SamplingBox, apriori_radius,
                                  audit_hypotheses, coercivity_polynomial,
                                  compute_estimates, estimate_lambda1,
                                  lambda1_interval, poincare_factor,
                                  rhs_estimate_constant, sobolev_constant)
from pqgalerkin.fespace import (FeFunction, FeSpace, grad_norm_lp, jsonable,
                                lr_norm, sup_norm)
from pqgalerkin.mesh import Domain, build_mesh, refine
from pqgalerkin.operators import (HypothesisViolation, Problem,
                                  ProblemOperator, adversarial_convection,
                                  constant_weight, quadratic_weight,
                                  saturating_convection, zero_convection)

UNIT = Domain.interval(0.0, 1.0)


def make_problem(weight=None, conv=None, domain=UNIT, p=3.0, q=2.0,
                 variant="competing", regime="H3"):
    return Problem(p=p, q=q, domain=domain,
                   weight=weight or constant_weight(1.0),
                   convection=conv or zero_convection(),
                   variant=variant, regime=regime)


def test_lambda1_closed_forms():
    assert math.isclose(lambda1_interval(1.0, 2.0), math.pi ** 2,
                        rel_tol=1e-14)
    assert math.isclose(lambda1_interval(2.0, 2.0), math.pi ** 2 / 4.0,
                        rel_tol=1e-14)


def test_lambda1_length_scaling():
    p = 2.7
    base = lambda1_interval(1.0, p)
    for length in (0.5, 2.0, 5.0):
        assert math.isclose(lambda1_interval(length, p),
                            base / length ** p, rel_tol=1e-12)


def sine_quotient(space, p):
    """||grad u||_p^p / ||u||_p^p for u the interpolant of the product over
    the axes of sin(pi (x - lo) / L)."""
    pts = space.mesh.vertices[space.dofs]
    vals = np.ones(space.dim)
    for axis, (lo, hi) in enumerate(space.mesh.domain.bounds):
        vals *= np.sin(math.pi * (pts[:, axis] - lo) / (hi - lo))
    u = FeFunction(space, vals)
    return (grad_norm_lp(u, p) / lr_norm(u, p)) ** p


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 6.0])
@pytest.mark.parametrize("domain,cells", [
    (UNIT, 64),
    (Domain.rectangle(0.0, 1.0, 0.0, 1.0), 32),
    (Domain.rectangle(0.0, 4.0, 0.0, 1.0), (32, 8)),
], ids=["interval", "unit-square", "four-by-one"])
def test_lambda1_below_sine_interpolant_quotient(domain, cells, p):
    # a conforming function's quotient is at least the eigenvalue, which is
    # at least the bound; at p = 2 the bound is the eigenvalue itself
    lam = estimate_lambda1(domain, p).value
    quotient = sine_quotient(FeSpace(build_mesh(domain, cells)), p)
    assert lam <= quotient
    if p == 2.0:
        assert quotient <= lam * 1.02


def test_estimate_lambda1_provenance():
    est = estimate_lambda1(UNIT, 3.0)
    assert est.provenance == "analytic-1d"
    assert est.value == lambda1_interval(1.0, 3.0)
    est2 = estimate_lambda1(Domain.rectangle(0, 1, 0, 1), 3.0)
    assert est2.provenance == "lower-bound-2d"
    with pytest.raises(ValueError, match="p >= 2"):
        estimate_lambda1(Domain.rectangle(0, 1, 0, 1), 1.9)


def test_lambda1_2d_is_exact_at_p_2():
    unit = estimate_lambda1(Domain.rectangle(0, 1, 0, 1), 2.0).value
    assert math.isclose(unit, 2.0 * math.pi ** 2, rel_tol=1e-14)
    long = estimate_lambda1(Domain.rectangle(0, 4, 0, 1), 2.0).value
    assert math.isclose(long, math.pi ** 2 * (1.0 / 16.0 + 1.0),
                        rel_tol=1e-14)


def test_lambda1_unit_square_p3():
    est = estimate_lambda1(Domain.rectangle(0, 1, 0, 1), 3.0)
    assert math.isclose(est.value, 56.5775239520051, rel_tol=1e-14)


@pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
def test_lambda1_scales_as_t_to_minus_p(p):
    for bounds in ((0, 1), (0, 1, 0, 1), (-1, 2, 0, 0.5)):
        make = Domain.interval if len(bounds) == 2 else Domain.rectangle
        base = estimate_lambda1(make(*bounds), p).value
        for t in (0.25, 3.0):
            scaled = estimate_lambda1(make(*(t * b for b in bounds)), p)
            assert math.isclose(scaled.value, t ** -p * base, rel_tol=1e-13)


def test_sobolev_constant_interval():
    assert math.isclose(sobolev_constant(Domain.interval(0, 2), 2.0).value,
                        1.0, rel_tol=1e-14)
    assert math.isclose(sobolev_constant(UNIT, 2.0).value, math.sqrt(0.5),
                        rel_tol=1e-14)


def test_sobolev_constant_guards():
    with pytest.raises(ValueError):
        sobolev_constant(UNIT, 1.0)
    with pytest.raises(ValueError):
        sobolev_constant(Domain.rectangle(0, 1, 0, 1), 2.0)


@pytest.mark.parametrize("length,p", [(1.0, 3.0), (3.0, 1.5), (0.5, 6.0)])
def test_tent_attains_the_sharp_1d_constant(length, p):
    # min(x, L - x) is a P1 function on a mesh with a vertex at L/2; its
    # ratio sup / ||u'||_p is the sharp L^{(p-1)/p} / 2, below the returned
    # bound (L/2)^{(p-1)/p} by the factor 2^{-1/p}
    domain = Domain.interval(0.0, length)
    space = FeSpace(build_mesh(domain, 8))
    x = space.mesh.vertices[space.dofs, 0]
    tent = FeFunction(space, np.minimum(x, length - x))
    ratio = sup_norm(tent) / grad_norm_lp(tent, p)
    sharp = length ** ((p - 1.0) / p) / 2.0
    assert math.isclose(ratio, sharp, rel_tol=1e-13)
    bound = sobolev_constant(domain, p).value
    assert ratio < bound
    assert math.isclose(bound / sharp, 2.0 ** (1.0 / p), rel_tol=1e-13)


def test_sobolev_constant_unit_square():
    est = sobolev_constant(Domain.rectangle(0, 1, 0, 1), 3.0)
    assert est.provenance == "analytic-2d"
    assert math.isclose(est.value, 0.7108343324432403, rel_tol=1e-14)


@pytest.mark.parametrize("p", [2.5, 3.0, 6.0])
def test_sobolev_constant_scales_with_area(p):
    unit = sobolev_constant(Domain.rectangle(0, 1, 0, 1), p).value
    for bounds, area in [((0, 4, 0, 1), 4.0), ((-1, 2, 0, 0.5), 1.5),
                         ((0, 0.2, 0, 0.1), 0.02)]:
        value = sobolev_constant(Domain.rectangle(*bounds), p).value
        assert math.isclose(value, unit * area ** (0.5 - 1.0 / p),
                            rel_tol=1e-13)


@pytest.mark.parametrize("p", [2.5, 3.0, 6.0])
@pytest.mark.parametrize("bounds,cells", [
    ((0.0, 1.0, 0.0, 1.0), (4, 4)),
    ((0.0, 4.0, 0.0, 1.0), (8, 2)),
], ids=["unit-square", "four-by-one"])
def test_sobolev_constant_2d_audit(bounds, cells, p):
    # sup_norm <= C grad_norm_lp over 1000 random fields, twice refined
    domain = Domain.rectangle(*bounds)
    space = FeSpace(refine(refine(build_mesh(domain, cells))))
    cs = sobolev_constant(domain, p).value
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(1000):
        u = FeFunction(space, rng.standard_normal(space.dim))
        if sup_norm(u) > cs * grad_norm_lp(u, p) * (1.0 + 1e-12):
            violations += 1
    assert violations == 0


@pytest.mark.parametrize("p", [2.5, 3.0, 6.0])
@pytest.mark.parametrize("bounds,cells", [
    ((0.0, 1.0, 0.0, 1.0), (4, 4)),
    ((0.0, 4.0, 0.0, 1.0), (8, 2)),
], ids=["unit-square", "four-by-one"])
def test_lambda1_2d_poincare_audit(bounds, cells, p):
    # lambda1 ||u||_p^p <= ||grad u||_p^p over 1000 random fields and the
    # sine product, twice refined
    domain = Domain.rectangle(*bounds)
    space = FeSpace(refine(refine(build_mesh(domain, cells))))
    lam = estimate_lambda1(domain, p).value
    rng = np.random.default_rng(0)
    fields = [FeFunction(space, rng.standard_normal(space.dim))
              for _ in range(1000)]
    violations = sum(lam * lr_norm(u, p) ** p
                     > grad_norm_lp(u, p) ** p * (1.0 + 1e-12)
                     for u in fields)
    assert violations == 0
    assert lam <= sine_quotient(space, p)


def test_poincare_audit_zero_violations():
    p = 3.0
    lam = lambda1_interval(1.0, p)
    space = FeSpace(build_mesh(UNIT, 16))
    rng = np.random.default_rng(0)
    factor = lam ** (-1.0 / p)
    for _ in range(1000):
        u = FeFunction(space, rng.standard_normal(space.dim))
        assert lr_norm(u, p) <= factor * grad_norm_lp(u, p) * (1.0 + 1e-10)


def test_apriori_radius_unit_case():
    problem = make_problem()
    lam = lambda1_interval(1.0, 3.0)
    r1, r = apriori_radius(problem, lam, sobolev_constant(UNIT, 3.0).value)
    assert math.isclose(r1, 1.0, rel_tol=1e-11)
    assert math.isclose(r, sobolev_constant(UNIT, 3.0).value, rel_tol=1e-11)


def test_apriori_radius_closed_form_case():
    # a0=2, c0=1, c1=0, |domain|=4 -> psi = t^3 - 4^{1/3} t^2, root 4^{1/3}
    domain = Domain.interval(0.0, 4.0)
    fam = adversarial_convection(2.0, 3.0)  # c0 = 1, but force c1 = 0
    fam = type(fam)(name="halfsign", fn=fam.fn, ds=fam.ds, dxi=fam.dxi,
                    h2=fam.h2,
                    h3=type(fam.h3)(c0=1.0, c1=0.0, alpha=1.0))
    problem = make_problem(weight=constant_weight(2.0), conv=fam,
                           domain=domain)
    r1, _ = apriori_radius(problem, lambda1_interval(4.0, 3.0),
                           sobolev_constant(domain, 3.0).value)
    assert math.isclose(r1, 4.0 ** (1.0 / 3.0), rel_tol=1e-11)


def test_apriori_radius_dense_scan_oracle():
    problem = make_problem(conv=saturating_convection(3.0, alpha=2.0),
                           weight=quadratic_weight(2.0))
    lam = lambda1_interval(1.0, 3.0)
    cs = sobolev_constant(UNIT, 3.0).value
    r1, _ = apriori_radius(problem, lam, cs)
    psi = coercivity_polynomial(problem, lam)
    # independent dense sign scan
    ts = np.arange(1e-4, 4 * r1, 1e-4)
    vals = np.array([psi(t) for t in ts])
    sign_changes = np.flatnonzero(np.diff(np.sign(vals)) > 0)
    assert len(sign_changes) == 1
    scan_root = ts[sign_changes[0]]
    assert abs(scan_root - r1) <= 2e-4
    # bracketing certificate
    delta = 1e-6 * r1
    assert psi(r1 - delta) < 0.0 < psi(r1 + delta)


def test_h3a_gate_boundary():
    lam = 0.5  # forced small so the unscaled-convention gate can trip
    fam = saturating_convection(3.0, alpha=3.0)
    problem = make_problem(conv=fam, regime="H3a")
    c1 = fam.h3a.c1
    lead = problem.weight.lower_bound - fam.h3a.c0
    # gate under the "paper" convention reads c1 / lam^p vs lead
    assert c1 / lam ** 3.0 >= lead
    with pytest.raises(HypothesisViolation, match=r"\(H3a\)"):
        coercivity_polynomial(problem, lam, convention="paper")
    lam_ok = (c1 / (lead * 0.5)) ** (1.0 / 3.0)
    psi = coercivity_polynomial(problem, lam_ok, convention="paper")
    assert psi(1e9) > 0.0


def test_poincare_factor_conventions():
    lam = 4.0
    assert poincare_factor(lam, 2.0, 4.0, "standard") == lam ** -0.5
    assert poincare_factor(lam, 2.0, 4.0, "paper") == lam ** -2.0
    with pytest.raises(ValueError):
        poincare_factor(lam, 2.0, 4.0, "wrong")


def test_rhs_constant_example():
    domain = Domain.interval(0.0, 2.0)
    fam = saturating_convection(2.0, alpha=2.0, h_bound=0.0)
    # declared H2: b = 1, r1 = 1, c = 0.5; drop c to mirror the worked case
    fam = type(fam)(name="trimmed", fn=fam.fn, ds=fam.ds, dxi=fam.dxi,
                    h2=type(fam.h2)(sigma=0.0, b=1.0, c=0.0, r1=1.0, r2=1.0),
                    h3=fam.h3, h3a=fam.h3a, h4=fam.h4)
    problem = make_problem(conv=fam, domain=domain, p=2.0, q=1.5,
                           regime="H3a")
    lam = lambda1_interval(2.0, 2.0)
    cs = sobolev_constant(domain, 2.0).value
    assert cs == 1.0
    C = rhs_estimate_constant(problem, lam, cs)
    assert math.isclose(C, 1.0, rel_tol=1e-14)


def test_rhs_estimate_audit():
    p = 3.0
    fam = saturating_convection(p, alpha=2.0, h_bound=1.0)
    problem = make_problem(conv=fam)
    space = FeSpace(build_mesh(UNIT, 8))
    lam = lambda1_interval(1.0, p)
    cs = sobolev_constant(UNIT, p).value
    C = rhs_estimate_constant(problem, lam, cs)
    h2 = fam.h2
    sigma_norm = h2.sigma * UNIT.measure ** (1.0 / h2.r1)
    rng = np.random.default_rng(1)
    op = ProblemOperator(problem, problem.weight)
    for _ in range(500):
        u = FeFunction(space, rng.standard_normal(space.dim))
        v = FeFunction(space, rng.standard_normal(space.dim))
        lhs = abs(float(op.parts_and_pairing(u, u)[0][2] @ v.coeffs))
        rhs = C * (sigma_norm + lr_norm(u, h2.r2) ** h2.r2
                   + grad_norm_lp(u, p) ** (p - 1.0)) * grad_norm_lp(v, p)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_nemytskij_surrogate_bound():
    p = 3.0
    fam = saturating_convection(p, alpha=2.0, h_bound=1.0)
    problem = make_problem(conv=fam)
    space = FeSpace(build_mesh(UNIT, 8))
    lam = lambda1_interval(1.0, p)
    cs = sobolev_constant(UNIT, p).value
    C = rhs_estimate_constant(problem, lam, cs)
    h2 = fam.h2
    sigma_norm = h2.sigma * UNIT.measure ** (1.0 / h2.r1)
    op = ProblemOperator(problem, problem.weight)
    rng = np.random.default_rng(2)
    basis = [FeFunction(space, row) for row in np.eye(space.dim)]
    phi_norms = np.array([grad_norm_lp(phi, p) for phi in basis])
    for _ in range(100):
        u = FeFunction(space, rng.standard_normal(space.dim))
        dual = op.parts_and_pairing(u, u)[0][2]
        surrogate = float(np.max(np.abs(dual) / phi_norms))
        bound = C * (sigma_norm + lr_norm(u, h2.r2) ** h2.r2
                     + grad_norm_lp(u, p) ** (p - 1.0))
        assert surrogate <= bound * (1.0 + 1e-12)


def test_audit_saturating_family_passes():
    fam = saturating_convection(3.0, alpha=2.0, h_bound=1.0)
    problem = make_problem(conv=fam, weight=quadratic_weight(1.0, 1.0))
    audit = audit_hypotheses(problem, SamplingBox(s_bound=5.0, samples=1000),
                             seed=0)
    assert audit.all_passed()
    assert audit.margins["H2"] >= 0.0
    assert audit.margins["H3"] >= 0.0


def test_audit_adversarial_family_fails_h3():
    fam = adversarial_convection(1.0, 3.0)
    problem = make_problem(conv=fam)
    audit = audit_hypotheses(problem, SamplingBox(s_bound=5.0, samples=1000),
                             seed=0)
    assert not audit.all_passed()
    assert audit.margins["H3"] < 0.0


def test_audit_zero_family_trivial():
    problem = make_problem()
    audit = audit_hypotheses(problem, SamplingBox(s_bound=2.0, samples=500),
                             seed=0)
    assert audit.all_passed()


def test_compute_estimates_1d():
    problem = make_problem(conv=saturating_convection(3.0, alpha=2.0),
                           weight=quadratic_weight(2.0))
    rep = compute_estimates(problem)
    assert rep.lambda1_provenance == "analytic-1d"
    assert rep.lambda1 == lambda1_interval(1.0, 3.0)
    assert rep.grad_radius > 0.0
    assert math.isclose(rep.sup_radius, rep.grad_radius * rep.sobolev,
                        rel_tol=1e-13)
    d = jsonable(rep)
    assert d["regime"] == "H3"
    assert d["convention"] == "standard"


def test_compute_estimates_2d_lower_bound():
    domain = Domain.rectangle(0.0, 1.0, 0.0, 1.0)
    problem = make_problem(conv=saturating_convection(3.0, alpha=2.0),
                           weight=quadratic_weight(2.0), domain=domain)
    rep = compute_estimates(problem)
    assert rep.lambda1_provenance == "lower-bound-2d"
    assert rep.lambda1 == estimate_lambda1(domain, 3.0).value
