"""Acceptance suite: one pass/fail line per criterion.

Each criterion prints exactly one line; the assertion carries the same
verdict so a failure is visible in both the log and the pytest summary.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest
import scipy.optimize

from pqgalerkin.cli import main
from pqgalerkin.estimates import (SamplingBox, audit_hypotheses,
                                  coercivity_polynomial, estimate_lambda1,
                                  lambda1_interval, sobolev_constant)
from pqgalerkin.fespace import (FeFunction, FeSpace, cell_gradients,
                                grad_norm_lp, lr_norm, sup_norm)
from pqgalerkin.galerkin import ProblemOperator, run_hierarchy, solve_level
from pqgalerkin.mesh import Domain, build_mesh
from pqgalerkin.operators import (ConvectionFamily, HypothesisViolation,
                                  Problem, SignH3a, adversarial_convection,
                                  constant_convection, constant_weight,
                                  power_flux_pairing, quadratic_weight,
                                  saturating_convection, truncate_weight)
from pqgalerkin.verify import (check_generalized_conditions,
                               check_truncation_consistency)
from test_estimates import sine_quotient

UNIT = Domain.interval(0.0, 1.0)


def _criterion(capsys, num, label, ok, detail=""):
    state = "pass" if ok else "FAIL"
    # pytest captures output; the verdict line is printed past the capture
    with capsys.disabled():
        print(f"criterion {num} [{state}] {label}")
    assert ok, f"criterion {num}: {label} {detail}"


def reference_problem(offset, variant="competing"):
    """Built-in example data: alpha=2, h bound 1, g(t) = 1 + t^2, p=3, q=2."""
    conv = saturating_convection(3.0, alpha=2.0, h_bound=1.0, offset=offset)
    return Problem(p=3.0, q=2.0, domain=UNIT, weight=quadratic_weight(1.0),
                   convection=conv, variant=variant, regime="H3")


_CACHE = {}


def reference_reports():
    if "runs" not in _CACHE:
        t0 = time.perf_counter()
        zero = run_hierarchy(reference_problem(0.0), 4, 6)
        loaded = run_hierarchy(reference_problem(1.0), 4, 6)
        _CACHE["runs"] = (zero, loaded, time.perf_counter() - t0)
    return _CACHE["runs"]


def test_criterion_1_apriori_bounds(capsys):
    zero, loaded, elapsed = reference_reports()
    ok = elapsed < 10.0
    for report in (zero, loaded):
        ok = ok and report.failed_level is None
        ok = ok and len(report.levels) == 6
        ok = ok and all(report.within_grad_bound)
        ok = ok and all(report.within_sup_bound)
        ok = ok and all(lv.grad_norm <= report.estimate.grad_radius
                        and lv.sup_norm <= report.estimate.sup_radius
                        for lv in report.levels)
    _criterion(capsys, 1, "a priori gradient and sup bounds hold on 6 levels "
               f"({elapsed:.2f}s)", ok)


def test_criterion_2_analytic_and_multistart_oracles(capsys):
    problem = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing", regime="H3")
    weight = truncate_weight(problem.weight, 1.0)

    space1 = FeSpace(build_mesh(UNIT, 2))
    lv1 = solve_level(ProblemOperator(problem, weight), space1)
    golden = (1.0 + math.sqrt(2.0)) / 4.0
    err1 = abs(lv1.solution.coeffs[0] - golden)

    space3 = FeSpace(build_mesh(UNIT, 4))
    op3 = ProblemOperator(problem, weight)
    lv3 = solve_level(op3, space3)

    def residual(x):
        return op3.residual(FeFunction(space3, x))

    roots = []
    for start in itertools.product(np.linspace(-1.0, 1.5, 6), repeat=3):
        sol = scipy.optimize.root(residual, np.array(start), method="hybr",
                                  tol=1e-12)
        if sol.success and np.max(np.abs(residual(sol.x))) < 1e-9:
            if not any(np.max(np.abs(sol.x - r)) < 1e-7 for r in roots):
                roots.append(sol.x)
    err3 = min(np.max(np.abs(r - lv3.solution.coeffs)) for r in roots)

    ok = err1 <= 1e-10 and err3 <= 1e-6
    _criterion(capsys, 2,
               "single-dof root (1+sqrt 2)/4 to 1e-10; 3-dof matches "
               f"multistart over {len(roots)} roots to 1e-6", ok,
               f"err1={err1:.2e} err3={err3:.2e}")


def test_criterion_3_truncation_coincidence(capsys):
    zero, loaded, _ = reference_reports()
    ok = True
    for report in (zero, loaded):
        op = report.operator
        for lv in report.levels:
            cert = check_truncation_consistency(
                dataclasses.replace(op, weight=op.problem.weight),
                lv.solution, report.estimate.sup_radius,
                report.solver_tolerance)
            ok = ok and cert.passed
    _criterion(capsys, 3, "untruncated-operator residuals certify at solver "
               "tolerance on every criterion-1 level", ok)


def test_criterion_4_generalized_conditions(capsys):
    _, loaded, _ = reference_reports()
    finest = loaded.levels[-1]
    scale = max(1.0, finest.grad_norm)
    b_final = max(abs(x) for x in finest.cond_b)
    c_final = abs(finest.cond_c)
    certs = {c.name: c for c in check_generalized_conditions(loaded)}
    ok = (b_final <= 1e-6 * scale and c_final <= 1e-6 * scale
          and certs["condition-b"].passed
          and certs["condition-c"].passed
          and certs["self-pairing-bookkeeping"].passed)
    _criterion(capsys, 4, "condition-(b) finals, condition-(c) proxy, and "
               "self-pairing bookkeeping hold", ok,
               f"b_final={b_final:.2e} c_final={c_final:.2e}")


def test_criterion_5_cooperative_contraction(capsys):
    t0 = time.perf_counter()
    report = run_hierarchy(reference_problem(1.0, "cooperative"), 4, 10)
    elapsed = time.perf_counter() - t0
    gaps = [lv.gap for lv in report.levels]
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 2))
    rel = gaps[-2] / report.levels[-1].grad_norm
    ok = (report.failed_level is None and len(report.levels) >= 5
          and decreasing and rel < 1e-3 and elapsed < 30.0)
    _criterion(capsys, 5,
               "cooperative gaps decrease over 10 levels and end at "
               f"{rel:.2e} relative ({elapsed:.2f}s)", ok)


def test_criterion_6_monotonicity_suite(capsys):
    space = FeSpace(build_mesh(UNIT, 16))
    rng = np.random.default_rng(0)
    violations = {}
    for exponent in (2.5, 3.0, 4.0, 2.0):
        count = 0
        for _ in range(1000):
            u = FeFunction(space, rng.standard_normal(space.dim))
            v = FeFunction(space, rng.standard_normal(space.dim))
            diff = u - v
            lhs = (power_flux_pairing(u, cell_gradients(diff), exponent)
                   - power_flux_pairing(v, cell_gradients(diff), exponent))
            rhs = 2.0 ** (-exponent) * grad_norm_lp(diff, exponent) ** exponent
            if lhs < rhs - 1e-12 * (1.0 + abs(lhs) + rhs):
                count += 1
        violations[exponent] = count
    ok = all(v == 0 for v in violations.values())
    _criterion(capsys, 6,
               "2^-p monotonicity inequality holds for 1000 pairs at "
               "each exponent in {2, 2.5, 3, 4}", ok, str(violations))


def test_criterion_7_eigenvalue_and_embedding(capsys):
    square = Domain.rectangle(0.0, 1.0, 0.0, 1.0)
    exact_err = max(
        abs(estimate_lambda1(UNIT, 2.0).value - math.pi ** 2) / math.pi ** 2,
        abs(estimate_lambda1(square, 2.0).value - 2.0 * math.pi ** 2)
        / (2.0 * math.pi ** 2))
    below = all(estimate_lambda1(domain, 3.0).value
                <= sine_quotient(FeSpace(build_mesh(domain, cells)), 3.0)
                for domain, cells in ((UNIT, 64), (square, 32)))

    p = 3.0
    lam = lambda1_interval(1.0, p)
    cs = sobolev_constant(UNIT, p).value
    space = FeSpace(build_mesh(UNIT, 32))
    rng = np.random.default_rng(1)
    poincare_viol = sobolev_viol = 0
    for _ in range(1000):
        u = FeFunction(space, rng.standard_normal(space.dim))
        grad = grad_norm_lp(u, p)
        if lam * lr_norm(u, p) ** p > grad ** p * (1.0 + 1e-12):
            poincare_viol += 1
        if sup_norm(u) > cs * grad * (1.0 + 1e-12):
            sobolev_viol += 1
    ok = (exact_err <= 1e-14 and below
          and poincare_viol == 0 and sobolev_viol == 0)
    _criterion(capsys, 7, "lambda1 is pi^2 on the unit interval and 2 pi^2 "
               f"on the unit square at p=2 (error {exact_err:.1e}), below the "
               "sine interpolant's quotient at p=3 (h=1/64, h=1/32); "
               "Poincare and sup-embedding audits clean over 1000 samples",
               ok)


def test_criterion_8_hypothesis_audits(capsys):
    box = SamplingBox(s_bound=10.0, samples=10000)

    good = reference_problem(0.0)
    good_audit = audit_hypotheses(good, box)
    good_ok = good_audit.passed["H2"] and good_audit.passed["H3"]

    bad = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(2.0),
                  convection=adversarial_convection(2.0, 3.0),
                  variant="competing", regime="H3")
    bad_audit = audit_hypotheses(bad, box)
    bad_ok = not bad_audit.passed["H3"]

    # exact smallness gate: with lambda1 = 2 and p = 3 the factor 2^{-3/3}
    # is exactly 0.5, so c1 = 2 (a0 - c0) sits exactly on the boundary
    sat = saturating_convection(3.0, alpha=3.0)
    boundary = ConvectionFamily(name="gate", fn=sat.fn, ds=sat.ds, dxi=sat.dxi,
                                h2=sat.h2, h3=None,
                                h3a=SignH3a(c0=0.5, c1=2.0), h4=sat.h4)
    gated = Problem(p=3.0, q=2.0, domain=UNIT, weight=constant_weight(1.5),
                    convection=boundary, variant="competing", regime="H3a")
    try:
        coercivity_polynomial(gated, 2.0)
    except HypothesisViolation as err:
        gate_rejects = "(H3a)" in str(err)
    else:
        gate_rejects = False
    below = ConvectionFamily(name="gate", fn=sat.fn, ds=sat.ds, dxi=sat.dxi,
                             h2=sat.h2, h3=None,
                             h3a=SignH3a(c0=0.5, c1=2.0 * (1.0 - 1e-9)),
                             h4=sat.h4)
    ok_problem = Problem(p=3.0, q=2.0, domain=UNIT,
                         weight=constant_weight(1.5), convection=below,
                         variant="competing", regime="H3a")
    psi = coercivity_polynomial(ok_problem, 2.0)
    gate_admits = math.isfinite(psi(1.0))

    ok = good_ok and bad_ok and gate_rejects and gate_admits
    _criterion(capsys, 8,
               "built-in family passes (H2)+(H3), adversarial family "
               "fails (H3), smallness gate rejects the exact boundary", ok,
               f"margins good={good_audit.margins} bad={bad_audit.margins}")


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    cfg = {
        "problem": {
            "p": 3.0,
            "q": 2.0,
            "domain": {"kind": "interval", "bounds": [0.0, 1.0]},
            "weight": {"kind": "quadratic", "base": 1.0},
            "convection": {"kind": "saturating", "offset": 1.0},
        },
        "mesh": {"base_cells": 4, "levels": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["verify", "--config", str(path), "--out", str(out_a),
                 "--seed", "3"])
    rc_b = main(["verify", "--config", str(path), "--out", str(out_b),
                 "--seed", "3"])
    same = (out_a / "report.json").read_bytes() \
        == (out_b / "report.json").read_bytes()
    csv_same = all((out_a / f"solution_L{n}.csv").read_bytes()
                   == (out_b / f"solution_L{n}.csv").read_bytes()
                   for n in range(3))
    ok = rc_a == 0 and rc_b == 0 and same and csv_same
    _criterion(capsys, 9,
               "identical config and seed give byte-identical reports "
               "and solution files", ok)
