"""A priori estimates: first eigenvalue, embedding constants, radii, audits.

The gradient-norm radius is the positive root of

    psi(t) = (a0 - c0) t^p - |O|^{(p-q)/p} t^q
             - c1 |O|^{(p-alpha)/p} pf(alpha) t^alpha - c1 |O|

where pf folds the Poincare inequality into the |s|^alpha term.  Two
conventions are supported: "standard" uses the exact consequence
||u||_p <= lambda1^{-1/p} ||grad u||_p of the eigenvalue definition,
"paper" keeps the unscaled factors 1/lambda1^alpha (a valid bound only
when lambda1 <= 1, kept selectable for comparisons).
In the |s|^p regime the alpha-term merges into the leading coefficient,
which must stay positive: c1 pf(p) < a0 - c0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .fespace import (FeFunction, FeSpace, grad_norm_lp, lr_norm, sup_norm,
                      values_at_qp)
from .mesh import Domain
from .operators import (HypothesisViolation, Problem, power_laplacian_residual,
                        qp_dual)

__all__ = [
    "lambda1_interval",
    "rayleigh_minimum",
    "estimate_lambda1",
    "sobolev_constant",
    "poincare_factor",
    "coercivity_polynomial",
    "apriori_radius",
    "rhs_estimate_constant",
    "SamplingBox",
    "HypothesisAudit",
    "audit_hypotheses",
    "EstimateReport",
    "compute_estimates",
    "Lambda1Estimate",
    "SobolevEstimate",
]

CONVENTIONS = ("standard", "paper")


# ---------------------------------------------------------------------------
# first eigenvalue of the Dirichlet p-Laplacian
# ---------------------------------------------------------------------------

def lambda1_interval(length: float, p: float) -> float:
    """Exact first eigenvalue on an interval of the given length:
    lambda1 = (p-1) (pi_p / L)^p with pi_p = 2 pi / (p sin(pi/p)).

    The pairing of prefactor and pi_p matters: the convention that folds
    (p-1)^{1/p} into pi_p drops the outer p-1.  Mixing them overstates the
    infimum by a factor of p-1, which the discrete Rayleigh quotient refutes
    for p != 2 (conforming minimizers land below the mixed value).
    """
    if length <= 0.0 or p <= 1.0:
        raise ValueError("need positive length and p > 1")
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


@dataclass(frozen=True)
class Lambda1Estimate:
    value: float
    provenance: str
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class SobolevEstimate:
    value: float
    provenance: str


def _p_mass_dual(u: FeFunction, p: float) -> np.ndarray:
    """Entries int |u|^{p-2} u phi_i by the cell rule."""
    vals = values_at_qp(u)
    return qp_dual(u.space, np.sign(vals) * np.abs(vals) ** (p - 1.0),
                   "p-mass term")


def _bump_start(space: FeSpace) -> np.ndarray:
    """Product-of-sines interpolant: a positive bump to seed the descent."""
    pts = space.mesh.vertices[space.dofs]
    vals = np.ones(space.dim)
    for axis, (lo, hi) in enumerate(space.mesh.domain.bounds):
        vals *= np.sin(math.pi * (pts[:, axis] - lo) / (hi - lo))
    return vals


def rayleigh_minimum(space: FeSpace, p: float, tol: float = 1e-8,
                     max_iterations: int = 20000) -> Lambda1Estimate:
    """Minimize ||grad u||_p^p / ||u||_p^p by normalized projected descent.

    The iterate is kept on ||u||_p = 1; a backtracking step on the quotient
    guarantees monotone decrease.  Stops when the quotient stagnates below
    `tol` (relative) or no descent step is accepted anymore.
    """
    if space.dim < 1:
        raise ValueError("space has no interior degrees of freedom")
    coeffs = _bump_start(space)
    u = FeFunction(space, coeffs)
    u = (1.0 / lr_norm(u, p)) * u

    def quotient(v: FeFunction) -> float:
        return grad_norm_lp(v, p) ** p

    rq = quotient(u)
    step = 1.0 / max(1.0, rq)
    converged = False
    it = 0
    while it < max_iterations:
        it += 1
        kin = power_laplacian_residual(u, p).values
        mass = _p_mass_dual(u, p)
        grad = p * (kin - rq * mass)
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            converged = True
            break
        accepted = False
        for _ in range(60):
            trial = FeFunction(space, u.coeffs - step * grad)
            nrm = lr_norm(trial, p)
            if nrm > 0.0:
                trial = (1.0 / nrm) * trial
                rq_trial = quotient(trial)
                if rq_trial < rq:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            converged = True
            break
        drop = rq - rq_trial
        u, rq = trial, rq_trial
        step *= 1.5
        if drop <= tol * max(1.0, rq):
            converged = True
            break
    return Lambda1Estimate(float(rq), "discrete-rayleigh", converged, it)


def estimate_lambda1(space: FeSpace, p: float) -> Lambda1Estimate:
    """Analytic value on intervals, discrete Rayleigh minimum otherwise."""
    domain = space.mesh.domain
    if domain.dim == 1:
        return Lambda1Estimate(lambda1_interval(domain.side_lengths[0], p),
                               "analytic-1d")
    return rayleigh_minimum(space, p)


# ---------------------------------------------------------------------------
# sup-norm embedding constant
# ---------------------------------------------------------------------------

def sobolev_constant(domain: Domain, p: float, space: Optional[FeSpace] = None,
                     samples: int = 1000, seed: int = 0) -> SobolevEstimate:
    """Constant C with ||u||_sup <= C ||grad u||_p on zero-trace functions.

    Intervals admit the sharp value (L/2)^{(p-1)/p}.  In 2D the constant is a
    sampled surrogate (largest observed ratio over random fields, doubled);
    its provenance flags it as heuristic.
    """
    if p <= domain.dim:
        raise ValueError("sup-norm control needs p > dimension")
    if domain.dim == 1:
        length = domain.side_lengths[0]
        return SobolevEstimate((0.5 * length) ** ((p - 1.0) / p), "analytic-1d")
    if space is None:
        raise ValueError("the 2D surrogate needs a finite element space")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        u = FeFunction(space, rng.standard_normal(space.dim))
        denom = grad_norm_lp(u, p)
        if denom > 0.0:
            worst = max(worst, sup_norm(u) / denom)
    return SobolevEstimate(2.0 * worst, "discrete-surrogate-x2")


# ---------------------------------------------------------------------------
# coercivity polynomial and radii
# ---------------------------------------------------------------------------

def poincare_factor(lambda1: float, alpha: float, p: float,
                    convention: str = "standard") -> float:
    """Coefficient replacing ||u||_p^alpha by a gradient power."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    if convention == "standard":
        return lambda1 ** (-alpha / p)
    return lambda1 ** (-alpha)


def _regime_constants(problem: Problem) -> Tuple[float, float, float]:
    if problem.regime == "H3":
        h3 = problem.convection.h3
        return h3.c0, h3.c1, h3.alpha
    h3a = problem.convection.h3a
    return h3a.c0, h3a.c1, problem.p


def coercivity_polynomial(problem: Problem, lambda1: float,
                          convention: str = "standard") -> Callable[[float], float]:
    """psi(t) such that <A(u), u> >= psi(||grad u||_p) under the hypotheses."""
    p, q = problem.p, problem.q
    measure = problem.domain.measure
    a0 = problem.weight.lower_bound
    c0, c1, alpha = _regime_constants(problem)
    lead = a0 - c0
    b_coef = measure ** ((p - q) / p)
    const = c1 * measure
    if problem.regime == "H3a":
        gate = c1 * poincare_factor(lambda1, p, p, convention)
        if not gate < lead:
            raise HypothesisViolation(
                f"(H3a) smallness gate fails: c1 * lambda1-factor = {gate} "
                f">= a0 - c0 = {lead}")
        lead = lead - gate
        alpha_coef = 0.0
    else:
        alpha_coef = (c1 * measure ** ((p - alpha) / p)
                      * poincare_factor(lambda1, alpha, p, convention))

    def psi(t: float) -> float:
        t = float(t)
        return (lead * t ** p - b_coef * t ** q
                - alpha_coef * t ** alpha - const)

    return psi


def apriori_radius(problem: Problem, lambda1: float, sobolev: float,
                   convention: str = "standard",
                   rel_tol: float = 1e-12) -> Tuple[float, float]:
    """(gradient radius, sup radius): the unique positive root of psi and its
    image under the sup-norm embedding.

    The coefficient signs (+,-,-,-) give exactly one positive root; it is
    bracketed by doubling from t = 1 and polished by bisection.
    """
    psi = coercivity_polynomial(problem, lambda1, convention)
    hi = 1.0
    for _ in range(400):
        if psi(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("no positive root bracket found for psi")
    lo = 0.0 if psi(0.0) < 0.0 else hi / 2.0
    while psi(lo) > 0.0:
        lo /= 2.0
        if lo < 1e-300:
            lo = 0.0
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    grad_radius = hi
    return grad_radius, sobolev * grad_radius


def rhs_estimate_constant(problem: Problem, lambda1: float, sobolev: float,
                          convention: str = "standard") -> float:
    """C with |int f(x,u,grad u) v| <= C (||sigma||_{r1} + ||u||_{r2}^{r2}
    + ||grad u||_p^{p-1}) ||grad v||_p, from the growth bound termwise."""
    h2 = problem.convection.h2
    measure = problem.domain.measure
    sigma_term = sobolev * measure ** ((h2.r1 - 1.0) / h2.r1)
    b_term = h2.b * sobolev
    c_term = h2.c * poincare_factor(lambda1, 1.0, problem.p, convention)
    return max(sigma_term, b_term, c_term)


# ---------------------------------------------------------------------------
# pointwise hypothesis audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingBox:
    """Audit box: x over the closed domain, |s| <= s_bound, |xi_k| <= xi_bound."""

    s_bound: float
    xi_bound: float = 100.0
    samples: int = 10000


@dataclass
class HypothesisAudit:
    box: SamplingBox
    tolerance: float
    margins: Dict[str, float] = field(default_factory=dict)
    passed: Dict[str, bool] = field(default_factory=dict)

    def record(self, name: str, worst: float):
        self.margins[name] = float(worst)
        self.passed[name] = bool(worst >= -self.tolerance)

    def all_passed(self) -> bool:
        return all(self.passed.values())


def _halton(dim: int, n: int, seed: int) -> np.ndarray:
    # deferred: scipy.stats costs ~0.7 s at import and only the audits use it
    from scipy.stats import qmc
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(n)


def audit_hypotheses(problem: Problem, box: SamplingBox, seed: int = 0,
                     tolerance: float = 1e-9) -> HypothesisAudit:
    """Check every declared hypothesis pointwise on quasi-random samples.

    Records the worst margin (bound minus demand) per hypothesis; a margin
    below -tolerance is a failure.  Only declared constant blocks are audited.
    """
    d = problem.domain.dim
    pts = _halton(2 * d + 1, box.samples, seed)
    x = np.empty((box.samples, d))
    for axis, (lo, hi) in enumerate(problem.domain.bounds):
        x[:, axis] = lo + pts[:, axis] * (hi - lo)
    s = (2.0 * pts[:, d] - 1.0) * box.s_bound
    xi = (2.0 * pts[:, d + 1:] - 1.0) * box.xi_bound
    amp = np.linalg.norm(xi, axis=1)

    fam = problem.convection
    f = fam.evaluate(x, s, xi)
    audit = HypothesisAudit(box=box, tolerance=tolerance)

    ts = np.linspace(-box.s_bound, box.s_bound, 4001)
    audit.record("H1", float(np.min(problem.weight.evaluate(ts))
                             - problem.weight.lower_bound))

    h2 = fam.h2
    bound2 = (h2.sigma + h2.b * np.abs(s) ** h2.r2
              + h2.c * amp ** (problem.p - 1.0))
    audit.record("H2", float(np.min(bound2 - np.abs(f))))

    if fam.h3 is not None:
        h3 = fam.h3
        bound3 = h3.c0 * amp ** problem.p + h3.c1 * (np.abs(s) ** h3.alpha + 1.0)
        audit.record("H3", float(np.min(bound3 - f * s)))

    if fam.h3a is not None:
        h3a = fam.h3a
        bound3a = h3a.c0 * amp ** problem.p + h3a.c1 * (np.abs(s) ** problem.p + 1.0)
        audit.record("H3a", float(np.min(bound3a - f * s)))

    if fam.h4 is not None:
        h4 = fam.h4
        bound4 = (h4.sigma + h4.c1 * np.abs(s) ** h4.s_exponent
                  + h4.c2 * amp ** h4.xi_exponent)
        audit.record("H4", float(np.min(bound4 - np.abs(f))))

    return audit


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass
class EstimateReport:
    lambda1: float
    lambda1_provenance: str
    lambda1_raw: float
    lambda1_converged: bool
    sobolev: float
    sobolev_provenance: str
    rhs_constant: float
    grad_radius: float
    sup_radius: float
    regime: str
    convention: str


def compute_estimates(problem: Problem, space: FeSpace,
                      convention: str = "standard",
                      seed: int = 0) -> EstimateReport:
    """All constants feeding the Galerkin run.

    The radius needs a lower bound on lambda1: intervals use the analytic
    eigenvalue; in 2D the discrete Rayleigh value is halved as a safety factor
    and flagged by its provenance string.
    """
    est = estimate_lambda1(space, problem.p)
    if est.provenance == "analytic-1d":
        lam_used = est.value
        provenance = est.provenance
    else:
        lam_used = 0.5 * est.value
        provenance = est.provenance + "-x0.5-safety"
    sob = sobolev_constant(problem.domain, problem.p,
                           space if problem.domain.dim == 2 else None,
                           seed=seed)
    grad_radius, sup_radius = apriori_radius(problem, lam_used, sob.value,
                                             convention)
    rhs_c = rhs_estimate_constant(problem, lam_used, sob.value, convention)
    return EstimateReport(
        lambda1=lam_used,
        lambda1_provenance=provenance,
        lambda1_raw=est.value,
        lambda1_converged=est.converged,
        sobolev=sob.value,
        sobolev_provenance=sob.provenance,
        rhs_constant=rhs_c,
        grad_radius=grad_radius,
        sup_radius=sup_radius,
        regime=problem.regime,
        convention=convention,
    )
