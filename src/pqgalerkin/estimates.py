"""A priori estimates: first eigenvalue, embedding constants, radii, audits.

The eigenvalue bound, the embedding constant and the radii are closed forms,
a function of the problem alone: no mesh, no sampling.

The gradient-norm radius is the positive root of

    psi(t) = (a0 - c0) t^p - |O|^{(p-q)/p} t^q
             - c1 |O|^{(p-alpha)/p} pf(alpha) t^alpha - c1 |O|

where pf(alpha) = lambda1^{-alpha/p} folds the Poincare step
||u||_p <= lambda1^{-1/p} ||grad u||_p, the exact consequence of the
eigenvalue definition, into the |s|^alpha term.
Under (H3a), alpha = p, the alpha-term merges into the leading coefficient,
which must stay positive: c1 pf(p) < a0 - c0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from .fespace import vector_norm
from .mesh import Domain
from .operators import HypothesisViolation, Problem

__all__ = [
    "lambda1_interval",
    "estimate_lambda1",
    "sobolev_constant",
    "poincare_factor",
    "coercivity_polynomial",
    "apriori_radius",
    "rhs_estimate_constant",
    "HypothesisAudit",
    "audit_hypotheses",
    "EstimateReport",
    "compute_estimates",
    "ConstantEstimate",
]

# relative width at which bisection stops polishing the psi root
ROOT_REL_TOL = 1e-12
# audit box half-width in each gradient component
XI_BOUND = 100.0
# quasi-random points per audit
AUDIT_SAMPLES = 10000
# audit margin below zero still counted as a pass (rounding)
AUDIT_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# first eigenvalue of the Dirichlet p-Laplacian
# ---------------------------------------------------------------------------

def lambda1_interval(length: float, p: float) -> float:
    """Exact first eigenvalue on an interval of the given length:
    lambda1 = (p-1) (pi_p / L)^p with pi_p = 2 pi / (p sin(pi/p)).

    The pairing of prefactor and pi_p matters: the convention that folds
    (p-1)^{1/p} into pi_p drops the outer p-1.  Mixing them scales the value
    by p-1; for p > 2 the Rayleigh quotient of the sine interpolant lands
    below the mixed value, so that value is no lower bound.
    """
    if length <= 0.0 or p <= 1.0:
        raise ValueError("need positive length and p > 1")
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    try:
        value = (p - 1.0) * (pi_p / length) ** p
    except OverflowError:
        raise OverflowError(f"lambda1: (pi_p/L)**p overflows a float at "
                            f"p={p!r}, L={length!r}") from None
    if value == 0.0:
        raise ArithmeticError(f"lambda1: (pi_p/L)**p underflows to 0.0 at "
                              f"p={p!r}, L={length!r}")
    return value


@dataclass(frozen=True)
class ConstantEstimate:
    """A closed-form constant and the name of the bound it comes from."""

    value: float
    provenance: str


def estimate_lambda1(domain: Domain, p: float) -> ConstantEstimate:
    """A value at most the first Dirichlet eigenvalue of the p-Laplacian.

    Intervals get the exact value.  Rectangles get lambda1(L_x) + lambda1(L_y):
    the interval inequality along every line in x and every line in y, added,
    bounds int |d_x u|^p + |d_y u|^p, and (a^2 + b^2)^{p/2} >= |a|^p + |b|^p
    for p >= 2 bounds that by int |grad u|^p.  `Problem` requires
    p > dimension, so the bound holds for every 2D problem; at p = 2 it is
    the exact eigenvalue pi^2 (L_x^-2 + L_y^-2).
    """
    if domain.dim == 2 and p < 2.0:
        raise ValueError("the 2D eigenvalue bound needs p >= 2")
    return ConstantEstimate(
        sum(lambda1_interval(length, p) for length in domain.side_lengths),
        "analytic-1d" if domain.dim == 1 else "lower-bound-2d")


# ---------------------------------------------------------------------------
# sup-norm embedding constant
# ---------------------------------------------------------------------------

def sobolev_constant(domain: Domain, p: float) -> ConstantEstimate:
    """Constant C with ||u||_sup <= C ||grad u||_p on zero-trace functions.

    In 2D, C is the constant of Gilbarg & Trudinger, Elliptic PDEs of Second
    Order, Lemma 7.12 with the potential bound of Lemma 7.14 (proof of
    Thm 7.10): C = (n w_n)^{-1} w_n^{1-1/n} ((1-1/p)/(1/n-1/p))^{1-1/p}
    |O|^{1/n-1/p} with n = 2, w_2 = pi.  At n = 1 (w_1 = 2) the same formula
    gives the sharp L^{(p-1)/p} / 2, attained by the tent min(x, L-x);
    intervals keep the valid bound (L/2)^{(p-1)/p}, which is 2^{1/p} above it.
    """
    if p <= domain.dim:
        raise ValueError("sup-norm control needs p > dimension")
    if domain.dim == 1:
        length = domain.side_lengths[0]
        return ConstantEstimate((0.5 * length) ** ((p - 1.0) / p), "analytic-1d")
    return ConstantEstimate(
        math.sqrt(math.pi) / (2.0 * math.pi)
        * (2.0 * (p - 1.0) / (p - 2.0)) ** ((p - 1.0) / p)
        * domain.measure ** (0.5 - 1.0 / p), "analytic-2d")


# ---------------------------------------------------------------------------
# coercivity polynomial and radii
# ---------------------------------------------------------------------------

def poincare_factor(lambda1: float, alpha: float, p: float) -> float:
    """Coefficient replacing ||u||_p^alpha by a gradient power."""
    return lambda1 ** (-alpha / p)


def coercivity_polynomial(problem: Problem,
                          lambda1: float) -> Callable[[float], float]:
    """psi(t) such that <A(u), u> >= psi(||grad u||_p) under the hypotheses."""
    p, q = problem.p, problem.q
    measure = problem.domain.measure
    a0 = problem.weight.lower_bound
    c0, c1, alpha = problem.sign_constants
    lead = a0 - c0
    b_coef = measure ** ((p - q) / p)
    const = c1 * measure
    if problem.regime == "H3a":
        gate = c1 * poincare_factor(lambda1, p, p)
        if not gate < lead:
            raise HypothesisViolation(
                f"(H3a) smallness gate fails: c1 * lambda1-factor = {gate} "
                f">= a0 - c0 = {lead}")
        lead = lead - gate
        alpha_coef = 0.0
    else:
        alpha_coef = (c1 * measure ** ((p - alpha) / p)
                      * poincare_factor(lambda1, alpha, p))

    def psi(t: float) -> float:
        t = float(t)
        try:
            lead_term = lead * t ** p
        except OverflowError:
            raise OverflowError(f"psi: t**p overflows a float at t={t!r}, "
                                f"p={p!r}") from None
        return lead_term - b_coef * t ** q - alpha_coef * t ** alpha - const

    return psi


def apriori_radius(problem: Problem, lambda1: float,
                   sobolev: float) -> Tuple[float, float]:
    """(gradient radius, sup radius): the unique positive root of psi and its
    image under the sup-norm embedding.

    The coefficient signs (+,-,-,-) give exactly one positive root.  Since
    c1 >= 0, psi(0) = -c1 |O| <= 0, so the root lies above t = 0; it is
    bracketed by doubling from t = 1 and polished by bisection from 0.
    """
    psi = coercivity_polynomial(problem, lambda1)
    hi = 1.0
    for _ in range(400):
        if psi(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("no positive root bracket found for psi")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= ROOT_REL_TOL * hi:
            break
    return hi, sobolev * hi


def rhs_estimate_constant(problem: Problem, lambda1: float,
                          sobolev: float) -> float:
    """C with |int f(x,u,grad u) v| <= C (||sigma||_{r1} + ||u||_{r2}^{r2}
    + ||grad u||_p^{p-1}) ||grad v||_p, from the growth bound termwise."""
    h2 = problem.convection.h2
    measure = problem.domain.measure
    sigma_term = sobolev * measure ** ((h2.r1 - 1.0) / h2.r1)
    b_term = h2.b * sobolev
    c_term = h2.c * poincare_factor(lambda1, 1.0, problem.p)
    return max(sigma_term, b_term, c_term)


# ---------------------------------------------------------------------------
# pointwise hypothesis audits
# ---------------------------------------------------------------------------

@dataclass
class HypothesisAudit:
    s_bound: float
    margins: Dict[str, float] = field(default_factory=dict)
    passed: Dict[str, bool] = field(default_factory=dict)

    def record(self, name: str, worst: float):
        self.margins[name] = float(worst)
        self.passed[name] = bool(worst >= -AUDIT_TOLERANCE)

    def all_passed(self) -> bool:
        return all(self.passed.values())


def _halton(dim: int, n: int, seed: int) -> np.ndarray:
    # deferred: scipy.stats costs ~0.7 s at import and only the audits use it
    from scipy.stats import qmc
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(n)


def audit_hypotheses(problem: Problem, s_bound: float,
                     seed: int = 0) -> HypothesisAudit:
    """Check every declared hypothesis pointwise on AUDIT_SAMPLES
    quasi-random points: x over the closed domain, |s| <= s_bound and
    |xi_k| <= XI_BOUND.

    Records the worst margin (bound minus demand) per hypothesis; a margin
    below -AUDIT_TOLERANCE is a failure.  Only declared constant blocks are
    audited; the sign block is recorded under the problem's regime.
    """
    d = problem.domain.dim
    pts = _halton(2 * d + 1, AUDIT_SAMPLES, seed)
    x = np.empty((AUDIT_SAMPLES, d))
    for axis, (lo, hi) in enumerate(problem.domain.bounds):
        x[:, axis] = lo + pts[:, axis] * (hi - lo)
    s = (2.0 * pts[:, d] - 1.0) * s_bound
    xi = (2.0 * pts[:, d + 1:] - 1.0) * XI_BOUND
    amp = vector_norm(xi)

    fam = problem.convection
    f = fam.evaluate(x, s, xi)
    audit = HypothesisAudit(s_bound=s_bound)

    ts = np.linspace(-s_bound, s_bound, 4001)
    audit.record("H1", float(np.min(problem.weight.evaluate(ts))
                             - problem.weight.lower_bound))

    h2 = fam.h2
    bound2 = (h2.sigma + h2.b * np.abs(s) ** h2.r2
              + h2.c * amp ** (problem.p - 1.0))
    audit.record("H2", float(np.min(bound2 - np.abs(f))))

    c0, c1, alpha = problem.sign_constants
    bound3 = c0 * amp ** problem.p + c1 * (np.abs(s) ** alpha + 1.0)
    audit.record(problem.regime, float(np.min(bound3 - f * s)))

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
    sobolev: float
    sobolev_provenance: str
    rhs_constant: float
    grad_radius: float
    sup_radius: float
    regime: str


def compute_estimates(problem: Problem) -> EstimateReport:
    """All constants feeding the Galerkin run, in closed form.

    The radius needs a lower bound on lambda1, which `estimate_lambda1`
    gives in both dimensions.
    """
    lam = estimate_lambda1(problem.domain, problem.p)
    sob = sobolev_constant(problem.domain, problem.p)
    grad_radius, sup_radius = apriori_radius(problem, lam.value, sob.value)
    rhs_c = rhs_estimate_constant(problem, lam.value, sob.value)
    return EstimateReport(
        lambda1=lam.value,
        lambda1_provenance=lam.provenance,
        sobolev=sob.value,
        sobolev_provenance=sob.provenance,
        rhs_constant=rhs_c,
        grad_radius=grad_radius,
        sup_radius=sup_radius,
        regime=problem.regime,
    )
