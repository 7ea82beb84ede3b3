"""Weighted (p,q)-divergence operators with convection on P1 spaces.

The residual of the truncated operator against every basis hat is

    F_i(u) = int g_R(u) |grad u|^{p-2} grad u . grad phi_i
             -/+ int |grad u|^{q-2} grad u . grad phi_i
             - int f(x, u, grad u) phi_i

with '-' on the q-term for the competing variant and '+' for the cooperative
one.  `ProblemOperator` is the one evaluator of this operator and of its
sparse Jacobian: Newton, the sphere guard, the report tables and the
certificates all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .fespace import (DualVector, FeFunction, FeSpace, cell_gradients,
                      values_at_qp)
from .mesh import Domain

__all__ = [
    "AssemblyError",
    "HypothesisViolation",
    "WeightFunction",
    "TruncatedWeight",
    "truncate_weight",
    "constant_weight",
    "quadratic_weight",
    "GrowthH2",
    "SignH3",
    "SignH3a",
    "GrowthH4",
    "ConvectionFamily",
    "zero_convection",
    "constant_convection",
    "saturating_convection",
    "adversarial_convection",
    "Problem",
    "qp_dual",
    "assemble_matrix",
    "power_laplacian_residual",
    "power_laplacian_pairing",
    "ProblemOperator",
]

DEFAULT_REGULARIZATION = 1e-10


class AssemblyError(RuntimeError):
    """Nonfinite cell contribution during residual assembly."""


class HypothesisViolation(ValueError):
    """A structural hypothesis on the data fails; message names the culprit."""


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Continuous weight t -> g(t) bounded below by `lower_bound` > 0."""

    fn: Callable[[np.ndarray], np.ndarray]
    lower_bound: float
    tag: str

    def __post_init__(self):
        if not self.lower_bound > 0.0:
            raise HypothesisViolation(
                f"(H1) requires a positive lower bound, got {self.lower_bound}")

    def evaluate(self, t):
        return self.fn(np.asarray(t, dtype=float))


def constant_weight(value: float) -> WeightFunction:
    value = float(value)
    return WeightFunction(lambda t: np.full_like(t, value), value, f"constant({value})")


def quadratic_weight(base: float, coef: float = 1.0) -> WeightFunction:
    """g(t) = base + coef t^2 with coef >= 0; lower bound is `base`."""
    base, coef = float(base), float(coef)
    if coef < 0.0:
        raise HypothesisViolation("(H1) needs coef >= 0 for a quadratic weight")
    return WeightFunction(lambda t: base + coef * t * t, base,
                          f"quadratic({base},{coef})")


@dataclass(frozen=True)
class TruncatedWeight:
    """g_R(t) = g(clamp(t, -R, R)): constant continuation outside [-R, R]."""

    base: WeightFunction
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"truncation radius must be positive, got {self.radius}")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return self.base.evaluate(np.clip(t, -self.radius, self.radius))

    @property
    def lower_bound(self) -> float:
        return self.base.lower_bound

    @property
    def tag(self) -> str:
        return f"truncated({self.base.tag},R={self.radius})"


def truncate_weight(weight: WeightFunction, radius: float) -> TruncatedWeight:
    return TruncatedWeight(weight, float(radius))


# ---------------------------------------------------------------------------
# convection families and their declared hypothesis constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthH2:
    """|f(x,s,xi)| <= sigma + b|s|^{r2} + c|xi|^{p-1} with sigma a constant bound."""

    sigma: float
    b: float
    c: float
    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 1.0 or self.r2 < 1.0:
            raise HypothesisViolation("(H2) requires r1, r2 >= 1")


@dataclass(frozen=True)
class SignH3:
    """f(x,s,xi) s <= c0|xi|^p + c1(|s|^alpha + 1), alpha in [1, p)."""

    c0: float
    c1: float
    alpha: float


@dataclass(frozen=True)
class SignH3a:
    """f(x,s,xi) s <= c0|xi|^p + c1(|s|^p + 1); extra smallness gate on c1."""

    c0: float
    c1: float


@dataclass(frozen=True)
class GrowthH4:
    """|f(x,s,xi)| <= sigma + c1|s|^{s_exponent} + c2|xi|^{xi_exponent}."""

    sigma: float
    c1: float
    c2: float
    s_exponent: float
    xi_exponent: float


@dataclass(frozen=True)
class ConvectionFamily:
    """Right-hand side f(x, s, xi) together with its declared growth data.

    The evaluator broadcasts over leading axes.  The operator passes x of
    shape (m, k, d) and s of shape (m, k), the k quadrature points of m
    cells, and xi of shape (m, 1, d), one gradient per cell; the result has
    the shape of s.  Constants for the different hypotheses are stored
    separately and never substituted for one another.
    """

    name: str
    fn: Callable[..., np.ndarray]
    h2: GrowthH2
    h3: Optional[SignH3] = None
    h3a: Optional[SignH3a] = None
    h4: Optional[GrowthH4] = None

    def evaluate(self, x, s, xi):
        return np.asarray(self.fn(np.asarray(x, dtype=float),
                                  np.asarray(s, dtype=float),
                                  np.asarray(xi, dtype=float)), dtype=float)


def zero_convection() -> ConvectionFamily:
    def fn(x, s, xi):
        return np.zeros_like(s)

    return ConvectionFamily(
        name="zero",
        fn=fn,
        h2=GrowthH2(0.0, 0.0, 0.0, 1.0, 1.0),
        h3=SignH3(0.0, 0.0, 1.0),
        h3a=SignH3a(0.0, 0.0),
        h4=GrowthH4(0.0, 0.0, 0.0, 1.0, 0.0),
    )


def constant_convection(value: float) -> ConvectionFamily:
    value = float(value)

    def fn(x, s, xi):
        return np.full_like(s, value)

    mag = abs(value)
    return ConvectionFamily(
        name=f"constant({value})",
        fn=fn,
        h2=GrowthH2(mag, 0.0, 0.0, 1.0, 1.0),
        h3=SignH3(0.0, mag, 1.0),
        h3a=SignH3a(0.0, mag),
        h4=GrowthH4(mag, 0.0, 0.0, 1.0, 0.0),
    )


def saturating_convection(p: float, alpha: float = 2.0, h_bound: float = 1.0,
                          offset: float = 0.0) -> ConvectionFamily:
    """f = |s|^{alpha-2} s + s/(1+s^2) (|xi|^{p-1} + h) + offset, h constant.

    The saturating factor |s/(1+s^2)| <= 1/2 caps the gradient coupling, so

        |f| <= |s|^{alpha-1} + (|xi|^{p-1} + h)/2 + |offset|
        f s <= |s|^alpha + |xi|^{p-1} + h + |offset| |s|

    and |xi|^{p-1} <= |xi|^p / 2 + 2^{p-1} translates these into the declared
    constants below (for alpha < 2 the power |s|^{alpha-1} <= 1 + |s| shifts
    one unit into the constant term).
    """
    p, alpha, h_bound, offset = map(float, (p, alpha, h_bound, offset))
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if not 1.0 <= alpha <= p:
        raise HypothesisViolation(
            f"(H3)/(H3a) power alpha must lie in [1, p], got {alpha}")
    if h_bound < 0.0:
        raise ValueError("h bound must be nonnegative")

    def fn(x, s, xi):
        amp = np.linalg.norm(xi, axis=-1)
        power = np.sign(s) * np.abs(s) ** (alpha - 1.0)
        return power + s / (1.0 + s * s) * (amp ** (p - 1.0) + h_bound) + offset

    if alpha >= 2.0:
        sigma2 = 0.5 * h_bound + abs(offset)
        r2 = alpha - 1.0
    else:
        sigma2 = 0.5 * h_bound + abs(offset) + 1.0
        r2 = 1.0
    h2 = GrowthH2(sigma=sigma2, b=1.0, c=0.5, r1=1.0, r2=r2)

    c1 = max(1.0 + abs(offset), 2.0 ** (p - 1.0) + h_bound + abs(offset))
    h3 = SignH3(c0=0.5, c1=c1, alpha=alpha) if alpha < p else None
    h3a = SignH3a(c0=0.5, c1=c1) if alpha == p else None
    h4 = GrowthH4(sigma=sigma2, c1=1.0, c2=0.5,
                  s_exponent=max(alpha - 1.0, 1.0), xi_exponent=p - 1.0)
    return ConvectionFamily(
        name=f"saturating(alpha={alpha},h={h_bound},offset={offset})",
        fn=fn, h2=h2, h3=h3, h3a=h3a, h4=h4)


def adversarial_convection(a0: float, p: float) -> ConvectionFamily:
    """f = 2 a0 |xi|^p sign(s) / (1 + |s|): grows too fast for any valid
    sign condition because f s approaches 2 a0 |xi|^p > c0 |xi|^p."""
    a0, p = float(a0), float(p)

    def fn(x, s, xi):
        amp = np.linalg.norm(xi, axis=-1)
        return 2.0 * a0 * amp ** p * np.sign(s) / (1.0 + np.abs(s))

    return ConvectionFamily(
        name=f"adversarial(a0={a0})",
        fn=fn,
        h2=GrowthH2(0.0, 0.0, 2.0 * a0, 1.0, 1.0),
        h3=SignH3(c0=0.5 * a0, c1=1.0, alpha=1.0),
    )


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------

VARIANTS = ("competing", "cooperative")
REGIMES = ("H3", "H3a")


@dataclass(frozen=True)
class Problem:
    """Dirichlet problem data: exponents p > q > 1, domain with dim < p,
    weight, convection family, operator variant, and coercivity regime."""

    p: float
    q: float
    domain: Domain
    weight: WeightFunction
    convection: ConvectionFamily
    variant: str = "competing"
    regime: str = "H3"

    def __post_init__(self):
        if not self.p > self.q > 1.0:
            raise ValueError(f"need p > q > 1, got p={self.p}, q={self.q}")
        if not self.domain.dim < self.p:
            raise ValueError(
                f"need dimension < p for the sup-norm embedding, got "
                f"dim={self.domain.dim}, p={self.p}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        a0 = self.weight.lower_bound
        if self.regime == "H3":
            h3 = self.convection.h3
            if h3 is None:
                raise HypothesisViolation("(H3) constants missing from the family")
            if not 1.0 <= h3.alpha < self.p:
                raise HypothesisViolation(
                    f"(H3) requires alpha in [1, p), got alpha={h3.alpha}")
            if not h3.c0 < a0:
                raise HypothesisViolation(
                    f"(H3) requires c0 < a0, got c0={h3.c0}, a0={a0}")
        else:
            h3a = self.convection.h3a
            if h3a is None:
                raise HypothesisViolation("(H3a) constants missing from the family")
            if not h3a.c0 < a0:
                raise HypothesisViolation(
                    f"(H3a) requires c0 < a0, got c0={h3a.c0}, a0={a0}")

    @property
    def q_sign(self) -> float:
        return -1.0 if self.variant == "competing" else 1.0


# ---------------------------------------------------------------------------
# assembly kernels
# ---------------------------------------------------------------------------
#
# A divergence term is a cellwise-constant flux with a cell weight; the
# convection term is f at the quadrature points.  Either is scattered against
# every basis hat (the dual-vector route) or integrated against one test
# function (the direct route).

def _power_flux(grad: np.ndarray, exponent: float, eps: float) -> np.ndarray:
    """|grad|^{e-2} grad, regularized to (|grad|^2+eps^2)^{(e-2)/2} grad only
    where |grad| < eps would otherwise blow up (e < 2)."""
    amp = np.linalg.norm(grad, axis=-1)
    if exponent >= 2.0:
        factor = amp ** (exponent - 2.0)
    else:
        small = amp < eps
        safe = np.where(small, 1.0, amp)
        factor = np.where(small,
                          (amp * amp + eps * eps) ** (0.5 * (exponent - 2.0)),
                          safe ** (exponent - 2.0))
    return factor[..., None] * grad


def _flux_derivative(grad: np.ndarray, exponent: float,
                     eps: float) -> np.ndarray:
    """d(flux)/d(grad) of `_power_flux`, |g|^{e-2}(I + (e-2) g g^T/|g|^2),
    with |g|^2 -> |g|^2 + eps^2 on the same regularized cells; (m, d, d)."""
    amp = np.linalg.norm(grad, axis=-1)
    sq = amp * amp
    if exponent < 2.0:
        sq = np.where(amp < eps, sq + eps * eps, sq)
    outer = (np.einsum("cd,ce->cde", grad, grad)
             / np.where(sq > 0.0, sq, 1.0)[:, None, None])
    return (sq ** (0.5 * (exponent - 2.0)))[:, None, None] * (
        np.eye(grad.shape[-1]) + (exponent - 2.0) * outer)


# about the cube root of the machine epsilon, which balances the truncation
# and rounding errors of a central difference
_DIFF_STEP = 6e-6


def _central_diff(fn: Callable[[np.ndarray], np.ndarray],
                  x: np.ndarray) -> np.ndarray:
    """Derivative of an elementwise map at x, step scaled to max(1, |x|)."""
    h = _DIFF_STEP * np.maximum(1.0, np.abs(x))
    hi, lo = x + h, x - h
    return (fn(hi) - fn(lo)) / (hi - lo)


def _scatter(space: FeSpace, cell_contrib: np.ndarray, label: str) -> np.ndarray:
    if not np.all(np.isfinite(cell_contrib)):
        bad = int(np.argwhere(~np.isfinite(cell_contrib))[0][0])
        raise AssemblyError(f"nonfinite {label} contribution on cell {bad}")
    idx = space.cell_dofs
    mask = idx >= 0
    # accumulation in cell-index order keeps assembly bit-reproducible
    return np.bincount(idx[mask], weights=cell_contrib[mask],
                       minlength=space.dim)


def _flux_dual(space: FeSpace, flux: np.ndarray, cell_w: np.ndarray,
               label: str) -> np.ndarray:
    contrib = np.einsum("cd,cvd->cv", flux, space.grads) * cell_w[:, None]
    return _scatter(space, contrib, label)


def _flux_pairing(flux: np.ndarray, cell_w: np.ndarray,
                  grad_v: np.ndarray) -> float:
    return float(np.sum(cell_w * np.einsum("cd,cd->c", flux, grad_v)))


def qp_dual(space: FeSpace, qp_values: np.ndarray, label: str) -> np.ndarray:
    """Entries int w phi_i by the cell rule for w given at the quadrature
    points; raises AssemblyError naming the first nonfinite cell."""
    weighted = space.qp_weights * qp_values
    # summed point by point, in the order of einsum("cq,cq,vq->cv", ...)
    contrib = sum(w[:, None] * phi
                  for w, phi in zip(weighted.T, space.basis_qp.T))
    return _scatter(space, contrib, label)


def assemble_matrix(space: FeSpace, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum per-cell (nv, nv) blocks into the CSR matrix over the dofs; the
    rows and columns of boundary vertices are dropped."""
    idx = space.cell_dofs
    rows = np.broadcast_to(idx[:, :, None], blocks.shape)
    cols = np.broadcast_to(idx[:, None, :], blocks.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.csr_matrix((blocks[keep], (rows[keep], cols[keep])),
                         shape=(space.dim, space.dim))


def power_laplacian_residual(u: FeFunction, exponent: float,
                             eps: float = DEFAULT_REGULARIZATION) -> DualVector:
    """Entries int |grad u|^{e-2} grad u . grad phi_i (unit weight)."""
    flux = _power_flux(cell_gradients(u), exponent, eps)
    return DualVector(u.space, _flux_dual(u.space, flux, u.space.cell_measures,
                                          "gradient power term"))


def power_laplacian_pairing(u: FeFunction, v: FeFunction, exponent: float,
                            eps: float = DEFAULT_REGULARIZATION) -> float:
    flux = _power_flux(cell_gradients(u), exponent, eps)
    return _flux_pairing(flux, u.space.cell_measures, cell_gradients(v))


# ---------------------------------------------------------------------------
# the truncated operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemOperator:
    """The truncated operator A_R on one space.

    `q_factor` scales the competing/cooperative divergence term and
    `load_factor` scales the convection term; both default to the full
    problem and exist for homotopy and continuation, whose stages are
    `dataclasses.replace` copies.  Every evaluation computes the pointwise
    data of the three terms once.
    """

    problem: Problem
    weight: WeightFunction | TruncatedWeight
    space: FeSpace
    load_factor: float = 1.0
    q_factor: float = 1.0
    eps: float = DEFAULT_REGULARIZATION

    def _p_term(self, space: FeSpace, grad: np.ndarray, u_qp: np.ndarray):
        """(flux, cell weight) of the p-term; g_R enters the cell weight."""
        g_int = np.sum(space.qp_weights * self.weight.evaluate(u_qp), axis=1)
        return _power_flux(grad, self.problem.p, self.eps), g_int

    def _convection(self, space: FeSpace, grad: np.ndarray, u_qp: np.ndarray):
        """f at the quadrature points, xi the (m, 1, d) cell gradients."""
        return self.problem.convection.evaluate(space.qp_points, u_qp,
                                                grad[:, None, :])

    def _terms(self, u: FeFunction):
        """(flux, cell weight) of the p- and q-terms, and f at the
        quadrature points."""
        space, pr = u.space, self.problem
        grad, u_qp = cell_gradients(u), values_at_qp(u)
        return (self._p_term(space, grad, u_qp),
                (_power_flux(grad, pr.q, self.eps), space.cell_measures),
                self._convection(space, grad, u_qp))

    def _signed_parts(self, u: FeFunction):
        (p_flux, p_w), (q_flux, q_w), fvals = self._terms(u)
        space = u.space
        return (_flux_dual(space, p_flux, p_w, "weighted p-term"),
                self.problem.q_sign * self.q_factor
                * _flux_dual(space, q_flux, q_w, "gradient power term"),
                -self.load_factor * qp_dual(space, fvals, "convection term"))

    def parts(self, u: FeFunction) -> Tuple[DualVector, DualVector, DualVector]:
        """Signed p-, q- and f-parts; they sum to `residual(u)`."""
        return tuple(DualVector(u.space, part) for part in self._signed_parts(u))

    def residual(self, u: FeFunction) -> DualVector:
        p_part, q_part, f_part = self._signed_parts(u)
        return DualVector(u.space, p_part + q_part + f_part)

    def jacobian(self, u: FeFunction) -> sp.csr_matrix:
        """CSR matrix of dF_i/du_j for F = residual(u).

        The flux derivatives are in closed form; g_R' and the partial
        derivatives of f are pointwise central differences at the quadrature
        points, so their error does not grow as the mesh refines.
        """
        space, problem = u.space, self.problem
        grad, u_qp = cell_gradients(u), values_at_qp(u)
        p_flux, p_w = self._p_term(space, grad, u_qp)
        G, phi = space.grads, space.basis_qp
        w_phi = space.qp_weights[:, None, :] * phi              # (m, nv, k)
        q_w = problem.q_sign * self.q_factor * space.cell_measures
        D = (p_w[:, None, None] * _flux_derivative(grad, problem.p, self.eps)
             + q_w[:, None, None]
             * _flux_derivative(grad, problem.q, self.eps))
        blocks = np.einsum("cvd,cde,cwe->cvw", G, D, G)
        # the cell weight of the p-term depends on u through g_R
        dg_w = np.einsum("cwk,ck->cw", w_phi,
                         _central_diff(self.weight.evaluate, u_qp))
        p_dot = np.einsum("cd,cvd->cv", p_flux, G)
        blocks += p_dot[:, :, None] * dg_w[:, None, :]

        f_s = _central_diff(lambda s: self._convection(space, grad, s), u_qp)
        f_w = np.einsum("ck,wk->ckw", f_s, phi)
        comp = np.arange(grad.shape[-1])
        for d in comp:
            # perturb component d of the one gradient of each cell
            f_xi = _central_diff(lambda t: self._convection(
                space, np.where(comp == d, t, grad), u_qp), grad[:, d, None])
            f_w += np.einsum("ck,cw->ckw", f_xi, G[:, :, d])
        blocks -= self.load_factor * np.einsum("cvk,ckw->cvw", w_phi, f_w)
        return assemble_matrix(space, blocks)

    def pairing(self, u: FeFunction, v: FeFunction) -> float:
        """<A_R(u), v> by direct integration; agrees with
        pair(residual(u), v) but never goes through the dual vector."""
        if v.space is not u.space:
            raise ValueError("pairing requires functions on the same space")
        (p_flux, p_w), (q_flux, q_w), fvals = self._terms(u)
        grad_v = cell_gradients(v)
        return (_flux_pairing(p_flux, p_w, grad_v)
                + self.problem.q_sign * self.q_factor
                * _flux_pairing(q_flux, q_w, grad_v)
                - self.load_factor * float(np.sum(
                    u.space.qp_weights * fvals * values_at_qp(v))))
