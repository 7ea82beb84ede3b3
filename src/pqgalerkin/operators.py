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

from dataclasses import KW_ONLY, dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .fespace import (FeFunction, FeSpace, assemble_matrix, axis_dot,
                      cell_gradients, state_sums, values_at_qp, vector_norm)
from .mesh import Domain

__all__ = [
    "AssemblyError",
    "HypothesisViolation",
    "WeightFunction",
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
    "power_flux",
    "power_flux_pairing",
    "ProblemOperator",
]

# eps of the flux regularization for exponents below 2, whose flux has an
# unbounded derivative at grad = 0
REGULARIZATION = 1e-10


class AssemblyError(RuntimeError):
    """Nonfinite cell contribution during residual assembly."""


class HypothesisViolation(ValueError):
    """A structural hypothesis on the data fails; message names the culprit."""


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Continuous weight t -> g(t) bounded below by `lower_bound` > 0,
    with its declared derivative t -> g'(t), which the Jacobian integrates
    in place of differencing g.  Both maps are elementwise."""

    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
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
    return WeightFunction(lambda t: np.full_like(t, value), np.zeros_like,
                          value, f"constant({value})")


def quadratic_weight(base: float, coef: float = 1.0) -> WeightFunction:
    """g(t) = base + coef t^2 with coef >= 0; lower bound is `base`."""
    base, coef = float(base), float(coef)
    if coef < 0.0:
        raise HypothesisViolation("(H1) needs coef >= 0 for a quadratic weight")
    return WeightFunction(lambda t: base + coef * t * t,
                          lambda t: 2.0 * coef * t, base,
                          f"quadratic({base},{coef})")


def truncate_weight(weight: WeightFunction, radius: float) -> WeightFunction:
    """g_R(t) = g(clamp(t, -R, R)): constant continuation outside [-R, R].

    Its derivative is g'(t) for |t| < R and 0 for |t| >= R.  At the kinks
    t = +-R, where the one-sided slopes are g'(+-R) and 0, the declared 0 is
    a generalized derivative: it lies in Clarke's interval between them.
    """
    radius = float(radius)
    if not radius > 0.0:
        raise ValueError(f"truncation radius must be positive, got {radius}")

    def derivative(t):
        return np.where(np.abs(t) < radius,
                        weight.derivative(np.clip(t, -radius, radius)), 0.0)

    return WeightFunction(lambda t: weight.fn(np.clip(t, -radius, radius)),
                          derivative, weight.lower_bound,
                          f"truncated({weight.tag},R={radius})")


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
    """Right-hand side f(x, s, xi) together with its declared partial
    derivatives and growth data.

    The evaluators broadcast over leading axes.  The operator passes x of
    shape (m, k, d) and s of shape (m, k), the k quadrature points of m
    cells, and xi of shape (m, 1, d), one gradient per cell; `fn` and `ds`,
    which gives df/ds, return the shape of s, and `dxi`, which gives df/dxi,
    returns that shape with a trailing d axis.  A stack of B states adds one
    leading axis to s and xi, (B, m, k) and (B, m, 1, d).  Where f has a
    kink, the partials declare a generalized value there and the family's
    docstring names it.  Constants for the different hypotheses are stored
    separately and never substituted for one another.
    """

    name: str
    fn: Callable[..., np.ndarray]
    ds: Callable[..., np.ndarray]
    dxi: Callable[..., np.ndarray]
    h2: GrowthH2
    h3: Optional[SignH3] = None
    h3a: Optional[SignH3a] = None
    h4: Optional[GrowthH4] = None

    def evaluate(self, x, s, xi):
        return np.asarray(self.fn(np.asarray(x, dtype=float),
                                  np.asarray(s, dtype=float),
                                  np.asarray(xi, dtype=float)), dtype=float)


def _no_slope(x, s, xi):
    return np.zeros_like(s)


def _no_gradient_slope(x, s, xi):
    return np.zeros(np.shape(s) + np.shape(xi)[-1:])


def _times_unit_power(c, xi, exponent: float, scale: float):
    """c[..., None] scale |xi|^{e-2} xi, with |xi|^{e-2} xi taken as 0 at
    xi = 0, where it has no limit for e < 2.  The component axis is
    outermost in memory, so each component is one contiguous array."""
    amp = vector_norm(xi)
    nonzero = amp > 0.0
    factor = np.where(nonzero, scale * np.where(nonzero, amp, 1.0)
                      ** (exponent - 2.0), 0.0)
    return np.moveaxis(c * np.moveaxis(factor[..., None] * xi, -1, 0), 0, -1)


def zero_convection() -> ConvectionFamily:
    return replace(constant_convection(0.0), name="zero")


def constant_convection(value: float) -> ConvectionFamily:
    value = float(value)

    def fn(x, s, xi):
        return np.full_like(s, value)

    mag = abs(value)
    return ConvectionFamily(
        name=f"constant({value})",
        fn=fn,
        ds=_no_slope,
        dxi=_no_gradient_slope,
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

    The partials are df/ds = (alpha-1)|s|^{alpha-2} + (1-s^2)/(1+s^2)^2
    (|xi|^{p-1} + h) and df/dxi = s/(1+s^2) (p-1)|xi|^{p-3} xi, the latter
    taken as 0 at xi = 0.  For alpha < 2 the power term has an infinite
    slope at s = 0; its declared slope there is 0, a generalized value that
    drops the power term from the Jacobian where u vanishes.
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
        amp = vector_norm(xi)
        # at alpha = 2, s + 0.0 has the bits of sign(s) |s|^1 in one pass:
        # -0.0 becomes +0.0, and NaN and +-inf pass through
        power = s + 0.0 if alpha == 2.0 \
            else np.sign(s) * np.abs(s) ** (alpha - 1.0)
        return power + s / (1.0 + s * s) * (amp ** (p - 1.0) + h_bound) + offset

    def ds(x, s, xi):
        sq = s * s
        den = 1.0 + sq
        slope = (1.0 - sq) / (den * den) * (vector_norm(xi) ** (p - 1.0)
                                            + h_bound)
        if alpha == 2.0:
            return slope + 1.0
        mag = np.abs(s)
        nonzero = mag > 0.0
        return slope + np.where(
            nonzero, (alpha - 1.0) * np.where(nonzero, mag, 1.0)
            ** (alpha - 2.0), 0.0)

    def dxi(x, s, xi):
        return _times_unit_power(s / (1.0 + s * s), xi, p - 1.0, p - 1.0)

    if alpha >= 2.0:
        sigma2 = 0.5 * h_bound + abs(offset)
        r2 = alpha - 1.0
    else:
        sigma2 = 0.5 * h_bound + abs(offset) + 1.0
        r2 = 1.0
    h2 = GrowthH2(sigma=sigma2, b=1.0, c=0.5, r1=1.0, r2=r2)

    try:
        two_power = 2.0 ** (p - 1.0)
    except OverflowError:
        raise OverflowError(f"saturating convection: 2**(p-1) overflows a "
                            f"float at p={p!r}") from None
    c1 = max(1.0 + abs(offset), two_power + h_bound + abs(offset))
    h3 = SignH3(c0=0.5, c1=c1, alpha=alpha) if alpha < p else None
    h3a = SignH3a(c0=0.5, c1=c1) if alpha == p else None
    h4 = GrowthH4(sigma=sigma2, c1=1.0, c2=0.5,
                  s_exponent=max(alpha - 1.0, 1.0), xi_exponent=p - 1.0)
    return ConvectionFamily(
        name=f"saturating(alpha={alpha},h={h_bound},offset={offset})",
        fn=fn, ds=ds, dxi=dxi, h2=h2, h3=h3, h3a=h3a, h4=h4)


def adversarial_convection(a0: float, p: float) -> ConvectionFamily:
    """f = 2 a0 |xi|^p sign(s) / (1 + |s|): grows too fast for any valid
    sign condition because f s approaches 2 a0 |xi|^p > c0 |xi|^p.

    For s != 0 the partials are df/ds = -2 a0 |xi|^p / (1 + |s|)^2 and
    df/dxi = 2 a0 p |xi|^{p-2} xi sign(s) / (1 + |s|).  f jumps at s = 0;
    the declared df/ds there is -2 a0 |xi|^p, the common limit of the two
    one-sided slopes, and df/dxi there is 0, the slope of f(x, 0, .) = 0.
    """
    a0, p = float(a0), float(p)

    def fn(x, s, xi):
        amp = vector_norm(xi)
        return 2.0 * a0 * amp ** p * np.sign(s) / (1.0 + np.abs(s))

    def ds(x, s, xi):
        den = 1.0 + np.abs(s)
        return -2.0 * a0 * vector_norm(xi) ** p / (den * den)

    def dxi(x, s, xi):
        return _times_unit_power(np.sign(s) / (1.0 + np.abs(s)), xi, p,
                                 2.0 * a0 * p)

    return ConvectionFamily(
        name=f"adversarial(a0={a0})",
        fn=fn,
        ds=ds,
        dxi=dxi,
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
    weight, convection family, operator variant, and coercivity regime.

    `sign_constants` gives the (c0, c1, alpha) of the regime's sign
    condition, and construction checks them: the block is declared, alpha
    lies in [1, p) under (H3), and c0 < a0, the weight's lower bound.
    """

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
        c0, _, alpha = self.sign_constants
        if self.regime == "H3" and not 1.0 <= alpha < self.p:
            raise HypothesisViolation(
                f"(H3) requires alpha in [1, p), got alpha={alpha}")
        a0 = self.weight.lower_bound
        if not c0 < a0:
            raise HypothesisViolation(
                f"({self.regime}) requires c0 < a0, got c0={c0}, a0={a0}")

    @property
    def sign_constants(self) -> Tuple[float, float, float]:
        """(c0, c1, alpha) of the regime's sign condition; alpha is p under
        (H3a), whose |s|^p term has no separate power."""
        block = self.convection.h3 if self.regime == "H3" \
            else self.convection.h3a
        if block is None:
            raise HypothesisViolation(
                f"({self.regime}) constants missing from the family")
        return (block.c0, block.c1,
                block.alpha if self.regime == "H3" else self.p)

    @property
    def q_sign(self) -> float:
        return -1.0 if self.variant == "competing" else 1.0


# ---------------------------------------------------------------------------
# assembly kernels
# ---------------------------------------------------------------------------
#
# A divergence term is a cellwise-constant flux with a cell weight; the
# convection term is f at the quadrature points.  Either is tested against
# every basis hat, a transposed product with one of the space's cell
# operators (the dof-array route), or integrated against one test function
# (the direct route).

def power_flux(grad, exponent: float):
    """|grad|^{e-2} grad over the last axis; where |grad| < eps at e < 2, the
    regularized (|grad|^2 + eps^2)^{(e-2)/2} grad, eps = REGULARIZATION;
    grad itself at e = 2."""
    if exponent == 2.0:
        return grad
    amp = vector_norm(grad)
    if exponent >= 2.0:
        factor = amp ** (exponent - 2.0)
    else:
        eps = REGULARIZATION
        small = amp < eps
        safe = np.where(small, 1.0, amp)
        factor = np.where(small,
                          (amp * amp + eps * eps) ** (0.5 * (exponent - 2.0)),
                          safe ** (exponent - 2.0))
    return factor[..., None] * grad


def _flux_slopes(amp: np.ndarray, exponent: float):
    """(c_I, c_o) with d(flux)/d(grad) = c_I I + c_o g g^T for the
    `power_flux` of cell gradients g of norm `amp`: |g|^{e-2} and
    (e-2)|g|^{e-4}, with |g|^2 -> |g|^2 + eps^2 on the same regularized
    cells, and c_o = 0 where g = 0; (1, 0) at e = 2."""
    if exponent == 2.0:
        return 1.0, 0.0
    sq = amp * amp
    if exponent < 2.0:
        eps = REGULARIZATION
        sq = np.where(amp < eps, sq + eps * eps, sq)
    c_id = sq ** (0.5 * (exponent - 2.0))
    return c_id, (exponent - 2.0) * c_id / np.where(sq > 0.0, sq, 1.0)


def _dual(transpose: sp.csc_matrix, rows: np.ndarray, label: str):
    """The dof vector transpose @ rows of (m, ...) cell rows, for the
    transpose of one of the space's cell operators; raises AssemblyError
    naming the first nonfinite cell."""
    if not np.all(np.isfinite(rows)):
        bad = int(np.argwhere(~np.isfinite(rows))[0][0])
        raise AssemblyError(f"nonfinite {label} contribution on cell {bad}")
    return transpose @ rows.ravel()


def _flux_pairing(flux: np.ndarray, cell_w: np.ndarray,
                  grad_v: np.ndarray):
    """int cell_w flux . grad_v over the cells; fluxes and gradients of
    shape (..., m, d) give one value per leading index.  The cellwise dot
    has the bits of einsum("cd,cd->c")."""
    return state_sums(cell_w * axis_dot(flux, grad_v), 1)


def power_flux_pairing(u: FeFunction, grad_v: np.ndarray, exponent: float):
    """int |grad u|^{e-2} grad u . grad_v for cell gradients grad_v; a stack
    u with (B, m, d) gradients grad_v gives B values."""
    flux = power_flux(cell_gradients(u), exponent)
    return _flux_pairing(flux, u.space.cell_measures, grad_v)


# ---------------------------------------------------------------------------
# the truncated operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemOperator:
    """The truncated operator A_R, evaluated on the space of its argument,
    so one operator serves every level of a hierarchy.

    `q_factor` scales the competing/cooperative divergence term and
    `load_factor` scales the convection term; both default to the full
    problem and exist for homotopy and continuation, whose stages are
    `dataclasses.replace` copies.  The factors are keyword-only.
    The operator keeps no evaluation state: every call computes its
    argument's pointwise data afresh, and the pointwise kernels broadcast
    over one leading axis of stacked states.
    """

    problem: Problem
    weight: WeightFunction
    _: KW_ONLY
    load_factor: float = 1.0
    q_factor: float = 1.0

    def _pointwise(self, u: FeFunction):
        """u's cell gradients, its quadrature values and the p-term's cell
        weight, the quadrature sum of g_R(u)."""
        grad, u_qp = cell_gradients(u), values_at_qp(u)
        return grad, u_qp, axis_dot(u.space.qp_weights,
                                    self.weight.evaluate(u_qp))

    def _terms(self, u: FeFunction):
        """u's cell gradients and quadrature values, (flux, cell weight) of
        the p- and q-terms, and f at the quadrature points, where xi is the
        (..., m, 1, d) cell gradients."""
        space, pr = u.space, self.problem
        grad, u_qp, p_w = self._pointwise(u)
        return ((grad, u_qp),
                (power_flux(grad, pr.p), p_w),
                (power_flux(grad, pr.q), space.cell_measures),
                pr.convection.evaluate(space.qp_points, u_qp,
                                       grad[..., None, :]))

    def _signed_parts(self, space: FeSpace, terms):
        _, (p_flux, p_w), (q_flux, q_w), fvals = terms
        G_T, phi = space.gradient_transpose, space.basis_qp[:, None, :]
        return (_dual(G_T, p_w[:, None] * p_flux, "weighted p-term"),
                self.problem.q_sign * self.q_factor
                * _dual(G_T, q_w[:, None] * q_flux, "gradient power term"),
                -self.load_factor * _dual(
                    space.incidence_transpose,
                    axis_dot(phi, space.qp_weights * fvals).T,
                    "convection term"))

    def _direct(self, u: FeFunction, terms, v: FeFunction):
        """<A_R(u), v> by direct integration from u's pointwise data; one
        value per row of a stack."""
        pointwise, (p_flux, p_w), (q_flux, q_w), fvals = terms
        # the guard pairs v with itself, whose pointwise data are u's
        grad_v, v_qp = pointwise if v is u \
            else (cell_gradients(v), values_at_qp(v))
        return (_flux_pairing(p_flux, p_w, grad_v)
                + self.problem.q_sign * self.q_factor
                * _flux_pairing(q_flux, q_w, grad_v)
                - self.load_factor
                * state_sums(u.space.qp_weights * fvals * v_qp, 2))

    def parts_and_pairing(self, u: FeFunction, v: FeFunction):
        """The signed p-, q- and f-parts of u as dof arrays, which sum to
        `residual(u)`, and `pairing(u, v)`, from one evaluation of u's
        pointwise data: the dof-array and direct routes that the
        condition-(c) table compares."""
        terms = self._terms(u)
        return (self._signed_parts(u.space, terms),
                float(self._direct(u, terms, v)))

    def residual(self, u: FeFunction) -> np.ndarray:
        """F(u) against every basis hat, one entry per dof."""
        p_part, q_part, f_part = self._signed_parts(u.space, self._terms(u))
        return p_part + q_part + f_part

    def jacobian(self, u: FeFunction) -> sp.csr_matrix:
        """CSR matrix of dF_i/du_j for F = residual(u), in closed form.

        On a P1 cell with gradient rows G, basis values Phi at the
        quadrature points and weights w, the flux derivative is
        c_I I + c_o g g^T, so G D G^T is c_I (G G^T) + c_o (G g)(G g)^T;
        the g_R' term is (G . flux_p) x ((w g_R') Phi^T), and the
        convection term is (w f_s)(Phi x Phi) + sum_d ((w f_xi,d) Phi^T) x
        G_d.  g_R', f_s and f_xi are the declared derivatives, so nothing is
        differenced: the weight is evaluated once, at u's quadrature values,
        for the p-term's cell weight, and the convection is not evaluated.
        At their kinks the declared generalized values make Newton a
        semismooth Newton method.  The matrix depends on u alone.
        """
        # the blocks' pointwise arrays are freed before the assembly, which
        # builds the space's plan on first use
        return assemble_matrix(u.space, self._cell_blocks(u))

    def _cell_blocks(self, u: FeFunction) -> np.ndarray:
        space, problem, family = u.space, self.problem, self.problem.convection
        grad, u_qp, p_w = self._pointwise(u)
        G, phi, w = space.grads, space.basis_qp, space.qp_weights
        # cell coefficients as (m, 1) columns; scalars at exponent 2
        amp = vector_norm(grad)[:, None]
        p_id, p_outer = _flux_slopes(amp, problem.p)
        q_id, q_outer = _flux_slopes(amp, problem.q)
        p_w = p_w[:, None]
        q_w = (problem.q_sign * self.q_factor * space.cell_measures)[:, None]
        blocks = (p_w * p_id + q_w * q_id)[:, :, None] * space.stiffness_blocks
        # both rank-one terms share the row factor G g: the outer-product
        # part of the flux derivatives, and the p-flux term G . flux_p =
        # c_I(p) G g times the cell weight's derivative through g_R
        g_dot = axis_dot(grad[:, None, :], G)                   # (m, nv)
        dg_w = (w * self.weight.derivative(u_qp)) @ phi.T
        cols = (p_w * p_outer + q_w * q_outer) * g_dot + p_id * dg_w
        blocks += g_dot[:, :, None] * cols[:, None, :]
        # f is -load_factor times the convection against the basis
        xi = grad[:, None, :]
        lw = -self.load_factor * w
        products = (phi[:, None, :] * phi[None, :, :]).reshape(-1, w.shape[1])
        blocks += ((lw * family.ds(space.qp_points, u_qp, xi))
                   @ products.T).reshape(blocks.shape)
        f_xi = family.dxi(space.qp_points, u_qp, xi)
        for d in range(G.shape[-1]):
            blocks += ((lw * f_xi[..., d]) @ phi.T)[:, :, None] \
                * G[:, None, :, d]
        return blocks

    def pairing(self, u: FeFunction, v: FeFunction):
        """<A_R(u), v> by direct integration; agrees with
        `residual(u) @ v.coeffs` but never assembles the dof array.

        Stacks u and v of B states give the array of the B row pairings,
        evaluated as one stack, so a caller with many rows passes them in
        `fespace.row_slices` chunks; every row has the bits of its own
        single-state pairing.
        """
        if v.space is not u.space or v.coeffs.shape != u.coeffs.shape:
            raise ValueError("pairing requires functions of one shape on "
                             "the same space")
        pairs = self._direct(u, self._terms(u), v)
        return float(pairs) if u.coeffs.ndim == 1 else pairs
