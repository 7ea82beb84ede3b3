"""Conforming P1 spaces with zero boundary trace, norms, and prolongation.

Degrees of freedom are the interior vertices in vertex-index order; boundary
vertices always carry the value 0.  Gradients of P1 hats are cellwise
constant, which the norm and assembly routines exploit throughout.  Each
space owns its sparse matrices: the cell operators G and E, which map dof
vectors to cell gradients and vertex values and back by their transposes;
the assembly plan, an integer map from each (nv, nv) cell block position
to the CSR entry over the dofs that it sums into, which one bincount
follows; and the factor order, a fill-reducing order of the dofs read off
the mesh, in which `sparse_solve` factors every matrix of that pattern and
hands back the solve for the caller to keep for several right-hand sides.
A space holds no solver state: everything it caches follows from its
mesh, and the caches that only a solver reads are dropped by
`release_solver_caches` once a level is solved, to be built again on
demand.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshLevel, quadrature_for

__all__ = [
    "assemble_matrix",
    "sparse_solve",
    "release_solver_caches",
    "FeSpace",
    "FeFunction",
    "prolongate",
    "grad_norm_lp",
    "lr_norm",
    "sup_norm",
    "vector_norm",
    "axis_dot",
    "state_sums",
    "CHUNK_BYTES",
    "row_slices",
    "write_csv",
    "read_csv",
    "jsonable",
]


# The CSR entry into which each flat position of the (m, nv, nv) cell
# blocks sums, nnz for a position with a boundary vertex, whose block value
# is dropped; and the CSR pattern over the dofs, with nnz entries.
AssemblyPlan = namedtuple("AssemblyPlan", ["entry", "indices", "indptr"])

# The dofs in factorization order and its inverse, so that dof perm[k] is
# eliminated k-th and inverse[perm[k]] == k; and the positions of the plan's
# CSR data in the CSR pattern of P A P^T, whose rows and columns are in that
# order, with its column indices sorted within each row.  Those arrays, read
# as CSC, are P A^T P^T.  All are int32, as the plan's arrays are.
FactorOrder = namedtuple("FactorOrder",
                         ["perm", "inverse", "take", "indices", "indptr"])

# nested dissection stops at boxes of at most this many dofs, which keep
# the dof order.  On the finest level of the 2D cooperative 4 x 5 bench
# hierarchy (3 969 dofs), leaves of 8, 16, 32 and 64 dofs fill L + U of the
# Jacobian at its solution with 183 887, 185 337, 197 831 and 212 337
# nonzeros, against 251 779 by COLAMD; on a 2-core VM its factorization
# takes 5.8, 5.8, 7.0 and 9.1 ms, and the order 1.5-1.8 ms at each size
ND_LEAF = 16


class FeSpace:
    """Piecewise-linear functions on a mesh level vanishing on the boundary."""

    def __init__(self, mesh: MeshLevel):
        self.mesh = mesh
        self.quadrature = quadrature_for(mesh.domain.dim)
        self.dofs = np.flatnonzero(~mesh.boundary)
        self.dim = int(self.dofs.size)
        self.vertex_to_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
        self.vertex_to_dof[self.dofs] = np.arange(self.dim)
        self.cells = mesh.cells
        self.cell_measures = mesh.cell_measures
        self.cell_dofs = self.vertex_to_dof[self.cells]
        self._build_geometry()

    def _build_geometry(self):
        mesh, rule = self.mesh, self.quadrature
        pts = mesh.vertices[mesh.cells]            # (m, nv, d)
        v0 = pts[:, 0, :]
        if mesh.domain.dim == 1:
            h = (pts[:, 1, 0] - pts[:, 0, 0])[:, None]
            self.grads = np.stack([-1.0 / h, 1.0 / h], axis=1)     # (m, 2, 1)
            xi = rule.points[:, 0]
            self.basis_qp = np.stack([1.0 - xi, xi])               # (2, k)
            self.qp_points = v0[:, None, :] + rule.points[None, :, :] * (pts[:, 1, :] - v0)[:, None, :]
        else:
            e1 = pts[:, 1, :] - v0
            e2 = pts[:, 2, :] - v0
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
            g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
            self.grads = np.stack([-(g1 + g2), g1, g2], axis=1)    # (m, 3, 2)
            xi, eta = rule.points[:, 0], rule.points[:, 1]
            self.basis_qp = np.stack([1.0 - xi - eta, xi, eta])    # (3, k)
            self.qp_points = (v0[:, None, :]
                              + xi[None, :, None] * e1[:, None, :]
                              + eta[None, :, None] * e2[:, None, :])
        scale = self.cell_measures / rule.reference_measure
        self.qp_weights = rule.weights[None, :] * scale[:, None]   # (m, k)

    @functools.cached_property
    def plan(self) -> AssemblyPlan:
        """The space's assembly plan, built on first use; read-only."""
        idx, n = self.cell_dofs, self.dim
        nv = idx.shape[1]
        inside = idx >= 0
        kept = (inside[:, :, None] & inside[:, None, :]).ravel()
        # the row and column dof of every kept block position; scipy's int32
        # index arrays, made one at a time, bound the peak memory
        rows = np.repeat(idx, nv, axis=1).ravel()[kept].astype(np.intc)
        cols = np.tile(idx, nv).ravel()[kept].astype(np.intc)
        # scipy's own pattern of the summed blocks, whose data become the
        # entry numbers that each kept block position looks up
        pattern = sp.csr_array((np.ones(rows.size, np.int8), (rows, cols)),
                               shape=(n, n))
        pattern.data = np.arange(pattern.nnz, dtype=np.intc)
        # int32, like scipy's index arrays: bincount takes an intp copy of
        # it on each call, yet on the 2D cooperative 4 x 5 bench hierarchy
        # the run peaks 0.4 MB lower than with an intp map and factor
        # order (medians of 12 fresh-process verify runs, 2-core VM)
        entry = np.full(kept.size, pattern.nnz, dtype=np.intc)
        if pattern.nnz:
            # scipy answers a lookup of no positions with a sparse array
            entry[kept] = pattern[rows, cols]
        plan = AssemblyPlan(entry, pattern.indices, pattern.indptr)
        for arr in plan:
            arr.flags.writeable = False
        return plan

    @functools.cached_property
    def factor_order(self) -> FactorOrder:
        """The order in which `sparse_solve` eliminates the dofs, built on
        first use from the mesh alone; read-only.

        In 1D the dofs go by coordinate, so a tridiagonal matrix factors
        with no fill.  In 2D, nested dissection on the vertex lattice of
        uniform refinement (George, SIAM J. Numer. Anal. 10 (1973)
        345-363): every cell spans one lattice step per axis, so the dofs
        on one lattice line separate those on either side of it."""
        mesh, n = self.mesh, self.dim
        if mesh.domain.dim == 1:
            perm = np.argsort(mesh.vertices[self.dofs, 0], kind="stable")
        else:
            perm = _nested_dissection(_lattice(mesh, self.dofs))
        perm = perm.astype(np.intc)
        inverse = np.empty(n, dtype=np.intc)
        inverse[perm] = np.arange(n, dtype=np.intc)
        plan = self.plan
        # the rows of A in the order perm, their columns renumbered, then
        # sorted within each row by scipy, which carries the data positions
        lengths = np.diff(plan.indptr)[perm]
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intc)
        take = (np.repeat(plan.indptr[:-1][perm] - indptr[:-1], lengths)
                + np.arange(indptr[-1], dtype=np.intc))
        permuted = sp.csr_matrix(
            (take, inverse[plan.indices[take]].astype(np.intc), indptr),
            shape=(n, n))
        permuted.sort_indices()
        order = FactorOrder(perm, inverse, permuted.data, permuted.indices,
                            permuted.indptr)
        for arr in order:
            arr.flags.writeable = False
        return order

    @functools.cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """G, the CSR matrix of shape (m*d, n) taking coefficients to cell
        gradients, built on first use.  Row c*d + j holds grads[c, v, j] at
        the dof of every interior vertex v of cell c, in vertex order; a
        product sums each row from +0.0 in that order, as
        einsum("cv,cvd->cd") does, and the boundary terms it skips are the
        +-0.0 that add nothing to such a sum."""
        m, nv, d = self.grads.shape
        cols = self.cell_dofs.astype(np.intc)[:, None, :]
        return self._cell_operator(np.broadcast_to(cols, (m, d, nv)),
                                   self.grads.transpose(0, 2, 1))

    @functools.cached_property
    def incidence_operator(self) -> sp.csr_matrix:
        """E, the CSR matrix of shape (m*nv, n) taking coefficients to the
        values at each cell's vertices, built on first use.  Row c*nv + v
        holds 1.0 at the dof of vertex v of cell c and is empty for a
        boundary vertex, which reads +0.0; so does a -0.0 coefficient."""
        cols = self.cell_dofs.astype(np.intc)[:, :, None]
        return self._cell_operator(cols, np.ones(cols.shape))

    def _cell_operator(self, cols: np.ndarray, vals: np.ndarray):
        # one row per 1D slice along the last axis, in C order, holding
        # vals at each int32 column >= 0 in that order; int32 is scipy's
        # index dtype here, so it stores these arrays without a copy
        keep = cols >= 0
        indptr = np.zeros(keep[..., 0].size + 1, dtype=np.intc)
        np.cumsum(keep.sum(axis=-1, dtype=np.intc), out=indptr[1:])
        return sp.csr_matrix((vals[keep], cols[keep], indptr),
                             shape=(indptr.size - 1, self.dim))

    @functools.cached_property
    def gradient_transpose(self) -> sp.csc_matrix:
        """G^T, a view on G's arrays, which sums cell rows in cell order."""
        return self.gradient_operator.T

    @functools.cached_property
    def incidence_transpose(self) -> sp.csc_matrix:
        """E^T, a view on E's arrays, which sums cell rows in cell order."""
        return self.incidence_operator.T

    @functools.cached_property
    def stiffness_blocks(self) -> np.ndarray:
        """Cell blocks G G^T of shape (m, nv, nv), grad phi_v . grad phi_w
        without the cell measure, built on first use; read-only."""
        blocks = np.einsum("cvd,cwd->cvw", self.grads, self.grads)
        blocks.flags.writeable = False
        return blocks

    def __repr__(self):
        return f"FeSpace(level={self.mesh.level}, dim={self.dim})"


def release_solver_caches(space: FeSpace) -> None:
    """Drop the caches that only assembly and `sparse_solve` read: the
    space's plan, factor order and stiffness blocks.  Each follows from the
    mesh, so the next Jacobian or solve on the space builds it again, with
    the same bits."""
    for name in ("plan", "factor_order", "stiffness_blocks"):
        vars(space).pop(name, None)


def assemble_matrix(space: FeSpace, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum per-cell (nv, nv) blocks into the CSR matrix over the dofs; the
    rows and columns of boundary vertices are dropped.  The pattern is that
    of `sp.csr_matrix((data, (rows, cols)))`, and each entry sums its blocks
    from +0.0 in cell order: one bincount over the plan's entry map, whose
    last bin gathers the dropped block values."""
    plan = space.plan
    nnz = plan.indices.size
    data = np.bincount(plan.entry, weights=blocks.ravel(), minlength=nnz + 1)
    return sp.csr_matrix((data[:nnz], plan.indices, plan.indptr),
                         shape=(space.dim, space.dim))


def _lattice(mesh: MeshLevel, vertices: np.ndarray) -> np.ndarray:
    """Integer coordinates (i, j) of the given vertices of a 2D mesh on the
    lattice of its uniform refinement, whose step per axis is the extent of
    a cell; (0, 0) is the domain's lower-left corner."""
    step = np.ptp(mesh.vertices[mesh.cells[0]], axis=0)
    corner = np.array([lo for lo, _ in mesh.domain.bounds])
    return np.rint((mesh.vertices[vertices] - corner) / step).astype(np.intp)


def _nested_dissection(ij: np.ndarray) -> np.ndarray:
    """Nested-dissection order of points at integer coordinates ij (n, 2),
    one pass over every box of a depth at once.

    Every live point belongs to a box with bounds lo..hi and the first
    position `start` of its block of the order.  Each pass cuts every box
    of more than ND_LEAF points at the middle line across its longer side,
    x on a tie: the points on the line take the last positions of the
    box's block, and the left and right halves become boxes that start at
    the block's start and after the left half.  A point in a box of at
    most ND_LEAF points takes its box's start.  The order sorts by start,
    stably, so the points of one leaf or line keep their index order."""
    n = len(ij)
    if not n:
        return np.arange(0)
    start_of = np.zeros(n, dtype=np.intp)
    live = np.arange(n)
    box = np.zeros(n, dtype=np.intp)
    lo, hi = ij.min(axis=0, keepdims=True), ij.max(axis=0, keepdims=True)
    start = np.zeros(1, dtype=np.intp)
    while live.size:
        cut_box = np.bincount(box, minlength=len(start)) > ND_LEAF
        if not cut_box.all():
            leaf = ~cut_box[box]
            start_of[live[leaf]] = start[box[leaf]]
            live, box = live[~leaf], box[~leaf]
            box = (np.cumsum(cut_box) - 1)[box]
            lo, hi, start = lo[cut_box], hi[cut_box], start[cut_box]
        boxes = np.arange(len(start))
        axis = np.argmax(hi - lo, axis=1)
        cut = (lo[boxes, axis] + hi[boxes, axis]) // 2
        # -1 left of the line, 0 on it, 1 right of it
        side = np.sign(ij[live, axis[box]] - cut[box])
        counts = np.bincount(3 * box + side + 1,
                             minlength=3 * len(start)).reshape(-1, 3)
        on = side == 0
        start_of[live[on]] = (start + counts[:, 0] + counts[:, 2])[box[on]]
        live, box, right = live[~on], box[~on], side[~on] > 0
        # box b's halves are boxes 2b (left) and 2b + 1 (right)
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        hi[2 * boxes, axis] = cut - 1
        lo[2 * boxes + 1, axis] = cut + 1
        start = np.column_stack([start, start + counts[:, 0]]).ravel()
        box = 2 * box + right
    return np.argsort(start_of, kind="stable")


# SuperLU's diagonal pivot threshold: the diagonal entry is the pivot
# unless it is below this fraction of its column's largest, so a pivot
# leaves the diagonal, and adds fill beyond the factor order's, only where
# the diagonal is that small.  At 1, partial pivoting, the bench
# hierarchies' factors fill as at 0.01 (compete-2d-load's 70 in all by
# 203 nonzeros more, 0.06 %), and the seeded sweep (tests/sweep.py) moves
# less against the recorded COLAMD order this replaced: one level by one
# step, against two levels of two configs by 6 steps at 0.01
PIVOT_THRESHOLD = 1.0


def sparse_solve(space: FeSpace, A: sp.csr_matrix, b: np.ndarray) -> tuple:
    """x with A x = b for a CSR matrix in the space's assembly pattern, and
    the solve rhs -> A^-1 rhs by A's SuperLU factor, which lives as long as
    that solve: a caller that keeps it solves again without factoring.  Both
    are all NaN where A is exactly singular.  A matrix in any other pattern
    raises a ValueError.

    Every matrix is factored one way.  Its data are taken into the space's
    factor order, as P A^T P^T in CSC, which SuperLU factors in natural
    order in its symmetric mode with a diagonal pivot threshold of
    PIVOT_THRESHOLD; the solve is the transposed one, in the permuted dofs.
    """
    plan = space.plan
    # an assembled matrix holds the plan's own index arrays
    if not all(a is b or np.array_equal(a, b) for a, b in
               ((A.indptr, plan.indptr), (A.indices, plan.indices))):
        raise ValueError(f"the matrix is not in the pattern of {space}")
    order = space.factor_order
    permuted = sp.csc_matrix((np.take(A.data, order.take), order.indices,
                              order.indptr), shape=A.shape)
    try:
        lu = spla.splu(permuted, permc_spec="NATURAL",
                       diag_pivot_thresh=PIVOT_THRESHOLD,
                       options={"SymmetricMode": True})
    except RuntimeError:
        # SuperLU raises on an exactly singular factor
        lu = None

    def solve(rhs: np.ndarray) -> np.ndarray:
        if lu is None:
            return np.full(space.dim, np.nan)
        return lu.solve(rhs[order.perm], trans="T")[order.inverse]

    return solve(b), solve


@dataclass
class FeFunction:
    """Coefficients over the interior dofs of a space.

    A (B, n) array of coefficients stacks B states; gradients, quadrature
    and vertex values, gradient norms, prolongation and the operator
    pairing then get one leading axis of length B.  Any other shape is
    flattened to one state.
    """

    space: FeSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.array(self.coeffs, dtype=float)
        if self.coeffs.ndim != 2:
            self.coeffs = self.coeffs.reshape(-1)
        if self.coeffs.shape[-1] != self.space.dim:
            raise ValueError(f"expected {self.space.dim} coefficients, "
                             f"got {self.coeffs.shape[-1]}")

    @classmethod
    def zero(cls, space: FeSpace) -> "FeFunction":
        return cls(space, np.zeros(space.dim))

    def full_values(self) -> np.ndarray:
        """Values at every vertex, +0.0 on the boundary."""
        out = np.zeros(self.coeffs.shape[:-1] + (self.space.mesh.n_vertices,))
        out[..., self.space.dofs] = self.coeffs
        return out

    def copy(self) -> "FeFunction":
        return FeFunction(self.space, self.coeffs.copy())

    def _binary(self, other, op):
        if not isinstance(other, FeFunction) or other.space is not self.space:
            raise ValueError("operands must live on the same FeSpace")
        return FeFunction(self.space, op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return FeFunction(self.space, self.coeffs * float(scalar))

    __rmul__ = __mul__


def axis_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a[..., j] * b[..., j] over the last axis, which the two share,
    with the leading axes broadcast.  The sum runs from +0.0 in axis order,
    the order in which np.sum(a * b, axis=-1) runs over the short component
    and quadrature axes of cell arrays, so the bits are its bits, at a
    fraction of its cost."""
    total = 0.0 + a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        total += a[..., j] * b[..., j]
    return total


def vector_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, the square root of the sum of
    squares in axis order: the bits of np.linalg.norm(a, axis=-1) on the
    one- and two-component vectors of the package's domains."""
    return np.sqrt(axis_dot(a, a))


# bytes of one pointwise (rows, m, k) float array of a stack of states; a
# stack is evaluated that many rows at a time, which bounds peak memory and
# keeps a chunk's arrays in cache
CHUNK_BYTES = 256 * 1024


def row_slices(space: FeSpace, rows: int) -> list:
    """Consecutive slices of `rows` stacked states on `space`, each as many
    rows as keep one (rows, m, k) float array within CHUNK_BYTES, and at
    least one."""
    step = max(1, CHUNK_BYTES // (space.qp_weights.size * 8))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def state_sums(a: np.ndarray, state_ndim: int):
    """np.sum of one state's array, whose dimension is `state_ndim`, or the
    array of such sums over a stack with one leading axis.  A stack is
    reduced in one call over a C-ordered copy flattened to one row per
    state, so each row keeps the pairwise order and the bits of np.sum of
    that state alone.  The copy matters: the flux pairings' stacks inherit
    the transposed layout of `cell_gradients`, on which numpy reduces in
    memory order."""
    if a.ndim == state_ndim:
        return np.sum(a)
    rows = np.ascontiguousarray(a).reshape(len(a), math.prod(a.shape[1:]))
    return rows.sum(axis=1)


def cell_gradients(u: FeFunction) -> np.ndarray:
    """Constant gradient of u on every cell, shape (m, dim), or (B, m, dim)
    for a stack: one product with the space's gradient operator G."""
    m, _, d = u.space.grads.shape
    flat = u.space.gradient_operator @ u.coeffs.T
    return flat.T.reshape(u.coeffs.shape[:-1] + (m, d))


def values_at_qp(u: FeFunction) -> np.ndarray:
    """u evaluated at all physical quadrature points, shape (m, k), or
    (B, m, k) for a stack: the vertex values E u times the basis."""
    m, nv = u.space.cells.shape
    flat = u.space.incidence_operator @ u.coeffs.T
    return flat.T.reshape(u.coeffs.shape[:-1] + (m, nv)) @ u.space.basis_qp


def grad_norm_lp(u: FeFunction, p: float):
    """||grad u||_{L^p}, exact for P1; a stack gives B norms.  Each p-th
    root is per scalar: array and scalar pow can differ in the last bit.  A
    row whose plain sum over- or underflows, its cell norms included, is
    summed again with its gradients divided by their largest component
    magnitude, so no other row moves a bit."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    grads = cell_gradients(u)
    with np.errstate(over="ignore"):
        totals = state_sums(u.space.cell_measures * vector_norm(grads) ** p,
                            1)
    roots = [t ** (1.0 / p) for t in np.atleast_1d(totals)]
    for b, row in enumerate(grads.reshape(len(roots), *grads.shape[-2:])):
        if not 0.0 < roots[b] < np.inf and (top := np.max(np.abs(row))) > 0.0:
            total = np.sum(u.space.cell_measures
                           * vector_norm(row / top) ** p)
            roots[b] = top * total ** (1.0 / p)
    return float(roots[0]) if np.ndim(totals) == 0 else np.array(roots)


def lr_norm(u: FeFunction, r: float) -> float:
    """||u||_{L^r} by the cell quadrature rule.

    Exact for r in {1, 2} on sign-constant cells; approximate otherwise.
    """
    if r < 1.0:
        raise ValueError(f"r must be >= 1, got {r}")
    vals = np.abs(values_at_qp(u)) ** r
    return float(np.sum(u.space.qp_weights * vals) ** (1.0 / r))


def sup_norm(u: FeFunction) -> float:
    """||u||_{C(closure)} = max vertex magnitude (P1 attains extrema at vertices)."""
    return float(np.max(np.abs(u.coeffs))) if u.coeffs.size else 0.0


def prolongate(u: FeFunction, finer: FeSpace) -> FeFunction:
    """Exact embedding of u into a refinement descendant space; a stack
    gives the stack of its rows' embeddings, each with its own bits.

    Each refinement keeps the parent values and appends the mean of the two
    ends of every midpoint edge; a boundary midpoint halves a boundary edge,
    so it gets the +0.0 of its ends.
    """
    chain, mesh = [], finer.mesh
    while mesh is not u.space.mesh:
        if mesh is None:
            raise ValueError("target space is not a refinement descendant")
        chain.append(mesh.parent_edges)
        mesh = mesh.parent
    vals = u.full_values()
    for a, b in (edges.T for edges in reversed(chain)):
        vals = np.concatenate([vals, vals[..., a] * 0.5 + vals[..., b] * 0.5],
                              axis=-1)
    return FeFunction(finer, vals[..., finer.dofs])


# ---------------------------------------------------------------------------
# serialization: CSV with one row per vertex (boundary rows carry value 0),
# JSON for report dataclasses
# ---------------------------------------------------------------------------

def write_csv(u: FeFunction, path) -> None:
    mesh = u.space.mesh
    header = "x,value" if mesh.domain.dim == 1 else "x,y,value"
    rows = np.column_stack((mesh.vertices, u.full_values())).tolist()
    with open(path, "w") as fh:
        fh.write("\n".join([header] + [",".join(map(repr, row))
                                       for row in rows]) + "\n")


def read_csv(space: FeSpace, path) -> FeFunction:
    mesh = space.mesh
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    data = np.array([[float(tok) for tok in row.split(",")] for row in rows[1:]])
    if data.shape != (mesh.n_vertices, mesh.domain.dim + 1):
        raise ValueError(f"{path}: expected {mesh.n_vertices} vertex rows")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value")
    if not np.all(np.abs(data[:, :-1] - mesh.vertices)
                  <= mesh.domain.coordinate_tolerances):
        raise ValueError(f"{path}: vertex coordinates do not match the mesh")
    if np.max(np.abs(data[mesh.boundary, -1]), initial=0.0) > 0.0:
        raise ValueError(f"{path}: nonzero value on a boundary vertex")
    return FeFunction(space, data[space.dofs, -1])


def jsonable(obj):
    """Plain JSON data from dataclasses, containers and numpy values.

    Dataclass fields with metadata {"live": True} hold live objects (spaces,
    solutions, operators) and are left out.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
               if not f.metadata.get("live")}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj
