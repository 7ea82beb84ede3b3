"""Conforming P1 spaces with zero boundary trace, norms, and prolongation.

Degrees of freedom are the interior vertices, numbered in the order in
which `sparse_solve` eliminates them, a fill-reducing order read off the
mesh; boundary vertices always carry the value 0.  A space has at least one
dof, and its dof maps are int32, scipy's sparse index dtype, from the
start.  Gradients of P1 hats are
cellwise constant, which the norm and assembly routines exploit
throughout.  Each space owns its sparse matrices: the cell operators G and
E, which map dof vectors to cell gradients and vertex values and back by
their transposes; and the assembly plan, an integer map from each (nv, nv)
cell block position to the CSR entry over the dofs that it sums into,
which one bincount follows.  `sparse_solve` factors every matrix of that
pattern as it stands and hands back the solve for the caller to keep for
several right-hand sides.  A space holds no solver state: everything it
caches follows from its mesh, and the caches that only a solver reads are
dropped by `release_solver_caches` once a level is solved, to be built
again on demand.
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

from .mesh import MeshError, MeshLevel, quadrature_for

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

# nested dissection stops at boxes of at most this many dofs, which keep
# their vertex-index order.  On the finest level of the 2D cooperative
# 4 x 5 bench hierarchy (3 969 dofs), leaves of 8, 16, 32 and 64 dofs fill
# L + U of the Jacobian at its solution with 183 887, 185 337, 197 831 and
# 212 337 nonzeros, against 251 779 by COLAMD; on a 2-core VM its
# factorization takes 5.8, 5.8, 7.0 and 9.1 ms, and the order 1.5-1.8 ms at
# each size
ND_LEAF = 16


class FeSpace:
    """Piecewise-linear functions on a mesh level vanishing on the boundary.

    Dof k is the interior vertex dofs[k], and SuperLU eliminates the dofs
    in that order.  In 1D they go by coordinate, so a tridiagonal matrix
    factors with no fill.  In 2D, nested dissection on the vertex lattice
    of uniform refinement (George, SIAM J. Numer. Anal. 10 (1973) 345-363):
    every cell spans one lattice step per axis, so the dofs on one lattice
    line separate those on either side of it.  vertex_to_dof, -1 on the
    boundary, and cell_dofs are int32.  A mesh with no interior vertex has
    no such space and raises a MeshError."""

    def __init__(self, mesh: MeshLevel):
        self.mesh = mesh
        self.quadrature = quadrature_for(mesh.domain.dim)
        interior = np.flatnonzero(~mesh.boundary)
        if not interior.size:
            raise MeshError(f"{mesh} has no interior vertex, so no dof")
        if mesh.domain.dim == 1:
            order = np.argsort(mesh.vertices[interior, 0], kind="stable")
        else:
            order = _nested_dissection(_lattice(mesh, interior))
        self.dofs = interior[order]
        self.dim = int(self.dofs.size)
        self.vertex_to_dof = np.full(mesh.n_vertices, -1, dtype=np.intc)
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
        # the row and column dof of every kept block position, made one at
        # a time, which bounds the peak memory
        rows = np.repeat(idx, nv, axis=1).ravel()[kept]
        cols = np.tile(idx, nv).ravel()[kept]
        # scipy's own pattern of the summed blocks, whose data become the
        # entry numbers that each kept block position looks up
        pattern = sp.csr_array((np.ones(rows.size, np.int8), (rows, cols)),
                               shape=(n, n))
        pattern.data = np.arange(pattern.nnz, dtype=np.intc)
        # int32, like scipy's index arrays: bincount takes an intp copy of
        # it on each call, yet on the 2D cooperative 4 x 5 bench hierarchy
        # the run peaks 0.4 MB lower than with intp index maps (medians of
        # 12 fresh-process verify runs, 2-core VM)
        entry = np.full(kept.size, pattern.nnz, dtype=np.intc)
        entry[kept] = pattern[rows, cols]
        plan = AssemblyPlan(entry, pattern.indices, pattern.indptr)
        for arr in plan:
            arr.flags.writeable = False
        return plan

    @functools.cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """G, the CSR matrix of shape (m*d, n) taking coefficients to cell
        gradients, built on first use.  Row c*d + j holds grads[c, v, j] at
        the dof of every interior vertex v of cell c, in vertex order; a
        product sums each row from +0.0 in that order, as
        einsum("cv,cvd->cd") does, and the boundary terms it skips are the
        +-0.0 that add nothing to such a sum."""
        m, nv, d = self.grads.shape
        cols = self.cell_dofs[:, None, :]
        return self._cell_operator(np.broadcast_to(cols, (m, d, nv)),
                                   self.grads.transpose(0, 2, 1))

    @functools.cached_property
    def incidence_operator(self) -> sp.csr_matrix:
        """E, the CSR matrix of shape (m*nv, n) taking coefficients to the
        values at each cell's vertices, built on first use.  Row c*nv + v
        holds 1.0 at the dof of vertex v of cell c and is empty for a
        boundary vertex, which reads +0.0; so does a -0.0 coefficient."""
        cols = self.cell_dofs[:, :, None]
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
    space's plan and stiffness blocks.  Each follows from the mesh, so the
    next Jacobian or solve on the space builds it again, with the same
    bits."""
    for name in ("plan", "stiffness_blocks"):
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
    a cell; (0, 0) is the domain's lower-left corner.  `FeSpace` orders its
    dofs by nested dissection on these coordinates."""
    step = np.ptp(mesh.vertices[mesh.cells[0]], axis=0)
    corner = np.array([lo for lo, _ in mesh.domain.bounds])
    return np.rint((mesh.vertices[vertices] - corner) / step).astype(np.intp)


def _nested_dissection(ij: np.ndarray) -> np.ndarray:
    """Nested-dissection order of points at integer coordinates ij (n, 2),
    a recursion over boxes lo..hi that starts from the points' own bounding
    box.  A box of at most ND_LEAF points keeps their index order.  A larger
    box is cut at cut = (lo + hi) // 2 on its longer side, x on a tie, and
    orders the left half, bounded at cut - 1, then the right half, bounded
    at cut + 1, then the points on the line, in index order."""
    def order(idx, lo, hi):
        if idx.size <= ND_LEAF:
            return [idx]
        axis = int(hi[1] - lo[1] > hi[0] - lo[0])
        cut = (lo[axis] + hi[axis]) // 2
        side = ij[:, axis][idx]
        left_hi, right_lo = list(hi), list(lo)
        left_hi[axis], right_lo[axis] = cut - 1, cut + 1
        return (order(idx[side < cut], lo, left_hi)
                + order(idx[side > cut], right_lo, hi) + [idx[side == cut]])

    return np.concatenate(order(np.arange(len(ij)), ij.min(axis=0).tolist(),
                                ij.max(axis=0).tolist()))


# SuperLU's diagonal pivot threshold: the diagonal entry is the pivot
# unless it is below this fraction of its column's largest, so a pivot
# leaves the diagonal, and adds fill beyond the dof order's, only where
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

    Every matrix is factored one way.  A's own CSR arrays, read as CSC,
    are A^T, which SuperLU factors in natural order, the space's dof order,
    in its symmetric mode with a diagonal pivot threshold of
    PIVOT_THRESHOLD; the solve is the transposed one.
    """
    plan = space.plan
    # an assembled matrix holds the plan's own index arrays
    if not all(a is b or np.array_equal(a, b) for a, b in
               ((A.indptr, plan.indptr), (A.indices, plan.indices))):
        raise ValueError(f"the matrix is not in the pattern of {space}")
    try:
        lu = spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr),
                                     shape=A.shape), permc_spec="NATURAL",
                       diag_pivot_thresh=PIVOT_THRESHOLD,
                       options={"SymmetricMode": True})
    except RuntimeError:
        # SuperLU raises on an exactly singular factor
        lu = None

    def solve(rhs: np.ndarray) -> np.ndarray:
        if lu is None:
            return np.full(space.dim, np.nan)
        return lu.solve(rhs, trans="T")

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
    return float(np.max(np.abs(u.coeffs)))


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
    # write_csv writes repr, which reads back to the same float
    if not np.array_equal(data[:, :-1], mesh.vertices):
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
