"""Conforming P1 spaces with zero boundary trace, norms, and prolongation.

Degrees of freedom are the interior vertices in vertex-index order; boundary
vertices always carry the value 0.  Gradients of P1 hats are cellwise
constant, which the norm and assembly routines exploit throughout.  Each
space owns its sparse matrices: the cell operators G and E, which map dof
vectors to cell gradients and vertex values and back by their transposes;
the assembly plan, whose summation operator S sums (nv, nv) cell blocks
into the CSR pattern over the dofs in one product; and the sparse solve in
that pattern.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshLevel, quadrature_for

__all__ = [
    "assemble_matrix",
    "sparse_solve",
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


# The summation matrix S of shape (nnz, m*nv*nv), whose row k holds 1.0 at
# every flat position of the (m, nv, nv) cell blocks that sums into CSR
# entry k, in cell order; and the CSR pattern over the dofs.
AssemblyPlan = namedtuple("AssemblyPlan", ["S", "indices", "indptr"])


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
        # SuperLU's column order for the plan's pattern, recorded by the
        # first `sparse_solve` on the space
        self._recorded_order = None
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
        keep = np.flatnonzero(inside[:, :, None] & inside[:, None, :])
        # the row and column dof of every kept block position; scipy's int32
        # index arrays, made one at a time, bound the peak memory
        rows = np.repeat(idx, nv, axis=1).ravel()[keep].astype(np.intc)
        cols = np.tile(idx, nv).ravel()[keep].astype(np.intc)
        keep = keep.astype(np.intc)
        # scipy's own pattern of the summed blocks, whose data become the
        # entry numbers that each block position looks up
        pattern = sp.csr_array((np.ones(keep.size, np.int8), (rows, cols)),
                               shape=(n, n))
        pattern.data = np.arange(pattern.nnz, dtype=np.intc)
        targets = pattern[rows, cols]
        del rows, cols
        S = sp.csr_matrix((np.ones(keep.size), (targets, keep)),
                          shape=(pattern.nnz, idx.size * nv))
        plan = AssemblyPlan(S, pattern.indices, pattern.indptr)
        for arr in (S.data, S.indices, S.indptr, plan.indices, plan.indptr):
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
        return self._cell_operator(np.repeat(self.cell_dofs, d, axis=0),
                                   self.grads.transpose(0, 2, 1)
                                   .reshape(m * d, nv))

    @functools.cached_property
    def incidence_operator(self) -> sp.csr_matrix:
        """E, the CSR matrix of shape (m*nv, n) taking coefficients to the
        values at each cell's vertices, built on first use.  Row c*nv + v
        holds 1.0 at the dof of vertex v of cell c and is empty for a
        boundary vertex, which reads +0.0; so does a -0.0 coefficient."""
        cols = self.cell_dofs.reshape(-1, 1)
        return self._cell_operator(cols, np.ones(cols.shape))

    def _cell_operator(self, cols: np.ndarray, vals: np.ndarray):
        # row r holds vals[r, j] at column cols[r, j] >= 0, in j order
        keep = cols >= 0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return sp.csr_matrix((vals[keep], cols[keep], indptr),
                             shape=(cols.shape[0], self.dim))

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


def assemble_matrix(space: FeSpace, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum per-cell (nv, nv) blocks into the CSR matrix over the dofs; the
    rows and columns of boundary vertices are dropped.  The pattern is that
    of `sp.csr_matrix((data, (rows, cols)))`, and each entry sums its blocks
    from +0.0 in cell order: one product with the plan's S."""
    plan = space.plan
    return sp.csr_matrix((plan.S @ blocks.ravel(), plan.indices, plan.indptr),
                         shape=(space.dim, space.dim))


# SuperLU's column order of a space's plan pattern: the inverse
# permutation, the positions of the CSR data in that column order, and the
# CSC pattern of the transpose with its columns in that order
_ColumnOrder = namedtuple("_ColumnOrder",
                          ["inverse", "take", "indices", "indptr"])


def _column_order(plan: AssemblyPlan, inverse: np.ndarray) -> _ColumnOrder:
    lengths = np.diff(plan.indptr)[inverse]
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intc)
    take = (np.repeat(plan.indptr[:-1][inverse] - indptr[:-1], lengths)
            + np.arange(indptr[-1]))
    return _ColumnOrder(inverse, take, plan.indices[take], indptr)


def sparse_solve(space: FeSpace, A: sp.csr_matrix,
                 b: np.ndarray) -> np.ndarray:
    """x with A x = b for a CSR matrix in the space's assembly pattern;
    all NaN where A is exactly singular.  A matrix in any other pattern
    raises a ValueError.

    As spla.spsolve does for a CSR matrix, SuperLU factors the CSC view of
    A^T and solves the transposed system.  Its fill-reducing column order
    (COLAMD, then a column elimination tree postorder) depends on the
    pattern alone, so the first factorization on a space records it on the
    space; every later one takes the data into that order and factors in
    natural order, which skips the ordering.  No factor is kept.  On every
    level of the bench workloads each solve has the bits of spsolve.
    """
    plan = space.plan
    if not (np.array_equal(A.indptr, plan.indptr)
            and np.array_equal(A.indices, plan.indices)):
        raise ValueError(f"the matrix is not in the pattern of {space}")
    order = space._recorded_order
    if order is None:
        data, indices, indptr, spec = A.data, A.indices, A.indptr, "COLAMD"
    else:
        data, indices, indptr = (np.take(A.data, order.take), order.indices,
                                 order.indptr)
        spec, b = "NATURAL", b[order.inverse]
    try:
        lu = spla.splu(sp.csc_matrix((data, indices, indptr), shape=A.shape),
                       permc_spec=spec)
    except RuntimeError:
        # SuperLU raises on an exactly singular factor
        return np.full(space.dim, np.nan)
    x = lu.solve(b, trans="T")
    if order is None:
        inverse = np.argsort(lu.perm_c)
        # free the factor first, so building the order adds nothing to the
        # peak memory of the factorization
        del lu
        space._recorded_order = _column_order(plan, inverse)
    return x


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
    summed row by row: numpy runs a reduction over the trailing axes of a
    stack in another order than the pairwise sum of one state."""
    if a.ndim == state_ndim:
        return np.sum(a)
    return np.array([np.sum(row) for row in a])


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
    if not np.allclose(data[:, :-1], mesh.vertices, rtol=0.0, atol=1e-12):
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
