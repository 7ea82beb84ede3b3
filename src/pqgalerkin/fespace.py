"""Conforming P1 spaces with zero boundary trace, norms, and prolongation.

Degrees of freedom are the interior vertices in vertex-index order; boundary
vertices always carry the value 0.  Gradients of P1 hats are cellwise
constant, which the norm and assembly routines exploit throughout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .mesh import MeshLevel, QuadratureRule, quadrature_for

__all__ = [
    "FeSpace",
    "FeFunction",
    "DualVector",
    "prolongate",
    "grad_norm_lp",
    "lr_norm",
    "sup_norm",
    "pair",
    "write_csv",
    "read_csv",
    "jsonable",
]


class FeSpace:
    """Piecewise-linear functions on a mesh level vanishing on the boundary."""

    def __init__(self, mesh: MeshLevel, quadrature: Optional[QuadratureRule] = None):
        self.mesh = mesh
        self.quadrature = quadrature or quadrature_for(mesh.domain.dim)
        if self.quadrature.dim != mesh.domain.dim:
            raise ValueError("quadrature dimension does not match the mesh")
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

    def __repr__(self):
        return f"FeSpace(level={self.mesh.level}, dim={self.dim})"


@dataclass
class FeFunction:
    """Coefficients over the interior dofs of a space."""

    space: FeSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.array(self.coeffs, dtype=float).reshape(-1)
        if self.coeffs.size != self.space.dim:
            raise ValueError(
                f"expected {self.space.dim} coefficients, got {self.coeffs.size}")

    @classmethod
    def zero(cls, space: FeSpace) -> "FeFunction":
        return cls(space, np.zeros(space.dim))

    def full_values(self) -> np.ndarray:
        out = np.zeros(self.space.mesh.n_vertices)
        out[self.space.dofs] = self.coeffs
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

    def __neg__(self):
        return FeFunction(self.space, -self.coeffs)


@dataclass
class DualVector:
    """Values of a functional against every interior basis hat."""

    space: FeSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float).reshape(-1)
        if self.values.size != self.space.dim:
            raise ValueError(
                f"expected {self.space.dim} entries, got {self.values.size}")

    def _binary(self, other, op):
        if not isinstance(other, DualVector) or other.space is not self.space:
            raise ValueError("operands must live on the same FeSpace")
        return DualVector(self.space, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return DualVector(self.space, self.values * float(scalar))

    __rmul__ = __mul__


def pair(functional: DualVector, v: FeFunction) -> float:
    """Duality pairing <F, v> = sum_i F_i v_i."""
    if functional.space is not v.space:
        raise ValueError("pairing requires a common FeSpace")
    return float(functional.values @ v.coeffs)


def _cell_values(u: FeFunction) -> np.ndarray:
    return u.full_values()[u.space.cells]


def cell_gradients(u: FeFunction) -> np.ndarray:
    """Constant gradient of u on every cell, shape (m, dim)."""
    return np.einsum("cv,cvd->cd", _cell_values(u), u.space.grads)


def values_at_qp(u: FeFunction) -> np.ndarray:
    """u evaluated at all physical quadrature points, shape (m, k)."""
    return _cell_values(u) @ u.space.basis_qp


def grad_norm_lp(u: FeFunction, p: float) -> float:
    """||grad u||_{L^p}; exact for P1 since |grad u| is cellwise constant."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    amp = np.linalg.norm(cell_gradients(u), axis=1)
    return float(np.sum(u.space.cell_measures * amp ** p) ** (1.0 / p))


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


def _mesh_chain(coarse: MeshLevel, fine: MeshLevel) -> List[MeshLevel]:
    chain = []
    m = fine
    while m is not None and m is not coarse:
        chain.append(m)
        m = m.parent
    if m is not coarse:
        raise ValueError("target space is not a refinement descendant")
    return list(reversed(chain))


def prolongate(u: FeFunction, finer: FeSpace) -> FeFunction:
    """Exact embedding of u into a refinement descendant space."""
    if finer.mesh is u.space.mesh:
        return u.copy()
    vals = u.full_values()
    for mesh in _mesh_chain(u.space.mesh, finer.mesh):
        idx, wts = mesh.parent_indices, mesh.parent_weights
        vals = vals[idx[:, 0]] * wts[:, 0] + vals[idx[:, 1]] * wts[:, 1]
        vals[mesh.boundary] = 0.0
    return FeFunction(finer, vals[finer.dofs])


# ---------------------------------------------------------------------------
# serialization: CSV with one row per vertex (boundary rows carry value 0),
# JSON for report dataclasses
# ---------------------------------------------------------------------------

def write_csv(u: FeFunction, path) -> None:
    mesh = u.space.mesh
    full = u.full_values()
    header = "x,value" if mesh.domain.dim == 1 else "x,y,value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for pt, val in zip(mesh.vertices, full):
            coords = ",".join(repr(float(c)) for c in pt)
            fh.write(f"{coords},{float(val)!r}\n")


def read_csv(space: FeSpace, path) -> FeFunction:
    mesh = space.mesh
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    data = np.array([[float(tok) for tok in row.split(",")] for row in rows[1:]])
    if data.shape != (mesh.n_vertices, mesh.domain.dim + 1):
        raise ValueError(f"{path}: expected {mesh.n_vertices} vertex rows")
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
