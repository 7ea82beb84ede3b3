"""Simplicial interval and rectangle meshes with uniform nested refinement.

Level-0 meshes partition an interval into equal cells, or an axis-aligned
rectangle into a structured triangulation.  Refinement bisects every interval
cell (red-refines every triangle), so each vertex of a level is either a
parent vertex or an edge midpoint; the midpoint edges record that embedding
and make piecewise-linear prolongation exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "MeshError",
    "Domain",
    "MeshLevel",
    "QuadratureRule",
    "build_mesh",
    "refine",
    "quadrature_for",
    "gauss2_rule",
    "triangle_rule_degree4",
]


class MeshError(ValueError):
    """Invalid mesh construction input."""


@dataclass(frozen=True)
class Domain:
    """Open interval (a, b) or axis-aligned rectangle (a, b) x (c, d)."""

    dim: int
    bounds: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise MeshError(f"only dimensions 1 and 2 are supported, got {self.dim}")
        if len(self.bounds) != self.dim:
            raise MeshError("bounds do not match dimension")
        for lo, hi in self.bounds:
            if not hi > lo:
                raise MeshError(f"inverted or empty bounds ({lo}, {hi})")
        if not math.isfinite(self.measure):
            raise MeshError(f"bounds {self.bounds} give a side length or "
                            f"measure beyond the float range")

    @staticmethod
    def interval(a: float, b: float) -> "Domain":
        return Domain(1, ((float(a), float(b)),))

    @staticmethod
    def rectangle(a: float, b: float, c: float, d: float) -> "Domain":
        return Domain(2, ((float(a), float(b)), (float(c), float(d))))

    @property
    def measure(self) -> float:
        return math.prod(self.side_lengths)

    @property
    def side_lengths(self) -> Tuple[float, ...]:
        return tuple(hi - lo for lo, hi in self.bounds)


class MeshLevel:
    """One level of a nested simplicial mesh hierarchy.

    Attributes
    ----------
    level : int
        0 for a freshly built mesh, parent.level + 1 after refinement.
    vertices : (n, dim) float array
    cells : (m, dim + 1) int array of vertex indices
    boundary : (n,) bool array, True exactly for vertices on the domain boundary
    cell_measures : (m,) float array of cell lengths / areas
    parent : MeshLevel or None
    parent_edges : (E, 2) int array or None
        The parent vertices (lo, hi) of each parent edge, in order: vertex
        parent.n_vertices + k is the midpoint of edge k, and the first
        parent.n_vertices vertices are the parent's own.
    """

    def __init__(self, level, domain, vertices, cells, parent=None,
                 parent_edges=None):
        self.level = int(level)
        self.domain = domain
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.parent: Optional[MeshLevel] = parent
        self.parent_edges = parent_edges
        self.boundary = _boundary_mask(domain, self.vertices)
        self.cell_measures = _cell_measures(domain.dim, self.vertices, self.cells)
        sound = np.isfinite(self.cell_measures) & (self.cell_measures > 0.0)
        if not sound.all():
            bad = int(np.argmin(sound))
            raise MeshError(f"degenerate cell {bad} with measure {self.cell_measures[bad]}")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def __repr__(self):
        return (f"MeshLevel(level={self.level}, dim={self.domain.dim}, "
                f"vertices={self.n_vertices}, cells={self.n_cells})")


def _boundary_mask(domain: Domain, pts: np.ndarray) -> np.ndarray:
    # exact: linspace returns its endpoints exactly, the meshgrid rows and
    # columns copy them, and a boundary edge's midpoint is 0.5 a + 0.5 a = a.
    # An interior vertex rounds onto a bound only with a zero-measure cell,
    # which MeshLevel rejects
    mask = np.zeros(pts.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(domain.bounds):
        mask |= (pts[:, axis] == lo) | (pts[:, axis] == hi)
    return mask


def _cell_measures(dim: int, pts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    if dim == 1:
        return np.abs(pts[cells[:, 1], 0] - pts[cells[:, 0], 0])
    e1 = pts[cells[:, 1]] - pts[cells[:, 0]]
    e2 = pts[cells[:, 2]] - pts[cells[:, 0]]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def build_mesh(domain: Domain, base_cells: Union[int, Tuple[int, int]]) -> MeshLevel:
    """Build a level-0 mesh with `base_cells` uniform cells (per side in 2D).

    Interval domains require an integer cell count >= 2.  Rectangles accept an
    integer (same count on both sides) or an (nx, ny) pair, each entry >= 2.
    """
    if domain.dim == 1:
        n = _positive_count(base_cells)
        (a, b), = domain.bounds
        verts = np.linspace(a, b, n + 1).reshape(-1, 1)
        cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        return MeshLevel(0, domain, verts, cells)

    if isinstance(base_cells, (tuple, list)):
        nx, ny = (_positive_count(c) for c in base_cells)
    else:
        nx = ny = _positive_count(base_cells)
    (a, b), (c, d) = domain.bounds
    xs = np.linspace(a, b, nx + 1)
    ys = np.linspace(c, d, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    # lower-left vertex of each square, row by row; two triangles per square
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v01 = v00 + nx + 1
    cells = np.column_stack([v00, v00 + 1, v01 + 1, v00, v01 + 1, v01])
    return MeshLevel(0, domain, verts, cells.reshape(-1, 3))


def _positive_count(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise MeshError(f"cell count must be an integer, got {n!r}")
    if n < 2:
        raise MeshError(f"need at least 2 cells per side, got {n}")
    return int(n)


# per dimension: a cell's local edges in visiting order, and its children as
# local indices into (cell vertices..., edge midpoints...)
_EDGES = {1: np.array([[0, 1]]), 2: np.array([[0, 1], [1, 2], [2, 0]])}
_CHILDREN = {1: np.array([[0, 2], [2, 1]]),
             2: np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])}


def refine(mesh: MeshLevel) -> MeshLevel:
    """Uniformly refine: bisect interval cells, red-refine triangles.

    Parent vertices keep their indices; midpoint vertices are appended in the
    order their edges are first visited (cells in order, each cell's edges in
    table order), so refinement is reproducible.
    """
    dim, n, verts = mesh.domain.dim, mesh.n_vertices, mesh.vertices
    ends = np.sort(mesh.cells[:, _EDGES[dim]].reshape(-1, 2), axis=1)
    _, first, inverse = np.unique(ends[:, 0] * n + ends[:, 1],
                                  return_index=True, return_inverse=True)
    # rank the distinct edges by their first visit
    order = np.argsort(first)
    edges = ends[first[order]]
    mids = n + np.argsort(order)[inverse].reshape(mesh.n_cells, -1)
    # 0.5 a + 0.5 b, not 0.5 (a + b): the same bits for normal a and b, and
    # no overflow near the top of the float range
    child_verts = np.vstack([verts, 0.5 * verts[edges[:, 0]]
                             + 0.5 * verts[edges[:, 1]]])
    cells = np.hstack([mesh.cells, mids])[:, _CHILDREN[dim]]
    return MeshLevel(mesh.level + 1, mesh.domain, child_verts,
                     cells.reshape(-1, dim + 1), parent=mesh,
                     parent_edges=edges)


# ---------------------------------------------------------------------------
# quadrature on the reference simplex ([0,1] or the unit triangle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule on the reference simplex, exact up to `degree`."""

    dim: int
    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise MeshError("quadrature weights must be positive")
        if abs(float(self.weights.sum()) - self.reference_measure) > 1e-13:
            raise MeshError("quadrature weights must sum to the reference measure")

    @property
    def reference_measure(self) -> float:
        return 1.0 if self.dim == 1 else 0.5


def gauss2_rule() -> QuadratureRule:
    h = 0.5 / np.sqrt(3.0)
    return QuadratureRule(1, np.array([[0.5 - h], [0.5 + h]]), np.array([0.5, 0.5]), 3)


def triangle_rule_degree4() -> QuadratureRule:
    # six-point symmetric rule, exact through degree 4
    a, b = 0.4459484909159649, 0.1081030181680702
    c, d = 0.0915762135097707, 0.8168475729804585
    wa, wc = 0.2233815896780115, 0.1099517436553219
    pts = np.array([
        [a, a], [b, a], [a, b],
        [c, c], [d, c], [c, d],
    ])
    w = 0.5 * np.array([wa, wa, wa, wc, wc, wc])
    return QuadratureRule(2, pts, w, 4)


def quadrature_for(dim: int) -> QuadratureRule:
    """Default cell rule: exactness degree >= 3 in either dimension.

    Gradients of piecewise-linear functions are cellwise constant, so every
    gradient power is integrated exactly; vertex-value powers |u|^r are exact
    for r in {1, 2} and approximate otherwise, which callers must tolerate.
    """
    return gauss2_rule() if dim == 1 else triangle_rule_degree4()
