import math

import numpy as np
import pytest

from pqgalerkin.mesh import (Domain, MeshError, MeshLevel, build_mesh,
                             gauss2_rule, quadrature_for, refine,
                             triangle_rule_degree4)


def test_interval_two_cells_vertices():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 2)
    np.testing.assert_allclose(np.sort(mesh.vertices.ravel()), [0.0, 0.5, 1.0])
    assert mesh.n_cells == 2
    assert mesh.level == 0


def test_interval_four_cells_measures():
    mesh = build_mesh(Domain.interval(0.0, 2.0), 4)
    assert mesh.n_vertices == 5
    np.testing.assert_allclose(mesh.cell_measures, 0.5)


def test_square_two_by_two():
    mesh = build_mesh(Domain.rectangle(0.0, 1.0, 0.0, 1.0), 2)
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 8
    assert int(np.sum(~mesh.boundary)) == 1
    interior = mesh.vertices[~mesh.boundary][0]
    np.testing.assert_allclose(interior, [0.5, 0.5])


def test_refine_doubles_interval_cells():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 2)
    fine = refine(mesh)
    assert fine.n_cells == 4
    assert fine.level == 1
    assert fine.parent is mesh


def test_refine_quadruples_triangles():
    mesh = build_mesh(Domain.rectangle(0.0, 1.0, 0.0, 1.0), 2)
    fine = refine(mesh)
    assert fine.n_cells == 32


def test_measure_partition_across_levels():
    mesh = build_mesh(Domain.rectangle(0.0, 3.0, 0.0, 2.0), (3, 2))
    area = mesh.domain.measure
    for _ in range(3):
        total = float(np.sum(mesh.cell_measures))
        assert math.isclose(total, area, rel_tol=1e-13)
        mesh = refine(mesh)


def test_parent_vertices_persist():
    mesh = build_mesh(Domain.rectangle(0.0, 1.0, 0.0, 1.0), 2)
    fine = refine(mesh)
    np.testing.assert_array_equal(fine.vertices[:mesh.n_vertices],
                                  mesh.vertices)


def test_refine_weights_are_identity_or_midpoint():
    # parent vertices persist; each appended vertex is the midpoint of its
    # parent edge, an edge of some parent cell
    for mesh in (build_mesh(Domain.interval(0.0, 1.0), 2),
                 build_mesh(Domain.rectangle(0.0, 1.0, 0.0, 1.0), 2)):
        fine = refine(mesh)
        n = mesh.n_vertices
        assert fine.parent_edges.shape == (fine.n_vertices - n, 2)
        np.testing.assert_array_equal(fine.vertices[:n], mesh.vertices)
        a, b = fine.parent_edges.T
        np.testing.assert_array_equal(
            fine.vertices[n:], 0.5 * (mesh.vertices[a] + mesh.vertices[b]))
        cell_edges = {tuple(sorted(e)) for cell in mesh.cells
                      for e in zip(cell, np.roll(cell, -1))}
        assert set(map(tuple, fine.parent_edges)) <= cell_edges
        assert np.all(a < b)


def reference_refine(mesh):
    """Refinement as a loop over cells with a dict of midpoints: the
    children and the (n, 2) index/weight parent rows, identity rows for the
    parent vertices and 1/2-1/2 rows for the edge midpoints."""
    verts = mesh.vertices
    n = mesh.n_vertices
    midpoint_of = {}
    new_pts = []

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        k = midpoint_of.get(key)
        if k is None:
            k = n + len(new_pts)
            midpoint_of[key] = k
            new_pts.append(0.5 * (verts[key[0]] + verts[key[1]]))
        return k

    child_cells = []
    if mesh.domain.dim == 1:
        for i, j in mesh.cells:
            m = mid(i, j)
            child_cells.append((i, m))
            child_cells.append((m, j))
    else:
        for a, b, c in mesh.cells:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            child_cells.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c),
                                (ab, bc, ca)])

    child_verts = np.vstack([verts, np.asarray(new_pts)])
    idx = np.empty((child_verts.shape[0], 2), dtype=np.int64)
    wts = np.empty((child_verts.shape[0], 2), dtype=float)
    idx[:n] = np.arange(n)[:, None]
    wts[:n] = (1.0, 0.0)
    for (i, j), k in midpoint_of.items():
        idx[k] = (i, j)
        wts[k] = (0.5, 0.5)
    fine = MeshLevel(mesh.level + 1, mesh.domain, child_verts,
                     np.asarray(child_cells, dtype=np.int64), parent=mesh)
    return fine, idx, wts


@pytest.mark.parametrize("domain, cells", [
    (Domain.interval(0.0, 1.0), 4),
    (Domain.rectangle(0.0, 1.0, 0.0, 1.0), 2),
    (Domain.rectangle(-1.0, 2.0, 0.5, 3.0), (3, 5)),
])
def test_refine_matches_the_loop_reference_bit_for_bit(domain, cells):
    mesh = ref = build_mesh(domain, cells)
    for _ in range(4):
        n = mesh.n_vertices
        mesh = refine(mesh)
        ref, idx, wts = reference_refine(ref)
        for name in ("vertices", "cells", "boundary", "cell_measures"):
            got, want = getattr(mesh, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the reference's midpoint rows are the parent edges; the rows
        # before them are identities
        assert np.array_equal(mesh.parent_edges, idx[n:])
        assert np.all(wts[n:] == 0.5)
        assert np.array_equal(idx[:n], np.repeat(np.arange(n)[:, None], 2, 1))


def test_degenerate_cell_rejected():
    with pytest.raises(MeshError):
        build_mesh(Domain.interval(0.0, 0.0), 2)


@pytest.mark.parametrize("domain, dofs", [
    (Domain.interval(1e11, 1e11 + 1.0), [3, 7, 15, 31]),
    (Domain.interval(1e12, 1e12 + 1.0), [3, 7, 15, 31]),
    (Domain.rectangle(1e12, 1e12 + 1.0, -3e11, -3e11 + 2.0),
     [9, 49, 225, 961]),
], ids=["interval-1e11", "interval-1e12", "rectangle-1e12"])
def test_far_domain_keeps_its_interior_vertices(domain, dofs):
    # the boundary is matched exactly, so no bound's magnitude pulls an
    # interior vertex onto it
    mesh = build_mesh(domain, 4)
    counts = [int(np.sum(~mesh.boundary))]
    for _ in range(3):
        mesh = refine(mesh)
        counts.append(int(np.sum(~mesh.boundary)))
    assert counts == dofs


def test_vertex_rounded_onto_a_bound_is_a_degenerate_cell():
    # on [1e15, 1e15 + 1] the spacing 1/16 is below the float step 1/8, so
    # level 2 rounds vertices onto each other and onto the bounds
    mesh = build_mesh(Domain.interval(1e15, 1e15 + 1.0), 4)
    fine = refine(mesh)
    assert [int(np.sum(~m.boundary)) for m in (mesh, fine)] == [3, 7]
    with pytest.raises(MeshError, match="degenerate cell"):
        refine(fine)


def test_bad_cell_count_rejected():
    with pytest.raises(MeshError):
        build_mesh(Domain.interval(0.0, 1.0), 0)
    with pytest.raises(MeshError):
        build_mesh(Domain.interval(0.0, 1.0), True)


def test_gauss2_integrates_cubic():
    rule = gauss2_rule()
    val = sum(w * x[0] ** 3 for x, w in zip(rule.points, rule.weights))
    assert math.isclose(val, 0.25, rel_tol=1e-14)


def test_quadrature_exactness_property():
    rng = np.random.default_rng(0)
    rule = gauss2_rule()
    for _ in range(50):
        coeffs = rng.standard_normal(rule.degree + 1)
        # exact integral of sum c_k x^k over [0,1]
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        approx = sum(w * sum(c * x[0] ** k for k, c in enumerate(coeffs))
                     for x, w in zip(rule.points, rule.weights))
        assert math.isclose(approx, exact, rel_tol=1e-12, abs_tol=1e-12)


def test_triangle_degree4_exactness():
    rule = triangle_rule_degree4()
    # reference triangle: int x^a y^b = a! b! / (a+b+2)!
    for a, b in [(0, 0), (1, 0), (2, 1), (2, 2), (4, 0), (0, 4), (3, 1)]:
        exact = (math.factorial(a) * math.factorial(b)
                 / math.factorial(a + b + 2))
        approx = sum(w * x[0] ** a * x[1] ** b
                     for x, w in zip(rule.points, rule.weights))
        assert math.isclose(approx, exact, rel_tol=1e-12, abs_tol=1e-14)


def test_quadrature_for_matches_dimension():
    assert quadrature_for(1).dim == 1
    assert quadrature_for(2).dim == 2
