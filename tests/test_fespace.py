import math

import numpy as np
import pytest

from pqgalerkin.fespace import (FeFunction, FeSpace, grad_norm_lp, lr_norm,
                                prolongate, read_csv, sup_norm, write_csv)
from pqgalerkin.mesh import Domain, build_mesh, refine
from pqgalerkin.operators import (Problem, ProblemOperator,
                                  constant_convection, constant_weight)


def interval_space(cells, length=1.0):
    return FeSpace(build_mesh(Domain.interval(0.0, length), cells))


def hat(space):
    """Unit hat on the single-interior-dof space."""
    assert space.dim == 1
    return FeFunction(space, np.array([1.0]))


def test_hat_prolongation_coefficients():
    coarse = interval_space(2)
    fine = FeSpace(refine(coarse.mesh))
    u = prolongate(hat(coarse), fine)
    order = np.argsort(fine.mesh.vertices[fine.dofs, 0])
    np.testing.assert_allclose(u.coeffs[order], [0.5, 1.0, 0.5])


def test_prolongation_is_exact_for_norms():
    coarse = interval_space(4)
    fine = FeSpace(refine(refine(coarse.mesh)))
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = FeFunction(coarse, rng.standard_normal(coarse.dim))
        v = prolongate(u, fine)
        for p in (1.5, 2.0, 3.0):
            assert math.isclose(grad_norm_lp(v, p), grad_norm_lp(u, p),
                                rel_tol=1e-13, abs_tol=1e-15)
        assert math.isclose(lr_norm(v, 2.0), lr_norm(u, 2.0),
                            rel_tol=1e-13, abs_tol=1e-15)
        assert math.isclose(sup_norm(v), sup_norm(u), rel_tol=1e-13)


def reference_prolongate(u, finer):
    """One parent-map step per level with the (n, 2) index/weight rows
    (identity rows for parent vertices, 1/2-1/2 rows for midpoints), then
    the boundary values set to zero."""
    chain, mesh = [], finer.mesh
    while mesh is not u.space.mesh:
        chain.append(mesh)
        mesh = mesh.parent
    vals = u.full_values()
    for mesh in reversed(chain):
        n = mesh.parent.n_vertices
        idx = np.vstack([np.repeat(np.arange(n)[:, None], 2, 1),
                         mesh.parent_edges])
        wts = np.vstack([np.tile([1.0, 0.0], (n, 1)),
                         np.full(mesh.parent_edges.shape, 0.5)])
        vals = vals[idx[:, 0]] * wts[:, 0] + vals[idx[:, 1]] * wts[:, 1]
        vals[mesh.boundary] = 0.0
    return vals[finer.dofs]


@pytest.mark.parametrize("domain, cells", [
    (Domain.interval(0.0, 1.0), 4),
    (Domain.rectangle(0.0, 1.0, 0.0, 1.0), 3),
    (Domain.rectangle(-1.0, 2.0, 0.5, 3.0), (3, 5)),
])
def test_prolongate_matches_the_parent_map_reference_bit_for_bit(domain,
                                                                 cells):
    spaces = [FeSpace(build_mesh(domain, cells))]
    for _ in range(3):
        spaces.append(FeSpace(refine(spaces[-1].mesh)))
    rng = np.random.default_rng(21)
    coarse = spaces[0]
    rows = []
    for _ in range(5):
        coeffs = (rng.standard_normal(coarse.dim)
                  * 10.0 ** rng.uniform(-8, 8, coarse.dim))
        signed_zero = rng.integers(0, 3, coarse.dim)
        coeffs[signed_zero == 1] = 0.0
        coeffs[signed_zero == 2] = -0.0
        rows.append(coeffs)
        u = FeFunction(coarse, coeffs)
        for fine in spaces:
            got = prolongate(u, fine).coeffs
            want = reference_prolongate(u, fine)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the drawn rows as one stack: each row has its single-state bits
    stack = FeFunction(coarse, np.stack(rows))
    for fine in spaces:
        got = prolongate(stack, fine).coeffs
        assert got.shape == (len(rows), fine.dim)
        for row, coeffs in zip(got, rows):
            want = prolongate(FeFunction(coarse, coeffs), fine).coeffs
            assert np.array_equal(row.view(np.int64), want.view(np.int64))
    # carried up one level at a time, as the hierarchy's table pass does,
    # the stack keeps the bits of one prolongation from the coarse space
    carried = stack
    for fine in spaces:
        carried = prolongate(carried, fine)
        want = prolongate(stack, fine).coeffs
        assert np.array_equal(carried.coeffs.view(np.int64),
                              want.view(np.int64))


def test_prolongate_zero():
    coarse = interval_space(2)
    fine = FeSpace(refine(coarse.mesh))
    z = prolongate(FeFunction.zero(coarse), fine)
    np.testing.assert_array_equal(z.coeffs, 0.0)


def test_prolongate_rejects_non_descendant():
    a = interval_space(2)
    b = interval_space(3)
    with pytest.raises(ValueError):
        prolongate(hat(a), b)


def test_hat_gradient_norm_all_p():
    space = interval_space(2)
    for p in (1.0, 1.5, 2.0, 3.0, 7.0):
        assert math.isclose(grad_norm_lp(hat(space), p), 2.0, rel_tol=1e-14)


def test_hat_gradient_norm_scaling():
    # hat of height h on two cells of width w: L2 norm = h * sqrt(2/w)
    h, w = 0.7, 0.125
    space = FeSpace(build_mesh(Domain.interval(0.0, 2 * w), 2))
    u = FeFunction(space, np.array([h]))
    assert math.isclose(grad_norm_lp(u, 2.0), h * math.sqrt(2.0 / w),
                        rel_tol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gradient_norm_rescales_only_rows_whose_sum_leaves_the_floats():
    space = interval_space(8)
    g = np.random.default_rng(3).standard_normal(space.dim)
    for p in (3.0, 400.0):
        plain = grad_norm_lp(FeFunction(space, g), p)
        # 1e120 overflows the sum of |grad|^p, 1e-120 underflows it to 0
        norms = grad_norm_lp(FeFunction(space, np.stack(
            [g, 1e120 * g, 1e-120 * g])), p)
        assert norms[0] == plain
        np.testing.assert_allclose(norms[1:], [1e120 * plain, 1e-120 * plain],
                                   rtol=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("domain", [Domain.interval(0.0, 1.0),
                                    Domain.rectangle(0.0, 1.0, 0.0, 1.0)],
                         ids=["1d", "2d"])
def test_gradient_norm_survives_cell_norms_that_overflow(domain):
    # a cell gradient of 1e200 squares past the largest float inside the
    # cell norm itself, before the power p is taken
    space = FeSpace(build_mesh(domain, 4))
    d = FeFunction(space, np.random.default_rng(5).standard_normal(space.dim))
    for p in (2.0, 3.0, 400.0):
        big = grad_norm_lp(1e200 * d, p)
        np.testing.assert_allclose(big / (1e200 * grad_norm_lp(d, p)), 1.0,
                                   rtol=1e-14)


def test_hat_lr_norms():
    space = interval_space(2)
    u = hat(space)
    assert math.isclose(lr_norm(u, 1.0), 0.5, rel_tol=1e-14)
    assert math.isclose(lr_norm(u, 2.0), math.sqrt(1.0 / 3.0), rel_tol=1e-14)
    assert lr_norm(FeFunction.zero(space), 3.0) == 0.0


def test_sup_norm():
    space = interval_space(4)
    u = FeFunction(space, np.array([0.2, -0.9, 0.4]))
    assert sup_norm(u) == 0.9
    fine = FeSpace(refine(space.mesh))
    assert sup_norm(prolongate(u, fine)) == 0.9


def test_pair_space_mismatch():
    # a residual is a plain dof array: dotted with a function on another
    # level it fails numpy's shape check
    domain = Domain.interval(0.0, 1.0)
    problem = Problem(p=3.0, q=2.0, domain=domain,
                      weight=constant_weight(1.0),
                      convection=constant_convection(1.0),
                      variant="competing")
    op = ProblemOperator(problem, problem.weight)
    coarse = interval_space(4)
    F = op.residual(FeFunction.zero(coarse))
    v = FeFunction.zero(FeSpace(refine(coarse.mesh)))
    with pytest.raises(ValueError, match="mismatch"):
        F @ v.coeffs


def test_gradient_holder_step():
    # ||grad u||_q^q <= |domain|^{(p-q)/p} ||grad u||_p^q for q < p
    space = interval_space(8, length=2.0)
    measure = space.mesh.domain.measure
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = FeFunction(space, rng.standard_normal(space.dim))
        p, q = 3.0, 2.0
        lhs = grad_norm_lp(u, q) ** q
        rhs = measure ** ((p - q) / p) * grad_norm_lp(u, p) ** q
        assert lhs <= rhs * (1.0 + 1e-12)


def test_discrete_embedding_inequality():
    from pqgalerkin.estimates import sobolev_constant
    p = 3.0
    space = interval_space(16)
    cs = sobolev_constant(space.mesh.domain, p).value
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(1000):
        u = FeFunction(space, rng.standard_normal(space.dim))
        if sup_norm(u) > cs * grad_norm_lp(u, p) * (1.0 + 1e-12):
            violations += 1
    assert violations == 0


def test_csv_round_trip(tmp_path):
    space = FeSpace(build_mesh(Domain.rectangle(0.0, 1.0, 0.0, 1.0), 4))
    rng = np.random.default_rng(5)
    u = FeFunction(space, rng.standard_normal(space.dim))
    path = tmp_path / "u.csv"
    write_csv(u, path)
    v = read_csv(space, path)
    np.testing.assert_allclose(v.coeffs, u.coeffs, rtol=0.0, atol=1e-15)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,value"


def reference_write_csv(u, path):
    """The per-row writer `write_csv` replaced: its bytes are the contract."""
    mesh = u.space.mesh
    full = u.full_values()
    header = "x,value" if mesh.domain.dim == 1 else "x,y,value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for pt, val in zip(mesh.vertices, full):
            coords = ",".join(repr(float(c)) for c in pt)
            fh.write(f"{coords},{float(val)!r}\n")


@pytest.mark.parametrize("domain,cells", [
    (Domain.interval(-1.0, 2.0), 6),
    (Domain.rectangle(0.0, 1.0, -0.5, 0.5), (3, 5)),
], ids=["interval", "rectangle"])
def test_csv_bytes_match_the_per_row_writer(tmp_path, domain, cells):
    space = FeSpace(refine(build_mesh(domain, cells)))
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(space.dim) * 10.0 ** rng.integers(
        -300, 300, space.dim)
    coeffs[:3] = [-0.0, 1e-320, 1.0 / 3.0]
    u = FeFunction(space, coeffs)
    write_csv(u, tmp_path / "new.csv")
    reference_write_csv(u, tmp_path / "old.csv")
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "old.csv").read_bytes()
    assert b",-0.0\n" in data


def test_csv_rejects_nonzero_boundary(tmp_path):
    space = interval_space(2)
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,0.1\n0.5,1.0\n1.0,0.0\n")
    with pytest.raises(ValueError):
        read_csv(space, path)


@pytest.mark.parametrize("rows", [
    "0.0,nan\n0.5,1.0\n1.0,0.0\n",
    "0.0,0.0\n0.5,inf\n1.0,0.0\n",
    "0.0,0.0\n0.5,nan\n1.0,0.0\n",
], ids=["boundary-nan", "interior-inf", "interior-nan"])
def test_csv_rejects_nonfinite_values(tmp_path, rows):
    space = interval_space(2)
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n" + rows)
    with pytest.raises(ValueError, match="bad.csv: non-finite value"):
        read_csv(space, path)


def test_csv_rejects_wrong_vertices(tmp_path):
    space = interval_space(2)
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,0.0\n0.4,1.0\n1.0,0.0\n")
    with pytest.raises(ValueError):
        read_csv(space, path)


def test_csv_vertex_check_scales_with_the_axis(tmp_path):
    # on [0, 1e-100] the vertices are 2.5e-101 apart, and an absolute
    # 1e-12 would match these coordinates to them
    space = FeSpace(build_mesh(Domain.interval(0.0, 1e-100), 4))
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n" + "".join(
        f"{x!r},0.0\n" for x in (0.0, 5e-13, -7e-13, 1e-13, 9e-13)))
    with pytest.raises(ValueError, match="do not match the mesh"):
        read_csv(space, path)
    u = FeFunction(space, np.array([1.0, -2.0, 3.0]))
    write_csv(u, tmp_path / "u.csv")
    assert np.array_equal(read_csv(space, tmp_path / "u.csv").coeffs,
                          u.coeffs)


@pytest.mark.parametrize("dim", [1, 2])
def test_stiffness_blocks_are_built_once_with_the_einsum_bits(dim):
    domain = Domain.interval(0.0, 1.0) if dim == 1 \
        else Domain.rectangle(0.0, 1.0, 0.0, 1.0)
    space = FeSpace(build_mesh(domain, 6 if dim == 1 else (3, 3)))
    blocks = space.stiffness_blocks
    assert space.stiffness_blocks is blocks
    assert not blocks.flags.writeable
    reference = np.einsum("cvd,cwd->cvw", space.grads, space.grads)
    assert np.array_equal(blocks.view(np.int64), reference.view(np.int64))
