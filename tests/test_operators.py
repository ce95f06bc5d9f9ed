import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import BLOCKS

import supmin.operators
from supmin import (
    DimensionMismatch,
    Grid,
    StencilOutOfDomain,
    apply_operator,
    assemble_operator,
    block_diagonal_tensor,
    constant_tensor,
    det_coupled_tensor,
    dirichlet_solve,
    harmonic_zero_set_fraction,
    identity_tensor,
    pcg,
)
from supmin.operators import _csr_matvec
from supmin.tensors import EllipticTensor


def test_second_difference_exact_on_quadratic_1d():
    grid = Grid((21,))
    op = assemble_operator(grid, identity_tensor(1, 1))
    u = (grid.coords()[:, 0] ** 2).reshape(-1, 1)
    lu = apply_operator(op, u)
    np.testing.assert_allclose(lu, 2.0, atol=1e-11)


def test_laplacian_exact_on_quadratic_2d():
    grid = Grid((9, 9))
    op = assemble_operator(grid, identity_tensor(2, 1))
    xy = grid.coords()
    u = (xy[:, 0] ** 2 + xy[:, 1] ** 2).reshape(-1, 1)
    np.testing.assert_allclose(apply_operator(op, u), 4.0, atol=1e-11)


def random_symmetric_tensor(n, n_comp, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n, n_comp, n_comp))
    entries = 0.5 * (raw + raw.transpose(1, 0, 3, 2))
    # make it diagonally dominant so the quadratic form is elliptic
    for a in range(n):
        for i in range(n_comp):
            entries[a, a, i, i] += 3.0
    return constant_tensor(entries)


def test_constant_tensor_exact_on_quadratics():
    tensor = random_symmetric_tensor(2, 2, seed=0)
    grid = Grid((11, 13))
    op = assemble_operator(grid, tensor)
    rng = np.random.default_rng(1)
    quad = rng.standard_normal((2, 2, 2))
    quad = quad + quad.transpose(0, 2, 1)  # symmetric Hessians per component
    xy = grid.coords()
    u = np.stack(
        [np.einsum("ab,na,nb->n", quad[i], xy, xy) for i in range(2)], axis=1
    )
    # div(A Du)_i = A[a,b,i,j] * d_a d_b u_j with constant second derivatives
    hess = 2.0 * quad  # d_a d_b u_j
    want = np.einsum("abij,jab->i", tensor.entries, hess)
    lu = apply_operator(op, u)
    np.testing.assert_allclose(lu, np.broadcast_to(want, lu.shape), rtol=1e-10, atol=1e-9)


def test_interior_matrix_symmetric_for_constant_tensor():
    tensor = random_symmetric_tensor(2, 2, seed=2)
    op = assemble_operator(Grid((11, 11)), tensor)
    square = op.square_matrix()
    dev = np.max(np.abs((square - square.T).toarray()))
    assert dev <= 1e-14 * max(1.0, np.max(np.abs(square.toarray())))


def test_adjoint_identity_for_interior_supported_fields():
    tensor = random_symmetric_tensor(2, 2, seed=3)
    grid = Grid((11, 11))
    op = assemble_operator(grid, tensor)
    rng = np.random.default_rng(4)
    mask = grid.interior_mask()
    for _ in range(5):
        u = np.zeros((grid.n_nodes, 2))
        v = np.zeros((grid.n_nodes, 2))
        u[mask] = rng.standard_normal((mask.sum(), 2))
        v[mask] = rng.standard_normal((mask.sum(), 2))
        lu = apply_operator(op, u)
        lv = apply_operator(op, v)
        left = float(np.sum(lu * v[op.eq_idx]))
        right = float(np.sum(u[op.eq_idx] * lv))
        scale = max(1.0, abs(left), abs(right))
        assert abs(left - right) <= 1e-12 * scale


def test_apply_linearity():
    op = assemble_operator(Grid((17,)), identity_tensor(1, 1))
    rng = np.random.default_rng(5)
    u = rng.standard_normal((17, 1))
    v = rng.standard_normal((17, 1))
    lu, lv = apply_operator(op, u), apply_operator(op, v)
    np.testing.assert_allclose(apply_operator(op, u + v), lu + lv, atol=1e-13)
    np.testing.assert_allclose(apply_operator(op, np.zeros((17, 1))), 0.0)


def test_affine_fields_are_harmonic():
    grid = Grid((15,))
    op = assemble_operator(grid, identity_tensor(1, 1))
    u = (0.7 * grid.coords()[:, 0] - 0.2).reshape(-1, 1)
    np.testing.assert_allclose(apply_operator(op, u), 0.0, atol=1e-12)


def test_dirichlet_solve_affine_data():
    grid = Grid((31,))
    op = assemble_operator(grid, identity_tensor(1, 1))
    g = (1.5 * grid.coords()[:, 0] + 0.25).reshape(-1, 1)
    u = dirichlet_solve(op, np.zeros((op.n_interior, 1)), g)
    np.testing.assert_allclose(u, g, atol=1e-9)


def test_dirichlet_solve_manufactured_discrete():
    # rhs manufactured with the discrete operator itself: recovery to 1e-9
    grid = Grid((41, 21))
    tensor = random_symmetric_tensor(2, 1, seed=6)
    op = assemble_operator(grid, tensor)
    xy = grid.coords()
    u_star = (np.sin(np.pi * xy[:, 0]) * np.sin(2 * np.pi * xy[:, 1])).reshape(-1, 1)
    rhs = apply_operator(op, u_star)
    u = dirichlet_solve(op, rhs, u_star, tol=1e-13)
    assert np.max(np.abs(u - u_star)) <= 1e-9


def variable_coefficient_problem(nodes):
    """1D div(a u')' with a(x) = 1 + x^2 and u* = sin(pi x); analytic rhs."""
    grid = Grid((nodes,))
    x = grid.coords()[:, 0]

    class Field:
        n = 1
        n_components = 1

        def __call__(self, pts):
            a = 1.0 + pts[:, 0] ** 2
            return a[:, None, None, None, None] * np.ones((1, 1, 1, 1))

    op = assemble_operator(grid, EllipticTensor(Field()))
    u_star = np.sin(np.pi * x).reshape(-1, 1)
    rhs_full = (
        2.0 * x * np.pi * np.cos(np.pi * x)
        - (1.0 + x**2) * np.pi**2 * np.sin(np.pi * x)
    ).reshape(-1, 1)
    return grid, op, u_star, rhs_full


def test_dirichlet_solve_second_order_convergence():
    errors = []
    for nodes in (41, 81):
        grid, op, u_star, rhs = variable_coefficient_problem(nodes)
        u = dirichlet_solve(op, rhs[op.interior_idx], u_star, tol=1e-13)
        errors.append(np.max(np.abs(u - u_star)[grid.interior_mask()]))
    ratio = errors[0] / errors[1]
    assert 3.0 <= ratio <= 5.0  # halving h divides the error by ~4


def cross_term_problem():
    """2D, N = 2, a constant tensor with cross-derivative terms, on a shifted box."""
    grid = Grid((21, 17), lo=(0.0, -1.0), hi=(2.0, 1.0))
    return grid, assemble_operator(grid, random_symmetric_tensor(2, 2, seed=3))


@pytest.mark.parametrize("build, start, stop", [
    (lambda: variable_coefficient_problem(41)[:2], (7,), (30,)),
    (cross_term_problem, (3, 0), (14, 9)),
], ids=["1d_variable", "2d_cross_terms"])
def test_subgrid_operator_restricts_the_parent(build, start, stop):
    # the sub-box grid's nodes sit on the parent's, and its operator, assembled
    # from the parent's tensor, is the parent's at the sub-box equation nodes
    grid, op = build()
    sub, ids = grid.subgrid(start, stop)
    np.testing.assert_allclose(sub.coords(), grid.coords()[ids], rtol=0.0, atol=1e-14)
    sub_op = assemble_operator(sub, op.tensor)
    u = np.random.default_rng(5).standard_normal((grid.n_nodes, op.n_components))
    eq_pos = np.full(grid.n_nodes, -1)
    eq_pos[op.eq_idx] = np.arange(op.n_eq)
    parent_lu = apply_operator(op, u)[eq_pos[ids[sub_op.eq_idx]]]
    np.testing.assert_allclose(apply_operator(sub_op, u[ids]), parent_lu,
                               rtol=0.0, atol=1e-10 * np.max(np.abs(parent_lu)))
    for bad_start, bad_stop in (((0,) * 3, (5,) * 3), ((-1,) * grid.dim, stop),
                                (start, np.add(grid.shape, 1)), (start, np.add(start, 4))):
        with pytest.raises(ValueError, match="sub-box"):
            grid.subgrid(bad_start, bad_stop)


def coo_reference_parts(grid, tensor):
    """The free and clamped parts by the full-matrix COO assembly, the oracle for the stencil fill.

    Every stencil block goes into one COO matrix over all nodes, duplicates are
    summed by the CSR conversion, and the free and clamped columns are sliced
    out; explicit zeros are kept.
    """
    idx = grid.multi_indices()
    eq_idx = np.flatnonzero(np.all((idx >= 1) & (idx <= np.subtract(grid.shape, 2)), axis=1))
    interior = np.all((idx >= 2) & (idx <= np.subtract(grid.shape, 3)), axis=1)
    x_eq = grid.coords()[eq_idx]
    n, n_comp = grid.dim, tensor.n_components
    h = np.array(grid.spacing)
    idx_eq = idx[eq_idx]
    row_base = np.arange(eq_idx.size) * n_comp
    rows, cols, vals = [], [], []

    def add_block(offsets, coeff):
        col_base = grid.ravel_index(idx_eq + np.asarray(offsets, dtype=int)) * n_comp
        for i in range(n_comp):
            for j in range(n_comp):
                rows.append(row_base + i)
                cols.append(col_base + j)
                vals.append(coeff[:, i, j])

    for a in range(n):
        e_a = np.zeros(n)
        e_a[a] = h[a]
        a_plus = tensor.at(x_eq + 0.5 * e_a)[:, a, a, :, :]
        a_minus = tensor.at(x_eq - 0.5 * e_a)[:, a, a, :, :]
        off = np.zeros(n, dtype=int)
        off[a] = 1
        inv_h2 = 1.0 / h[a] ** 2
        add_block(off, a_plus * inv_h2)
        add_block(-off, a_minus * inv_h2)
        add_block(np.zeros(n, dtype=int), -(a_plus + a_minus) * inv_h2)
        for b in range(n):
            if b == a:
                continue
            c_plus = tensor.at(x_eq + e_a)[:, a, b, :, :]
            c_minus = tensor.at(x_eq - e_a)[:, a, b, :, :]
            w = 1.0 / (4.0 * h[a] * h[b])
            for sa, coeff in ((1, c_plus), (-1, c_minus)):
                for sb in (1, -1):
                    off = np.zeros(n, dtype=int)
                    off[a] = sa
                    off[b] = sb
                    add_block(off, sa * sb * w * coeff)

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(eq_idx.size * n_comp, grid.n_nodes * n_comp),
    ).tocsc()
    comps = np.arange(n_comp)
    free_cols = (np.flatnonzero(interior)[:, None] * n_comp + comps).ravel()
    clamp_cols = (np.flatnonzero(~interior)[:, None] * n_comp + comps).ravel()
    return matrix[:, free_cols].tocsr(), matrix[:, clamp_cols].tocsr()


class VariableCrossTensor:
    """2D, N = 2, x-dependent axis terms and a coupling cross term."""

    n = 2
    n_components = 2

    def __call__(self, pts):
        out = np.zeros((pts.shape[0], 2, 2, 2, 2))
        for a in range(2):
            for i in range(2):
                out[:, a, a, i, i] = 1.0 + pts[:, 0] ** 2 + 0.3 * pts[:, 1]
        out[:, 0, 1, 0, 1] = out[:, 1, 0, 1, 0] = 0.2 * np.sin(pts[:, 0])
        return out


@pytest.mark.parametrize("grid, tensor", [
    (Grid((201,)), identity_tensor(1, 1)),
    (Grid((41, 41)), identity_tensor(2, 1)),
    (Grid((31, 31)), det_coupled_tensor(1.0)),
    (Grid((25, 25)), block_diagonal_tensor(BLOCKS)),
    (Grid((11, 12)), block_diagonal_tensor(BLOCKS)),
    (Grid((9, 13), hi=(1.0, 3.0)), det_coupled_tensor(1.0)),
    (Grid((13, 11)), EllipticTensor(VariableCrossTensor())),
], ids=["1d_201", "identity_41", "det_coupled_31", "block_diagonal_25",
        "block_diagonal_11x12", "det_coupled_9x13", "callable"])
def test_stencil_fill_matches_coo_assembly(grid, tensor):
    # the same entries, bit for bit and in the same per-row column order, as
    # the full-matrix COO assembly; only explicit zeros may be missing
    op = assemble_operator(grid, tensor)
    for got, want in zip((op.free_matrix, op.clamp_matrix), coo_reference_parts(grid, tensor)):
        assert got.format == "csr" and got.has_sorted_indices
        assert got.shape == want.shape and got.nnz <= want.nnz
        np.testing.assert_array_equal(got.toarray(), want.toarray())
        got, want = got.copy(), want.copy()
        got.eliminate_zeros()
        want.eliminate_zeros()
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


def test_operator_without_cross_terms_stores_no_zeros():
    op = assemble_operator(Grid((41, 41)), identity_tensor(2, 1))
    assert (op.free_matrix.nnz, op.clamp_matrix.nnz) == (6845, 760)
    # at 161^2 the parts are written without a full matrix: tracemalloc saw
    # 22.9 MB for the COO assembly here, 8.2 MB for the stencil fill
    tracemalloc.start()
    try:
        op = assemble_operator(Grid((161, 161)), identity_tensor(2, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (op.free_matrix.nnz, op.clamp_matrix.nnz) == (123245, 3160)
    assert np.all(op.free_matrix.data != 0.0) and np.all(op.clamp_matrix.data != 0.0)
    assert peak < 12e6


def test_cancelling_cross_terms_store_no_zeros():
    # the (a, b) and (b, a) cross terms of det_coupled's null-Lagrangian part
    # cancel exactly; those sums are not stored, and a mat-vec on either part
    # gives the same bits as on the COO parts, which keep the zeros
    grid, tensor = Grid((31, 31)), det_coupled_tensor(1.0)
    op = assemble_operator(grid, tensor)
    assert (op.free_matrix.nnz, op.clamp_matrix.nnz) == (7290, 1120)
    rng = np.random.default_rng(3)
    for got, want, want_nnz in zip((op.free_matrix, op.clamp_matrix),
                                   coo_reference_parts(grid, tensor), (26244, 4032)):
        assert np.all(got.data != 0.0) and want.nnz == want_nnz
        for _ in range(3):
            x = rng.standard_normal(got.shape[1])
            assert np.array_equal(_csr_matvec(got, x), _csr_matvec(want, x))


def test_small_grid_rejected():
    with pytest.raises(StencilOutOfDomain):
        assemble_operator(Grid((4,)), identity_tensor(1, 1))


def test_dimension_mismatch():
    op = assemble_operator(Grid((11,)), identity_tensor(1, 1))
    with pytest.raises(DimensionMismatch):
        apply_operator(op, np.zeros((11, 2)))
    # the sparse kernel behind apply_dofs reads x unchecked, so its length is checked first
    with pytest.raises(DimensionMismatch):
        op.apply_dofs(np.zeros(op.n_interior - 1), 0.0)
    with pytest.raises(DimensionMismatch):
        assemble_operator(Grid((11, 11)), identity_tensor(1, 1))


def test_pcg_against_dense_solve():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((30, 30))
    mat = raw @ raw.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    x, res, iters = pcg(lambda v: mat @ v, b, rtol=1e-13, diag=np.diag(mat))
    np.testing.assert_allclose(x, np.linalg.solve(mat, b), atol=1e-10)
    assert res <= 1e-12 * np.linalg.norm(b) * 10


@pytest.mark.parametrize(
    "tensor_factory",
    [
        lambda: identity_tensor(2, 1),
        lambda: block_diagonal_tensor([np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])]),
        lambda: det_coupled_tensor(1.0),
    ],
    ids=["scalar_laplacian", "block_diagonal", "analytic_det_coupled"],
)
def test_harmonic_zero_set_fraction(tensor_factory):
    tensor = tensor_factory()
    grid = Grid((21, 21))
    op = assemble_operator(grid, tensor)
    frac = harmonic_zero_set_fraction(op, trials=20, seed=0)
    assert frac < 0.01


def test_linear_solve_failure_on_exhausted_budget():
    from supmin import LinearSolveFailure

    grid = Grid((41,))
    op = assemble_operator(grid, identity_tensor(1, 1))
    clamp = (grid.coords()[:, 0] ** 3).reshape(-1, 1)
    with pytest.raises(LinearSolveFailure):
        dirichlet_solve(op, np.zeros((op.n_interior, 1)), clamp, max_iter=2)


def test_linear_solve_failure_on_true_residual(monkeypatch):
    from supmin import LinearSolveFailure

    # a CG that claims convergence without moving: only the true residual shows it
    monkeypatch.setattr(supmin.operators, "pcg", lambda matvec, b, **kw: (np.zeros_like(b), 0.0, 0))
    grid = Grid((41,))
    op = assemble_operator(grid, identity_tensor(1, 1))
    clamp = (grid.coords()[:, 0] ** 3).reshape(-1, 1)
    with pytest.raises(LinearSolveFailure):
        dirichlet_solve(op, np.zeros((op.n_interior, 1)), clamp)


def test_dirichlet_solve_target_follows_data_scale():
    # the target scales with the clamp's contribution to the rhs, so small and
    # large data are solved to the same relative accuracy
    grid = Grid((31, 31))
    op = assemble_operator(grid, identity_tensor(2, 1))
    clamp = np.random.default_rng(2).standard_normal((grid.n_nodes, 1))
    zero = np.zeros((op.n_interior, 1))
    unit = dirichlet_solve(op, zero, clamp)
    for scale in (1e-8, 1e-4, 1e4, 1e8):
        u = dirichlet_solve(op, zero, scale * clamp)
        np.testing.assert_allclose(u / scale, unit, rtol=0.0, atol=1e-9 * np.max(np.abs(unit)))


def test_dirichlet_solve_zero_data_skips_cg(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("b = 0 needs no CG")

    monkeypatch.setattr(supmin.operators, "pcg", no_cg)
    grid = Grid((11, 11))
    op = assemble_operator(grid, identity_tensor(2, 1))
    clamp = np.random.default_rng(3).standard_normal((grid.n_nodes, 1))
    clamp[op.clamp_idx] = 0.0
    u = dirichlet_solve(op, np.zeros((op.n_interior, 1)), clamp)
    np.testing.assert_array_equal(u, 0.0)


def test_operator_caches_are_shared_and_exact():
    grid = Grid((9, 10))
    op = assemble_operator(grid, det_coupled_tensor(1.0))
    coords = op.eq_coords()
    assert op.eq_coords() is coords
    np.testing.assert_array_equal(coords, grid.coords()[op.eq_idx])
    with pytest.raises(ValueError):
        coords[0, 0] = 1.0
    mat_t = op.free_matrix_t
    assert op.free_matrix_t is mat_t
    assert mat_t.format == "csr"
    assert mat_t.shape == op.free_matrix.T.shape
    assert (mat_t != op.free_matrix.T).nnz == 0
    w = np.random.default_rng(0).standard_normal(op.free_matrix.shape[0])
    assert np.array_equal(mat_t @ w, op.free_matrix.T @ w)
    assert op.operator_scale() == float(np.max(np.abs(op.free_matrix).sum(axis=0)))
