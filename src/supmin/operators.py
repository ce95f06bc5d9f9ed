"""Finite-difference realization of div(A Du) on clamped box grids.

Assembly is in conservative flux form: along each axis the coefficient is
taken at cell midpoints and combined with first differences, and the mixed
axis terms difference the centered cross-derivative between the two shifted
nodes.  For constant coefficients this collapses to the familiar centered
stencils (exact on quadratics, symmetric interior matrix).

Rows are assembled at every stencil-complete node (lattice distance >= 1
from the faces).  This includes the inner ring of the clamped band: the
curvature connecting the prescribed boundary slope to the free region is
measured there, which is what makes the clamped first-derivative data
binding for sup-norm energies.  The free unknowns remain the nodes at
distance >= 2.

L_h u has one evaluation, DiscreteOperator.apply_dofs (free columns times the
free dofs plus the clamped band's part); apply_operator and the Newton stages
share it, so a field's L_h u has the same bits whichever of them asks.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import DimensionMismatch, LinearSolveFailure, StencilOutOfDomain


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse map from full nodal fields to div(A Du) at stencil-complete nodes."""

    grid: object
    n_components: int
    eq_idx: np.ndarray        # flat node ids of the equation/cost nodes (distance >= 1)
    interior_idx: np.ndarray  # flat node ids of the free unknowns (distance >= 2)
    clamp_idx: np.ndarray     # flat node ids of the clamped band (two layers)
    free_matrix: object       # columns restricted to the free dofs
    clamp_matrix: object      # columns restricted to the clamped dofs
    square_rows: np.ndarray   # row dof positions of the interior nodes inside eq_idx

    @property
    def n_eq(self):
        return self.eq_idx.size

    @property
    def n_interior(self):
        return self.interior_idx.size

    def eq_coords(self):
        """Coordinates of the equation nodes, shape (n_eq, dim); one read-only array."""
        return self._eq_coords

    @functools.cached_property
    def _eq_coords(self):
        coords = self.grid.coords()[self.eq_idx]
        coords.flags.writeable = False
        return coords

    def interior_dofs(self, u):
        return np.asarray(u)[self.interior_idx].ravel()

    def with_interior_dofs(self, u, x):
        out = np.array(u, dtype=np.float64, copy=True)
        out[self.interior_idx] = np.asarray(x).reshape(self.n_interior, self.n_components)
        return out

    def clamp_part(self, u):
        """Contribution of the clamped band of the full field u to L_h u, flat."""
        return self.clamp_matrix @ np.asarray(u)[self.clamp_idx].ravel()

    def apply_dofs(self, x, clamp_part):
        """L_h u of the field with free dofs x and clamp contribution clamp_part, (n_eq, N)."""
        lu = _csr_matvec(self.free_matrix, x) + clamp_part
        return lu.reshape(self.n_eq, self.n_components)

    def square_matrix(self):
        """Rows of the free-column matrix at the interior nodes (the Dirichlet system)."""
        return self.free_matrix[self.square_rows]

    def operator_scale(self):
        """Infinity-norm of the transposed free-column matrix (max column abs sum)."""
        return self._operator_scale

    @functools.cached_property
    def _operator_scale(self):
        return float(np.max(np.abs(self.free_matrix).sum(axis=0)))

    @functools.cached_property
    def free_matrix_t(self):
        """CSR form of free_matrix.T, built on first use and kept on the operator."""
        return self.free_matrix.T.tocsr()

    @functools.cached_property
    def hessian_pattern(self):
        """Band scatter pattern of L^T D L, built on first use and kept on the operator."""
        return _hessian_pattern(self.free_matrix, self.n_components)


def _csr_matvec(mat, x):
    """mat @ x for a float64 CSR matrix and vector: the kernel `@` runs, without its dispatch."""
    if x.shape != (mat.shape[1],):  # the kernel reads x without a bounds check
        raise DimensionMismatch(f"vector has shape {x.shape}, expected ({mat.shape[1]},)")
    out = np.zeros(mat.shape[0])
    _sparsetools.csr_matvec(mat.shape[0], mat.shape[1], mat.indptr, mat.indices, mat.data, x, out)
    return out


@dataclass(frozen=True)
class HessianPattern:
    """Where the nodal products of L^T D L land in upper band storage.

    The N rows of equation node e touch K free columns (fewer are padded with
    zero rows); coeffs[e] holds their (K, N) free_matrix entries, so the node
    contributes coeffs[e] @ D_e @ coeffs[e].T to the Hessian.  band_index maps
    each entry (e, k, l) of those (n_eq, K, K) products to its flat position
    in the (bandwidth + 1, n_dofs) upper band, band[bandwidth + i - j, j] =
    H[i, j], stored column-major (Fortran order, the layout LAPACK reads):
    H[i, j] sits at flat index j * (bandwidth + 1) + bandwidth + i - j.
    Lower-triangle and padding pairs go to the trash slot
    (bandwidth + 1) * n_dofs just past the band.
    """

    coeffs: np.ndarray      # (n_eq, K, N)
    band_index: np.ndarray  # (n_eq * K * K,)
    bandwidth: int
    n_dofs: int


def _hessian_pattern(free_matrix, n_comp):
    """Build the HessianPattern of a free-column matrix, dropping explicit zeros."""
    mat = free_matrix.tocoo()
    keep = mat.data != 0.0
    rows, cols, vals = mat.row[keep], mat.col[keep], mat.data[keep]
    n_eq = mat.shape[0] // n_comp
    n_dofs = mat.shape[1]
    # distinct (node, column) pairs, node-major with ascending columns
    keys, slot = np.unique(
        (rows // n_comp).astype(np.int64) * n_dofs + cols, return_inverse=True
    )
    node, col = np.divmod(keys, n_dofs)
    counts = np.bincount(node, minlength=n_eq)
    first = np.cumsum(counts) - counts
    pos = np.arange(keys.size) - first[node]
    k = int(counts.max(initial=0))
    coeffs = np.zeros((n_eq, k, n_comp))
    coeffs[node[slot], pos[slot], rows % n_comp] = vals
    used = counts > 0
    last = first + counts - 1
    bw = int(np.max(col[last[used]] - col[first[used]], initial=0))

    col_of = np.full((n_eq, k), -1, dtype=np.int64)
    col_of[node, pos] = col
    ci = col_of[:, :, None]
    cj = col_of[:, None, :]
    band_index = np.where(
        (ci >= 0) & (ci <= cj), cj * (bw + 1) + (bw + ci - cj), (bw + 1) * n_dofs
    )
    return HessianPattern(
        coeffs=coeffs, band_index=band_index.ravel(), bandwidth=bw, n_dofs=n_dofs
    )


def assemble_operator(grid, tensor):
    """Assemble the flux-form stencil matrix of div(A Du).

    A tensor that is not symmetric (A[a,b,i,j] != A[b,a,j,i]) raises
    AsymmetricTensor; a variable one is checked at the equation nodes.
    """
    if any(m < 5 for m in grid.shape):
        raise StencilOutOfDomain(
            f"need at least 5 nodes per axis for the clamped stencil, got {grid.shape}"
        )
    if tensor.n != grid.dim:
        raise DimensionMismatch(
            f"tensor has {tensor.n} axes but grid has dimension {grid.dim}"
        )
    eq_idx = np.flatnonzero(grid.stencil_mask())
    x_eq = grid.coords()[eq_idx]
    tensor.check_symmetry(None if tensor.is_constant else x_eq)
    n = grid.dim
    n_comp = tensor.n_components
    h = np.array(grid.spacing)
    interior = grid.interior_mask()
    interior_idx = np.flatnonzero(interior)
    clamp_idx = np.flatnonzero(~interior)
    n_eq = eq_idx.size
    idx_eq = grid.multi_indices()[eq_idx]

    def flat_shifted(offsets):
        return grid.ravel_index(idx_eq + np.asarray(offsets, dtype=int))

    rows, cols, vals = [], [], []
    row_base = np.arange(n_eq) * n_comp

    def add_block(col_nodes, coeff):
        # coeff: (n_eq, N, N) stencil weights coupling (row comp i, col comp j)
        col_base = col_nodes * n_comp
        for i in range(n_comp):
            for j in range(n_comp):
                rows.append(row_base + i)
                cols.append(col_base + j)
                vals.append(coeff[:, i, j])

    for a in range(n):
        e_a = np.zeros(n)
        e_a[a] = h[a]
        # axis term: midpoint coefficients, first differences
        a_plus = tensor.at(x_eq + 0.5 * e_a)[:, a, a, :, :]
        a_minus = tensor.at(x_eq - 0.5 * e_a)[:, a, a, :, :]
        off = np.zeros(n, dtype=int)
        off[a] = 1
        inv_h2 = 1.0 / h[a] ** 2
        add_block(flat_shifted(off), a_plus * inv_h2)
        add_block(flat_shifted(-off), a_minus * inv_h2)
        add_block(eq_idx, -(a_plus + a_minus) * inv_h2)
        for b in range(n):
            if b == a:
                continue
            # cross term: centered difference in axis b of the flux at x +- h_a e_a
            c_plus = tensor.at(x_eq + e_a)[:, a, b, :, :]
            c_minus = tensor.at(x_eq - e_a)[:, a, b, :, :]
            w = 1.0 / (4.0 * h[a] * h[b])
            for sa, coeff in ((1, c_plus), (-1, c_minus)):
                for sb in (1, -1):
                    off = np.zeros(n, dtype=int)
                    off[a] = sa
                    off[b] = sb
                    add_block(flat_shifted(off), sa * sb * w * coeff)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    matrix = sp.coo_matrix(
        (vals, (rows, cols)), shape=(n_eq * n_comp, grid.n_nodes * n_comp)
    ).tocsr()

    free_cols = (interior_idx[:, None] * n_comp + np.arange(n_comp)).ravel()
    clamp_cols = (clamp_idx[:, None] * n_comp + np.arange(n_comp)).ravel()
    csc = matrix.tocsc()
    free_matrix = csc[:, free_cols].tocsr()
    clamp_matrix = csc[:, clamp_cols].tocsr()

    # row positions of the interior nodes inside the equation-node ordering
    eq_pos = np.full(grid.n_nodes, -1, dtype=int)
    eq_pos[eq_idx] = np.arange(n_eq)
    sq = eq_pos[interior_idx]
    square_rows = (sq[:, None] * n_comp + np.arange(n_comp)).ravel()

    return DiscreteOperator(
        grid=grid,
        n_components=n_comp,
        eq_idx=eq_idx,
        interior_idx=interior_idx,
        clamp_idx=clamp_idx,
        free_matrix=free_matrix,
        clamp_matrix=clamp_matrix,
        square_rows=square_rows,
    )


def apply_operator(op, u):
    """Evaluate div(A Du) at the equation nodes; returns shape (n_eq, N)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (op.grid.n_nodes, op.n_components):
        raise DimensionMismatch(
            f"field has shape {u.shape}, expected {(op.grid.n_nodes, op.n_components)}"
        )
    return op.apply_dofs(op.interior_dofs(u), op.clamp_part(u))


def check_field(u, n_nodes, n_components, name="field"):
    """Validate a finite nodal field and return it with shape (n_nodes, n_components)."""
    out = np.ascontiguousarray(u, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.shape != (n_nodes, n_components):
        raise DimensionMismatch(
            f"{name} has shape {np.shape(u)}, expected ({n_nodes}, {n_components})"
        )
    return out


def pcg(matvec, b, diag, rtol=1e-12, atol=0.0, max_iter=None):
    """Conjugate gradients on an SPD system, preconditioned by its diagonal diag.

    Deterministic given fixed inputs; returns (x, residual_norm, iterations).
    """
    b = np.asarray(b, dtype=np.float64)
    m = b.size
    if max_iter is None:
        max_iter = 20 * m + 200
    x = np.zeros(m)
    r = b.copy()
    inv_diag = 1.0 / np.where(np.abs(diag) > 0, diag, 1.0)
    target = max(atol, rtol * np.linalg.norm(b))
    res = np.linalg.norm(r)
    if res <= target:
        return x, res, 0
    z = r * inv_diag
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        ap = matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            break  # curvature lost (numerically); keep the current iterate
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r)
        if res <= target:
            return x, res, k
        z = r * inv_diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, res, max_iter


def dirichlet_solve(op, rhs, clamp, tol=1e-12, max_iter=None):
    """Solve L_h u = rhs at the interior nodes with the clamped layers prescribed.

    rhs is given on the equation nodes or on the interior nodes; clamp is a
    full field whose values at the clamped band are used.  The square interior
    system is solved by Jacobi-preconditioned CG on its (sign-flipped) SPD
    form to a true residual <= tol * ||b||, b being the rhs less the clamped
    layers' contribution; b = 0 gives zero interior values.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape == (op.n_eq, op.n_components):
        rhs_int = rhs.ravel()[op.square_rows].reshape(op.n_interior, op.n_components)
    elif rhs.shape == (op.n_interior, op.n_components):
        rhs_int = rhs
    else:
        raise DimensionMismatch(f"rhs has shape {rhs.shape}")
    clamp = np.asarray(clamp, dtype=np.float64)
    if clamp.shape != (op.grid.n_nodes, op.n_components):
        raise DimensionMismatch(f"clamp field has shape {clamp.shape}")

    b = rhs_int.ravel() - op.clamp_part(clamp)[op.square_rows]
    u = np.array(clamp, dtype=np.float64, copy=True)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        u[op.interior_idx] = 0.0
        return u
    # interior submatrix of an elliptic div-form operator is negative definite
    s_mat = -op.square_matrix()
    diag = s_mat.diagonal()
    target = tol * b_norm
    x, _, _ = pcg(
        lambda v: s_mat @ v, -b, rtol=0.0, atol=target, max_iter=max_iter, diag=diag
    )
    res = float(np.linalg.norm(s_mat @ x + b))
    if res > target:
        raise LinearSolveFailure(
            f"CG true residual {res:.3e} above target {target:.3e}", residual=res
        )
    u[op.interior_idx] = x.reshape(op.n_interior, op.n_components)
    return u


def harmonic_zero_set_fraction(op, trials=20, seed=0, threshold=1e-10):
    """Largest interior fraction of near-zero nodes among random discrete solutions of L_h f = 0.

    Small values empirically support the unique-continuation property of the
    operator: nontrivial discrete solutions should vanish on a thin set only.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    zero_rhs = np.zeros((op.n_interior, op.n_components))
    worst = 0.0
    for _ in range(trials):
        clamp = np.zeros((op.grid.n_nodes, op.n_components))
        clamp[op.clamp_idx] = rng.standard_normal((op.clamp_idx.size, op.n_components))
        f = dirichlet_solve(op, zero_rhs, clamp)
        mag = np.linalg.norm(f[op.interior_idx], axis=1)
        peak = mag.max()
        if peak == 0.0:
            worst = 1.0
            continue
        frac = float(np.mean(mag <= threshold * peak))
        worst = max(worst, frac)
    return worst
