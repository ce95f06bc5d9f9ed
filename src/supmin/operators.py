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
distance >= 2.  Assembly writes the free-column and clamped-column CSR parts
straight from the stencil weights, summed per lattice shift; a mixed term
whose constant coefficients vanish is left out, and a summed weight that is
exactly zero (cross terms that cancel) is not stored, so neither part holds
explicit zeros.

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
    tensor: object            # the EllipticTensor assembled on grid
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
        mat = self.free_matrix   # column sums in stored order, as sum(axis=0) adds them
        return float(np.bincount(mat.indices, np.abs(mat.data), mat.shape[1]).max())

    @functools.cached_property
    def free_matrix_t(self):
        """CSR form of free_matrix.T, built on first use and kept on the operator, read-only."""
        mat = self.free_matrix.T.tocsr()
        _read_only(mat.data, mat.indices, mat.indptr)
        return mat

    @functools.cached_property
    def hessian_pattern(self):
        """Product map of L^T D L into band storage, built on first use and kept on the operator.

        Its arrays are read-only.
        """
        return _hessian_pattern(self.free_matrix, self.n_components)


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


def _csr_matvec(mat, x):
    """mat @ x for a float64 CSR matrix and vector: the kernel `@` runs, without its dispatch."""
    n_rows, n_cols = mat.shape
    if x.shape != (n_cols,):  # the kernel reads x without a bounds check
        raise DimensionMismatch(f"vector has shape {x.shape}, expected ({n_cols},)")
    out = np.zeros(n_rows)
    _sparsetools.csr_matvec(n_rows, n_cols, mat.indptr, mat.indices, mat.data, x, out)
    return out


@dataclass(frozen=True)
class HessianPattern:
    """Product map from the nodal blocks D_e to the lower band of L^T D L.

    H = L^T D L is symmetric, with
    H[j, i] = H[i, j] = sum_e sum_{a,b} L[eN + a, i] D_e[a, b] L[eN + b, j],
    so each lower entry (i <= j) is a fixed linear form in the blocks.  The
    CSR matrix products holds those forms: its row r sums the products
    L[eN + a, i] * L[eN + b, j] of the nonzero free_matrix coefficients that
    land on the r-th stored band entry, against column e*N*N + a*N + b of the
    flat (n_eq, N, N) blocks, so products @ blocks.ravel() is every stored
    entry at once.  band_pos[r] is where that entry sits in the flat
    column-major (Fortran-order) lower band of shape (bandwidth + 1, n_dofs),
    the layout LAPACK reads: H[j, i] = band[j - i, i] at flat index
    i * (bandwidth + 1) + (j - i), with the diagonal in row 0.  The stored
    entries are the structurally nonzero ones plus the whole diagonal, in
    ascending band_pos; every other band entry is zero whatever the blocks are.
    """

    products: object        # CSR, (n_stored, n_eq * N * N)
    band_pos: np.ndarray    # (n_stored,) flat Fortran-order band positions, ascending
    bandwidth: int
    n_dofs: int


def _hessian_pattern(free_matrix, n_comp):
    """Build the HessianPattern of a free-column matrix from its stored coefficients."""
    mat = free_matrix.tocsr()
    n_rows, n_dofs = mat.shape
    # entries come row-major, so the entries of each node are contiguous
    row = np.repeat(np.arange(n_rows), np.diff(mat.indptr))
    col, val = mat.indices.astype(np.int64), mat.data
    node = row // n_comp
    per_node = np.bincount(node, minlength=n_rows // n_comp)
    # every ordered pair (s, t) of entries of one node, node-major, then s, then t
    reps = per_node[node]
    s = np.repeat(np.arange(row.size), reps)
    t = np.arange(s.size) - np.repeat(np.cumsum(reps) - reps, reps)
    t += np.repeat((np.cumsum(per_node) - per_node)[node], reps)
    lower = col[s] <= col[t]  # the pair lands on H[col[t], col[s]], on or below the diagonal
    s, t = s[lower], t[lower]
    ci, cj = col[s], col[t]
    bw = int(np.max(cj - ci, initial=0))
    pos = ci * (bw + 1) + cj - ci
    stored = np.zeros((n_dofs, bw + 1), dtype=bool)  # the band's transpose, row-major
    stored[:, 0] = True
    stored.flat[pos] = True
    band_pos = np.flatnonzero(stored)
    out_row = np.empty(stored.size, dtype=np.int64)
    out_row[band_pos] = np.arange(band_pos.size)
    # (e, a, b) -> e*N*N + a*N + b; the CSR conversion keeps the pairs' order,
    # so each row sums its products by ascending block column
    block_col = row[s] * n_comp + row[t] % n_comp
    products = sp.coo_matrix(
        (val[s] * val[t], (out_row[pos], block_col)),
        shape=(band_pos.size, n_rows * n_comp),
    ).tocsr()
    _read_only(products.data, products.indices, products.indptr, band_pos)
    return HessianPattern(products=products, band_pos=band_pos, bandwidth=bw, n_dofs=n_dofs)


def assemble_operator(grid, tensor):
    """Assemble the flux-form stencil of div(A Du) into its free and clamped CSR parts.

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
    depth = grid.face_distance()
    eq_idx = np.flatnonzero(depth >= 1)
    interior = depth >= 2
    interior_idx = np.flatnonzero(interior)
    clamp_idx = np.flatnonzero(~interior)
    x_eq = grid.coords()[eq_idx]
    tensor.check_symmetry(None if tensor.is_constant else x_eq)
    n = grid.dim
    n_comp = tensor.n_components
    n_rows = eq_idx.size * n_comp
    h = np.array(grid.spacing)
    step = grid.ravel_index(np.eye(n, dtype=int))  # flat shift of one lattice step per axis

    # flat shift -> (n_eq, N, N) stencil weights coupling (row comp i, col comp j);
    # at most two terms meet at one shift, so the sums do not depend on their order
    weights = {}

    def add(shift, coeff):
        weights[shift] = weights[shift] + coeff if shift in weights else coeff

    for a in range(n):
        e_a = np.zeros(n)
        e_a[a] = h[a]
        # axis term: midpoint coefficients, first differences
        a_plus = tensor.at(x_eq + 0.5 * e_a)[:, a, a, :, :]
        a_minus = tensor.at(x_eq - 0.5 * e_a)[:, a, a, :, :]
        inv_h2 = 1.0 / h[a] ** 2
        add(step[a], a_plus * inv_h2)
        add(-step[a], a_minus * inv_h2)
        add(0, -(a_plus + a_minus) * inv_h2)
        for b in range(n):
            if b == a or (tensor.is_constant and not np.any(tensor.entries[a, b])):
                continue
            # cross term: centered difference in axis b of the flux at x +- h_a e_a
            c_plus = tensor.at(x_eq + e_a)[:, a, b, :, :]
            c_minus = tensor.at(x_eq - e_a)[:, a, b, :, :]
            w = 1.0 / (4.0 * h[a] * h[b])
            for sa, coeff in ((1, c_plus), (-1, c_minus)):
                for sb in (1, -1):
                    add(sa * step[a] + sb * step[b], sa * sb * w * coeff)

    # entry (e, i, k, j) couples row comp i of equation node e to comp j of the
    # node at the k-th shift; ascending shifts give each row ascending columns
    shifts = sorted(weights)
    vals = np.stack([weights[s] for s in shifts], axis=2)
    col_nodes = eq_idx[:, None] + np.array(shifts)
    pos = np.empty(grid.n_nodes, dtype=np.int64)  # position in the free or the clamped part
    pos[interior_idx] = np.arange(interior_idx.size)
    pos[clamp_idx] = np.arange(clamp_idx.size)
    # one row per (e, i), made contiguous so the flat reads below run fast
    shape = (n_rows, len(shifts) * n_comp)
    cols = np.broadcast_to(
        (pos[col_nodes] * n_comp)[:, None, :, None] + np.arange(n_comp), vals.shape
    ).reshape(shape)
    is_free = np.broadcast_to(interior[col_nodes][:, None, :, None], vals.shape).reshape(shape)
    vals = vals.reshape(shape)

    def csr_part(keep, n_nodes):
        at = np.flatnonzero(keep)  # kept entries, row by row
        indptr = np.concatenate(([0], np.cumsum(np.bincount(at // shape[1], minlength=n_rows))))
        return sp.csr_matrix((vals.ravel()[at], cols.ravel()[at], indptr),
                             shape=(n_rows, n_nodes * n_comp))

    # cross terms that cancel (the det part of det_coupled) sum to exact zeros
    keep_clamp = vals != 0.0
    keep_free = is_free & keep_clamp
    keep_clamp ^= keep_free  # the nonzero entries in clamped columns
    free_matrix = csr_part(keep_free, interior_idx.size)
    clamp_matrix = csr_part(keep_clamp, clamp_idx.size)
    # row positions of the interior nodes inside the equation-node ordering
    sq = np.searchsorted(eq_idx, interior_idx)
    square_rows = (sq[:, None] * n_comp + np.arange(n_comp)).ravel()

    return DiscreteOperator(
        grid=grid,
        tensor=tensor,
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
