"""Exact references the benchmark checks solver output against.

The LP is the discrete Chebyshev problem min over free dofs of
max_k sqrt(alpha_k) |(L_h u)_k| for scalar costs alpha(x) |xi|^2, the same
formulation as the test suite's oracle with each row scaled by sqrt(alpha).
Its optimum squared is the exact discrete sup-energy, which the solver's
final-stage bracket [power mean, peak] must contain.  HiGHS does not finish
reliably beyond 41 x 41 nodes, so the benchmark uses it on small grids only.
"""

import numpy as np
import scipy.sparse as sp

LP_MAX_NODES = 41 * 41
BRACKET_SLACK = 1e-6


def lp_energy(op, clamp, row_weight=None):
    """Exact discrete sup-energy of alpha |L_h u|^2 over the clamped affine space."""
    from scipy.optimize import linprog

    if op.n_components != 1 or op.grid.n_nodes > LP_MAX_NODES:
        raise ValueError("LP reference applies to scalar fields on grids up to 41 x 41")
    free = op.free_matrix
    part = op.clamp_matrix @ np.asarray(clamp)[op.clamp_idx].ravel()
    if row_weight is not None:
        free = sp.diags(row_weight) @ free
        part = row_weight * part
    n_eq, n_free = free.shape
    ones = np.ones((n_eq, 1))
    a_ub = sp.vstack([sp.hstack([free, -ones]), sp.hstack([-free, -ones])]).tocsc()
    b_ub = np.concatenate([-part, part])
    cost = np.zeros(n_free + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n_free + 1),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"LP reference failed: {res.message}")
    return float(res.x[-1]) ** 2


def bracket_failures(low, high, exact, label):
    """Messages for an exact value outside the reported bracket (empty when inside)."""
    if low * (1.0 - BRACKET_SLACK) <= exact <= high * (1.0 + BRACKET_SLACK):
        return []
    return [f"{label}: exact value {exact:.10g} outside bracket [{low:.10g}, {high:.10g}]"]
