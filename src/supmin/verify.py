"""Residual checks for the limiting optimality system, and checks that re-solve.

A minimizing field u with value e and dual field f must satisfy, away from
the zero set of f,
    F(x, L_h u) * F_xi / |F_xi| = e * f / |f|,
with f discretely orthogonal to L_h of interior-supported test fields, and
the nodal cost F(x, L_h u) constant at the level e.  The report quantifies
each statement on the grid.  The other checks solve again: from a second
start (uniqueness), with a rescaled cost, and on a sub-box clamped to u
(absolute minimality); each returns its numbers for the caller to judge.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateField
from .operators import apply_operator, assemble_operator, check_field
from .supremand import duality_map_field

# active-set threshold: the direction system and the cost constancy are read
# where |f| exceeds THETA times its peak
THETA = 0.1


def coefficient_of_variation(values):
    """std / mean of a nonnegative sample; zero for an (effectively) zero mean."""
    mean = float(np.mean(values)) if len(values) else 0.0
    if mean <= 0.0:
        return 0.0
    return float(np.std(values) / mean)


@dataclass
class VerifyReport:
    r_system: float          # sup over active nodes of the direction-system residual
    r_harmonic: float        # relative adjoint residual of the dual field
    cv_F: float              # coefficient of variation of the nodal cost on the active set
    active_fraction: float   # fraction of nodes carrying the dual field
    zero_set_fraction: float

    def as_dict(self):
        return {
            "r_system": self.r_system,
            "r_harmonic": self.r_harmonic,
            "cv_F": self.cv_F,
            "active_fraction": self.active_fraction,
            "zero_set_fraction": self.zero_set_fraction,
        }


def verify_system(op, supremand, u, f, e_hat):
    """Evaluate the optimality-system residuals for the pair (u, f) at level e_hat.

    The direction equation and the cost-constancy statistic are evaluated
    only where |f| exceeds THETA times its peak: the dual field legitimately
    passes through zero on a thin set (the discrete trace of a null set), and
    neither its direction nor the limiting cost level is meaningful there.
    The adjoint residual is the norm of the transposed operator applied to f,
    relative to the operator scale and the size of f.  An identically zero f
    (the zero-energy branch) has no active set, so every statistic is 0.
    """
    if e_hat < 0:
        raise ValueError("e_hat must be nonnegative")
    f = np.asarray(f, dtype=np.float64)
    mag = np.linalg.norm(f, axis=1)
    peak = float(mag.max()) if mag.size else 0.0
    if peak == 0.0:
        if e_hat > 0.0:
            raise DegenerateField(
                f"dual field vanishes identically but e_hat={e_hat:.3e} > 0"
            )
        return VerifyReport(
            r_system=0.0,
            r_harmonic=0.0,
            cv_F=0.0,
            active_fraction=0.0,
            zero_set_fraction=1.0,
        )

    lu = apply_operator(op, u)
    coords = op.eq_coords()
    active = mag > THETA * peak
    cv = coefficient_of_variation(supremand.eval_field(coords, lu)[active])
    phi = duality_map_field(supremand, coords, lu)
    directions = f[active] / mag[active, None]
    residual = phi[active] - e_hat * directions
    r_system = float(np.max(np.linalg.norm(residual, axis=1))) if active.any() else 0.0

    adjoint = op.free_matrix_t @ f.ravel()
    scale = op.operator_scale() * np.linalg.norm(f)
    r_harmonic = float(np.linalg.norm(adjoint) / scale) if scale > 0 else 0.0

    zero_frac = float(np.mean(~active))
    return VerifyReport(
        r_system=r_system,
        r_harmonic=r_harmonic,
        cv_F=cv,
        active_fraction=1.0 - zero_frac,
        zero_set_fraction=zero_frac,
    )


def uniqueness_check(op, supremand, clamp, start_a=None, start_b=None, **solve_kwargs):
    """Sup distance between continuation limits from two different starts.

    A strictly convex stage structure should make the limit start-independent;
    the distance quantifies how well the numerics realize that uniqueness.
    """
    from .continuation import continuation_solve

    rep_a = continuation_solve(op, supremand, clamp, initial=start_a, verify=False, **solve_kwargs)
    rep_b = continuation_solve(op, supremand, clamp, initial=start_b, verify=False, **solve_kwargs)
    return float(np.max(np.abs(rep_a.u - rep_b.u)))


def absolute_min_check(op, supremand, u, start, stop):
    """u's peak cost on the lattice sub-box [start, stop), and the least one there.

    An absolute minimizer also minimizes the sub-box peak among the fields
    sharing its two outer sub-box layers.  Returns (peak, bracket): u's peak
    at the sub-box equation nodes, and the bracket of a re-solve on the
    sub-box grid clamped to u, at continuation_solve's defaults.
    """
    from .continuation import continuation_solve

    grid, ids = op.grid.subgrid(start, stop)
    sub_op = assemble_operator(grid, op.tensor)
    clamp = check_field(u, op.grid.n_nodes, op.n_components, name="u")[ids]
    peak = float(np.max(supremand.eval_field(sub_op.eq_coords(), apply_operator(sub_op, clamp))))
    return peak, continuation_solve(sub_op, supremand, clamp, verify=False).bracket


def rescaling_invariance_check(op, supremand, clamp, factor, **solve_kwargs):
    """Solve with F and with factor * F; positive rescalings share minimizers.

    Returns (sup distance between the two limit fields, ratio of the two value
    estimates); the ratio is NaN when both energies vanish.
    """
    from .continuation import continuation_solve

    if not factor > 0:
        raise ValueError("factor must be positive")
    rep_1 = continuation_solve(op, supremand, clamp, verify=False, **solve_kwargs)
    rep_2 = continuation_solve(op, supremand.scaled(factor), clamp, verify=False, **solve_kwargs)
    distance = float(np.max(np.abs(rep_1.u - rep_2.u)))
    if rep_1.e_inf == 0.0:
        ratio = float("nan") if rep_2.e_inf == 0.0 else float("inf")
    else:
        ratio = rep_2.e_inf / rep_1.e_inf
    return distance, ratio
