"""Exponent continuation for sup-norm minimization of F(x, div(A Du)).

The sup energy is approached through power means with exponent p marching up
a schedule; each stage is a smooth convex minimization solved by damped
Newton, warm-started from the previous stage.  The stage Hessians L^T D L are
symmetric positive definite and banded in the natural (C-order) dof order, so
each Newton system is factored by banded Cholesky at cost O(n * bw^2).  With
N components the bandwidth is at most (2(m_last - 4) + 2) * N + N - 1 on a 2D
grid with m_last nodes along the last axis, and 3N - 1 in 1D.  Objectives are
rescaled by the running peak cost so that arbitrarily large exponents stay
inside floating-point range, and each stage reports the rigorous bracket
[power mean, peak] around the limiting value.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu  # noqa: F401  unused; perfbench/tracer.py:126 patches this name

from .errors import DegenerateEnergy, LineSearchStall, NoConvergence
from .operators import apply_operator, dirichlet_solve
from .verify import coefficient_of_variation

log = logging.getLogger(__name__)

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60


def geometric_schedule(p_max, start=2.0):
    """Doubling exponents start, 2*start, ... capped and terminated at p_max."""
    p_max = float(p_max)
    if p_max < start:
        return (p_max,)
    out = []
    p = float(start)
    while p < p_max:
        out.append(p)
        p *= 2.0
    out.append(p_max)
    return tuple(out)


def _check_schedule(schedule):
    sched = tuple(float(p) for p in schedule)
    if len(sched) == 0:
        raise ValueError("schedule must be nonempty")
    if any(p < 1.0 for p in sched):
        raise ValueError("schedule exponents must be >= 1")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly increasing")
    return sched


def power_mean_energy(op, supremand, u, p):
    """Discrete power mean of F(x, L_h u) over the equation nodes (uniform weights).

    Computed in the peak-rescaled form m * (mean (F_i/m)^p)^(1/p), which stays
    finite for arbitrarily large p.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    lu = apply_operator(op, u)
    fv = supremand.eval_field(op.eq_coords(), lu)
    return _power_mean(fv, p)


def _power_mean(fv, p):
    m = float(np.max(fv))
    if m <= 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.maximum(fv, 0.0)) - np.log(m)
    powers = np.exp(p * log_ratio)
    return m * float(np.mean(powers)) ** (1.0 / p)


def _ratio_power(fv, m, expo):
    """(F_i/m)^expo with 0^expo := 0, evaluated through logs for stability.

    For negative exponents, costs many orders below the scale are treated as
    zero so the huge reciprocal powers (whose prefactors vanish even faster)
    cannot poison the arithmetic.
    """
    floor = 0.0 if expo >= 0.0 else m * 1e-250
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(np.maximum(fv, 0.0)) - np.log(m)
        out = np.exp(expo * log_ratio)
    return np.where(fv > floor, out, 0.0 if expo != 0.0 else 1.0)


def scaled_energy_gradient(op, supremand, u, p, scale):
    """Gradient over interior dofs of mean_i (F(x, (L_h u)_i) / scale)^p."""
    lu = apply_operator(op, u)
    coords = op.eq_coords()
    fv = supremand.eval_field(coords, lu)
    gv = supremand.grad_field(coords, lu)
    w = (p / (op.n_eq * scale)) * _ratio_power(fv, scale, p - 1.0)[:, None] * gv
    return op.free_matrix.T @ w.ravel()


@dataclass
class StageResult:
    u: np.ndarray
    energy: float
    iterations: int
    grad_rel: float     # adjoint-relative gradient residual at exit
    stalled: bool = False


@dataclass
class _State:
    lu: np.ndarray
    fv: np.ndarray
    gv: np.ndarray
    w: np.ndarray
    grad: np.ndarray


class _StageProblem:
    """One fixed-exponent stage: peak-rescaled objective, gradient, Hessian blocks."""

    def __init__(self, op, supremand, clamp, p):
        self.op = op
        self.F = supremand
        self.p = float(p)
        self.coords = op.eq_coords()
        self.n_eq = op.n_eq
        self.n_comp = op.n_components
        self.clamp_part = op.clamp_matrix @ clamp[op.clamp_idx].ravel()
        self.scale = None

    def lu_of(self, x):
        return (self.op.free_matrix @ x + self.clamp_part).reshape(
            self.n_eq, self.n_comp
        )

    def evaluate(self, x):
        """(L_h u, nodal costs) of the field with interior dofs x."""
        lu = self.lu_of(x)
        return lu, self.F.eval_field(self.coords, lu)

    def objective(self, fv):
        with np.errstate(over="ignore"):
            powers = _ratio_power(fv, self.scale, self.p)
        return float(np.mean(powers))

    def grad_state(self, lu, fv):
        gv = self.F.grad_field(self.coords, lu)
        p, m = self.p, self.scale
        w = (p / (self.n_eq * m)) * _ratio_power(fv, m, p - 1.0)[:, None] * gv
        grad = self.op.free_matrix.T @ w.ravel()
        return _State(lu=lu, fv=fv, gv=gv, w=w, grad=grad)

    def hessian_blocks(self, lu, fv, gv):
        """Nodewise (N, N) blocks D_i of the exact objective Hessian L^T D L."""
        p, m = self.p, self.scale
        hv = self.F.hess_field(self.coords, lu)
        r_pm2 = _ratio_power(fv, m, p - 2.0)
        r_pm1 = _ratio_power(fv, m, p - 1.0)
        blocks = (p - 1.0) * r_pm2[:, None, None] * gv[:, :, None] * gv[:, None, :]
        blocks += (m * r_pm1)[:, None, None] * hv
        blocks *= p / (self.n_eq * m * m)
        return blocks

    def hessian_matrix(self, blocks):
        """Explicit sparse Hessian L^T D L of the rescaled objective."""
        mat = self.op.free_matrix
        n = self.n_comp
        d_block = sp.bsr_matrix(
            (blocks, np.arange(self.n_eq), np.arange(self.n_eq + 1)),
            shape=(self.n_eq * n, self.n_eq * n),
            blocksize=(n, n),
        )
        return mat.T @ (d_block @ mat)


class _BandedCholesky:
    """Upper banded Cholesky factor R of H + shift*I; solve applies (R^T R)^-1."""

    def __init__(self, band):
        self.band = band

    def solve(self, rhs):
        return cho_solve_banded((self.band, False), rhs, check_finite=False)


def _factor_spd(hess):
    """Banded Cholesky of the (regularized) Hessian; lifts the shift until it factors.

    The upper triangle goes into LAPACK upper band storage,
    band[bw + i - j, j] = H[i, j], with the bandwidth bw read off the sparsity
    pattern.
    """
    upper = sp.triu(hess, format="coo")
    if not np.all(np.isfinite(upper.data)):
        raise NoConvergence("Newton system has non-finite entries")
    n = hess.shape[0]
    offset = upper.col - upper.row
    bw = int(offset.max()) if offset.size else 0
    # bincount sums any duplicate entries the sparse products leave behind
    band = np.bincount(
        (bw - offset) * n + upper.col, weights=upper.data, minlength=(bw + 1) * n
    ).reshape(bw + 1, n)
    diag = band[bw].copy()
    scale = max(float(np.max(np.abs(diag))), 1e-300)
    shift = 1e-14 * scale
    for _ in range(8):
        band[bw] = diag + shift
        try:
            return _BandedCholesky(cholesky_banded(band, lower=False, check_finite=False))
        except LinAlgError:
            shift *= 100.0
    raise NoConvergence("Newton system factorization failed at every regularization level")


def _adjoint_residual(state, op_scale):
    """||L^T w|| relative to the operator scale and the weight field size.

    This is the quantity the optimality-system verifier reads off the dual
    field, so it is the natural convergence measure for each stage.
    """
    wnorm = np.linalg.norm(state.w)
    if wnorm == 0.0:
        return 0.0
    return float(np.linalg.norm(state.grad) / (op_scale * wnorm))


def _newton_loop(problem, x, tol, max_newton, best_effort, label,
                 stall_accept=1e-6, zero_floor=0.0):
    """Damped Newton on the peak-rescaled objective.

    Stops when the adjoint-relative gradient residual drops below tol, or at
    the floating-point floor of that residual.  Costs at or below zero_floor
    count as an exact zero-energy minimum (the cost of operator roundoff on
    the data scale).  Returns (x, iterations, residual, stalled).
    """
    lu, fv = problem.evaluate(x)
    peak = float(np.max(fv))
    if peak <= zero_floor:
        return x, 0, 0.0, False
    problem.scale = peak
    op_scale = problem.op.operator_scale()
    state = problem.grad_state(lu, fv)
    obj = problem.objective(fv)
    res = _adjoint_residual(state, op_scale)
    stalled = False
    iters = 0
    prev_res = None
    obj_gain = np.inf
    strikes = 0
    for iters in range(1, max_newton + 1):
        if res <= tol:
            return x, iters - 1, res, False
        # floating-point floor: residual flat AND objective no longer moving
        flat_res = prev_res is not None and res >= 0.99 * prev_res
        flat_obj = obj_gain <= 1e-14 * max(abs(obj), 1e-300)
        strikes = strikes + 1 if (flat_res and flat_obj) else 0
        if strikes >= 4:
            if res <= stall_accept:
                stalled = True
                break
            raise NoConvergence(
                f"{label}: adjoint residual stagnated at {res:.3e} "
                f"(target {tol:.1e})"
            )
        prev_res = res

        blocks = problem.hessian_blocks(state.lu, state.fv, state.gv)
        factor = _factor_spd(problem.hessian_matrix(blocks))
        step = factor.solve(-state.grad)
        if step @ state.grad >= 0.0:
            step = -step if step @ state.grad > 0.0 else -state.grad

        t = 1.0
        slope = float(state.grad @ step)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_try = x + t * step
            lu, fv = problem.evaluate(x_try)
            obj_try = problem.objective(fv)
            if np.isfinite(obj_try) and obj_try <= obj + ARMIJO_C1 * t * slope:
                x = x_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if res <= stall_accept:
                stalled = True
                break
            raise LineSearchStall(
                f"{label}: no decrease after {MAX_BACKTRACKS} halvings "
                f"(adjoint residual {res:.3e})"
            )

        # keep the objective scaled to the current peak: the adjoint residual
        # is scale-invariant, so rescaling costs nothing but keeps the scaled
        # objective inside [1/n_eq, 1] where Armijo comparisons stay meaningful;
        # the accepted trial's lu and fv are the state at the new x
        peak_now = float(np.max(fv))
        if peak_now <= zero_floor:
            return x, iters, 0.0, False
        rescaled = abs(np.log(peak_now) - np.log(problem.scale)) > 0.2
        if rescaled:
            problem.scale = peak_now
            obj_try = problem.objective(fv)
        state = problem.grad_state(lu, fv)
        obj_gain = np.inf if rescaled else obj - obj_try
        obj = obj_try
        res = _adjoint_residual(state, op_scale)

    if stalled or best_effort or res <= stall_accept:
        return x, iters, res, stalled or res > tol
    raise NoConvergence(
        f"{label}: adjoint residual {res:.3e} above {tol:.1e} after {max_newton} iterations"
    )


def minimize_power_energy(
    op,
    supremand,
    clamp,
    p,
    warm_start=None,
    tol=1e-9,
    max_newton=400,
    best_effort=False,
):
    """Minimize the exponent-p power-mean energy over the clamped affine space.

    Returns a StageResult whose field satisfies the clamp exactly and whose
    adjoint-relative gradient residual is below tol (or at its floating-point
    floor, whichever is hit first).
    """
    clamp = np.asarray(clamp, dtype=np.float64)
    u0 = clamp if warm_start is None else np.asarray(warm_start, dtype=np.float64)
    u0 = op.with_interior_dofs(clamp, op.interior_dofs(u0))
    problem = _StageProblem(op, supremand, clamp, p)
    x = op.interior_dofs(u0)
    # cost level of pure operator roundoff on the data scale: below this the
    # zero-energy minimum has been reached exactly
    lu_noise = 1e-13 * op.operator_scale() * max(1.0, float(np.max(np.abs(clamp))))
    zero_floor = supremand.c * lu_noise**2
    x, iters, grad_rel, stalled = _newton_loop(
        problem, x, tol, max_newton, best_effort, label=f"stage p={p:g}",
        zero_floor=zero_floor,
    )
    u = op.with_interior_dofs(clamp, x)
    energy = power_mean_energy(op, supremand, u, p)
    return StageResult(u=u, energy=energy, iterations=iters, grad_rel=grad_rel, stalled=stalled)


def dual_field(op, supremand, u, p, energy):
    """Nodewise dual field (F/energy)^(p-1) * F_xi at the equation nodes.

    The stationarity of the stage objective makes this field discretely
    orthogonal to L_h of every interior-supported test field.
    """
    if energy <= 0.0:
        raise DegenerateEnergy("energy level is zero; the zero-energy branch applies")
    lu = apply_operator(op, u)
    coords = op.eq_coords()
    fv = supremand.eval_field(coords, lu)
    gv = supremand.grad_field(coords, lu)
    return _ratio_power(fv, energy, p - 1.0)[:, None] * gv


@dataclass
class StageRow:
    p: float
    energy: float       # power mean at the stage minimizer
    peak: float         # max nodal cost at the stage minimizer
    newton_iters: int
    grad_norm: float    # adjoint-relative gradient residual at exit
    cv: float           # coefficient of variation of the nodal cost
    stalled: bool       # accepted at the residual floor above newton_tol


@dataclass
class SolveReport:
    rows: list
    u: np.ndarray             # full nodal field
    f: np.ndarray             # dual field on the equation nodes
    e_inf: float              # midpoint estimate of the limiting value
    bracket: tuple            # (power mean, peak) at the final stage
    degenerate: bool = False
    verify: object = None

    def check_invariants(self, slack=1e-8):
        """Raise AssertionError when the monotonicity/sandwich structure fails."""
        for a, b in zip(self.rows, self.rows[1:]):
            assert b.energy >= a.energy - slack * max(1.0, a.energy), (
                f"power means not monotone: {a.energy} -> {b.energy}"
            )
        for row in self.rows:
            assert row.energy <= self.e_inf + slack * max(1.0, row.energy), (
                f"estimate {self.e_inf} below stage mean {row.energy}"
            )
            assert self.e_inf <= row.peak + slack * max(1.0, row.peak), (
                f"estimate {self.e_inf} above stage peak {row.peak}"
            )


def cold_start(op, supremand, clamp):
    """Start field: one damped Newton pass on the exponent-1 objective.

    For quadratic costs this single pass is the exact mean-cost minimizer;
    convexity makes the continuation limit independent of the start either way.
    """
    res = minimize_power_energy(
        op, supremand, clamp, p=1.0, warm_start=clamp, max_newton=1, best_effort=True
    )
    return res.u


def continuation_solve(
    op,
    supremand,
    clamp,
    schedule=None,
    p_max=4096.0,
    newton_tol=1e-9,
    max_newton=400,
    bracket_stop=0.01,
    theta=0.1,
    degenerate_tol=1e-10,
    initial=None,
    verify=True,
):
    """March the exponent schedule with warm starts and bracket the limit value.

    Returns a SolveReport with the per-stage trace, the final field, its dual
    field, the bracket midpoint estimate, and (optionally) the residual report
    of the limiting optimality system.  When the energy collapses to zero the
    clamped solve of L_h u = 0 is returned instead (zero-energy branch).
    """
    sched = _check_schedule(geometric_schedule(p_max) if schedule is None else schedule)
    u = cold_start(op, supremand, clamp) if initial is None else np.asarray(initial, dtype=np.float64)
    coords = op.eq_coords()
    fv0 = supremand.eval_field(coords, apply_operator(op, u))
    threshold = degenerate_tol * max(1.0, float(np.max(fv0)))

    rows = []
    degenerate = float(np.max(fv0)) <= threshold
    p_last = sched[0]
    for p in sched if not degenerate else ():
        res = minimize_power_energy(
            op, supremand, clamp, p, warm_start=u, tol=newton_tol, max_newton=max_newton
        )
        u = res.u
        p_last = p
        fv = supremand.eval_field(coords, apply_operator(op, u))
        peak = float(np.max(fv))
        if res.energy > threshold:
            # cost constancy measured on the nodes carrying the dual field,
            # matching the verifier's active-set convention
            mag = np.linalg.norm(dual_field(op, supremand, u, p, res.energy), axis=1)
            active = mag > theta * mag.max() if mag.max() > 0 else slice(None)
            cv_row = coefficient_of_variation(fv[active])
        else:
            cv_row = coefficient_of_variation(fv)
        row = StageRow(
            p=p,
            energy=res.energy,
            peak=peak,
            newton_iters=res.iterations,
            grad_norm=res.grad_rel,
            cv=cv_row,
            stalled=res.stalled,
        )
        rows.append(row)
        log.info(
            "stage p=%g: energy=%.12g peak=%.12g iters=%d grad_rel=%.3e cv=%.3e stalled=%s",
            p, row.energy, row.peak, row.newton_iters, row.grad_norm, row.cv, row.stalled,
        )
        if res.energy <= threshold:
            degenerate = True
            break
        if (peak - res.energy) < bracket_stop * 0.5 * (peak + res.energy):
            break

    if degenerate:
        u = dirichlet_solve(op, np.zeros((op.n_interior, op.n_components)), clamp)
        f = np.zeros((op.n_eq, op.n_components))
        fv = supremand.eval_field(coords, apply_operator(op, u))
        e_inf = 0.0
        bracket = (0.0, float(np.max(fv)))
    else:
        last = rows[-1]
        f = dual_field(op, supremand, u, p_last, last.energy)
        e_inf = 0.5 * (last.energy + last.peak)
        bracket = (last.energy, last.peak)

    report = SolveReport(
        rows=rows, u=u, f=f, e_inf=e_inf, bracket=bracket, degenerate=degenerate
    )
    if verify:
        from .verify import verify_system

        report.verify = verify_system(op, supremand, u, f, e_inf, theta=theta)
    return report


def penalized_solve(
    op,
    supremand,
    clamp,
    p,
    target,
    tol=1e-10,
    max_newton=400,
):
    """Minimize power-mean energy plus half the mean squared distance to target.

    The quadratic tether makes the objective strictly convex; as p grows the
    minimizers select the sup-energy minimizer closest to the target.
    """
    clamp = np.asarray(clamp, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    problem = _StageProblem(op, supremand, clamp, p)
    n_eq, n_comp = problem.n_eq, problem.n_comp
    n_int = op.n_interior
    t_int = target[op.interior_idx].ravel()
    x = op.interior_dofs(target)

    _, fv = problem.evaluate(x)
    peak = float(np.max(fv))
    if peak <= 0.0:
        return op.with_interior_dofs(clamp, x)
    problem.scale = peak
    eye = sp.identity(op.free_matrix.shape[1], format="csr")

    def total_objective(xv):
        _, fvals = problem.evaluate(xv)
        energy = _power_mean(fvals, p)
        pen = 0.5 * float(np.sum((xv - t_int) ** 2)) / n_int
        return energy + pen

    obj = total_objective(x)
    g0 = None
    for _ in range(max_newton):
        state = problem.grad_state(*problem.evaluate(x))
        lu, fv, gv, grad_scaled = state.lu, state.fv, state.gv, state.grad
        g_mean = problem.objective(fv)
        if g_mean <= 0.0:
            break
        # d(energy)/dx = scale * (1/p) * G^(1/p - 1) * dG/dx
        factor = problem.scale / p * g_mean ** (1.0 / p - 1.0)
        grad = factor * grad_scaled + (x - t_int) / n_int
        gnorm = np.linalg.norm(grad)
        if g0 is None:
            g0 = gnorm if gnorm > 0 else 1.0
        if gnorm <= tol * g0:
            break

        blocks = problem.hessian_blocks(lu, fv, gv)
        hess = factor * problem.hessian_matrix(blocks) + eye / n_int
        step = _factor_spd(hess).solve(-grad)
        if step @ grad >= 0.0:
            step = -grad
        t = 1.0
        slope = float(grad @ step)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_try = x + t * step
            obj_try = total_objective(x_try)
            if np.isfinite(obj_try) and obj_try <= obj + ARMIJO_C1 * t * slope:
                x, obj = x_try, obj_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            log.warning(
                "penalized solve p=%g: no decrease after %d halvings "
                "(gradient norm %.3e, target %.3e); returning the last iterate",
                p, MAX_BACKTRACKS, gnorm, tol * g0,
            )
            break
        peak_now = float(np.max(problem.evaluate(x)[1]))
        if peak_now > 0.0 and abs(np.log(peak_now) - np.log(problem.scale)) > 0.2:
            problem.scale = peak_now
    return op.with_interior_dofs(clamp, x)
