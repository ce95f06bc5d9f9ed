"""Exponent continuation for sup-norm minimization of F(x, div(A Du)).

The sup energy is approached through power means with exponent p doubling
from 2 up to p_max; each stage is a smooth convex minimization solved by damped
Newton, warm-started from the previous stage.  The stage Hessians L^T D L are
symmetric positive definite and banded in the natural (C-order) dof order, so
each Newton system is factored by banded Cholesky at cost O(n * bw^2).  Each
Newton step assembles the band of L^T D L by one sparse mat-vec: the
operator's product map (DiscreteOperator.hessian_pattern), built once from
the nonzero free-column coefficients, takes the nodal (N, N) blocks of D to
every stored lower band entry, and the bandwidth bw comes from that map.  The
band is LAPACK lower band storage held column-major (a Fortran-ordered
(bw + 1, n) array with the diagonal in row 0): H[j, i], i <= j, sits at
band[j - i, i], flat position i * (bw + 1) + (j - i), so dpbtrf reads it
without a transposing copy.  A stage keeps two such buffers from its first
step on: the band, rewritten at its stored entries each step (every other
entry stays zero), and the factor, which dpbtrf overwrites in place; so no
Newton step allocates a band.  The operator stores no zero coefficients, so
with N components on a 2D grid with m_last nodes along the last axis bw is at
most 2(m_last - 4) * N + N - 1 for 5-point operators (no cross-derivative
terms) and (2(m_last - 4) + 2) * N + N - 1 with them; in 1D it is at most
3N - 1.  Objectives are rescaled by the running peak cost so that arbitrarily
large exponents stay inside floating-point range, and each stage reports the
rigorous bracket [power mean, peak] around the limiting value.

One damped Newton loop (_newton_loop) serves every minimization here; the
problem object it runs supplies the objective, its gradient, the factored
banded Newton matrix and the stopping residual.  _StageProblem is a continuation
stage; _TetheredProblem adds the quadratic tether of penalized_solve.

L_h u is evaluated by the operator (DiscreteOperator.apply_dofs), once per field:
each Newton loop returns the (L_h u, F) pair of its field for its callers to reuse.
A stage (minimize_power_energy) returns one StageResult: its field, that pair, the
dual field computed from it (dual_field), its bracket and its counters; the
continuation report's rows are the StageResults of its start and of every stage
it ran, and each stage starts its Newton loop from the pair of the row before it
instead of evaluating that field again.

Work is done once where its inputs change.  Once per solve: the clamp's part of
L_h u and the zero floor (_clamp_invariants), for the cold start and every stage.
Once per stage: the band and factor buffers.  Once per trial point: L_h u and F
(evaluate), and log(F/m), shared by objective, gradient and Newton blocks until
a rescale changes m; the power mean an intermediate stage's stop test takes is
the stage's energy if the stage ends at that point.  Stages count evaluations,
dpbtrf attempts, shift lifts, rejected line-search trials and peak rescales.

A stage stops by one of two rules.  The stage that ends the run (the last
scheduled exponent, or the first whose bracket is narrower than
bracket_stop) is driven until its residual drops below newton_tol or reaches
its floating-point floor, and so is the cold start (the exponent-1 stage from
the clamp) with NEWTON_TOL.  An intermediate stage, whose own bracket is still
open, only warm-starts the next exponent: it stops once a full Newton step
moves its power mean by at most ENERGY_RTOL relative.  Once the predicted
decrease of a step is below the objective's roundoff, the full step is judged
by the residual instead of by roundoff-sized objective differences.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import splu  # noqa: F401  unused; perfbench/tracer.py:126 patches this name

from .errors import DegenerateEnergy, DimensionMismatch, LineSearchStall, NoConvergence
from .operators import _csr_matvec, check_field
from .verify import active_set, coefficient_of_variation, verify_system

log = logging.getLogger(__name__)

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
MAX_NEWTON = 400   # steps after which a minimization short of its tol fails
# residual up to which a minimization stuck at its floating-point floor is
# accepted (and reported as stalled) instead of failing
STALL_ACCEPT = 1e-6
# roundoff of the stage objective G = mean((F/m)^p) relative to |G|, per unit p
OBJ_ROUNDOFF = 64.0 * np.finfo(np.float64).eps
# relative move of the power mean below which a full Newton step ends an
# intermediate stage (one whose bracket still calls for the next exponent)
ENERGY_RTOL = 1e-8
# defaults of the run's settings, which continuation_solve checks
P_MAX = 4096.0
NEWTON_TOL = 1e-9
BRACKET_STOP = 0.01


def geometric_schedule(p_max):
    """Doubling exponents 2, 4, ... capped and terminated at p_max, 1 <= p_max < inf."""
    p_max = float(p_max)
    if not 1.0 <= p_max < math.inf:
        raise ValueError(f"p_max must be finite and >= 1, got {p_max}")
    out = []
    p = 2.0
    while p < p_max:
        out.append(p)
        p *= 2.0
    out.append(p_max)
    return tuple(out)


def _clamp_invariants(op, supremand, clamp):
    """What every stage of one solve shares: the clamp's part of L_h u, flat, and _zero_floor."""
    return op.clamp_part(clamp), _zero_floor(op, supremand, clamp)


def _zero_floor(op, supremand, clamp):
    """Cost level of pure operator roundoff on the scale of the clamped data.

    A field whose peak cost is at or below c * (1e-13 * |L_h| * max|clamp|)^2
    satisfies L_h u = 0 to working precision: it is the zero-energy minimizer.
    """
    lu_noise = 1e-13 * op.operator_scale() * float(np.max(np.abs(clamp[op.clamp_idx])))
    return supremand.c * lu_noise**2


# _power_mean, _log_ratio and _ratio_power take logs of zero costs on purpose;
# their callers run them under np.errstate, once per Newton loop or public call
def _power_mean(fv, p):
    m = float(fv.max())
    if m <= 0.0:
        return 0.0
    powers = np.exp(p * _log_ratio(fv, m))
    return m * (float(powers.sum()) / powers.size) ** (1.0 / p)


def _norm(x):
    """Euclidean norm of all entries of a contiguous array, as np.linalg.norm computes it."""
    x = x.ravel()
    return math.sqrt(x.dot(x))


def _bracket_closed(energy, peak, bracket_stop):
    """The continuation stop rule: [energy, peak] narrower than bracket_stop of its midpoint."""
    return (peak - energy) < bracket_stop * 0.5 * (peak + energy)


def _log_ratio(fv, m):
    """log(F_i/m), -inf where F_i <= 0."""
    return np.log(np.maximum(fv, 0.0)) - np.log(m)


def _ratio_power(fv, m, expo, log_ratio=None):
    """(F_i/m)^expo with 0^expo := 0 for expo != 0 and 0^0 := 1, evaluated through logs.

    log_ratio, when given, is _log_ratio(fv, m) already at hand.  A positive
    exponent needs no mask: exp(-inf) = 0 where F_i <= 0, and NaN stays NaN.
    For negative exponents, costs many orders below the scale count as zero, so
    the huge reciprocal powers cannot poison the arithmetic.
    """
    if log_ratio is None:
        log_ratio = _log_ratio(fv, m)
    out = np.exp(expo * log_ratio)
    if expo > 0.0:
        return out
    floor = 0.0 if expo == 0.0 else m * 1e-250
    return np.where(fv > floor, out, 0.0 if expo != 0.0 else 1.0)


@dataclass
class StageResult:
    """What one exponent-p stage returns: its field, costs, dual field, bracket and counters."""

    p: float
    u: np.ndarray       # full nodal field, the stage minimizer
    lu: np.ndarray      # L_h u at the equation nodes
    fv: np.ndarray      # nodal costs F(x, L_h u)
    f: np.ndarray       # dual field (F/energy)^(p-1) F_xi at the equation nodes
    energy: float       # power mean of fv, the lower end of the stage bracket
    peak: float         # max of fv, the upper end
    iterations: int     # Newton steps
    grad_rel: float     # adjoint-relative gradient residual at exit
    stalled: bool       # accepted at the residual floor above its tol
    cv: float           # coefficient of variation of fv on the active set of f
    degenerate: bool    # peak at or below the zero floor; then f = 0 and cv = 0
    evaluations: int    # (L_h u, F) evaluations the stage made itself
    factorizations: int # dpbtrf attempts: one per Newton step plus the lifts
    lifts: int          # diagonal shift lifts, each after a failed dpbtrf
    backtracks: int     # trial points the line search rejected
    rescales: int       # changes of the objective's peak scale after the first


@dataclass
class _State:
    lu: np.ndarray
    fv: np.ndarray
    gv: np.ndarray
    log_ratio: np.ndarray   # log(F/m), the one log of the step
    r_pm1: np.ndarray   # (F/m)^(p-1), shared by the gradient and the Newton band
    w: np.ndarray
    grad: np.ndarray


class _StageProblem:
    """One fixed-exponent stage: peak-rescaled objective, gradient, Newton band, residual."""

    def __init__(self, op, supremand, clamp, p, bracket_stop=None, invariants=None):
        if not 1.0 <= p < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {p}")
        self.op = op
        self.F = supremand
        self.p = float(p)
        self.coords = op.eq_coords()
        self.n_eq = op.n_eq
        self.clamp_part, self.zero_floor = invariants or _clamp_invariants(op, supremand, clamp)
        self.op_scale = op.operator_scale()
        self.scale = None
        self.bracket_stop = bracket_stop   # set on intermediate stages only
        self._band = self._band_flat = self._factor = None   # made on the first Newton step
        self._logs = (None, None, None)    # (fv, scale, log(F/scale)) of the last trial point
        self.power_mean = (None, None)     # (fv, its power mean) of the last settled test
        self.evaluations = self.factorizations = self.lifts = self.backtracks = self.rescales = 0

    def evaluate(self, x):
        """(L_h u, nodal costs) of the field with interior dofs x."""
        self.evaluations += 1
        lu = self.op.apply_dofs(x, self.clamp_part)
        return lu, self.F.eval_field(self.coords, lu)

    def _log_ratio_at(self, fv):
        """log(F/m) at the current scale m: one computation per trial point and scale."""
        if self._logs[0] is not fv or self._logs[1] != self.scale:
            self._logs = (fv, self.scale, _log_ratio(fv, self.scale))
        return self._logs[2]

    def objective(self, x, fv):
        return float(_ratio_power(fv, self.scale, self.p, self._log_ratio_at(fv)).sum()) / self.n_eq

    def grad_state(self, x, lu, fv):
        gv = self.F.grad_field(self.coords, lu)
        p, m = self.p, self.scale
        log_ratio = self._log_ratio_at(fv)
        r_pm1 = _ratio_power(fv, m, p - 1.0, log_ratio)
        w = (p / (self.n_eq * m)) * r_pm1[:, None] * gv
        grad = _csr_matvec(self.op.free_matrix_t, w.ravel())
        return _State(lu=lu, fv=fv, gv=gv, log_ratio=log_ratio, r_pm1=r_pm1, w=w, grad=grad)

    def newton_blocks(self, state):
        """Nodal (N, N) blocks D of the exact objective Hessian L^T D L at state."""
        p, m = self.p, self.scale
        hv = self.F.hess_field(self.coords, state.lu)
        r_pm2 = _ratio_power(state.fv, m, p - 2.0, state.log_ratio)
        gv = state.gv
        blocks = (p - 1.0) * r_pm2[:, None, None] * gv[:, :, None] * gv[:, None, :]
        blocks += (m * state.r_pm1)[:, None, None] * hv
        denom = self.n_eq * m * m
        if denom == 0.0:
            raise NoConvergence(
                f"cost scale {m:.3e} is too small for the Newton system: its square underflows"
            )
        blocks *= p / denom
        return blocks

    def newton_band(self, state):
        """Lower band storage of the exact objective Hessian L^T D L at state."""
        return self.hessian_band(self.newton_blocks(state))

    def hessian_band(self, blocks):
        """Lower band storage of L^T D L for nodewise (N, N) blocks D_i, Fortran-ordered.

        The band is the stage's own buffer, allocated zero on first use: each
        call rewrites its stored entries and leaves the rest at zero.
        """
        pattern = self.op.hessian_pattern
        if self._band is None:
            self._band = np.zeros((pattern.bandwidth + 1, pattern.n_dofs), order="F")
            self._band_flat = self._band.T.reshape(-1)  # a view: the band is column-major
        self._band_flat[pattern.band_pos] = _csr_matvec(pattern.products, blocks.ravel())
        return self._band

    def newton_factor(self, state):
        """Banded Cholesky factor of the Newton matrix at state, in the stage's factor buffer."""
        band = self.newton_band(state)
        if self._factor is None:
            self._factor = np.empty_like(band, order="F")
        factor, lifts = _factor_spd(band, self._factor, self.op.hessian_pattern.band_pos)
        self.factorizations += 1 + lifts
        self.lifts += lifts
        return factor

    def residual(self, state):
        """||L^T w|| relative to the operator scale and the weight field size.

        This is the quantity the optimality-system verifier reads off the dual
        field, so it is the natural convergence measure for each stage.
        """
        wnorm = _norm(state.w)
        if wnorm == 0.0:
            return 0.0
        return _norm(state.grad) / (self.op_scale * wnorm)

    def settled(self, gain, obj, fv):
        """Whether a full step that lowered the objective G to obj by gain ends the stage.

        Only an intermediate stage whose own bracket is still open ends this
        way: its power mean M = m G^(1/p) moved by at most ENERGY_RTOL relative
        (dM/M = dG/(p G)), and a later stage, not this one, reports the result.
        The power mean computed here is kept with fv as power_mean, for the
        stage's energy if the loop ends at fv.
        """
        if self.bracket_stop is None or gain > ENERGY_RTOL * self.p * obj:
            return False
        self.power_mean = (fv, _power_mean(fv, self.p))
        return not _bracket_closed(self.power_mean[1], float(fv.max()), self.bracket_stop)


class _TetheredProblem(_StageProblem):
    """Power mean M_p(F) plus half the mean squared distance of the dofs to a target.

    Gradient and Newton band chain the stage ones through M_p = scale * G^(1/p)
    for the scaled mean G (dropping the rank-one curvature of the root), plus
    the tether's; the residual is the gradient norm relative to the first one.
    """

    def __init__(self, op, supremand, clamp, p, target):
        super().__init__(op, supremand, clamp, p)
        self.t_int = target[op.interior_idx].ravel()
        self.n_int = op.n_interior
        self.g0 = None

    def objective(self, x, fv):
        return _power_mean(fv, self.p) + 0.5 * float(np.sum((x - self.t_int) ** 2)) / self.n_int

    def _chain(self, fv):
        """dM_p/dG = scale / p * G^(1/p - 1)."""
        return self.scale / self.p * super().objective(None, fv) ** (1.0 / self.p - 1.0)

    def grad_state(self, x, lu, fv):
        state = super().grad_state(x, lu, fv)
        state.grad = self._chain(fv) * state.grad + (x - self.t_int) / self.n_int
        return state

    def newton_band(self, state):
        blocks = self.newton_blocks(state)
        blocks *= self._chain(state.fv)
        band = self.hessian_band(blocks)
        band[0] += 1.0 / self.n_int
        return band

    def residual(self, state):
        gnorm = _norm(state.grad)
        if self.g0 is None:
            self.g0 = gnorm if gnorm > 0 else 1.0
        return gnorm / self.g0


def _factor_spd(band, factor, stored):
    """Lower banded Cholesky factor L of the (regularized) Hessian H + shift*I.

    band is the LAPACK lower band storage of H, band[j - i, i] = H[j, i] for
    i <= j; stored indexes its flat column-major entries that may be nonzero
    (every other one must be zero), and only those are checked for finiteness.
    band is left untouched: each attempt copies it into factor, a
    Fortran-ordered buffer of the same shape, shifts the diagonal (row 0)
    there, and dpbtrf factors it in place.  dpbtrf reports a non-positive
    leading minor as info > 0, which lifts the shift until the band factors.
    Returns (L, lifts): L in the same band storage, as _solve_spd reads it,
    and the number of lifts, the dpbtrf attempts beyond the first.
    """
    if not np.isfinite(band.T.reshape(-1)[stored]).all():
        raise NoConvergence("Newton system has non-finite entries")
    scale = max(float(np.abs(band[0]).max()), 1e-300)
    shift = 1e-14 * scale
    for lifts in range(8):
        np.copyto(factor, band)
        factor[0] += shift
        factor, info = dpbtrf(factor, lower=1, overwrite_ab=1)
        if info == 0:
            return factor, lifts
        if info < 0:
            raise ValueError(f"dpbtrf: illegal value in argument {-info}")
        shift *= 100.0
    raise NoConvergence("Newton system factorization failed at every regularization level")


def _solve_spd(factor, rhs):
    """(L L^T)^-1 rhs for the band factor L that _factor_spd returns."""
    x, info = dpbtrs(factor, rhs, lower=1)
    if info < 0:
        raise ValueError(f"dpbtrs: illegal value in argument {-info}")
    return x


def _newton_loop(problem, x, tol, label, start=None):
    """Damped Newton on a stage or tethered problem.

    The problem supplies the objective, its gradient, the factored Newton
    matrix and the stopping residual; the loop keeps its scale at the running
    peak cost, to within a factor exp(min(0.2, 128/p)), so that the weights
    (F/m)^(p-1) at the peak node stay above exp(-128) instead of underflowing
    to a zero residual.  Steps are damped by Armijo backtracking.  Once the
    predicted decrease ARMIJO_C1 |slope| is below the objective's roundoff,
    OBJ_ROUNDOFF p |obj|, the Armijo test compares noise: the full step is
    then kept iff it lowers the residual (the pure Newton phase), and
    backtracking resumes from t = 1/2 otherwise, because a full step that
    raises the residual may be too long rather than at the floor.  Two rules
    end the loop within MAX_NEWTON steps (past them, a residual still above
    STALL_ACCEPT is NoConvergence):

    - the residual drops below tol, or reaches its floor (accepted as stalled
      up to STALL_ACCEPT, else NoConvergence or LineSearchStall);
    - on an intermediate stage (problem.settled), a full step moves the power
      mean by at most ENERGY_RTOL relative while the stage bracket is still
      open: energy accuracy is all a later stage's warm start needs.

    Costs at or below the problem's zero_floor count as an exact zero-energy
    minimum.  start, when given, is problem.evaluate(x), and x is then not
    evaluated again.  Returns (x, iterations, residual, stalled, lu, fv), lu
    and fv at x.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lu, fv = problem.evaluate(x) if start is None else start
        peak = float(fv.max())
        if peak <= problem.zero_floor:
            return x, 0, 0.0, False, lu, fv
        problem.scale = peak
        state = problem.grad_state(x, lu, fv)
        obj = problem.objective(x, fv)
        res = problem.residual(state)
        prev_res = None
        obj_gain = np.inf
        strikes = 0
        for iters in range(1, MAX_NEWTON + 1):
            if res <= tol:
                return x, iters - 1, res, False, state.lu, state.fv
            # floating-point floor: residual flat AND objective no longer moving
            flat_res = prev_res is not None and res >= 0.99 * prev_res
            flat_obj = obj_gain <= 1e-14 * max(abs(obj), 1e-300)
            strikes = strikes + 1 if (flat_res and flat_obj) else 0
            if strikes >= 4:
                failure = NoConvergence(
                    f"{label}: residual stagnated at {res:.3e} (target {tol:.1e})"
                )
                break
            prev_res = res

            step = _solve_spd(problem.newton_factor(state), -state.grad)
            slope = float(state.grad @ step)
            if slope >= 0.0:
                step = -step if slope > 0.0 else -state.grad
                slope = float(state.grad @ step)

            t = 1.0
            at_roundoff = ARMIJO_C1 * abs(slope) <= OBJ_ROUNDOFF * problem.p * abs(obj)
            trial = None
            for halvings in range(MAX_BACKTRACKS):
                x_try = x + t * step
                lu, fv = problem.evaluate(x_try)
                obj_try = problem.objective(x_try, fv)
                if at_roundoff and halvings == 0:
                    trial = problem.grad_state(x_try, lu, fv)
                    accepted = problem.residual(trial) < res
                else:
                    accepted = math.isfinite(obj_try) and obj_try <= obj + ARMIJO_C1 * t * slope
                if accepted:
                    x = x_try
                    break
                trial = None
                problem.backtracks += 1
                t *= 0.5
            else:
                failure = LineSearchStall(
                    f"{label}: no decrease after {MAX_BACKTRACKS} halvings "
                    f"(residual {res:.3e})"
                )
                break

            # keep the objective scaled to the current peak: the residual is
            # scale-invariant, so rescaling costs nothing but keeps the scaled
            # objective inside [1/n_eq, 1] where Armijo comparisons stay meaningful;
            # the accepted trial's lu and fv are the state at the new x
            peak_now = float(fv.max())
            if peak_now <= problem.zero_floor:
                return x, iters, 0.0, False, lu, fv
            rescaled = abs(np.log(peak_now) - np.log(problem.scale)) > min(0.2, 128.0 / problem.p)
            if rescaled:
                problem.rescales += 1
                problem.scale = peak_now
                obj_try = problem.objective(x, fv)
                trial = None
            state = problem.grad_state(x, lu, fv) if trial is None else trial
            obj_gain = np.inf if rescaled else obj - obj_try
            obj = obj_try
            res = problem.residual(state)
            if t == 1.0 and not rescaled and problem.settled(obj_gain, obj, fv):
                return x, iters, res, False, lu, fv
        else:
            failure = NoConvergence(
                f"{label}: residual {res:.3e} above {tol:.1e} after {MAX_NEWTON} iterations"
            )

        # state is the evaluation of x: a rejected trial's lu and fv are not
        if res > STALL_ACCEPT:
            raise failure
        return x, iters, res, res > tol, state.lu, state.fv


def minimize_power_energy(
    op,
    supremand,
    clamp,
    p,
    warm_start=None,
    tol=NEWTON_TOL,
    bracket_stop=None,
    warm_eval=None,
    *,
    _invariants=None,
):
    """Minimize the exponent-p power-mean energy over the clamped affine space.

    Returns the stage's StageResult: a field that satisfies the clamp exactly
    and whose adjoint-relative gradient residual is below tol (or at its
    floating-point floor, whichever is hit first), with its L_h u, costs, dual
    field and bracket [energy, peak].  A stage whose peak cost is at or below
    _zero_floor is degenerate: its dual field is zero and its cv 0.

    bracket_stop marks an intermediate stage of a continuation that stops at
    the first bracket narrower than bracket_stop: while this stage's bracket
    is wider, it ends as soon as a full Newton step moves the power mean by at
    most ENERGY_RTOL relative.  warm_eval, when given, is the (L_h u, nodal
    costs) pair of a warm_start that agrees with clamp on its band: the stage
    starts from that pair instead of evaluating warm_start again.  A p
    outside [1, inf), a tol that is not positive and finite, or a
    bracket_stop that is neither None nor positive and finite is a ValueError.
    _invariants is the solve's _clamp_invariants, computed once for all its stages.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if bracket_stop is not None and not 0.0 < bracket_stop < math.inf:
        raise ValueError(f"bracket_stop must be None or positive and finite, got {bracket_stop}")
    clamp = np.asarray(clamp, dtype=np.float64)
    u0 = clamp if warm_start is None else np.asarray(warm_start, dtype=np.float64)
    problem = _StageProblem(op, supremand, clamp, p, bracket_stop, _invariants)
    x, iters, grad_rel, stalled, lu, fv = _newton_loop(
        problem, op.interior_dofs(u0), tol, label=f"stage p={p:g}", start=warm_eval
    )
    seen, energy = problem.power_mean
    if seen is not fv:
        with np.errstate(divide="ignore"):
            energy = _power_mean(fv, p)
    peak = float(fv.max())
    degenerate = peak <= problem.zero_floor
    if degenerate:
        # the costs are roundoff: no dual field, and no level to be constant at
        f, cv = np.zeros((op.n_eq, op.n_components)), 0.0
    else:
        f = dual_field(op, supremand, lu, fv, p, energy)
        # cost constancy on the nodes carrying the dual field, as the verifier reads it
        cv = coefficient_of_variation(fv[active_set(f)[1]])
    return StageResult(p=problem.p, u=op.with_interior_dofs(clamp, x), lu=lu, fv=fv, f=f,
                       energy=energy, peak=peak, iterations=iters, grad_rel=grad_rel,
                       stalled=stalled, cv=cv, degenerate=degenerate, evaluations=problem.evaluations,
                       factorizations=problem.factorizations, lifts=problem.lifts,
                       backtracks=problem.backtracks, rescales=problem.rescales)


def dual_field(op, supremand, lu, fv, p, energy):
    """Nodewise dual field (F/energy)^(p-1) * F_xi from L_h u and its nodal costs F.

    The stationarity of the stage objective makes this field discretely
    orthogonal to L_h of every interior-supported test field.
    """
    if energy <= 0.0:
        raise DegenerateEnergy("energy level is zero; the zero-energy branch applies")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = _ratio_power(fv, energy, p - 1.0)
    return ratio[:, None] * supremand.grad_field(op.eq_coords(), lu)


@dataclass
class SolveReport:
    rows: list                # StageResults: the start (p = 1), then each stage run, in order
    e_inf: float              # midpoint estimate of the limiting value
    bracket: tuple            # (power mean, peak) at the final stage
    degenerate: bool = False
    verify: object = None

    def check_invariants(self, slack=1e-8):
        """Raise AssertionError, also under python -O, when the monotonicity/sandwich fails."""
        # the start (row 0) is checked once it took a Newton step; one that took
        # none may be an initial= evaluation, bounded by nothing
        rows = self.rows if self.rows[0].iterations else self.rows[1:]
        for a, b in zip(rows, rows[1:]):
            if not b.energy >= a.energy - slack * max(1.0, a.energy):
                raise AssertionError(f"power means not monotone: {a.energy} -> {b.energy}")
        for row in rows:
            if not row.energy <= self.e_inf + slack * max(1.0, row.energy):
                raise AssertionError(f"estimate {self.e_inf} below stage mean {row.energy}")
            if not self.e_inf <= row.peak + slack * max(1.0, row.peak):
                raise AssertionError(f"estimate {self.e_inf} above stage peak {row.peak}")


def cold_start(op, supremand, clamp, *, _invariants=None):
    """Start field: the exponent-1 stage from the clamp, the mean-cost minimizer.

    It is an ordinary stage, run to NEWTON_TOL under the same stop rules as
    every other (for quadratic costs one Newton step reaches it); convexity
    makes the continuation limit independent of the start either way.
    Returns the stage's StageResult, with its field's L_h u and costs.
    """
    return minimize_power_energy(op, supremand, clamp, 1.0, _invariants=_invariants)


def continuation_solve(
    op,
    supremand,
    clamp,
    p_max=P_MAX,
    newton_tol=NEWTON_TOL,
    bracket_stop=BRACKET_STOP,
    initial=None,
):
    """March geometric_schedule(p_max) with warm starts and bracket the limit value.

    The start is cold_start, or initial's interior values with the clamp's
    band, evaluated as an exponent-1 stage that takes no Newton step (its tol
    is the largest float).  A p_max outside [1, inf), or a newton_tol or
    bracket_stop that is not positive and finite, is a ValueError.

    Returns a SolveReport whose rows are the start's StageResult and then those
    of the stages run, each warm-started from the row before it; the final row
    holds the final field, its L_h u, costs and dual field.  The report has the
    bracket midpoint estimate, and as verify the verify_system report on the
    limiting optimality system.  A start or stage field with peak cost at or
    below _zero_floor solves L_h u = 0, so it is the unique minimizer and ends
    the rows (zero-energy branch, bracket (0, peak)).
    The cost, the operator, the clamp and initial must agree on the number of
    components N (DimensionMismatch otherwise), and the fields must be finite.
    """
    n_comp = op.n_components
    if supremand.n_components != n_comp:
        raise DimensionMismatch(f"cost has {supremand.n_components} components, operator {n_comp}")
    clamp = check_field(clamp, op.grid.n_nodes, n_comp, name="clamp")
    sched = geometric_schedule(p_max)
    for name, value in (("newton_tol", newton_tol), ("bracket_stop", bracket_stop)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    invariants = _clamp_invariants(op, supremand, clamp)
    if initial is None:
        rows = [cold_start(op, supremand, clamp, _invariants=invariants)]
    else:
        initial = check_field(initial, op.grid.n_nodes, n_comp, name="initial field")
        rows = [minimize_power_energy(op, supremand, clamp, 1.0, warm_start=initial,
                                      tol=np.finfo(np.float64).max, _invariants=invariants)]

    for p in () if rows[0].degenerate else sched:
        warm = rows[-1]
        # every stage but the last scheduled one may end at energy accuracy;
        # each starts from the L_h u and costs of its warm start at hand
        last = minimize_power_energy(op, supremand, clamp, p, warm_start=warm.u, tol=newton_tol,
                                     bracket_stop=bracket_stop if p < sched[-1] else None,
                                     warm_eval=(warm.lu, warm.fv), _invariants=invariants)
        rows.append(last)
        log.info(
            "stage p=%g: energy=%.12g peak=%.12g iters=%d grad_rel=%.3e cv=%.3e stalled=%s",
            p, last.energy, last.peak, last.iterations, last.grad_rel, last.cv, last.stalled,
        )
        if last.degenerate or _bracket_closed(last.energy, last.peak, bracket_stop):
            break

    last = rows[-1]
    e_inf = 0.0 if last.degenerate else 0.5 * (last.energy + last.peak)
    bracket = (0.0 if last.degenerate else last.energy, last.peak)
    report = SolveReport(rows=rows, e_inf=e_inf, bracket=bracket, degenerate=last.degenerate)
    report.verify = verify_system(op, supremand, last.u, last.f, e_inf)
    return report


def penalized_solve(op, supremand, clamp, p, target):
    """Minimize power-mean energy plus half the mean squared distance to target.

    The quadratic tether makes the objective strictly convex; as p grows the
    minimizers select the sup-energy minimizer closest to the target.  Fails
    like a stage (LineSearchStall, NoConvergence) short of a 1e-10 relative gradient;
    a p outside [1, inf) is a ValueError.
    """
    clamp = np.asarray(clamp, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    problem = _TetheredProblem(op, supremand, clamp, p, target)
    x, *_ = _newton_loop(problem, op.interior_dofs(target), tol=1e-10, label=f"penalized p={p:g}")
    return op.with_interior_dofs(clamp, x)
