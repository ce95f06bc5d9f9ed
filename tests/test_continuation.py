import gc
import inspect
import types
import weakref

import numpy as np
import pytest
from scipy.linalg import block_diag, cho_solve_banded, cholesky_banded

from conftest import log_domain_power_mean, lp_min_max_abs, make_1d_problem

import supmin.continuation
import supmin.operators
import supmin.verify
from supmin import (
    DegenerateEnergy,
    DimensionMismatch,
    Grid,
    LineSearchStall,
    NoConvergence,
    SupremalMinimizer,
    WeightedPowerNorm,
    apply_operator,
    assemble_operator,
    block_diagonal_tensor,
    continuation_solve,
    det_coupled_tensor,
    dual_field,
    geometric_schedule,
    identity_tensor,
    minimize_power_energy,
    penalized_solve,
)
from supmin.cli import _solve_from_config
from supmin.config import boundary_profile, build_grid, build_supremand, build_tensor, parse_config
from supmin.continuation import (
    _evaluate,
    _factor_spd,
    _newton_loop,
    _power_mean,
    _ratio_power,
    _solve_spd,
    _StageProblem,
    _zero_floor,
    cold_start,
)
from supmin.operators import _csr_matvec


def _power_mean_of(op, F, u, p):
    """Power mean of u's nodal costs, as a stage computes it."""
    with np.errstate(divide="ignore"):
        return _power_mean(_evaluate(op, F, u)[1], p)


def _scaled_gradient(op, F, u, p, scale):
    """Gradient over the interior dofs of mean_i (F_i / scale)^p, as a stage computes it."""
    problem = _StageProblem(op, F, u, p)
    problem.scale = scale
    x = op.interior_dofs(u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return problem.grad_state(x, *problem.evaluate(x)).grad


def test_geometric_schedule():
    assert geometric_schedule(4096.0) == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                                          256.0, 512.0, 1024.0, 2048.0, 4096.0)
    assert geometric_schedule(100.0) == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0)
    assert geometric_schedule(1.5) == (1.5,)


def _assert_rejected_before_solving(monkeypatch, name, values):
    """Each entry point taking the setting name rejects each value before factoring."""
    def no_factor(*args, **kwargs):
        raise AssertionError("an invalid setting must fail before any factorization")

    monkeypatch.setattr(supmin.continuation, "_factor_spd", no_factor)
    grid, op, F, u0 = make_1d_problem(nodes=21)

    def run(kw):
        continuation_solve(op, F, u0, **kw)

    def fit(kw):
        SupremalMinimizer(nodes=21, **kw).fit(u0)

    def stage(kw):
        minimize_power_energy(op, F, u0, **{"p": 2.0, **kw})

    def penalized(kw):
        penalized_solve(op, F, u0, target=u0, **kw)

    calls = {"p": (stage, penalized), "tol": (stage,),
             "bracket_stop": (run, fit, stage)}.get(name, (run, fit))
    for value in values:
        for call in calls:
            with pytest.raises(ValueError, match=name):
                call({name: value})


def test_schedule_validation(monkeypatch):
    # p_max = inf would schedule 1,024 stages ending at p = inf
    _assert_rejected_before_solving(monkeypatch, "p_max", (np.nan, np.inf, 0.5))
    with pytest.raises(ValueError):
        geometric_schedule(np.nan)
    assert list(inspect.signature(continuation_solve).parameters)[3:6] == [
        "p_max", "newton_tol", "bracket_stop"]
    assert list(inspect.signature(geometric_schedule).parameters) == ["p_max"]


@pytest.mark.parametrize("name, values", [
    ("newton_tol", (np.nan, 0.0, -1.0)),
    ("bracket_stop", (np.nan, 0.0, -1.0, np.inf)),
    ("tol", (np.nan, 0.0, -1.0, np.inf)),
    ("p", (np.nan, np.inf, 0.5, -1.0)),
])
def test_tolerance_validation(monkeypatch, name, values):
    # newton_tol or a stage's tol = nan or -1 used to return a stage marked
    # stalled, bracket_stop = nan or -1 to run every stage (and a stage given
    # it to factor), and a stage or penalized p below 1 or non-finite to end
    # in NoConvergence
    _assert_rejected_before_solving(monkeypatch, name, values)


def test_power_mean_constant_integrand():
    # L_h u = 2 for u = x^2, so the cost is constantly 4 and every mean is 4
    grid, op, F, _ = make_1d_problem(nodes=41)
    u = (grid.coords()[:, 0] ** 2).reshape(-1, 1)
    for p in (1.0, 2.0, 7.0, 1024.0):
        assert _power_mean_of(op, F, u, p) == pytest.approx(4.0, rel=1e-12)


def test_power_mean_monotone_in_p():
    grid, op, F, u0 = make_1d_problem(nodes=41)
    assert _power_mean_of(op, F, u0, 2.0) <= _power_mean_of(op, F, u0, 4.0)


def test_power_mean_log_domain_reference():
    # large-p evaluation against an independent logsumexp computation
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 10.0, size=199)
    for p in (64.0, 1024.0):
        ours = values.max() * float(
            np.mean(_ratio_power(values, values.max(), p))
        ) ** (1.0 / p)
        assert ours == pytest.approx(log_domain_power_mean(values, p), rel=1e-12)

    grid, op, F, u0 = make_1d_problem(nodes=41)
    fv = F.eval_field(op.eq_coords(), apply_operator(op, u0))
    for p in (2.0, 64.0, 1024.0):
        assert _power_mean_of(op, F, u0, p) == pytest.approx(
            log_domain_power_mean(fv, p), rel=1e-12
        )


def test_gradient_matches_finite_differences():
    grid, op, F, u0 = make_1d_problem(nodes=31)
    rng = np.random.default_rng(1)
    u = u0.copy()
    u[grid.interior_mask()] += 0.1 * rng.standard_normal((grid.interior_mask().sum(), 1))
    p = 4.0
    fv = F.eval_field(op.eq_coords(), apply_operator(op, u))
    scale = float(fv.max())
    grad = _scaled_gradient(op, F, u, p, scale)

    def objective(x):
        w = op.with_interior_dofs(u, x)
        f = F.eval_field(op.eq_coords(), apply_operator(op, w))
        return float(np.mean((f / scale) ** p))

    x0 = op.interior_dofs(u)
    direction = rng.standard_normal(x0.size)
    direction /= np.linalg.norm(direction)
    step = 1e-6
    fd = (objective(x0 + step * direction) - objective(x0 - step * direction)) / (2 * step)
    assert grad @ direction == pytest.approx(fd, rel=1e-5)


def test_gradient_zero_at_zero_cost():
    grid, op, F, _ = make_1d_problem(nodes=31, profile="affine")
    u = (0.3 * grid.coords()[:, 0] + 0.1).reshape(-1, 1)
    grad = _scaled_gradient(op, F, u, 4.0, 1.0)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_exponent_one_matches_direct_least_squares():
    # p = 1 with a squared-norm cost is linear-quadratic: the dense normal
    # equations provide an independent minimizer
    grid, op, F, u0 = make_1d_problem(nodes=41)
    res = minimize_power_energy(op, F, u0, p=1.0, best_effort=True)
    free = op.free_matrix.toarray()
    part = op.clamp_matrix @ u0[op.clamp_idx].ravel()
    x_direct, *_ = np.linalg.lstsq(free, -part, rcond=None)
    u_direct = op.with_interior_dofs(u0, x_direct)
    assert np.max(np.abs(res.u - u_direct)) <= 1e-8
    grad = _scaled_gradient(op, F, u_direct, 1.0, 1.0)
    assert np.linalg.norm(grad) <= 1e-8


def test_objective_convexity_probe():
    grid, op, F, u0 = make_1d_problem(nodes=31)
    rng = np.random.default_rng(2)
    coords = op.eq_coords()
    p, scale = 8.0, 4.0

    def g_tilde(u):
        fv = F.eval_field(coords, apply_operator(op, u))
        return float(np.mean((fv / scale) ** p))

    mask = grid.interior_mask()
    for _ in range(10):
        u = u0.copy()
        v = u0.copy()
        u[mask] += rng.standard_normal((mask.sum(), 1))
        v[mask] += rng.standard_normal((mask.sum(), 1))
        mid = g_tilde(0.5 * (u + v))
        assert mid <= 0.5 * g_tilde(u) + 0.5 * g_tilde(v) + 1e-12


def test_minimize_affine_data_reaches_zero():
    grid, op, F, u0 = make_1d_problem(nodes=41, profile="affine")
    res = minimize_power_energy(op, F, u0, p=2.0)
    assert res.energy <= 1e-8
    assert np.max(np.abs(apply_operator(op, res.u))) <= 1e-4


def test_minimize_symmetric_case_strictly_between_bounds():
    grid, op, F, u0 = make_1d_problem(nodes=101)
    res = minimize_power_energy(op, F, u0, p=2.0)
    assert 0.0 < res.energy < 16.0  # strict power-mean inequality vs the sup


def test_dual_field_at_constant_cost():
    # constant cost makes the ratio one: the dual field is the cost gradient
    grid, op, F, _ = make_1d_problem(nodes=41)
    u = (grid.coords()[:, 0] ** 2).reshape(-1, 1)
    e = _power_mean_of(op, F, u, 32.0)
    f = dual_field(op, F, u, 32.0, e)
    gv = F.grad_field(op.eq_coords(), apply_operator(op, u))
    np.testing.assert_allclose(f, gv, rtol=1e-10)


def test_dual_field_log_domain_reference():
    grid, op, F, u0 = make_1d_problem(nodes=41)
    rep = continuation_solve(op, F, u0, p_max=512.0, verify=False, bracket_stop=1e-9)
    p_last = rep.rows[-1].p
    energy = rep.rows[-1].energy
    lu = apply_operator(op, rep.u)
    fv = F.eval_field(op.eq_coords(), lu)
    gv = F.grad_field(op.eq_coords(), lu)
    f = dual_field(op, F, rep.u, p_last, energy)
    with np.errstate(divide="ignore"):
        ref = np.exp((p_last - 1.0) * (np.log(fv) - np.log(energy)))[:, None] * gv
    np.testing.assert_allclose(f, ref, rtol=1e-10)


def test_dual_field_mean_bound():
    # chain of power-mean and growth bounds: mean |f| <= c^(3/2) sqrt(energy)
    grid, op, F, u0 = make_1d_problem(nodes=101)
    warm = None
    for p in (2.0, 8.0, 64.0):
        res = minimize_power_energy(op, F, u0, p=p, warm_start=warm)
        warm = res.u
        f = dual_field(op, F, res.u, p, res.energy)
        mean_f = float(np.mean(np.linalg.norm(f, axis=1)))
        assert mean_f <= F.c ** 1.5 * np.sqrt(res.energy) * (1.0 + 1e-9)


def test_dual_field_requires_positive_energy():
    grid, op, F, u0 = make_1d_problem(nodes=21)
    with pytest.raises(DegenerateEnergy):
        dual_field(op, F, u0, 4.0, 0.0)


def test_dual_field_sign_split_at_large_p(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rep = continuation_solve(op, F, u0, p_max=512.0, verify=False)
    f = rep.f[:, 0]
    x = op.eq_coords()[:, 0]
    lo, hi = x < 0.45, x > 0.55
    assert np.all(f[lo] < 0) and np.all(f[hi] > 0)


def test_one_operator_evaluation_per_stage(bang_bang_problem, monkeypatch):
    grid, op, F, u0 = bang_bang_problem
    calls, fields = [], []
    apply_real = supmin.continuation.apply_operator
    stage_real = supmin.continuation.minimize_power_energy

    def counted_apply(*args, **kwargs):
        calls.append(args)
        return apply_real(*args, **kwargs)

    def recorded_stage(*args, **kwargs):
        res = stage_real(*args, **kwargs)
        fields.append(res.u)
        return res

    monkeypatch.setattr(supmin.continuation, "apply_operator", counted_apply)
    monkeypatch.setattr(supmin.verify, "apply_operator", counted_apply)
    monkeypatch.setattr(supmin.continuation, "minimize_power_energy", recorded_stage)
    rep = continuation_solve(op, F, u0, p_max=4096.0)
    monkeypatch.undo()
    # the stages and the cold start pass their own evaluations on; only the
    # verifier evaluates the final field again
    assert len(calls) == 1
    np.testing.assert_array_equal(apply_operator(op, rep.u), rep.lu)
    last = rep.rows[-1]
    assert np.array_equal(rep.f, dual_field(op, F, rep.u, last.p, last.energy))
    # fields[0] is the cold start; each stage's energy is its field's power mean
    assert len(fields) == len(rep.rows) + 1
    for row, u in zip(rep.rows, fields[1:]):
        assert row.energy == _power_mean_of(op, F, u, row.p)


def test_continuation_affine_data_degenerates():
    grid, op, F, u0 = make_1d_problem(nodes=101, profile="affine")
    rep = continuation_solve(op, F, u0)
    assert rep.degenerate
    assert rep.e_inf <= 1e-6
    assert np.max(np.abs(apply_operator(op, rep.u))) <= 1e-6
    np.testing.assert_allclose(rep.f, 0.0)


def _assert_brackets_lp_optimum(op, u0, rep):
    disc_opt = lp_min_max_abs(op, u0) ** 2
    lo, hi = rep.bracket
    assert lo <= disc_opt * (1 + 1e-8)
    assert hi >= disc_opt * (1 - 1e-8)
    # the printed value is the bracket's midpoint, so within half its width
    # of the optimum (0.9 hi + 0.1 lo would miss by 0.053 at 201 nodes)
    assert abs(rep.e_inf - disc_opt) <= 0.5 * (hi - lo)
    rep.check_invariants()


def test_continuation_symmetric_case_brackets_lp_optimum(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rep = continuation_solve(op, F, u0, p_max=4096.0)
    _assert_brackets_lp_optimum(op, u0, rep)
    assert rep.e_inf == pytest.approx(16.0, rel=0.02)


def test_continuation_coarse_symmetric_case_brackets_lp_optimum():
    grid, op, F, u0 = make_1d_problem(nodes=41)
    _assert_brackets_lp_optimum(op, u0, continuation_solve(op, F, u0))


def test_continuation_quadratic_data_coarse_lp_check():
    grid, op, F, u0 = make_1d_problem(nodes=31, profile="quadratic")
    rep = continuation_solve(op, F, u0, p_max=4096.0)
    tau = lp_min_max_abs(op, u0)
    assert rep.e_inf == pytest.approx(4.0, rel=0.02)
    assert rep.e_inf == pytest.approx(tau**2, rel=0.02)
    lu = apply_operator(op, rep.u)[:, 0]
    assert np.all(lu > 0)  # no sign switch for one-signed data


def test_report_rows_monotone_and_sandwiched(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rep = continuation_solve(op, F, u0, p_max=1024.0, verify=False)
    energies = [r.energy for r in rep.rows]
    peaks = [r.peak for r in rep.rows]
    assert all(b >= a - 1e-8 for a, b in zip(energies, energies[1:]))
    # every power mean sits below every peak (cross pairs included)
    assert max(energies) <= min(peaks) + 1e-8
    rep.check_invariants()


def test_warm_start_quality_measured_and_logged(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    warm = None
    print()
    for p in (2.0, 4.0, 8.0, 16.0):
        warm_res = minimize_power_energy(op, F, u0, p=p, warm_start=warm)
        cold_res = minimize_power_energy(op, F, u0, p=p, warm_start=None, max_newton=400)
        warm = warm_res.u
        print(
            f"p={p:5.0f}: warm grad {warm_res.grad_rel:.3e} ({warm_res.iterations} iters), "
            f"cold grad {cold_res.grad_rel:.3e} ({cold_res.iterations} iters)"
        )
        assert warm_res.grad_rel <= 1e-6
        assert cold_res.grad_rel <= 1e-6
        assert warm_res.iterations <= cold_res.iterations + 2


def test_penalized_solve_fixed_point_at_affine_target():
    grid, op, F, u0 = make_1d_problem(nodes=41, profile="affine")
    target = (0.3 * grid.coords()[:, 0] + 0.1).reshape(-1, 1)
    v = penalized_solve(op, F, u0, 64.0, target)
    assert np.max(np.abs(v - target)) <= 1e-8


def test_penalized_solve_minimality_and_trend(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rep = continuation_solve(op, F, u0, p_max=1024.0, verify=False)
    target = rep.u

    def objective(v, p):
        pen = 0.5 * float(np.mean(np.sum((v - target)[op.interior_idx] ** 2, axis=1)))
        return _power_mean_of(op, F, v, p) + pen

    distances = []
    for p in (16.0, 64.0, 256.0):
        v = penalized_solve(op, F, u0, p, target)
        assert objective(v, p) <= objective(target, p) + 1e-10
        distances.append(float(np.mean(np.sum((v - target)[op.interior_idx] ** 2, axis=1))))
    assert distances[0] >= distances[1] >= distances[2]


def test_rescaling_doubles_stage_energies(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rep1 = continuation_solve(op, F, u0, p_max=64.0, verify=False)
    rep2 = continuation_solve(op, F.scaled(2.0), u0, p_max=64.0, verify=False)
    assert np.max(np.abs(rep1.u - rep2.u)) <= 1e-6
    for r1, r2 in zip(rep1.rows, rep2.rows):
        assert r2.energy == pytest.approx(2.0 * r1.energy, rel=1e-8)


def test_custom_supremand_through_continuation():
    from supmin import CustomSupremand

    grid, op, F, u0 = make_1d_problem(nodes=51)
    quad = CustomSupremand(
        eval_fn=lambda x, xi: float(xi @ xi),
        grad_fn=lambda x, xi: 2.0 * xi,
        hess_fn=lambda x, xi: 2.0 * np.eye(xi.size),
        c=2.0,
        n_components=1,
    )
    rep_custom = continuation_solve(op, quad, u0, p_max=64.0, verify=False)
    rep_ref = continuation_solve(op, F, u0, p_max=64.0, verify=False)
    assert rep_custom.e_inf == pytest.approx(rep_ref.e_inf, rel=1e-10)
    assert np.max(np.abs(rep_custom.u - rep_ref.u)) <= 1e-9


def test_stage_rows_report_stalled():
    grid, op, F, u0 = make_1d_problem(nodes=41)
    strict = continuation_solve(op, F, u0, p_max=64.0, newton_tol=1e-16, verify=False)
    assert any(row.stalled for row in strict.rows)
    default = continuation_solve(op, F, u0, p_max=64.0, verify=False)
    assert default.rows[0].stalled is False


class _FlatProblem:
    """A Newton-loop problem at a flat objective whose residual stays at level."""

    p, scale, zero_floor = 2.0, 1.0, 0.0

    def __init__(self, level):
        self.level = level

    def evaluate(self, x):
        return x, np.ones(1)

    def objective(self, x, fv):
        return 1.0

    def grad_state(self, x, lu, fv):
        return types.SimpleNamespace(lu=lu, fv=fv, grad=np.full(x.size, 1e-12))

    def newton_band(self, state):
        return np.ones((1, state.grad.size), order="F")

    def residual(self, state):
        return self.level

    def settled(self, gain, obj, fv):
        return False


def test_residual_floor_accepted_as_stalled_only_up_to_stall_accept():
    # a residual stuck at 1e-5 is a failure, at 1e-7 a stall the stage reports
    with pytest.raises(NoConvergence, match="stagnated"):
        _newton_loop(_FlatProblem(1e-5), np.zeros(3), 1e-9, 50, False, "flat")
    x, iters, res, stalled, *_ = _newton_loop(_FlatProblem(1e-7), np.zeros(3), 1e-9, 50, False, "flat")
    assert stalled and res == 1e-7 and iters < 10


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_residual_floor_costs_no_halvings(monkeypatch):
    # newton_tol = 1e-16 is below every stage's residual floor: intermediate
    # stages end at energy accuracy instead of running to max_newton, and
    # steps at the objective's roundoff are judged by the residual, so only
    # the last stage reaches its floor
    grid, op, F, u0 = make_1d_problem(nodes=41)
    factors = _count_calls(monkeypatch, supmin.continuation, "_factor_spd")
    evaluations = _count_calls(monkeypatch, _StageProblem, "evaluate")
    rep = continuation_solve(op, F, u0, p_max=64.0, newton_tol=1e-16, verify=False)
    assert len(factors) <= 60
    assert len(evaluations) <= 100
    assert not any(row.stalled for row in rep.rows[:-1])


def test_intermediate_stages_end_at_energy_accuracy(bang_bang_problem):
    # against a chain of stages each driven to tol = 1e-9: fewer Newton steps,
    # intermediate energies within 1e-8, and the stage that ends the run as accurate
    grid, op, F, u0 = bang_bang_problem
    rep = continuation_solve(op, F, u0, p_max=16.0, verify=False)
    assert [row.p for row in rep.rows] == [2.0, 4.0, 8.0, 16.0]
    warm, chain_iters = cold_start(op, F, u0).u, 0
    for row in rep.rows:
        ref = minimize_power_energy(op, F, u0, row.p, warm_start=warm, tol=1e-9)
        warm, chain_iters = ref.u, chain_iters + ref.iterations
        assert row.energy == pytest.approx(ref.energy, rel=1e-8)
    assert sum(row.newton_iters for row in rep.rows) < chain_iters
    last = rep.rows[-1]
    assert last.energy == pytest.approx(ref.energy, rel=1e-9)
    assert last.peak == pytest.approx(float(np.max(ref.fv)), rel=1e-9)


# the sweep_cli benchmark configs at unit data scale
SWEEP_CONFIGS = {
    "detcoupled31": "domain.dim = 2\ndomain.nodes = 31\nfield.components = 2\n"
                    "tensor.kind = det_coupled\ntensor.gamma = 1\nbc.kind = sinusoidal\n",
    "weighted41": "domain.dim = 2\ndomain.nodes = 41\nfield.components = 1\n"
                  "supremand.alpha = affine:1,0.5,0.25\nbc.kind = sinusoidal\n",
    "blockq3_25": "domain.dim = 2\ndomain.nodes = 25\nfield.components = 2\n"
                  "tensor.kind = block_diagonal\ntensor.blocks = 1,0,0,1;2,0.5,0.5,1\n"
                  "supremand.q = 3\nbc.kind = sinusoidal\n",
    "zero161": "domain.dim = 2\ndomain.nodes = 161\nfield.components = 1\nbc.kind = affine\n",
}


def _symmetric_velocity_fit():
    grid, op, F, u0 = make_1d_problem(nodes=201)
    est = SupremalMinimizer(nodes=201, p_max=4096.0).fit(u0)
    return est.newton_tol, est.report_


def _config_fit(name):
    def fit():
        cfg = parse_config(SWEEP_CONFIGS[name])
        return cfg.newton_tol, _solve_from_config(cfg).report_
    return fit


@pytest.mark.parametrize("fit", [_symmetric_velocity_fit] + [_config_fit(n) for n in SWEEP_CONFIGS],
                         ids=["symmetric_velocity"] + list(SWEEP_CONFIGS))
def test_final_stage_reaches_newton_tol(fit):
    newton_tol, rep = fit()
    assert rep.rows or rep.degenerate
    assert all(row.grad_norm <= newton_tol or row.stalled for row in rep.rows[-1:])


def _stage_hessian_problem(shape, n_comp, seed, tensor=None):
    """A stage problem on a small grid plus random SPD nodal blocks for it."""
    grid = Grid(shape)
    if tensor is None:
        tensor = identity_tensor(len(shape), n_comp)
    op = assemble_operator(grid, tensor)
    problem = _StageProblem(op, WeightedPowerNorm(n_comp, q=2.0),
                            np.zeros((grid.n_nodes, n_comp)), 2.0)
    m = np.random.default_rng(seed).standard_normal((op.n_eq, n_comp, n_comp))
    blocks = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(n_comp)
    return problem, blocks


@pytest.mark.parametrize("shape, tensor", [
    ((199,), identity_tensor(1, 1)),
    ((13, 11), det_coupled_tensor(0.5)),   # 2D, N = 2, with cross terms
])
def test_csr_matvec_equals_matmul_bitwise(shape, tensor):
    op = assemble_operator(Grid(shape), tensor)
    rng = np.random.default_rng(4)
    for mat in (op.free_matrix, op.free_matrix_t):
        x = rng.standard_normal(mat.shape[1])
        assert np.array_equal(_csr_matvec(mat, x), mat @ x)


def _weighted41_problem():
    cfg = parse_config(SWEEP_CONFIGS["weighted41"])
    grid = build_grid(cfg)
    return grid, assemble_operator(grid, build_tensor(cfg)), build_supremand(cfg)


def _unit_problem(shape, tensor):
    grid = Grid(shape)
    return grid, assemble_operator(grid, tensor), WeightedPowerNorm(tensor.n_components, q=2.0)


@pytest.mark.parametrize("build", [
    lambda: _unit_problem((31,), identity_tensor(1, 1)),
    lambda: _unit_problem((13, 11), det_coupled_tensor(0.5)),   # 2D, N = 2, with cross terms
    _weighted41_problem,
], ids=["1d", "det_coupled_2d", "weighted41"])
def test_apply_operator_equals_stage_evaluation_bitwise(build):
    grid, op, F = build()
    rng = np.random.default_rng(9)
    clamp = rng.standard_normal((grid.n_nodes, op.n_components))
    x = rng.standard_normal(op.n_interior * op.n_components)
    lu, fv = _StageProblem(op, F, clamp, 4.0).evaluate(x)
    assert np.array_equal(apply_operator(op, op.with_interior_dofs(clamp, x)), lu)


def test_stalled_stage_returns_the_evaluation_of_its_field(monkeypatch):
    # every trial step is rejected, so the stage stalls at its warm start: the
    # reported L_h u and costs are that field's, not the last rejected trial's
    grid, op, F, u0 = make_1d_problem(nodes=41)
    warm = minimize_power_energy(op, F, u0, 4.0).u
    monkeypatch.setattr(supmin.continuation, "ARMIJO_C1", 1e30)
    monkeypatch.setattr(supmin.continuation, "MAX_BACKTRACKS", 3)
    res = minimize_power_energy(op, F, u0, 4.0, warm_start=warm, tol=1e-16)
    assert res.stalled
    np.testing.assert_array_equal(res.u, warm)
    np.testing.assert_array_equal(res.lu, apply_operator(op, warm))
    np.testing.assert_array_equal(res.fv, F.eval_field(op.eq_coords(), res.lu))
    assert res.energy == _power_mean_of(op, F, warm, 4.0)


def _dense_hessian(op, blocks):
    """L^T D L from the dense free-column matrix and a block-diagonal D."""
    mat = op.free_matrix.toarray()
    return mat.T @ block_diag(*blocks) @ mat


def _upper_band(dense, bw):
    """LAPACK upper band storage, band[bw + i - j, j] = dense[i, j]."""
    n = dense.shape[0]
    band = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        band[bw - k, k:] = np.diagonal(dense, k)
    return band


@pytest.mark.parametrize("shape,n_comp,tensor,zero_nodes", [
    ((21,), 1, None, False),
    ((11, 11), 2, None, False),
    ((11, 11), 2, det_coupled_tensor(1.0), False),
    ((11, 12), 2, block_diagonal_tensor([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]]), False),
    ((21,), 1, None, True),
    ((11, 11), 2, det_coupled_tensor(1.0), True),
])
def test_hessian_band_matches_dense(shape, n_comp, tensor, zero_nodes):
    problem, blocks = _stage_hessian_problem(shape, n_comp, seed=2, tensor=tensor)
    if zero_nodes:
        blocks[::3] = 0.0
    dense = _dense_hessian(problem.op, blocks)
    band = problem.hessian_band(blocks)
    bw = problem.op.hessian_pattern.bandwidth
    assert band.shape == (bw + 1, dense.shape[0])
    # column-major, the layout dpbtrf reads without a transposing copy
    assert band.flags.f_contiguous
    # every nonzero of the Hessian lies inside the band
    assert not np.any(np.triu(dense, bw + 1))
    np.testing.assert_allclose(band, _upper_band(dense, bw),
                               rtol=0.0, atol=1e-12 * np.max(np.abs(dense)))


@pytest.mark.parametrize("shape,n_comp", [((21,), 1), ((11, 11), 2)])
def test_factor_spd_matches_dense_solve(shape, n_comp):
    problem, blocks = _stage_hessian_problem(shape, n_comp, seed=3)
    dense = _dense_hessian(problem.op, blocks)
    shift = 1e-14 * np.max(np.abs(np.diag(dense)))
    rhs = np.random.default_rng(4).standard_normal(dense.shape[0])
    ref = np.linalg.solve(dense + shift * np.eye(dense.shape[0]), rhs)
    step = _solve_spd(_factor_spd(problem.hessian_band(blocks)), rhs)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape,n_comp", [((21,), 1), ((11, 11), 2)])
def test_factor_spd_matches_scipy_banded_cholesky(shape, n_comp):
    # _factor_spd calls LAPACK dpbtrf/dpbtrs itself; the scipy wrappers run the
    # same routines, so factor and step agree bit for bit
    problem, blocks = _stage_hessian_problem(shape, n_comp, seed=7)
    band = problem.hessian_band(blocks)
    shifted = band.copy()
    shifted[-1] += 1e-14 * np.max(np.abs(band[-1]))
    rhs = np.random.default_rng(8).standard_normal(band.shape[1])
    ref = cho_solve_banded((cholesky_banded(shifted), False), rhs)
    step = _solve_spd(_factor_spd(band), rhs)
    assert np.array_equal(step, ref)


@pytest.fixture
def factor_attempts(monkeypatch):
    """Record every banded Cholesky attempt made by _factor_spd."""
    attempts = []
    factor = supmin.continuation.dpbtrf

    def counting(*args, **kwargs):
        attempts.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(supmin.continuation, "dpbtrf", counting)
    return attempts


def test_factor_spd_lifts_singular_hessian(factor_attempts):
    problem, blocks = _stage_hessian_problem((11, 11), 2, seed=5)
    blocks[::2] = 0.0
    psd = problem.hessian_band(blocks)
    dense = _dense_hessian(problem.op, blocks)
    assert np.linalg.matrix_rank(dense) < dense.shape[0]
    # the same Hessian pushed below PSD by a roundoff-sized negative part
    blocks[::2] = -1e-10 * np.eye(2)
    indefinite = problem.hessian_band(blocks)
    rhs = np.random.default_rng(6).standard_normal(dense.shape[0])
    for band, min_attempts in ((psd, 1), (indefinite, 2)):
        factor_attempts.clear()
        step = _solve_spd(_factor_spd(band), rhs)
        assert np.all(np.isfinite(step))
        assert step @ rhs > 0.0
        assert len(factor_attempts) >= min_attempts


def test_factor_spd_rejects_nonfinite_and_indefinite(factor_attempts):
    hess = np.eye(6)
    hess[2, 3] = hess[3, 2] = np.nan
    with pytest.raises(NoConvergence):
        _factor_spd(_upper_band(hess, 1))
    assert not factor_attempts
    with pytest.raises(NoConvergence, match="every regularization level"):
        _factor_spd(_upper_band(-2.0 * np.eye(6), 0))
    assert len(factor_attempts) == 8


def test_factor_spd_raises_on_illegal_argument(monkeypatch):
    monkeypatch.setattr(supmin.continuation, "dpbtrf", lambda band: (band, -1))
    with pytest.raises(ValueError, match="argument 1"):
        _factor_spd(np.ones((1, 4)))


def test_solve_spd_raises_on_illegal_argument(monkeypatch):
    monkeypatch.setattr(supmin.continuation, "dpbtrs", lambda factor, rhs: (rhs, -2))
    with pytest.raises(ValueError, match="dpbtrs: illegal value in argument 2"):
        _solve_spd(np.ones((1, 4)), np.ones(4))


# operator invariants cached on DiscreteOperator at first use
OPERATOR_CACHES = ("hessian_pattern", "free_matrix_t", "_eq_coords", "_operator_scale")


def test_stages_share_operator_caches(monkeypatch):
    grid, op, F, u0 = make_1d_problem(nodes=41)
    assert not set(OPERATOR_CACHES) & set(vars(op))  # built lazily, not by assembly
    seen = []
    hessian_band = _StageProblem.hessian_band

    def recording(self, blocks):
        band = hessian_band(self, blocks)
        seen.append((self.op.hessian_pattern, self.op.free_matrix_t, self.coords,
                     self.op_scale))
        return band

    monkeypatch.setattr(_StageProblem, "hessian_band", recording)
    rep = continuation_solve(op, F, u0, p_max=64.0, verify=False)
    assert len(rep.rows) > 1
    assert len(seen) > len(rep.rows)
    cached = (op.hessian_pattern, op.free_matrix_t, op.eq_coords(), op.operator_scale())
    assert all(a is b for objs in seen for a, b in zip(objs, cached))


def test_operator_caches_die_with_operator():
    grid, op, F, u0 = make_1d_problem(nodes=41)
    continuation_solve(op, F, u0, p_max=16.0, verify=False)
    assert set(OPERATOR_CACHES) <= set(vars(op))
    refs = [weakref.ref(obj) for obj in (op, op.hessian_pattern, op.free_matrix_t,
                                         op.eq_coords())]
    del op
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_penalized_solve_raises_line_search_stall(monkeypatch):
    grid, op, F, u0 = make_1d_problem(nodes=41)
    monkeypatch.setattr(supmin.continuation, "MAX_BACKTRACKS", 0)
    with pytest.raises(LineSearchStall, match=r"penalized p=16: .*\(residual 1\.000e\+00\)"):
        penalized_solve(op, F, u0, 16.0, u0)


def test_penalized_solve_stops_at_residual_floor(bang_bang_problem, monkeypatch):
    # the tethered residual bottoms out near 1e-8, above the default tol=1e-10;
    # the shared Newton loop stops there instead of spending all max_newton
    grid, op, F, u0 = bang_bang_problem
    target = continuation_solve(op, F, u0, p_max=1024.0, verify=False).u
    calls = []
    factor = supmin.continuation._factor_spd

    def counting(band):
        calls.append(1)
        return factor(band)

    monkeypatch.setattr(supmin.continuation, "_factor_spd", counting)
    for p in (16.0, 64.0, 256.0):
        calls.clear()
        penalized_solve(op, F, u0, p, target)
        assert 0 < len(calls) <= 30


def _affine_1d_random_interior():
    grid, op, F, u0 = make_1d_problem(nodes=101, profile="affine")
    clamp = u0.copy()
    clamp[op.interior_idx] = np.random.default_rng(5).standard_normal((op.n_interior, 1))
    return op, F, clamp, continuation_solve(op, F, clamp)


def _affine_161_config():
    cfg = parse_config("domain.dim = 2\ndomain.nodes = 161\nbc.kind = affine\n")
    est = _solve_from_config(cfg)
    clamp = boundary_profile(cfg, est.grid_.coords())
    return est.operator_, est.supremand, clamp, est.report_


@pytest.mark.parametrize("solve", [_affine_1d_random_interior, _affine_161_config],
                         ids=["1d_random_interior", "config_161"])
def test_zero_branch_returns_the_solved_field(solve, monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("the zero-energy branch must not run CG")

    monkeypatch.setattr(supmin.operators, "pcg", no_cg)
    op, F, clamp, rep = solve()
    assert rep.degenerate
    assert rep.e_inf == 0.0 and rep.bracket[0] == 0.0
    np.testing.assert_array_equal(rep.f, 0.0)
    lu = apply_operator(op, rep.u)
    fv = F.eval_field(op.eq_coords(), lu)
    np.testing.assert_array_equal(rep.lu, lu)
    np.testing.assert_array_equal(rep.fv, fv)
    assert rep.bracket[1] == np.max(fv)
    # the floor reads the clamped band only, so the solved field gives the same one
    assert rep.bracket[1] <= _zero_floor(op, F, clamp) == _zero_floor(op, F, rep.u)
    np.testing.assert_array_equal(rep.u[op.clamp_idx], clamp[op.clamp_idx])


def test_degenerate_stage_row_reports_zero_cv():
    # a random start is not degenerate; its first stage reaches L_h u = 0, whose
    # costs are roundoff, so the row and the verifier report no spread
    grid, op, F, u0 = make_1d_problem(nodes=101, profile="affine")
    start = u0.copy()
    start[op.interior_idx] = np.random.default_rng(5).standard_normal((op.n_interior, 1))
    rep = continuation_solve(op, F, u0, initial=start)
    assert rep.degenerate and len(rep.rows) == 1
    assert rep.rows[0].cv == 0.0
    assert rep.verify.cv_F == 0.0


def test_initial_field_keeps_the_clamp():
    # only the initial field's interior values seed the run: a zero start on
    # cubic data reaches the limit of the cold start, not a degenerate field
    grid, op, F, u0 = make_1d_problem(nodes=41)
    zeros = np.zeros_like(u0)
    assert supmin.verify.uniqueness_check(op, F, u0, start_a=zeros) <= 1e-12
    rep = continuation_solve(op, F, u0, initial=zeros, verify=False)
    assert not rep.degenerate
    np.testing.assert_array_equal(rep.u[op.clamp_idx], u0[op.clamp_idx])
    with pytest.raises(DimensionMismatch, match="initial field"):
        continuation_solve(op, F, u0, initial=zeros[1:])
    bad = u0.copy()
    bad[op.interior_idx[0]] = np.nan
    with pytest.raises(ValueError, match="initial field"):
        continuation_solve(op, F, u0, initial=bad)


def test_component_mismatch_is_a_dimension_mismatch():
    grid = Grid((15, 15))
    op2 = assemble_operator(grid, identity_tensor(2, 2))
    clamp2 = np.ones((grid.n_nodes, 2))
    with pytest.raises(DimensionMismatch, match="cost has 1 components"):
        continuation_solve(op2, WeightedPowerNorm(1), clamp2)
    with pytest.raises(DimensionMismatch, match="clamp has shape"):
        continuation_solve(op2, WeightedPowerNorm(2), clamp2[:, :1])


def test_theta_is_a_constant():
    for fn in (continuation_solve, supmin.verify.verify_system):
        assert "theta" not in inspect.signature(fn).parameters
    assert supmin.verify.THETA == 0.1
