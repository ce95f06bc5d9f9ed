import numpy as np
import pytest
import scipy.sparse as sp

from conftest import log_domain_power_mean, lp_min_max_abs, make_1d_problem

import supmin.continuation
from supmin import (
    DegenerateEnergy,
    Grid,
    NoConvergence,
    WeightedPowerNorm,
    apply_operator,
    assemble_operator,
    continuation_solve,
    dual_field,
    geometric_schedule,
    identity_tensor,
    minimize_power_energy,
    penalized_solve,
    power_mean_energy,
    scaled_energy_gradient,
)
from supmin.continuation import _factor_spd, _ratio_power, _StageProblem


def test_geometric_schedule():
    assert geometric_schedule(4096.0) == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                                          256.0, 512.0, 1024.0, 2048.0, 4096.0)
    assert geometric_schedule(100.0) == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0)
    assert geometric_schedule(1.5) == (1.5,)


def test_schedule_validation():
    grid, op, F, u0 = make_1d_problem(nodes=21)
    with pytest.raises(ValueError):
        continuation_solve(op, F, u0, schedule=())
    with pytest.raises(ValueError):
        continuation_solve(op, F, u0, schedule=(2.0, 2.0))
    with pytest.raises(ValueError):
        continuation_solve(op, F, u0, schedule=(0.5, 2.0))


def test_power_mean_constant_integrand():
    # L_h u = 2 for u = x^2, so the cost is constantly 4 and every mean is 4
    grid, op, F, _ = make_1d_problem(nodes=41)
    u = (grid.coords()[:, 0] ** 2).reshape(-1, 1)
    for p in (1.0, 2.0, 7.0, 1024.0):
        assert power_mean_energy(op, F, u, p) == pytest.approx(4.0, rel=1e-12)


def test_power_mean_monotone_in_p():
    grid, op, F, u0 = make_1d_problem(nodes=41)
    assert power_mean_energy(op, F, u0, 2.0) <= power_mean_energy(op, F, u0, 4.0)


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
        assert power_mean_energy(op, F, u0, p) == pytest.approx(
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
    grad = scaled_energy_gradient(op, F, u, p, scale)

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
    grad = scaled_energy_gradient(op, F, u, 4.0, 1.0)
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
    grad = scaled_energy_gradient(op, F, u_direct, 1.0, 1.0)
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
    e = power_mean_energy(op, F, u, 32.0)
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


def test_continuation_affine_data_degenerates():
    grid, op, F, u0 = make_1d_problem(nodes=101, profile="affine")
    rep = continuation_solve(op, F, u0)
    assert rep.degenerate
    assert rep.e_inf <= 1e-6
    assert np.max(np.abs(apply_operator(op, rep.u))) <= 1e-6
    np.testing.assert_allclose(rep.f, 0.0)


def test_continuation_symmetric_case_brackets_lp_optimum(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rep = continuation_solve(op, F, u0, p_max=4096.0)
    tau = lp_min_max_abs(op, u0)
    disc_opt = tau**2
    assert rep.bracket[0] <= disc_opt * (1 + 1e-8)
    assert rep.bracket[1] >= disc_opt * (1 - 1e-8)
    assert rep.e_inf == pytest.approx(16.0, rel=0.02)
    rep.check_invariants()


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
        return power_mean_energy(op, F, v, p) + pen

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


def _stage_hessian_problem(shape, n_comp, seed):
    """A stage problem on a small grid plus random SPD nodal blocks for it."""
    grid = Grid(shape)
    op = assemble_operator(grid, identity_tensor(len(shape), n_comp))
    problem = _StageProblem(op, WeightedPowerNorm(n_comp, q=2.0),
                            np.zeros((grid.n_nodes, n_comp)), 2.0)
    m = np.random.default_rng(seed).standard_normal((op.n_eq, n_comp, n_comp))
    blocks = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(n_comp)
    return problem, blocks


@pytest.mark.parametrize("shape,n_comp", [((21,), 1), ((11, 11), 2)])
def test_factor_spd_matches_dense_solve(shape, n_comp):
    problem, blocks = _stage_hessian_problem(shape, n_comp, seed=3)
    hess = problem.hessian_matrix(blocks)
    dense = hess.toarray()
    shift = 1e-14 * np.max(np.abs(np.diag(dense)))
    rhs = np.random.default_rng(4).standard_normal(dense.shape[0])
    ref = np.linalg.solve(dense + shift * np.eye(dense.shape[0]), rhs)
    step = _factor_spd(hess).solve(rhs)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.fixture
def factor_attempts(monkeypatch):
    """Record every banded Cholesky attempt made by _factor_spd."""
    attempts = []
    factor = supmin.continuation.cholesky_banded

    def counting(*args, **kwargs):
        attempts.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(supmin.continuation, "cholesky_banded", counting)
    return attempts


def test_factor_spd_lifts_singular_hessian(factor_attempts):
    problem, blocks = _stage_hessian_problem((11, 11), 2, seed=5)
    blocks[::2] = 0.0
    psd = problem.hessian_matrix(blocks)
    assert np.linalg.matrix_rank(psd.toarray()) < psd.shape[0]
    # the same Hessian pushed below PSD by a roundoff-sized negative part
    blocks[::2] = -1e-10 * np.eye(2)
    indefinite = problem.hessian_matrix(blocks)
    rhs = np.random.default_rng(6).standard_normal(psd.shape[0])
    for hess, min_attempts in ((psd, 1), (indefinite, 2)):
        factor_attempts.clear()
        step = _factor_spd(hess).solve(rhs)
        assert np.all(np.isfinite(step))
        assert step @ rhs > 0.0
        assert len(factor_attempts) >= min_attempts


def test_factor_spd_rejects_nonfinite_and_indefinite(factor_attempts):
    hess = sp.identity(6, format="lil")
    hess[2, 3] = hess[3, 2] = np.nan
    with pytest.raises(NoConvergence):
        _factor_spd(hess.tocsr())
    assert not factor_attempts
    with pytest.raises(NoConvergence, match="every regularization level"):
        _factor_spd(-2.0 * sp.identity(6, format="csr"))
    assert len(factor_attempts) == 8


def test_penalized_solve_logs_line_search_failure(monkeypatch, caplog):
    grid, op, F, u0 = make_1d_problem(nodes=41)
    monkeypatch.setattr(supmin.continuation, "MAX_BACKTRACKS", 0)
    with caplog.at_level("WARNING", logger="supmin.continuation"):
        v = penalized_solve(op, F, u0, 16.0, u0)
    np.testing.assert_array_equal(v, u0)
    assert "gradient norm" in caplog.text
