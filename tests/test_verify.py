import numpy as np
import pytest

from conftest import make_1d_problem

from supmin import (
    ClampedBC1D,
    CustomSupremand,
    DegenerateField,
    absolute_min_check,
    apply_operator,
    coefficient_of_variation,
    continuation_solve,
    minimize_power_energy,
    rescaling_invariance_check,
    sample_solution,
    solve_bang_bang,
    uniqueness_check,
    verify_system,
)


def sampled_bang_bang_pair(op):
    """The analytic minimizer and dual field of the symmetric case, sampled."""
    bc = ClampedBC1D(0.0, 1.0, 0.0, 1.0)
    bb = solve_bang_bang(bc)
    t_nodes = op.grid.coords()[:, 0]
    u = sample_solution(bb, bc, t_nodes)[0].reshape(-1, 1)
    t_eq = op.eq_coords()[:, 0]
    f = (t_eq - 0.5).reshape(-1, 1)  # vanishes exactly at the switch
    return u, f, bb


def test_system_residuals_on_analytic_fields(bang_bang_problem):
    grid, op, F, _ = bang_bang_problem
    u, f, bb = sampled_bang_bang_pair(op)
    e_hat = bb.a**2
    report = verify_system(op, F, u, f, e_hat)
    assert report.r_system <= 0.05 * e_hat
    assert report.cv_F <= 0.05
    assert 0.0 < report.active_fraction <= 1.0
    # sign structure: the mapped cost direction matches the dual direction
    lu = apply_operator(op, u)[:, 0]
    mag = np.abs(f[:, 0])
    active = mag > 0.1 * mag.max()
    assert np.all(np.sign(lu[active] ** 2 * np.sign(lu[active])) == np.sign(f[active, 0]))


def test_perturbation_raises_residuals(bang_bang_problem):
    grid, op, F, _ = bang_bang_problem
    u, f, bb = sampled_bang_bang_pair(op)
    e_hat = bb.a**2
    clean = verify_system(op, F, u, f, e_hat)
    bumped = u + 0.1 * np.sin(np.pi * grid.coords()[:, 0]).reshape(-1, 1) ** 2
    dirty = verify_system(op, F, bumped, f, e_hat)
    assert dirty.r_system >= 10.0 * clean.r_system
    assert dirty.cv_F >= 10.0 * clean.cv_F


def test_zero_energy_branch_is_vacuous():
    grid, op, F, u0 = make_1d_problem(nodes=41, profile="affine")
    rep = continuation_solve(op, F, u0)
    assert rep.verify.r_system == 0.0
    assert rep.verify.zero_set_fraction == 1.0
    # the costs are roundoff around zero: no spread is reported
    assert rep.verify.cv_F == 0.0


def test_degenerate_field_error():
    grid, op, F, u0 = make_1d_problem(nodes=21)
    f = np.zeros((op.n_eq, 1))
    with pytest.raises(DegenerateField):
        verify_system(op, F, u0, f, e_hat=1.0)


def test_verify_parameter_validation(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    f = np.ones((op.n_eq, 1))
    with pytest.raises(ValueError):
        verify_system(op, F, u0, f, e_hat=-1.0)


def test_solver_output_satisfies_discrete_stationarity(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rep = continuation_solve(op, F, u0, p_max=256.0)
    assert rep.verify.r_harmonic <= 1e-8


def test_uniqueness_affine_data():
    grid, op, F, u0 = make_1d_problem(nodes=41, profile="affine")
    rng = np.random.default_rng(0)
    start_b = u0.copy()
    mask = grid.interior_mask()
    start_b[mask] += rng.standard_normal((mask.sum(), 1))
    assert uniqueness_check(op, F, u0, start_b=start_b) <= 1e-8


def test_uniqueness_bang_bang(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    rng = np.random.default_rng(1)
    start_b = u0.copy()
    mask = grid.interior_mask()
    start_b[mask] += 0.5 * rng.standard_normal((mask.sum(), 1))
    d = uniqueness_check(op, F, u0, start_b=start_b, p_max=1024.0)
    assert d <= 1e-4 * (1.0 + np.max(np.abs(u0)))


def test_midpoint_energy_probe(bang_bang_problem):
    # convexity: the midpoint field's nodal cost never exceeds the worse one
    grid, op, F, u0 = bang_bang_problem
    res_a = minimize_power_energy(op, F, u0, p=8.0)
    rng = np.random.default_rng(2)
    start = u0.copy()
    mask = grid.interior_mask()
    start[mask] += 1e-3 * rng.standard_normal((mask.sum(), 1))
    res_b = minimize_power_energy(op, F, u0, p=8.0, warm_start=start)
    coords = op.eq_coords()
    fa = F.eval_field(coords, apply_operator(op, res_a.u))
    fb = F.eval_field(coords, apply_operator(op, res_b.u))
    fm = F.eval_field(coords, apply_operator(op, 0.5 * (res_a.u + res_b.u)))
    assert np.all(fm <= np.maximum(fa, fb) + 1e-8)


def test_absolute_min_check_passes_sup_and_fails_p2_minimizer(bang_bang_problem, smoke_2d_run):
    # the sup minimizer also minimizes the peak on each sub-box among the
    # fields sharing its two outer sub-box layers; the p = 2 minimizer does not
    _, op_1d, F_1d, u0_1d = bang_bang_problem
    _, op_2d, F_2d, u0_2d, report_2d, _ = smoke_2d_run
    sup_1d = continuation_solve(op_1d, F_1d, u0_1d, verify=False).u
    cases = [
        (op_1d, F_1d, u0_1d, sup_1d, [((40,), (120,)), ((10,), (60,))]),
        (op_2d, F_2d, u0_2d, report_2d.u, [((5, 5), (26, 26)), ((15, 10), (36, 31))]),
    ]
    for op, F, clamp, u_sup, boxes in cases:
        u_p2 = minimize_power_energy(op, F, clamp, p=2.0).u
        for start, stop in boxes:
            peak, (lo, hi) = absolute_min_check(op, F, u_sup, start, stop)
            assert lo <= peak <= hi + 1e-8 * max(1.0, hi)
            peak, (lo, hi) = absolute_min_check(op, F, u_p2, start, stop)
            assert peak > hi


def test_rescaling_invariance_identity_and_double(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    dist, ratio = rescaling_invariance_check(op, F, u0, factor=1.0, p_max=256.0)
    assert dist <= 1e-12
    assert ratio == pytest.approx(1.0, abs=1e-12)
    dist, ratio = rescaling_invariance_check(op, F, u0, factor=2.0, p_max=256.0)
    assert dist <= 1e-6 * (1.0 + np.max(np.abs(u0)))
    assert ratio == pytest.approx(2.0, rel=1e-8)


def test_rescaling_invariance_custom_supremand():
    # the generic scaling wrapper over a cost given by pointwise callables
    grid, op, F, u0 = make_1d_problem(nodes=41, profile="symmetric")
    quad = CustomSupremand(
        eval_fn=lambda x, xi: float(xi @ xi),
        grad_fn=lambda x, xi: 2.0 * xi,
        hess_fn=lambda x, xi: 2.0 * np.eye(xi.size),
        c=2.0,
        n_components=1,
    )
    dist, ratio = rescaling_invariance_check(op, quad, u0, factor=3.0, p_max=64.0)
    assert dist <= 1e-6 * (1.0 + np.max(np.abs(u0)))
    assert ratio == pytest.approx(3.0, rel=1e-8)


def test_rescaling_invariance_zero_energy_safe():
    grid, op, F, u0 = make_1d_problem(nodes=41, profile="affine")
    dist, ratio = rescaling_invariance_check(op, F, u0, factor=0.5)
    assert dist <= 1e-8
    assert np.isnan(ratio)  # both values vanish; the ratio is undefined-safe


def test_coefficient_of_variation_edges():
    assert coefficient_of_variation(np.array([])) == 0.0
    assert coefficient_of_variation(np.zeros(5)) == 0.0
    assert coefficient_of_variation(np.ones(5)) == 0.0
    assert coefficient_of_variation(np.array([1.0, 3.0])) == pytest.approx(0.5)
