import numpy as np
import pytest

from supmin import (
    CustomSupremand,
    GrowthViolation,
    Supremand,
    WeightedPowerNorm,
    check_growth,
    convexity_gap,
    duality_map,
    duality_map_field,
    duality_map_inverse,
    duality_map_jacobian,
    duality_map_jacobian_det,
)


def l2_cost(n=2):
    return WeightedPowerNorm(n, q=2.0)


def test_squared_norm_values():
    F = l2_cost()
    assert F.eval(None, [3.0, 4.0]) == pytest.approx(25.0, abs=1e-14)
    assert F.eval(None, [0.0, 0.0]) == 0.0
    np.testing.assert_allclose(F.grad(None, [3.0, 4.0]), [6.0, 8.0], atol=1e-14)
    np.testing.assert_allclose(F.hess(None, [3.0, 4.0]), 2.0 * np.eye(2), atol=1e-14)


def test_convexity_gap_hand_values():
    F = l2_cost()
    # 2|xi|^2 - |xi|^2 = |xi|^2
    assert convexity_gap(F, None, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    assert convexity_gap(F, None, np.zeros(2)) == 0.0


def test_convexity_gap_nonnegative_sweep():
    F = WeightedPowerNorm(2, q=4.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        xi = rng.standard_normal(2) * np.exp(rng.uniform(-2, 2))
        assert convexity_gap(F, None, xi) >= -1e-12


def test_duality_map_hand_values():
    F = l2_cost()
    np.testing.assert_allclose(duality_map(F, None, np.array([3.0, 4.0])), [15.0, 20.0], atol=1e-12)
    np.testing.assert_allclose(duality_map(F, None, np.array([0.0, 2.0])), [0.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(duality_map(F, None, np.zeros(2)), [0.0, 0.0])


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_duality_map_magnitude_equals_cost(q):
    F = WeightedPowerNorm(3, q=q)
    rng = np.random.default_rng(1)
    for _ in range(200):
        xi = rng.standard_normal(3) * np.exp(rng.uniform(-3, 3))
        phi = duality_map(F, None, xi)
        f = F.eval(None, xi)
        assert abs(np.linalg.norm(phi) - f) <= 1e-12 * max(1.0, f)


def test_duality_map_field_matches_pointwise():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((50, 2))
    values[7] = 0.0
    for q in (2.0, 3.0):
        F = WeightedPowerNorm(2, q=q)
        batch = duality_map_field(F, None, values)
        assert not batch[7].any()
        for k in range(50):
            np.testing.assert_array_equal(batch[k], duality_map(F, None, values[k]))


def _fd_jacobian(F, xi, step=1e-6):
    n = xi.size
    jac = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        jac[:, k] = (duality_map(F, None, xi + e) - duality_map(F, None, xi - e)) / (2 * step)
    return jac


def test_jacobian_det_closed_form_vs_finite_differences():
    F = l2_cost()
    xi = np.array([1.0, 2.0])
    det_cf = duality_map_jacobian_det(F, None, xi)
    det_fd = np.linalg.det(_fd_jacobian(F, xi))
    assert det_cf == pytest.approx(det_fd, rel=1e-6)
    # the assembled Jacobian matrix agrees entrywise too
    np.testing.assert_allclose(duality_map_jacobian(F, None, xi), _fd_jacobian(F, xi), rtol=1e-6)


def test_jacobian_det_positive():
    F = l2_cost()
    assert duality_map_jacobian_det(F, None, np.array([1.0, 0.0])) > 0

    F3 = WeightedPowerNorm(2, q=3.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        xi = rng.standard_normal(2) * np.exp(rng.uniform(-2, 2))
        det = duality_map_jacobian_det(F3, None, xi)
        assert det > 0
        assert det == pytest.approx(np.linalg.det(_fd_jacobian(F3, xi)), rel=1e-5)


def test_inverse_hand_value():
    # for |xi|^2 the map is |xi| xi, inverted by eta / sqrt(|eta|)
    F = l2_cost()
    xi = duality_map_inverse(F, None, np.array([15.0, 20.0]))
    np.testing.assert_allclose(xi, [3.0, 4.0], atol=1e-10)
    np.testing.assert_allclose(duality_map_inverse(F, None, np.zeros(2)), [0.0, 0.0])


@pytest.mark.parametrize("q,eps", [(2.0, 0.0), (3.0, 0.0), (1.5, 1e-3)])
def test_inverse_round_trip(q, eps):
    F = WeightedPowerNorm(2, q=q, eps=eps)
    rng = np.random.default_rng(4)
    for _ in range(300):
        eta = rng.standard_normal(2) * np.exp(rng.uniform(-4, 4))
        xi = duality_map_inverse(F, None, eta)
        err = np.linalg.norm(duality_map(F, None, xi) - eta)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(eta))


def test_inverse_composed_with_forward_is_identity():
    # for q != 2 the map degenerates on the coordinate hyperplanes (the
    # Hessian loses rank there), so exact recovery of xi is conditioning
    # limited in their immediate vicinity; sample generic points
    F = WeightedPowerNorm(2, q=3.0)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 500:
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        if np.min(np.abs(xi)) < 1e-2:
            continue
        xi *= np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))
        eta = duality_map(F, None, xi)
        back = duality_map_inverse(F, None, eta)
        assert np.linalg.norm(back - xi) <= 1e-9 * np.linalg.norm(xi)
        checked += 1


def test_inverse_composed_with_forward_is_identity_smooth_case():
    # q = 2 has a uniformly nondegenerate Jacobian: no genericity needed
    F = l2_cost()
    rng = np.random.default_rng(15)
    for _ in range(500):
        xi = rng.standard_normal(2)
        xi *= np.exp(rng.uniform(np.log(1e-3), np.log(1e3))) / np.linalg.norm(xi)
        eta = duality_map(F, None, xi)
        back = duality_map_inverse(F, None, eta)
        assert np.linalg.norm(back - xi) <= 1e-9 * np.linalg.norm(xi)


def test_growth_witnesses_squared_norm():
    F = l2_cost()
    lower, upper = check_growth(F, 200, 10.0, seed=0)
    assert lower == pytest.approx(1.0, rel=1e-12)
    assert upper == pytest.approx(2.0, rel=1e-12)


def test_growth_scaled_cost_passes_with_computed_constant():
    F = WeightedPowerNorm(2, q=2.0, alpha=2.0)
    check_growth(F, 200, 5.0, seed=1)  # computed c covers the scaling


def test_growth_violation_for_understated_constant():
    bad = CustomSupremand(
        eval_fn=lambda x, xi: float(xi @ xi),
        grad_fn=lambda x, xi: 2.0 * xi,
        hess_fn=lambda x, xi: 2.0 * np.eye(xi.size),
        c=0.5,  # |F_xi| / |xi| = 2 > 0.5
        n_components=2,
    )
    with pytest.raises(GrowthViolation):
        check_growth(bad, 50, 1.0, seed=2)


@pytest.mark.parametrize("q,eps", [(2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (1.5, 1e-2)])
def test_hessian_symmetry_and_gradient_consistency(q, eps):
    F = WeightedPowerNorm(3, q=q, eps=eps)
    rng = np.random.default_rng(6)
    step = 1e-5
    for _ in range(40):
        xi = rng.standard_normal(3) * np.exp(rng.uniform(-1, 1))
        hess = F.hess(None, xi)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12
        grad = F.grad(None, xi)
        fd = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = step
            fd[k] = (F.eval(None, xi + e) - F.eval(None, xi - e)) / (2 * step)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_hessian_positive_definite_off_hyperplanes():
    rng = np.random.default_rng(7)
    for q in (2.0, 3.0, 4.0):
        F = WeightedPowerNorm(2, q=q)
        for _ in range(50):
            xi = rng.standard_normal(2)
            eigs = np.linalg.eigvalsh(F.hess(None, xi))
            assert eigs.min() > -1e-10


def test_spatial_weight():
    alpha = lambda pts: 1.0 + pts[:, 0]
    F = WeightedPowerNorm(1, q=2.0, alpha=alpha, alpha_bounds=(1.0, 2.0))
    x = np.array([0.5])
    assert F.eval(x, [2.0]) == pytest.approx(1.5 * 4.0)
    lower, upper = check_growth(F, 100, 3.0, points=[np.array([0.0]), np.array([1.0])], seed=3)
    assert upper <= F.c + 1e-12


def test_smoothing_keeps_origin_at_zero():
    F = WeightedPowerNorm(2, q=1.5, eps=1e-2)
    assert F.eval(None, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert F.eval(None, [1.0, 1.0]) > 0


def test_q_below_two_requires_smoothing():
    with pytest.raises(ValueError):
        WeightedPowerNorm(2, q=1.5)
    with pytest.raises(ValueError):
        WeightedPowerNorm(2, q=0.5, eps=1e-2)


def test_scaled_supremand():
    F = WeightedPowerNorm(2, q=3.0)
    G = F.scaled(2.0)
    rng = np.random.default_rng(8)
    xi = rng.standard_normal(2)
    assert G.eval(None, xi) == pytest.approx(2.0 * F.eval(None, xi), rel=1e-14)
    np.testing.assert_allclose(G.grad(None, xi), 2.0 * F.grad(None, xi))
    check_growth(G, 100, 2.0, seed=9)  # the adjusted constant stays valid


@pytest.mark.parametrize("spatial", [False, True])
def test_scaled_below_one_keeps_growth(spatial):
    # c * max(f, 1/f) bounds both witnesses of f * F for f < 1 too
    if spatial:
        F = WeightedPowerNorm(1, q=2.0, alpha=lambda pts: 1.0 + pts[:, 0], alpha_bounds=(1.0, 2.0))
        points = [np.array([0.0]), np.array([1.0])]
    else:
        F, points = WeightedPowerNorm(2, q=2.0), None
    G = F.scaled(0.5)
    assert G.c == 2.0 * F.c
    xi = np.full(F.n_components, 0.7)
    x = None if points is None else points[1]
    assert G.eval(x, xi) == 0.5 * F.eval(x, xi)
    np.testing.assert_array_equal(G.hess(x, xi), 0.5 * F.hess(x, xi))
    check_growth(G, 200, 5.0, points=points, seed=12)


def test_scaling_rejects_nonpositive_factor():
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError):
            l2_cost().scaled(factor)


class _FieldOnlyQuadratic(Supremand):
    """xi . M xi with M = [[2, 1], [1, 3]], given only through the field methods."""

    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    c = 7.3  # > max(1 / lambda_min(M), 2 lambda_max(M)) = 2 * 3.618...
    n_components = 2

    def eval_field(self, points, values):
        values = np.asarray(values)
        return np.einsum("mi,ij,mj->m", values, self.M, values)

    def grad_field(self, points, values):
        return 2.0 * np.asarray(values) @ self.M

    def hess_field(self, points, values):
        return np.broadcast_to(2.0 * self.M, (len(values), 2, 2))


def test_field_methods_give_pointwise_methods():
    F = _FieldOnlyQuadratic()
    xi = np.array([1.0, 2.0])
    assert F.eval(None, xi) == 18.0
    assert isinstance(F.eval(None, xi), float)
    np.testing.assert_array_equal(F.grad(None, [1.0, 2.0]), [8.0, 14.0])
    np.testing.assert_array_equal(F.hess(None, xi), [[4.0, 2.0], [2.0, 6.0]])
    # the derived pointwise methods feed the pointwise calculus
    assert convexity_gap(F, None, xi) == 18.0
    eta = duality_map(F, None, xi)
    np.testing.assert_allclose(duality_map_inverse(F, None, eta), xi, rtol=1e-10)
    assert duality_map_jacobian_det(F, None, xi) > 0.0
    check_growth(F, 100, 3.0, seed=13)


def test_singular_hessian_detected_on_hyperplane():
    # q = 4 has a rank-deficient Hessian on the coordinate hyperplanes
    F = WeightedPowerNorm(2, q=4.0)
    from supmin import SingularHessian

    with pytest.raises(SingularHessian):
        duality_map_jacobian_det(F, None, np.array([1.0, 0.0]))


def test_inverse_no_convergence_on_inconsistent_cost():
    # gradient deliberately inconsistent with the values: Newton cannot close
    from supmin import NoConvergence

    broken = CustomSupremand(
        eval_fn=lambda x, xi: float(xi @ xi),
        grad_fn=lambda x, xi: np.array([xi[1] ** 2 + 1.0, -xi[0] ** 2 - 1.0]),
        hess_fn=lambda x, xi: np.eye(2),
        c=2.0,
        n_components=2,
    )
    with pytest.raises(NoConvergence):
        duality_map_inverse(broken, None, np.array([3.0, 4.0]), max_iter=10)


def test_custom_supremand_default_field_loops():
    quad = CustomSupremand(
        eval_fn=lambda x, xi: float(xi @ xi),
        grad_fn=lambda x, xi: 2.0 * xi,
        hess_fn=lambda x, xi: 2.0 * np.eye(xi.size),
        c=2.0,
        n_components=1,
    )
    ref = WeightedPowerNorm(1, q=2.0)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((20, 1))
    np.testing.assert_allclose(quad.eval_field(None, values), ref.eval_field(None, values))
    np.testing.assert_allclose(quad.grad_field(None, values), ref.grad_field(None, values))
    np.testing.assert_allclose(quad.hess_field(None, values), ref.hess_field(None, values))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spatial", [False, True])
def test_quadratic_closed_form_matches_general_formulas(n, spatial):
    # q = 2 without smoothing is evaluated in closed form; the general
    # formulas give the same bits on normal-range inputs
    if spatial:
        F = WeightedPowerNorm(n, q=2.0, alpha=lambda pts: 1.0 + pts[:, 0] ** 2,
                              alpha_bounds=(1.0, 2.0))
    else:
        F = WeightedPowerNorm(n, q=2.0, alpha=1.7)
    rng = np.random.default_rng(30 + n)
    values = rng.standard_normal((200, n)) * 10.0 ** rng.uniform(-100.0, 100.0, (200, 1))
    values[0] = 0.0
    values[1, 0] = 0.0
    points = rng.uniform(0.0, 1.0, (200, 2))
    for closed, general in ((F.eval_field, F._eval_general),
                            (F.grad_field, F._grad_general),
                            (F.hess_field, F._hess_general)):
        np.testing.assert_array_equal(closed(points, values), general(points, values))
