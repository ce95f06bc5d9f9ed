import warnings

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
    # the map vanishes only where F_xi does: it is |xi| xi at any scale
    for r in (1e-15, 1e-100):
        xi = r * np.array([0.6, -0.8])
        np.testing.assert_allclose(duality_map(F, None, xi), r * xi, rtol=1e-12, atol=0.0)


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


def test_inverse_smoothed_near_linear_case_within_bound():
    # strictly convex but nearly linear away from the origin, where Newton on
    # the map's Jacobian does not converge
    F = WeightedPowerNorm(2, q=1.2, eps=0.05)
    eta = np.array([-3.321424021019513, -10.067599883617191])
    xi = duality_map_inverse(F, None, eta)
    assert np.linalg.norm(duality_map(F, None, xi) - eta) <= 1e-10 * np.linalg.norm(eta)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q,eps", [(1.2, 0.05), (1.1, 0.01)])
def test_inverse_round_trip_smoothed_near_linear(n, q, eps):
    F = WeightedPowerNorm(n, q=q, eps=eps)
    rng = np.random.default_rng(20)
    for _ in range(100):
        eta = rng.standard_normal(n) * np.exp(rng.uniform(-4, 4))
        xi = duality_map_inverse(F, None, eta)
        err = np.linalg.norm(duality_map(F, None, xi) - eta)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(eta))


@pytest.mark.parametrize("q", [3.0, 4.0])
def test_inverse_on_coordinate_axis(q):
    # F_xixi is singular on the coordinate hyperplanes for q > 2, and there
    # ||xi||_q^2 = xi_k^2, so the preimage of eta = t e_k is sign(t) sqrt|t| e_k
    F = WeightedPowerNorm(2, q=q)
    for eta, xi in (([2.0, 0.0], [np.sqrt(2.0), 0.0]), ([0.0, -5.0], [0.0, -np.sqrt(5.0)])):
        np.testing.assert_allclose(duality_map_inverse(F, None, np.array(eta)), xi, rtol=1e-12)


EXTREME_COSTS = [(2.0, 0.0), (3.0, 0.0), (1.5, 1e-3)]


@pytest.mark.parametrize("magnitude", [1e-30, 1e-100])
@pytest.mark.parametrize("q,eps", EXTREME_COSTS)
def test_inverse_tiny_target(q, eps, magnitude):
    # the documented bound tol * max(1, |eta|) is absolute for |eta| < 1; the
    # map is 0 only at the origin and the smoothed cost does not cancel, so
    # the round trip also holds relative to |eta|
    F = WeightedPowerNorm(2, q=q, eps=eps)
    eta = magnitude * np.array([0.6, -0.8])
    xi = duality_map_inverse(F, None, eta)
    assert np.isfinite(xi).all()
    assert np.linalg.norm(duality_map(F, None, xi) - eta) <= 1e-10
    assert np.linalg.norm(duality_map(F, None, xi) - eta) <= 1e-10 * magnitude
    if q == 2.0 and eps == 0.0:
        exact = eta / np.sqrt(magnitude)
        assert np.linalg.norm(xi - exact) <= 1e-9 * np.linalg.norm(exact)


@pytest.mark.parametrize("q,eps", EXTREME_COSTS)
def test_inverse_huge_target(q, eps):
    # |eta|^2 overflows; the result must still be finite and round-trip
    F = WeightedPowerNorm(2, q=q, eps=eps)
    eta = 1e200 * np.array([0.6, -0.8])
    xi = duality_map_inverse(F, None, eta)
    assert np.isfinite(xi).all()
    err = np.abs(duality_map(F, None, xi) / 1e200 - eta / 1e200).max()
    assert err <= 1e-10
    if q == 2.0:
        np.testing.assert_allclose(xi, eta / 1e100, rtol=1e-12)


def test_inverse_rejects_nonfinite_target():
    with pytest.raises(ValueError, match="finite"):
        duality_map_inverse(l2_cost(), None, np.array([np.inf, 1.0]))


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


@pytest.mark.parametrize("q,eps", [(3.0, 0.1), (1.5, 1e-3)])
def test_smoothed_cost_keeps_lower_growth_at_small_argument(q, eps):
    # S^(2/q) - S(0)^(2/q) cancels to 0 or below when evaluated as written
    F = WeightedPowerNorm(2, q=q, eps=eps)
    for r in (1e-15, 1e-12, 1e-10, 1e-6):
        xi = r * np.array([0.6, -0.8])
        assert F.eval(None, xi) >= r * r / F.c


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


def test_quadratic_hessian_field_is_built_once_and_read_only():
    # with a constant alpha the q = 2 Hessian field depends only on its shape,
    # so later calls of that shape return the first one, which is read-only
    F = WeightedPowerNorm(2, q=2.0, alpha=1.7)
    values = np.random.default_rng(12).standard_normal((30, 2))
    first = F.hess_field(None, values)
    np.testing.assert_array_equal(first, F._hess_general(None, values))
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0, 0] = 0.0
    assert F.hess_field(None, 3.0 * values) is first
    # another shape gets its own field
    np.testing.assert_array_equal(F.hess_field(None, values[:5]), F._hess_general(None, values[:5]))


def test_quadratic_hessian_field_follows_alpha_and_q():
    # alpha and q are fixed at construction, so a kept field cannot go stale:
    # assigning either raises, a cost built with the new value gets its own
    # field, and a callable alpha is never served a kept field
    values = np.random.default_rng(13).standard_normal((30, 2))
    F = WeightedPowerNorm(2, q=2.0, alpha=1.7)
    kept = F.hess_field(None, values)
    for name, value in (("alpha", 3.0), ("q", 3.0)):
        with pytest.raises(AttributeError, match=name):
            setattr(F, name, value)
    assert F.hess_field(None, values) is kept
    np.testing.assert_array_equal(kept, np.broadcast_to(3.4 * np.eye(2), (30, 2, 2)))
    np.testing.assert_array_equal(WeightedPowerNorm(2, alpha=3.0).hess_field(None, values),
                                  np.broadcast_to(6.0 * np.eye(2), (30, 2, 2)))
    G = WeightedPowerNorm(2, q=3.0, alpha=1.7)
    np.testing.assert_array_equal(G.hess_field(None, values), G._hess_general(None, values))
    assert not np.array_equal(G._hess_general(None, values), kept)
    # the config's affine weight (supremand.alpha = affine:1,0.5,0.25) is a callable
    F = WeightedPowerNorm(2, q=2.0, alpha=lambda pts: 1.0 + 0.5 * pts[:, 0] + 0.25 * pts[:, 1],
                          alpha_bounds=(1.0, 1.75))
    for shift in (0.0, 0.5):
        points = np.random.default_rng(14).uniform(0.0, 0.5, (30, 2)) + shift
        hess = F.hess_field(points, values)
        np.testing.assert_array_equal(hess, F._hess_general(points, values))
        assert hess.flags.writeable


def test_costs_are_fixed_at_construction():
    # q = 3 on a q = 2 cost once served the kept q = 2 field's diagonal for a
    # q = 3 Hessian; now the assignment raises and the cost stays q = 2
    F = WeightedPowerNorm(2)
    with pytest.raises(AttributeError, match="fixed at construction"):
        F.q = 3.0
    np.testing.assert_array_equal(F.hess_field(None, [[1e100, 5e99]]), [2.0 * np.eye(2)])
    custom = CustomSupremand(lambda x, xi: xi @ xi, lambda x, xi: 2.0 * xi,
                             lambda x, xi: 2.0 * np.eye(2), c=2.0, n_components=2)
    for cost in (F, F.scaled(2.0), custom, _FieldOnlyQuadratic()):
        for name in ("c", "n_components", "anything"):
            with pytest.raises(AttributeError):
                setattr(cost, name, 1.0)
        with pytest.raises(AttributeError):
            del cost.c
    assert (F.q, F.c, F.n_components) == (2.0, 2.0, 2)


@pytest.mark.parametrize("q", [3.0, 4.0, 8.0])
def test_general_formulas_are_homogeneous_at_extreme_scales(q):
    # F, F_xi and F_xixi are 2-, 1- and 0-homogeneous; |xi|^(2q - 2) in the
    # Hessian used to overflow (all -inf at q = 3 and xi ~ 1e-80)
    F = WeightedPowerNorm(2, q=q)
    unit = np.array([[1.0, 0.5]])
    ref = [F.eval_field(None, unit), F.grad_field(None, unit), F.hess_field(None, unit)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-150, 151, 10):
            xi = 10.0**k * unit
            got = [F.eval_field(None, xi) / 10.0 ** (2 * k), F.grad_field(None, xi) / 10.0**k,
                   F.hess_field(None, xi)]
            for value, want in zip(got, ref):
                np.testing.assert_allclose(value, want, rtol=1e-12, atol=0.0, err_msg=f"k={k}")
    # rows of in-range scale are evaluated as given, next to out-of-range ones
    mixed = np.array([[1.0, 0.5], [1e-120, 5e-121], [0.0, 0.0], [3.0, -2.0]])
    for field, general in ((F.eval_field, F._eval_general), (F.grad_field, F._grad_general),
                           (F.hess_field, F._hess_general)):
        np.testing.assert_array_equal(field(None, mixed)[[0, 2, 3]],
                                      general(None, mixed[[0, 2, 3]]))
