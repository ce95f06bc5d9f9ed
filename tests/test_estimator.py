import numpy as np
import pytest

from conftest import symmetric_velocity_profile

from supmin import (
    AsymmetricTensor,
    DimensionMismatch,
    SupminError,
    SupremalMinimizer,
    WeightedPowerNorm,
    constant_tensor,
    identity_tensor,
)


def small_solver(**overrides):
    params = dict(nodes=51, p_max=256.0)
    params.update(overrides)
    return SupremalMinimizer(**params)


def test_get_params_round_trip():
    cost = WeightedPowerNorm(1, q=3.0)
    est = small_solver(supremand=cost, bracket_stop=0.02)
    params = est.get_params()
    # one parameter per decision: the cost and the tensor are objects
    assert list(params) == ["nodes", "lo", "hi", "components", "tensor", "supremand",
                            "p_max", "newton_tol", "bracket_stop"]
    assert params["supremand"] is cost
    assert params["bracket_stop"] == 0.02
    clone = SupremalMinimizer(**params)
    assert clone.get_params() == params


def test_set_params():
    est = small_solver()
    est.set_params(p_max=64.0, newton_tol=1e-8)
    assert est.p_max == 64.0
    assert est.newton_tol == 1e-8
    with pytest.raises(ValueError):
        est.set_params(not_a_param=1)


def test_sklearn_clone_compatibility():
    sklearn_base = pytest.importorskip("sklearn.base")
    est = small_solver(supremand=WeightedPowerNorm(1, q=4.0))
    cloned = sklearn_base.clone(est)
    assert cloned.get_params() == est.get_params()


def test_fit_symmetric_case():
    est = small_solver()
    t = np.linspace(0.0, 1.0, 51)
    fitted = est.fit(symmetric_velocity_profile(t))
    assert fitted is est
    assert est.u_.shape == (51, 1)
    assert est.f_.shape == (est.operator_.n_eq, 1)
    assert est.e_inf_ == pytest.approx(16.0, rel=0.1)
    assert est.report_.verify is not None
    assert est.score() == -est.e_inf_


def test_fit_with_callable_boundary():
    est = small_solver()
    est.fit(lambda coords: symmetric_velocity_profile(coords[:, 0]))
    assert est.e_inf_ == pytest.approx(16.0, rel=0.1)


def test_fit_vectorial_2d():
    entries = np.zeros((2, 2, 2, 2))  # A[a,b,i,j] = delta_ab delta_ij
    for a in range(2):
        for i in range(2):
            entries[a, a, i, i] = 1.0
    est = SupremalMinimizer(nodes=(11, 11), components=2, p_max=64.0,
                            tensor=constant_tensor(entries))

    def boundary(coords):
        s = np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1])
        return np.stack([s, 0.5 * s], axis=1)

    est.fit(boundary)
    assert est.u_.shape == (121, 2)
    assert est.e_inf_ > 0


def test_fit_validation_errors():
    est = small_solver()
    with pytest.raises(DimensionMismatch):
        est.fit(np.zeros((7, 1)))
    bad = np.zeros(51)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        est.fit(bad)
    with pytest.raises(ValueError, match="supremand must be a Supremand"):
        small_solver(supremand="q=0.5").fit(np.zeros(51))
    # the tensor is an EllipticTensor: no string or raw-array forms
    for spec in ("identity", np.ones((1, 1, 1, 1))):
        with pytest.raises(ValueError, match="tensor must be an EllipticTensor"):
            small_solver(tensor=spec).fit(np.zeros(51))


def test_default_cost_and_tensor_are_the_public_constructors():
    t = np.linspace(0.0, 1.0, 51)
    default = small_solver().fit(symmetric_velocity_profile(t))
    explicit = small_solver(supremand=WeightedPowerNorm(1, q=2.0, alpha=1.0, eps=0.0),
                            tensor=identity_tensor(1, 1)).fit(symmetric_velocity_profile(t))
    assert default.e_inf_ == explicit.e_inf_
    np.testing.assert_array_equal(default.u_, explicit.u_)


def _sine_2d(n_comp):
    def boundary(coords):
        s = np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1])
        return np.repeat(s[:, None], n_comp, axis=1)
    return boundary


def test_component_mismatch_is_a_dimension_mismatch():
    # an N = 1 cost on two components would have F(x, 0) != 0 on its second one
    with pytest.raises(DimensionMismatch, match="cost has 1 components"):
        SupremalMinimizer(nodes=(15, 15), components=2,
                          supremand=WeightedPowerNorm(1)).fit(_sine_2d(2))
    with pytest.raises(DimensionMismatch, match="clamp has shape"):
        SupremalMinimizer(nodes=(15, 15), tensor=identity_tensor(2, 2),
                          supremand=WeightedPowerNorm(2)).fit(_sine_2d(1))


def test_asymmetric_tensor_is_rejected():
    entries = np.zeros((2, 2, 1, 1))
    entries[0, 0] = entries[1, 1] = 1.0
    entries[0, 1] = 0.5  # A[1, 0] stays 0
    with pytest.raises(AsymmetricTensor):
        SupremalMinimizer(nodes=(15, 15), tensor=constant_tensor(entries)).fit(_sine_2d(1))


def test_score_requires_fit():
    with pytest.raises(AttributeError):
        small_solver().score()


def test_degenerate_branch_through_estimator():
    est = small_solver()
    t = np.linspace(0.0, 1.0, 51)
    est.fit(0.25 * t + 1.0)
    assert est.report_.degenerate
    assert est.e_inf_ == 0.0


@pytest.fixture(scope="module")
def cubic_unit_value():
    t = np.linspace(0.0, 1.0, 41)
    return SupremalMinimizer(nodes=41).fit(symmetric_velocity_profile(t)).e_inf_


@pytest.mark.parametrize("k", range(-60, 61, 12))
def test_value_scales_with_amplitude_squared(cubic_unit_value, k):
    # the zero-energy test is relative to the data scale: tiny data are not zero
    amp = 10.0**k
    t = np.linspace(0.0, 1.0, 41)
    est = SupremalMinimizer(nodes=41).fit(amp * symmetric_velocity_profile(t))
    assert not est.report_.degenerate
    assert est.e_inf_ / amp**2 == pytest.approx(cubic_unit_value, rel=1e-8)


@pytest.mark.parametrize("amp", [1e-100, 1e-150])
def test_tiny_data_raise_solver_error(amp):
    # the squared cost scale underflows to 0: a solver error, not ZeroDivisionError
    t = np.linspace(0.0, 1.0, 41)
    with pytest.raises(SupminError, match="cost scale"):
        SupremalMinimizer(nodes=41).fit(amp * symmetric_velocity_profile(t))
