import numpy as np
import pytest

from conftest import symmetric_velocity_profile

from supmin import DimensionMismatch, SupminError, SupremalMinimizer


def small_solver(**overrides):
    params = dict(nodes=51, p_max=256.0)
    params.update(overrides)
    return SupremalMinimizer(**params)


def test_get_params_round_trip():
    est = small_solver(q=3.0, theta=0.2)
    params = est.get_params()
    assert params["q"] == 3.0
    assert params["theta"] == 0.2
    clone = SupremalMinimizer(**params)
    assert clone.get_params() == params


def test_set_params():
    est = small_solver()
    est.set_params(p_max=64.0, alpha=2.0)
    assert est.p_max == 64.0
    assert est.alpha == 2.0
    with pytest.raises(ValueError):
        est.set_params(not_a_param=1)


def test_sklearn_clone_compatibility():
    sklearn_base = pytest.importorskip("sklearn.base")
    est = small_solver(q=4.0)
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
    est = SupremalMinimizer(nodes=(11, 11), components=2, p_max=64.0, tensor=entries)

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
    with pytest.raises(ValueError):
        small_solver(q=0.5).fit(np.zeros(51))
    with pytest.raises(ValueError):
        small_solver(tensor="mystery").fit(np.zeros(51))


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
