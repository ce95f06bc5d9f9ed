import gc
import math
import weakref

import numpy as np
import pytest

from conftest import symmetric_velocity_profile

import supmin.estimator
from supmin import (
    AsymmetricTensor,
    DimensionMismatch,
    EllipticTensor,
    SupminError,
    SupremalMinimizer,
    WeightedPowerNorm,
    assemble_operator,
    constant_tensor,
    continuation_solve,
    identity_tensor,
)
from supmin.cli import _solve_from_config
from supmin.config import boundary_profile, build_grid, build_supremand, build_tensor, parse_config


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


# the operator store: fits of one problem shape share one assembled operator

def _hermite(t, x0, v0, x1, v1):
    return (x0 * (2 * t**3 - 3 * t**2 + 1) + v0 * (t**3 - 2 * t**2 + t)
            + x1 * (-2 * t**3 + 3 * t**2) + v1 * (t**3 - t**2))


def _fingerprint(report):
    rows = [(row.p, row.iterations, row.evaluations, row.factorizations, row.lifts,
             row.stalled, repr(row.energy), repr(row.peak)) for row in report.rows]
    last = report.rows[-1]
    return repr(report.e_inf), repr(report.bracket), rows, last.u.tobytes(), last.f.tobytes()


def test_stored_operator_fits_equal_fresh_assembly_bitwise():
    data = np.random.default_rng(21).uniform([-1, -2, -1, -2], [1, 2, 1, 2], (20, 4))
    first = None
    for row in data:
        est = SupremalMinimizer(nodes=201, p_max=4096.0)
        boundary = _hermite(np.linspace(0.0, 1.0, 201), *row).reshape(-1, 1)
        est.fit(boundary)
        first = first or est.operator_
        assert est.operator_ is first
        fresh = continuation_solve(assemble_operator(est.grid_, identity_tensor(1, 1)),
                                   WeightedPowerNorm(1), boundary, p_max=4096.0)
        assert _fingerprint(est.report_) == _fingerprint(fresh)
    assert len(supmin.estimator._OPERATORS) == 1


def test_stored_operator_cli_config_equals_fresh_assembly_bitwise():
    # a 2D two-component config, solved through the CLI's estimator twice
    cfg = parse_config("domain.dim = 2\ndomain.nodes = 21\nfield.components = 2\n"
                       "tensor.kind = block_diagonal\ntensor.blocks = 1,0,0,1;2,0.5,0.5,1\n"
                       "schedule.p_max = 64\nbc.kind = sinusoidal\n")
    first, second = _solve_from_config(cfg), _solve_from_config(cfg)
    assert second.operator_ is first.operator_
    grid = build_grid(cfg)
    fresh = continuation_solve(assemble_operator(grid, build_tensor(cfg)), build_supremand(cfg),
                               boundary_profile(cfg, grid.coords()), p_max=cfg.p_max,
                               newton_tol=cfg.newton_tol, bracket_stop=cfg.bracket_stop)
    for est in (first, second):
        assert _fingerprint(est.report_) == _fingerprint(fresh)
        assert repr(est.report_.verify) == repr(fresh.verify)


def test_store_assembles_only_on_a_miss(monkeypatch):
    # the estimator reaches assembly through its module's name, as a tracer patches it
    calls = []
    assemble = supmin.estimator.assemble_operator

    def counted(grid, tensor):
        calls.append(grid.shape)
        return assemble(grid, tensor)

    monkeypatch.setattr(supmin.estimator, "assemble_operator", counted)
    t = np.linspace(0.0, 1.0, 31)
    for nodes in (31, 31, 41, 31):
        small_solver(nodes=nodes).fit(symmetric_velocity_profile(np.linspace(0.0, 1.0, nodes)))
    assert calls == [(31,), (41,)]
    small_solver(nodes=31, tensor=constant_tensor(2.0 * np.ones((1, 1, 1, 1)))).fit(
        symmetric_velocity_profile(t))
    assert calls == [(31,), (41,), (31,)]


class VariableEntries:
    """1D scalar a(x) = 1 + x^2."""

    n = 1
    n_components = 1

    def __call__(self, pts):
        return (1.0 + pts[:, 0] ** 2)[:, None, None, None, None] * np.ones((1, 1, 1, 1))


def test_store_never_serves_a_callable_tensor():
    t = np.linspace(0.0, 1.0, 31)
    tensor = EllipticTensor(VariableEntries())
    ops = [small_solver(nodes=31, tensor=tensor).fit(symmetric_velocity_profile(t)).operator_
           for _ in range(2)]
    assert ops[0] is not ops[1]
    assert not supmin.estimator._OPERATORS
    assert ops[0].free_matrix.data.flags.writeable


def test_store_follows_tensor_entries_changed_in_place():
    t = np.linspace(0.0, 1.0, 31)
    tensor = constant_tensor(np.ones((1, 1, 1, 1)))
    first = small_solver(nodes=31, tensor=tensor).fit(symmetric_velocity_profile(t))
    tensor.entries[...] = 2.0
    second = small_solver(nodes=31, tensor=tensor).fit(symmetric_velocity_profile(t))
    assert second.operator_ is not first.operator_
    # the stored operators hold their own copies of the entries they were built from
    assert first.operator_.tensor.entries[0, 0, 0, 0] == 1.0
    fresh = assemble_operator(second.grid_, tensor)
    assert (second.operator_.free_matrix != fresh.free_matrix).nnz == 0
    assert second.e_inf_ == pytest.approx(4.0 * first.e_inf_, rel=1e-6)


def test_store_keeps_signed_zero_extents_apart():
    t = np.linspace(0.0, 1.0, 31)
    ops = [small_solver(nodes=31, lo=lo).fit(symmetric_velocity_profile(t)).operator_
           for lo in (0.0, -0.0, 0.0)]
    assert ops[0] is not ops[1] and ops[2] is ops[0]
    assert [math.copysign(1.0, op.grid.lo[0]) for op in ops] == [1.0, -1.0, 1.0]


def test_evicted_operator_and_its_caches_are_freed():
    t = np.linspace(0.0, 1.0, 31)
    est = small_solver(nodes=31).fit(symmetric_velocity_profile(t))
    op = est.operator_
    refs = [weakref.ref(obj) for obj in (op, op.hessian_pattern, op.free_matrix_t, op.eq_coords())]
    for nodes in range(32, 32 + supmin.estimator._OPERATORS_KEPT):
        assert refs[0]() is not None
        small_solver(nodes=nodes).fit(symmetric_velocity_profile(np.linspace(0.0, 1.0, nodes)))
    assert len(supmin.estimator._OPERATORS) == supmin.estimator._OPERATORS_KEPT
    del est, op
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_stored_operator_arrays_are_read_only():
    est = small_solver(nodes=31).fit(symmetric_velocity_profile(np.linspace(0.0, 1.0, 31)))
    op = est.operator_
    pattern = op.hessian_pattern
    arrays = [op.eq_idx, op.interior_idx, op.clamp_idx, op.square_rows, op.eq_coords(),
              op.tensor.entries, pattern.band_pos]
    for mat in (op.free_matrix, op.clamp_matrix, op.free_matrix_t, pattern.products):
        arrays += [mat.data, mat.indices, mat.indptr]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
