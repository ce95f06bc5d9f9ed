"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS line after its assertions; run with -s (or read the
captured output) to see the roster.  The two expensive solves are shared
session fixtures; the 2D smoke solve (smoke_2d_run) lives in conftest.py,
because the absolute-minimality tests re-solve its sub-boxes.
"""

import time

import numpy as np
import pytest

from conftest import BLOCKS, make_1d_problem

from supmin import (
    Grid,
    WeightedPowerNorm,
    apply_operator,
    assemble_operator,
    block_diagonal_tensor,
    check_legendre,
    check_legendre_hadamard,
    continuation_solve,
    convexity_gap,
    det_coupled_tensor,
    duality_map,
    duality_map_inverse,
    duality_map_jacobian_det,
    harmonic_zero_set_fraction,
    identity_tensor,
    penalized_solve,
    uniqueness_check,
    rescaling_invariance_check,
)


def _report(criterion, text):
    print(f"\n[acceptance] criterion {criterion}: PASS - {text}")


@pytest.fixture(scope="session")
def bang_bang_run(bang_bang_problem):
    grid, op, F, u0 = bang_bang_problem
    start = time.monotonic()
    report = continuation_solve(op, F, u0, p_max=4096.0)
    elapsed = time.monotonic() - start
    return grid, op, F, u0, report, elapsed


@pytest.fixture(scope="session")
def quadratic_run():
    grid, op, F, u0 = make_1d_problem(nodes=201, profile="quadratic")
    return continuation_solve(op, F, u0, p_max=4096.0), op


@pytest.fixture(scope="session")
def affine_run():
    grid, op, F, u0 = make_1d_problem(nodes=201, profile="affine")
    return continuation_solve(op, F, u0, p_max=4096.0), op


def test_criterion_1_bang_bang_reproduction(bang_bang_run):
    grid, op, F, u0, report, elapsed = bang_bang_run
    assert report.e_inf == pytest.approx(16.0, rel=0.02)
    h = grid.spacing[0]
    lu = apply_operator(op, report.u)[:, 0]
    x = op.eq_coords()[:, 0]
    switches = np.flatnonzero(np.diff(np.sign(lu)))
    assert switches.size >= 1
    midpoints = x[switches] + 0.5 * h
    assert np.all(np.abs(midpoints - 0.5) <= 2.0 * h)
    far = np.abs(x - 0.5) > 5.0 * h
    assert np.all(np.abs(np.abs(lu[far]) - 4.0) <= 0.05 * 4.0)
    assert elapsed < 60.0
    _report(1, f"e_inf={report.e_inf:.4f} (16 within 2%), switch at 0.5 within 2h, "
               f"|Lu| within 5% of 4 away from the switch, runtime {elapsed:.1f}s < 60s")


def test_criterion_1_same_config_through_cli(tmp_path):
    from supmin.cli import main

    cfg = tmp_path / "bang_bang.cfg"
    cfg.write_text(
        "domain.dim = 1\ndomain.nodes = 201\nfield.components = 1\n"
        "tensor.kind = identity\nsupremand.q = 2\nsupremand.alpha = 1\n"
        "bc.kind = symmetric_velocity\nschedule.p_max = 4096\n"
    )
    out = tmp_path / "out"
    start = time.monotonic()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    elapsed = time.monotonic() - start
    entries = dict(
        line.partition(" = ")[::2]
        for line in (out / "report.txt").read_text().splitlines()
        if not line.startswith("p_row")
    )
    e_inf = float(entries["e_inf_estimate"])
    assert e_inf == pytest.approx(16.0, rel=0.02)
    assert float(entries["oracle.a"]) == pytest.approx(4.0)
    assert float(entries["oracle.s"]) == pytest.approx(0.5)
    assert elapsed < 60.0
    _report(1, f"CLI route: e_inf_estimate={e_inf:.4f}, oracle row (a=4, s=0.5), "
               f"runtime {elapsed:.1f}s < 60s")


def test_criterion_2_sandwich_and_monotonicity(bang_bang_run, smoke_2d_run, quadratic_run, affine_run):
    runs = {
        "bang-bang 1d": bang_bang_run[4],
        "vectorial 2d": smoke_2d_run[4],
        "quadratic 1d": quadratic_run[0],
        "affine 1d": affine_run[0],
    }
    for name, report in runs.items():
        report.check_invariants(slack=1e-8)
        energies = [r.energy for r in report.rows]
        assert all(b >= a - 1e-8 * max(1.0, a) for a, b in zip(energies, energies[1:])), name
    _report(2, f"power means nondecreasing and bracket containment on {len(runs)} shipped configs")


def test_criterion_3_cost_constancy(bang_bang_run):
    report = bang_bang_run[4]
    assert report.verify.cv_F <= 0.05
    cvs = [r.cv for r in report.rows]
    assert all(b <= 1.1 * a for a, b in zip(cvs, cvs[1:]))
    _report(3, f"cv_F={report.verify.cv_F:.2e} <= 0.05 at the final stage; "
               f"cv decreasing along the schedule ({cvs[0]:.3f} -> {cvs[-1]:.5f})")


def test_criterion_4_system_residuals(bang_bang_run):
    report = bang_bang_run[4]
    v = report.verify
    assert v.r_system <= 0.05 * report.e_inf
    assert v.r_harmonic <= 1e-6
    _report(4, f"r_system={v.r_system:.3e} <= 0.05*e_inf, r_harmonic={v.r_harmonic:.3e} <= 1e-6")


def test_criterion_5_zero_energy_branch(affine_run):
    report, op = affine_run
    assert report.e_inf <= 1e-6
    assert np.max(np.abs(apply_operator(op, report.u))) <= 1e-6
    _report(5, f"affine data: e_inf={report.e_inf:.1e} and sup|Lu|={np.max(np.abs(apply_operator(op, report.u))):.1e} <= 1e-6")


def test_criterion_6_convex_kernel_suite():
    rng = np.random.default_rng(1234)
    for q in (2.0, 3.0, 4.0):
        F = WeightedPowerNorm(2, q=q)
        worst = 0.0
        for _ in range(1000):
            eta = rng.standard_normal(2) * np.exp(rng.uniform(-3, 3))
            xi = duality_map_inverse(F, None, eta)
            err = np.linalg.norm(duality_map(F, None, xi) - eta)
            worst = max(worst, err / max(1.0, np.linalg.norm(eta)))
        assert worst <= 1e-9, f"round trip {worst:.2e} at q={q}"

    F4 = WeightedPowerNorm(2, q=4.0)
    gaps = [
        convexity_gap(F4, None, rng.standard_normal(2) * np.exp(rng.uniform(-2, 2)))
        for _ in range(1000)
    ]
    assert min(gaps) >= -1e-12

    F3 = WeightedPowerNorm(2, q=3.0)
    for _ in range(50):
        xi = rng.standard_normal(2) * np.exp(rng.uniform(-1, 1))
        det = duality_map_jacobian_det(F3, None, xi)
        assert det > 0
        step = 1e-6 * max(1.0, np.linalg.norm(xi))
        jac = np.zeros((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            jac[:, k] = (duality_map(F3, None, xi + e) - duality_map(F3, None, xi - e)) / (2 * step)
        assert det == pytest.approx(np.linalg.det(jac), rel=1e-5)
    _report(6, "round trips <= 1e-9 (1000 points, q in {2,3,4}), gaps >= -1e-12 (1000 samples), "
               "Jacobian determinants positive and match finite differences to 1e-5")


def test_criterion_7_ellipticity_checkers():
    tensor = det_coupled_tensor(3.0)
    legendre = check_legendre(tensor)
    rank_one = check_legendre_hadamard(tensor)
    assert legendre == pytest.approx(-0.5, abs=1e-8)
    assert rank_one == pytest.approx(1.0, abs=1e-6)
    _report(7, f"|X|^2 + 3 det X: full minimum {legendre:.9f} (= -0.5), "
               f"rank-one minimum {rank_one:.7f} (= 1)")


def test_criterion_8_uniqueness_and_penalization(bang_bang_run):
    grid, op, F, u0, report, _ = bang_bang_run
    rng = np.random.default_rng(99)
    start_b = u0.copy()
    mask = grid.interior_mask()
    start_b[mask] += 0.5 * rng.standard_normal((mask.sum(), 1))
    distance = uniqueness_check(op, F, u0, start_b=start_b, p_max=4096.0)
    assert distance <= 1e-4

    target = report.u
    dists = []
    for p in (16.0, 64.0, 256.0):
        v = penalized_solve(op, F, u0, p, target)
        dists.append(float(np.mean(np.sum((v - target)[op.interior_idx] ** 2, axis=1))))
    assert dists[0] >= dists[1] >= dists[2]
    _report(8, f"two-start distance {distance:.2e} <= 1e-4; penalized distances "
               f"{dists[0]:.2e} >= {dists[1]:.2e} >= {dists[2]:.2e}")


def test_criterion_9_rescaling_invariance(bang_bang_run):
    grid, op, F, u0, _, _ = bang_bang_run
    distance, ratio = rescaling_invariance_check(op, F, u0, factor=2.0, p_max=4096.0)
    assert distance <= 1e-6
    assert ratio == pytest.approx(2.0, rel=1e-8)
    _report(9, f"doubling the cost: argmin distance {distance:.2e} <= 1e-6, "
               f"value ratio {ratio:.12f} = 2 within 1e-8")


def test_criterion_10_vectorial_2d_smoke(smoke_2d_run):
    grid, op, supremand, u0, report, elapsed = smoke_2d_run
    report.check_invariants(slack=1e-8)
    cvs = [r.cv for r in report.rows]
    assert all(b <= 1.1 * a for a, b in zip(cvs, cvs[1:]))
    v = report.verify
    assert v.r_system <= 0.05 * report.e_inf
    assert v.r_harmonic <= 1e-6
    assert elapsed < 600.0
    _report(10, f"41x41 two-component run: monotone bracket, cv {cvs[0]:.3f} -> {cvs[-1]:.5f}, "
                f"r_system={v.r_system:.2e}, r_harmonic={v.r_harmonic:.1e}, "
                f"runtime {elapsed:.1f}s < 600s")


def test_criterion_11_unique_continuation_diagnostic():
    grid = Grid((21, 21))
    fractions = {}
    for name, tensor in (
        ("scalar laplacian", identity_tensor(2, 1)),
        ("block diagonal", block_diagonal_tensor(BLOCKS)),
    ):
        op = assemble_operator(grid, tensor)
        fractions[name] = harmonic_zero_set_fraction(op, trials=20, seed=0)
        assert fractions[name] < 0.01
    _report(11, "near-zero interior fractions over 20 random solves: "
                + ", ".join(f"{k}={v:.4f}" for k, v in fractions.items()))
