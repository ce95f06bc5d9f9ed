import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.special import logsumexp

from supmin import (
    Grid,
    WeightedPowerNorm,
    assemble_operator,
    block_diagonal_tensor,
    continuation_solve,
    identity_tensor,
)

BLOCKS = [np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])]


def symmetric_velocity_profile(t):
    """Cubic with value 0 and slope 1 at both ends of [0, 1]."""
    return 2.0 * t**3 - 3.0 * t**2 + t


def make_1d_problem(nodes=201, profile="symmetric"):
    grid = Grid((nodes,))
    t = grid.coords()[:, 0]
    if profile == "symmetric":
        vals = symmetric_velocity_profile(t)
    elif profile == "quadratic":
        vals = t**2
    elif profile == "affine":
        vals = 0.3 * t + 0.1
    else:
        raise ValueError(profile)
    op = assemble_operator(grid, identity_tensor(1, 1))
    supremand = WeightedPowerNorm(1, q=2.0)
    return grid, op, supremand, vals.reshape(-1, 1)


def lp_min_max_abs(op, clamp):
    """Exact discrete min over u of max_k |(L_h u)_k| with clamped layers (1D scalar).

    Independent linear-programming oracle for the limiting value of the
    squared-norm cost: the optimal objective squared is the energy.
    """
    free = op.free_matrix
    part = op.clamp_matrix @ clamp[op.clamp_idx].ravel()
    n_eq, n_free = free.shape
    a_ub = sp.vstack(
        [
            sp.hstack([free, -np.ones((n_eq, 1))]),
            sp.hstack([-free, -np.ones((n_eq, 1))]),
        ]
    ).tocsc()
    b_ub = np.concatenate([-part, part])
    cost = np.zeros(n_free + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n_free + 1), method="highs")
    assert res.success, res.message
    return float(res.x[-1])


def log_domain_power_mean(values, p):
    """Reference power mean computed entirely through logsumexp."""
    values = np.asarray(values, dtype=np.float64)
    if np.max(values) <= 0.0:
        return 0.0
    logs = np.log(values[values > 0.0])
    total = logsumexp(p * logs)
    # zero entries contribute nothing to the sum but do count in the mean
    return float(np.exp((total - np.log(len(values))) / p))


@pytest.fixture(scope="session")
def bang_bang_problem():
    return make_1d_problem(nodes=201, profile="symmetric")


@pytest.fixture(scope="session")
def smoke_2d_run():
    grid = Grid((41, 41))
    xy = grid.coords()
    u0 = np.stack(
        [
            np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1]),
            0.5 * np.sin(2.0 * np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1]),
        ],
        axis=1,
    )
    tensor = block_diagonal_tensor(BLOCKS)
    op = assemble_operator(grid, tensor)
    supremand = WeightedPowerNorm(2, q=2.0)
    start = time.monotonic()
    report = continuation_solve(op, supremand, u0, p_max=1024.0)
    elapsed = time.monotonic() - start
    return grid, op, supremand, u0, report, elapsed
