"""Property checks on random 2D scalar problems (hypothesis, derandomized).

Random rectangular grids, constant SPD tensors with a cross term, and smooth
boundary data, with the squared-norm cost, whose limit value is the square
of the LP optimum min_u max_k |(L_h u)_k|.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import lp_min_max_abs  # noqa: E402

from supmin import (  # noqa: E402
    Grid,
    WeightedPowerNorm,
    assemble_operator,
    constant_tensor,
    continuation_solve,
)

P_MAX = 1024.0
CASES = settings(max_examples=16, derandomize=True, database=None, deadline=None)


@st.composite
def problems(draw):
    """(grid shape, 2x2 SPD coefficient matrix, data coefficients, wave number)."""
    shape = (draw(st.integers(9, 21)), draw(st.integers(9, 21)))
    a, c = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    b = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 0.8)) * np.sqrt(a * c)
    lead = draw(st.floats(0.5, 2.0))
    rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    return shape, np.array([[a, b], [b, c]]), (lead, *rest), draw(st.integers(1, 2))


def _solve(shape, matrix, coeffs, k, transpose=False):
    grid = Grid(shape)
    xy = grid.coords()
    x, y = xy[:, 0], xy[:, 1]
    c0, c1, c2, c3 = coeffs
    data = c0 * x**2 + c1 * x * y + c2 * y**3 + c3 * np.sin(np.pi * k * x) * np.cos(np.pi * y)
    if transpose:
        # u'(x, y) = u(y, x) on the transposed grid with A'[a, b] = A[1 - a, 1 - b]
        grid = Grid(shape[::-1])
        data = data.reshape(shape).T.ravel()
        matrix = matrix[::-1, ::-1]
    op = assemble_operator(grid, constant_tensor(matrix.reshape(2, 2, 1, 1)))
    clamp = np.ascontiguousarray(data.reshape(-1, 1))
    return op, clamp, continuation_solve(op, WeightedPowerNorm(1), clamp, p_max=P_MAX)


@CASES
@given(problems())
def test_bracket_contains_lp_optimum(problem):
    op, clamp, rep = _solve(*problem)
    exact = lp_min_max_abs(op, clamp) ** 2
    lo, hi = rep.bracket
    assert not rep.degenerate
    assert lo <= exact * (1.0 + 1e-8) and exact <= hi * (1.0 + 1e-8), (lo, exact, hi)


@CASES
@given(problems())
def test_transposition_leaves_value_unchanged(problem):
    # Newton counts are not compared: they depend on the dof order
    _, _, rep = _solve(*problem)
    _, _, rep_t = _solve(*problem, transpose=True)
    assert rep_t.e_inf == pytest.approx(rep.e_inf, rel=1e-9)
