"""Estimator-style facade over the continuation solver.

SupremalMinimizer follows the scikit-learn parameter protocol (constructor
args stored verbatim, get_params / set_params, fit returning self) so the
solver drops into pipelines, grid searches, and clone() without depending on
scikit-learn itself.  The sample passed to fit is the boundary field: its
values on the two clamped node layers pin the problem, and the fitted
attributes expose the limiting field, its dual field, and the value bracket.
"""

import dataclasses
import inspect
from collections import OrderedDict

import numpy as np

from .continuation import BRACKET_STOP, NEWTON_TOL, P_MAX, continuation_solve
from .grid import Grid
from .operators import _read_only, assemble_operator
from .supremand import Supremand, WeightedPowerNorm
from .tensors import EllipticTensor, identity_tensor

# the operators of the most recent problem shapes, least recently used first
_OPERATORS = OrderedDict()
_OPERATORS_KEPT = 4


def _operator_key(grid, tensor):
    """The grid's shape and extent bits and the tensor's entries bits, mode and lam.

    That is everything assembly reads, and the rest of the tensor the operator carries.
    """
    extents = np.array(grid.lo + grid.hi, dtype=np.float64).tobytes()   # -0.0 is not 0.0
    entries = tensor.entries
    return (grid.shape, extents, entries.shape, entries.tobytes(), tensor.mode,
            np.float64(tensor.lam).tobytes())


def _stored_operator(grid, tensor):
    """The assembled operator of (grid, tensor), shared by every fit of the same problem shape.

    A callable tensor is assembled afresh on every call.  A constant one is
    assembled once per key, from a read-only copy of its entries, and kept
    for the _OPERATORS_KEPT most recently used keys; the kept operator's index
    and CSR arrays are read-only, so no caller can change what the next fit reads.
    """
    if not tensor.is_constant:
        return assemble_operator(grid, tensor)
    key = _operator_key(grid, tensor)
    op = _OPERATORS.get(key)
    if op is None:
        entries = tensor.entries.copy()
        _read_only(entries)
        op = assemble_operator(grid, dataclasses.replace(tensor, entries=entries))
        _read_only(op.eq_idx, op.interior_idx, op.clamp_idx, op.square_rows,
                   *(arr for mat in (op.free_matrix, op.clamp_matrix)
                     for arr in (mat.data, mat.indices, mat.indptr)))
        _OPERATORS[key] = op
        if len(_OPERATORS) > _OPERATORS_KEPT:
            _OPERATORS.popitem(last=False)
    else:
        _OPERATORS.move_to_end(key)
    return op


class SupremalMinimizer:
    """Minimize the sup of F(x, div(A Du)) over fields with clamped boundary data.

    Parameters
    ----------
    nodes : int or tuple of int
        Grid nodes per axis; the tuple length sets the dimension (1 or 2).
    lo, hi : float or tuple of float
        Box extents per axis.
    components : int
        Number of field components N.
    tensor : EllipticTensor, optional
        Coefficient field of the divergence-form operator; default
        identity_tensor(dim, components).  Build others with the tensor
        constructors (constant_tensor, block_diagonal_tensor, ...).
    supremand : Supremand, optional
        The cost F(x, xi); default WeightedPowerNorm(components), the
        squared Euclidean norm.  Build others with WeightedPowerNorm(...)
        or CustomSupremand.
    p_max : float
        Last exponent of the doubling schedule 2, 4, ..., p_max, in [1, inf).
    newton_tol, bracket_stop : float
        Residual target of the final stage and the relative bracket width
        that ends the run, both positive and finite (fit raises ValueError
        otherwise).  Zero energy needs no level: it is the data's roundoff floor.

    Attributes (after fit)
    ----------------------
    u_ : ndarray of shape (n_nodes, N), the minimizing field
    f_ : ndarray, dual field on the equation nodes
    e_inf_ : float, bracket-midpoint estimate of the minimal sup cost
    report_ : SolveReport with the per-exponent trace and verification residuals
    grid_, operator_ : the assembled discretization; for a constant tensor,
        operator_ is shared with every fit of the same grid and tensor entries,
        and its arrays are read-only
    """

    def __init__(
        self,
        nodes=101,
        lo=0.0,
        hi=1.0,
        components=1,
        tensor=None,
        supremand=None,
        p_max=P_MAX,
        newton_tol=NEWTON_TOL,
        bracket_stop=BRACKET_STOP,
    ):
        self.nodes = nodes
        self.lo = lo
        self.hi = hi
        self.components = components
        self.tensor = tensor
        self.supremand = supremand
        self.p_max = p_max
        self.newton_tol = newton_tol
        self.bracket_stop = bracket_stop

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def _build_grid(self):
        nodes = tuple(np.atleast_1d(self.nodes).astype(int))
        dim = len(nodes)
        lo = tuple(np.resize(np.atleast_1d(self.lo).astype(float), dim))
        hi = tuple(np.resize(np.atleast_1d(self.hi).astype(float), dim))
        return Grid(shape=nodes, lo=lo, hi=hi)

    def _build_tensor(self, dim):
        if self.tensor is None:
            return identity_tensor(dim, int(self.components))
        if not isinstance(self.tensor, EllipticTensor):
            raise ValueError(f"tensor must be an EllipticTensor, got {type(self.tensor).__name__}")
        return self.tensor

    def _build_supremand(self):
        if self.supremand is None:
            return WeightedPowerNorm(int(self.components))
        if not isinstance(self.supremand, Supremand):
            raise ValueError(f"supremand must be a Supremand, got {type(self.supremand).__name__}")
        return self.supremand

    def fit(self, X, y=None):
        """Solve the clamped sup-minimization with X as the boundary field.

        X is an array of shape (n_nodes, components) (or (n_nodes,) for the
        scalar case) sampled on the grid in C order, or a callable mapping
        coordinate arrays to such values.  Only the values on the two clamped
        layers per side enter the problem; the rest seed the warm start.
        """
        grid = self._build_grid()
        tensor = self._build_tensor(grid.dim)
        supremand = self._build_supremand()
        if callable(X):
            X = X(grid.coords())
        op = _stored_operator(grid, tensor)
        report = continuation_solve(op, supremand, X, p_max=self.p_max,
                                    newton_tol=self.newton_tol, bracket_stop=self.bracket_stop)
        self.grid_ = grid
        self.operator_ = op
        self.report_ = report
        self.u_ = report.rows[-1].u
        self.f_ = report.rows[-1].f
        self.e_inf_ = report.e_inf
        self.n_features_in_ = op.n_components
        return self

    def score(self, X=None, y=None):
        """Negated value estimate, so that larger is better (grid-search friendly)."""
        if not hasattr(self, "e_inf_"):
            raise AttributeError("call fit before score")
        return -self.e_inf_
