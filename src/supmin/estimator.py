"""Estimator-style facade over the continuation solver.

SupremalMinimizer follows the scikit-learn parameter protocol (constructor
args stored verbatim, get_params / set_params, fit returning self) so the
solver drops into pipelines, grid searches, and clone() without depending on
scikit-learn itself.  The sample passed to fit is the boundary field: its
values on the two clamped node layers pin the problem, and the fitted
attributes expose the limiting field, its dual field, and the value bracket.
"""

import inspect

import numpy as np

from .continuation import BRACKET_STOP, NEWTON_TOL, P_MAX, continuation_solve
from .grid import Grid
from .operators import assemble_operator
from .supremand import Supremand, WeightedPowerNorm
from .tensors import EllipticTensor, identity_tensor


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
    grid_, operator_ : the assembled discretization
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
        op = assemble_operator(grid, tensor)
        report = continuation_solve(op, supremand, X, p_max=self.p_max,
                                    newton_tol=self.newton_tol, bracket_stop=self.bracket_stop)
        self.grid_ = grid
        self.operator_ = op
        self.report_ = report
        self.u_ = report.u
        self.f_ = report.f
        self.e_inf_ = report.e_inf
        self.n_features_in_ = op.n_components
        return self

    def score(self, X=None, y=None):
        """Negated value estimate, so that larger is better (grid-search friendly)."""
        if not hasattr(self, "e_inf_"):
            raise AttributeError("call fit before score")
        return -self.e_inf_
