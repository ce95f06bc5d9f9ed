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

from .continuation import continuation_solve
from .errors import DimensionMismatch
from .grid import Grid
from .operators import assemble_operator
from .supremand import Supremand, WeightedPowerNorm
from .tensors import EllipticTensor, identity_tensor


def check_field(u, n_nodes, n_components, name="field"):
    """Validate a finite nodal field and return it with shape (n_nodes, n_components)."""
    out = np.ascontiguousarray(u, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.shape != (n_nodes, n_components):
        raise DimensionMismatch(
            f"{name} has shape {np.shape(u)}, expected ({n_nodes}, {n_components})"
        )
    return out


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
    tensor : "identity", EllipticTensor, or (n, n, N, N) array
        Coefficient field of the divergence-form operator.
    q : float
        Exponent of the power-norm cost, q > 1.
    alpha : float
        Constant positive weight of the cost.
    smoothing : float
        Smoothing radius for q < 2 (must be positive there).
    supremand : Supremand, optional
        Full custom cost; overrides q / alpha / smoothing.
    p_schedule : sequence of float, optional
        Explicit exponent schedule; default geometric up to p_max.
    p_max : float
        Cap of the geometric schedule.
    newton_tol, bracket_stop, theta : float
        Stage tolerance, bracket stopping fraction, and verifier active-set
        threshold.  Zero energy needs no level: it is the data's roundoff floor.

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
        tensor="identity",
        q=2.0,
        alpha=1.0,
        smoothing=0.0,
        supremand=None,
        p_schedule=None,
        p_max=4096.0,
        newton_tol=1e-9,
        bracket_stop=0.01,
        theta=0.1,
    ):
        self.nodes = nodes
        self.lo = lo
        self.hi = hi
        self.components = components
        self.tensor = tensor
        self.q = q
        self.alpha = alpha
        self.smoothing = smoothing
        self.supremand = supremand
        self.p_schedule = p_schedule
        self.p_max = p_max
        self.newton_tol = newton_tol
        self.bracket_stop = bracket_stop
        self.theta = theta

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
        if isinstance(self.tensor, EllipticTensor):
            return self.tensor
        if isinstance(self.tensor, str):
            if self.tensor != "identity":
                raise ValueError(f"unknown tensor spec {self.tensor!r}")
            return identity_tensor(dim, int(self.components))
        entries = np.asarray(self.tensor, dtype=np.float64)
        return EllipticTensor(entries)

    def _build_supremand(self):
        if self.supremand is not None:
            if not isinstance(self.supremand, Supremand):
                raise ValueError("supremand must be a Supremand instance")
            return self.supremand
        return WeightedPowerNorm(
            int(self.components), q=float(self.q), alpha=float(self.alpha),
            eps=float(self.smoothing),
        )

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
        clamp = check_field(X, grid.n_nodes, int(self.components), name="boundary field")
        op = assemble_operator(grid, tensor)
        report = continuation_solve(
            op,
            supremand,
            clamp,
            schedule=self.p_schedule,
            p_max=float(self.p_max),
            newton_tol=float(self.newton_tol),
            bracket_stop=float(self.bracket_stop),
            theta=float(self.theta),
        )
        self.grid_ = grid
        self.operator_ = op
        self.report_ = report
        self.u_ = report.u
        self.f_ = report.f
        self.e_inf_ = report.e_inf
        self.n_features_in_ = clamp.shape[1]
        return self

    def score(self, X=None, y=None):
        """Negated value estimate, so that larger is better (grid-search friendly)."""
        if not hasattr(self, "e_inf_"):
            raise AttributeError("call fit before score")
        return -self.e_inf_
