"""Sup-norm minimization of elliptic divergence-form costs on clamped box grids.

The package solves min over u of ess-sup F(x, div(A Du)) subject to two-layer
clamped boundary data, by marching power-mean relaxations to large exponents,
and numerically certifies the limiting optimality system linking the
minimizer to a divergence-free dual field.
"""

from .bangbang import BangBang, ClampedBC1D, sample_solution, solve_bang_bang
from .continuation import (
    SolveReport,
    StageResult,
    continuation_solve,
    dual_field,
    geometric_schedule,
    minimize_power_energy,
    penalized_solve,
)
from .errors import (
    AsymmetricTensor,
    ConfigError,
    DegenerateEnergy,
    DegenerateField,
    DimensionMismatch,
    GrowthViolation,
    LinearSolveFailure,
    LineSearchStall,
    NoConvergence,
    SingularHessian,
    StencilOutOfDomain,
    SupminError,
    VerificationFailure,
)
from .estimator import SupremalMinimizer
from .grid import Grid
from .operators import (
    DiscreteOperator,
    apply_operator,
    assemble_operator,
    dirichlet_solve,
    harmonic_zero_set_fraction,
    pcg,
)
from .supremand import (
    CustomSupremand,
    Supremand,
    WeightedPowerNorm,
    check_growth,
    convexity_gap,
    duality_map,
    duality_map_field,
    duality_map_inverse,
    duality_map_jacobian_det,
)
from .tensors import (
    EllipticTensor,
    block_diagonal_tensor,
    check_legendre,
    check_legendre_hadamard,
    constant_tensor,
    det_coupled_tensor,
    identity_tensor,
)
from .verify import (
    VerifyReport,
    absolute_min_check,
    coefficient_of_variation,
    rescaling_invariance_check,
    uniqueness_check,
    verify_system,
)

__version__ = "0.1.0"
