"""Pointwise costs F(x, xi), their calculus, and the gradient-ray map they induce.

The map sending xi to F(x, xi) * F_xi / |F_xi| pairs each cost level with the
direction of steepest increase; the optimality-system verifier evaluates it
(duality_map_field) on the stage field; its inverse (duality_map_inverse) finds
the support point of a sublevel set of F by convex minimization and stops on the
round-trip residual.  Costs must vanish at the origin, be strictly convex in xi,
and obey two-sided quadratic growth with a declared constant c:
F >= |xi|^2 / c  and  |F_xi| <= c |xi|.
"""

import math

import numpy as np

from .errors import GrowthViolation, NoConvergence, SingularHessian

OBJ_ROUNDOFF = 64.0 * np.finfo(np.float64).eps  # of F - target . xi, relative to its terms


class _FrozenAfterInit(type):
    """Metaclass that marks each instance frozen once its __init__ has returned."""

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        object.__setattr__(obj, "_frozen", True)
        return obj


class Supremand(metaclass=_FrozenAfterInit):
    """Base class: scalar cost F(x, xi) with gradient/Hessian access and growth constant c.

    A subclass implements the field methods eval_field, grad_field and
    hess_field and sets c and n_components.  The field methods take node
    coordinates points of shape (M, n), or None for costs without spatial
    dependence, and values xi of shape (M, N); they return F of shape (M,),
    F_xi of shape (M, N) and F_xixi of shape (M, N, N).  The pointwise eval,
    grad and hess at one node x are their first rows.  A cost is fixed once
    constructed: setting or deleting an attribute after __init__ raises
    AttributeError, so what a solve reads cannot change under it.
    """

    c = None
    n_components = None
    _frozen = False

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is fixed at construction; "
                                 f"build a new cost instead of setting {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is fixed at construction; "
                                 f"cannot delete {name!r}")
        object.__delattr__(self, name)

    def eval(self, x, xi):
        return float(self.eval_field(_point_array(x), np.atleast_2d(xi))[0])

    def grad(self, x, xi):
        return self.grad_field(_point_array(x), np.atleast_2d(xi))[0]

    def hess(self, x, xi):
        return self.hess_field(_point_array(x), np.atleast_2d(xi))[0]

    def scaled(self, factor):
        """The cost factor * F with a growth constant valid for the rescaling."""
        return _ScaledSupremand(self, float(factor))


def _point_array(x):
    return None if x is None else np.atleast_2d(np.asarray(x, dtype=np.float64))


def _value_rows(values):
    values = np.asarray(values, dtype=np.float64)
    return values if values.ndim >= 2 else np.atleast_2d(values)


class CustomSupremand(Supremand):
    """Wrap user-supplied pointwise callables (eval, grad, hess) with a declared c.

    Each callable takes one node x (None without point coordinates) and one
    xi; the field methods loop over the nodes.
    """

    def __init__(self, eval_fn, grad_fn, hess_fn, c, n_components):
        self._eval = eval_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self.c = float(c)
        self.n_components = int(n_components)

    def _each(self, fn, points, values):
        values = _value_rows(values)
        return np.array([fn(None if points is None else points[k], values[k])
                         for k in range(len(values))], dtype=np.float64)

    def eval_field(self, points, values):
        return self._each(self._eval, points, values)

    def grad_field(self, points, values):
        return self._each(self._grad, points, values)

    def hess_field(self, points, values):
        return self._each(self._hess, points, values)


class _ScaledSupremand(Supremand):
    """factor * base; the growth constant widens by max(factor, 1 / factor)."""

    def __init__(self, base, factor):
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        self.base = base
        self.factor = factor
        self.c = base.c * max(factor, 1.0 / factor)
        self.n_components = base.n_components

    def eval_field(self, points, values):
        return self.factor * self.base.eval_field(points, values)

    def grad_field(self, points, values):
        return self.factor * self.base.grad_field(points, values)

    def hess_field(self, points, values):
        return self.factor * self.base.hess_field(points, values)


class WeightedPowerNorm(Supremand):
    """alpha(x) * ||xi||^2 in the l^q norm, 1 < q < infinity.

    For q < 2 the squared norm is not twice differentiable on the coordinate
    hyperplanes, so a smoothing eps > 0 is required there; entries xi_k are
    replaced by sqrt(xi_k^2 + eps^2) and the value at the origin is subtracted
    to keep F(x, 0) = 0, through log1p/expm1 so that the difference does not
    cancel at |xi| << eps.  alpha may be a constant or a callable on point
    arrays; callables need explicit (alpha_min, alpha_max) bounds for the
    growth constant.

    The squared Euclidean norm (q = 2, eps = 0) is evaluated in closed form:
    F = alpha * sum xi_k^2, F_xi = alpha * 2 xi, F_xixi = alpha * 2 I.  These
    are exactly the values the general formulas give at q = 2 (s^1 = s,
    S^0 = 1, a zero rank-one term), without their powers and masks; with a
    constant alpha the Hessian field is kept, read-only, per shape (the one
    slot of a cost that changes after construction).

    With eps = 0 the cost is 2-homogeneous (F, F_xi, F_xixi of degrees 2, 1,
    0), so a row of xi whose scale max|xi_k| would take the general formulas'
    powers, up to |xi|^(2q - 2), out of floating-point range is evaluated at
    xi / max|xi_k| and scaled back.
    """

    def __init__(self, n_components, q=2.0, alpha=1.0, eps=0.0, alpha_bounds=None):
        q = float(q)
        if not 1.0 < q < np.inf:
            raise ValueError(f"exponent q must be finite and exceed 1, got {q}")
        if q < 2.0 and not eps > 0.0:
            raise ValueError("q < 2 requires a smoothing eps > 0")
        self.q = q
        self.eps = float(eps)
        self._quadratic = q == 2.0 and self.eps == 0.0
        self._hess_cache = (None, None)   # (shape, q = 2 Hessian field of a constant alpha)
        bound = 2.0 ** (1000.0 / (2.0 * q - 2.0)) if self.eps == 0.0 else np.inf
        self._unit_range = (1.0 / bound, bound)
        self.alpha = alpha
        self.n_components = int(n_components)
        if callable(alpha):
            if alpha_bounds is None:
                raise ValueError("alpha_bounds required when alpha is a callable")
            a_min, a_max = float(alpha_bounds[0]), float(alpha_bounds[1])
        else:
            a_min = a_max = float(alpha)
        if not a_min > 0.0:
            raise ValueError("alpha must be bounded below by a positive constant")
        self.alpha_bounds = (a_min, a_max)
        n = float(self.n_components)
        c_lower = n ** max(0.0, 1.0 - 2.0 / q) / a_min
        c_upper = 2.0 * a_max * n ** max(0.0, (2.0 - q) / q)
        self.c = max(c_lower, c_upper)

    def _weighted(self, points, field):
        """alpha(x) * field, with the nodes along the first axis of field.

        A constant alpha multiplies as a Python float; a callable one is
        evaluated at the points.
        """
        if not callable(self.alpha):
            return float(self.alpha) * field
        if points is None:
            raise ValueError("spatial alpha needs point coordinates")
        alpha = np.asarray(self.alpha(np.atleast_2d(points)), dtype=np.float64)
        return alpha.reshape(field.shape[:1] + (1,) * (field.ndim - 1)) * field

    def _core(self, values):
        s = values**2 + self.eps**2
        return s, (s ** (self.q / 2.0)).sum(axis=1)

    def eval_field(self, points, values):
        values = _value_rows(values)
        if self._quadratic:
            return self._weighted(points, (values**2).sum(axis=1))
        return self._homogeneous(self._eval_general, 2, points, values)

    def grad_field(self, points, values):
        values = _value_rows(values)
        if self._quadratic:
            return self._weighted(points, 2.0 * values)
        return self._homogeneous(self._grad_general, 1, points, values)

    def hess_field(self, points, values):
        values = _value_rows(values)
        if not self._quadratic:
            return self._homogeneous(self._hess_general, 0, points, values)
        kept = not callable(self.alpha)
        if not kept or values.shape != self._hess_cache[0]:
            m, n = values.shape
            hess = np.zeros((m, n * n))
            hess[:, :: n + 1] = 2.0   # the diagonal of each flattened (n, n) block
            hess = self._weighted(points, hess.reshape(m, n, n))
            if not kept:
                return hess
            hess.flags.writeable = False
            object.__setattr__(self, "_hess_cache", (values.shape, hess))
        return self._hess_cache[1]

    def _homogeneous(self, general, degree, points, values):
        """general(points, values) of homogeneity degree, out-of-range rows at unit scale."""
        mags = np.abs(values)
        lo, hi = self._unit_range
        if lo <= mags.min(initial=np.inf) and mags.max(initial=0.0) <= hi:   # the common case
            return general(points, values)
        scale = mags.max(axis=1)
        far = ((scale < lo) & (scale > 0.0)) | (scale > hi)
        if not far.any():
            return general(points, values)
        values = values.copy()
        values[far] /= scale[far, None]
        out = general(points, values)
        out[far] *= (scale[far] ** degree).reshape((-1,) + (1,) * (out.ndim - 1))
        return out

    def _eval_general(self, points, values):
        q = self.q
        if self.eps > 0.0:
            # S^(2/q) - S(0)^(2/q) = S(0)^(2/q) expm1((2/q) log1p(S/S(0) - 1)), where
            # S/S(0) - 1 = mean_k expm1((q/2) log1p(xi_k^2/eps^2)): no cancellation
            rel = np.expm1((q / 2.0) * np.log1p((values / self.eps) ** 2)).mean(axis=1)
            base = self.n_components ** (2.0 / q) * self.eps**2 * np.expm1((2.0 / q) * np.log1p(rel))
        else:
            base = self._core(values)[1] ** (2.0 / q)
        return self._weighted(points, base)

    def _grad_general(self, points, values):
        q = self.q
        s, big_s = self._core(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = big_s ** (2.0 / q - 1.0)
        outer = np.where(big_s > 0.0, outer, 0.0 if q != 2.0 else 1.0)
        t = s ** (q / 2.0 - 1.0)
        g = 2.0 * outer[:, None] * t * values
        return self._weighted(points, g)

    def _hess_general(self, points, values):
        n = values.shape[1]
        q = self.q
        s, big_s = self._core(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            p1 = big_s ** (2.0 / q - 2.0)
            p2 = big_s ** (2.0 / q - 1.0)
        ok = big_s > 0.0
        p1 = np.where(ok, p1, 0.0)
        p2 = np.where(ok, p2, 0.0 if q != 2.0 else 1.0)
        t = s ** (q / 2.0 - 1.0)
        v = t * values
        rank_one = 2.0 * (2.0 - q) * p1[:, None, None] * v[:, :, None] * v[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(s > 0.0, values**2 / s, 0.0)
        diag = 2.0 * p2[:, None] * t * (1.0 + (q - 2.0) * ratio)
        hess = rank_one
        hess[:, np.arange(n), np.arange(n)] += diag
        return self._weighted(points, hess)


def convexity_gap(supremand, x, xi):
    """F_xi(x, xi) . xi - F(x, xi); nonnegative for convex costs with F(x, 0) = 0."""
    xi = np.asarray(xi, dtype=np.float64)
    return float(supremand.grad(x, xi) @ xi - supremand.eval(x, xi))


def duality_map_field(supremand, points, values):
    """F(x, xi) * F_xi / |F_xi| over nodal fields, extended by 0 where F_xi = 0; shape (M, N).

    Each image row has magnitude F(x, xi) and points along the cost gradient.
    F_xi vanishes at the origin (and where it underflows), nowhere else.
    """
    values = _value_rows(values)
    f = supremand.eval_field(points, values)
    g = supremand.grad_field(points, values)
    ng = np.linalg.norm(g, axis=1)
    zero = ng == 0.0
    out = (f / np.where(zero, 1.0, ng))[:, None] * g
    out[zero] = 0.0
    return out


def duality_map(supremand, x, xi):
    """The gradient-ray map at one node: the one row of duality_map_field."""
    return duality_map_field(supremand, _point_array(x), xi)[0]


def duality_map_jacobian_det(supremand, x, xi):
    """Jacobian determinant of the gradient-ray map via the rank-one update identity.

    det = F^(N-1) / |F_xi|^N * det(F_xixi) * (F_xixi^-1 F_xi . F_xi); positive
    away from the origin for strictly convex costs.
    """
    xi = np.asarray(xi, dtype=np.float64)
    n = xi.size
    f = supremand.eval(x, xi)
    g = supremand.grad(x, xi)
    h = supremand.hess(x, xi)
    det_h = np.linalg.det(h)
    if not np.isfinite(det_h) or det_h <= 0.0:
        raise SingularHessian(f"cost Hessian determinant {det_h:.3e} is not positive")
    try:
        y = np.linalg.solve(h, g)
    except np.linalg.LinAlgError as exc:
        raise SingularHessian("cost Hessian is numerically singular") from exc
    ng = np.linalg.norm(g)
    if ng == 0.0:
        raise SingularHessian("gradient vanishes away from the origin")
    return float(f ** (n - 1) / ng**n * det_h * (y @ g))


def _support_point(supremand, points, target, xi, tol, max_iter):
    """Damped Newton from xi for the minimiser of the convex F(x, xi) - target . xi.

    Armijo backtracking until the predicted decrease is below the objective's
    roundoff; past it, a full step stays iff it lowers |F_xi - target|.  Ends at
    |F_xi - target| <= tol, at the floor (no step accepted) or after max_iter
    steps; returns (xi, F, F_xi) there.
    """

    def state(xi):
        gap = supremand.grad_field(points, xi[None])[0] - target
        return float(supremand.eval_field(points, xi[None])[0]), gap, math.hypot(*gap)

    f, gap, gap_norm = state(xi)
    for _ in range(max_iter):
        if gap_norm <= tol:
            break
        hess = supremand.hess_field(points, xi[None])[0]
        try:
            step = np.linalg.solve(hess, -gap)
        except np.linalg.LinAlgError:   # rank lost on a coordinate hyperplane
            step = np.linalg.lstsq(hess, -gap, rcond=None)[0]
        slope = gap @ step
        obj = f - target @ xi
        # F <= 0 away from the origin is all roundoff (a smoothed cost near 0)
        at_roundoff = f <= 0.0 or 1e-4 * -slope <= OBJ_ROUNDOFF * (abs(f) + abs(target @ xi))
        for halvings in range(60):
            t = 0.5**halvings
            trial = xi + t * step
            f_try, gap_try, norm_try = state(trial)
            if (norm_try < gap_norm if at_roundoff and halvings == 0
                    else f_try - target @ trial <= obj + 1e-4 * t * slope):
                break
        else:
            break
        xi, f, gap, gap_norm = trial, f_try, gap_try, norm_try
    return xi, f, gap + target


def duality_map_inverse(supremand, x, eta, tol=1e-10, max_iter=60):
    """Invert the gradient-ray map: xi with |duality_map(xi) - eta| <= tol * max(1, |eta|).

    xi is the support point of {F <= |eta|} in the direction e = eta / |eta|:
    the minimiser xi(s) of the convex F - s e . xi has F_xi = s e, and F(xi(s))
    grows with s.  Each iteration solves for xi(s) from the previous xi scaled
    by the change in s, then moves log s by half the gap log|eta| - log F(xi(s))
    (exact for 2-homogeneous F), or bisects its bracket, which starts at the
    growth bounds sqrt(|eta|/c) <= s <= c^1.5 sqrt(|eta|) widened by a factor e.
    It stops once the round trip (map unpinned at the origin) is within
    tol * |eta|; if roundoff bars that, the best iterate within the bound above
    is returned, else NoConvergence.  max_iter bounds each loop's iterations.
    """
    eta = np.asarray(eta, dtype=np.float64)
    level = math.hypot(*eta)   # |eta|, free of overflow
    if not math.isfinite(level):
        raise ValueError("eta must be finite")
    if level == 0.0:
        return np.zeros_like(eta)
    e, points = eta / level, _point_array(x)
    log_level, log_c = np.log(level), np.log(supremand.c)
    lo, hi = 0.5 * (log_level - log_c) - 1.0, 0.5 * log_level + 1.5 * log_c + 1.0
    log_s, xi = 0.5 * (lo + hi), np.sqrt(level) * e
    best, best_res = None, np.inf
    for _ in range(max_iter):
        s = np.exp(log_s)
        xi, f, g = _support_point(supremand, points, s * e, xi, 1e-3 * tol * s, max_iter)
        res = math.hypot(*(f * (g / max(math.hypot(*g), np.finfo(float).tiny)) - eta)) / level
        if res < best_res:
            best, best_res = xi, res
        if res <= tol:
            return xi
        lo, hi = (log_s, hi) if f < level else (lo, log_s)
        new = log_s + 0.5 * (log_level - np.log(f)) if f > 0.0 else np.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:   # the bracket has closed
                break
        xi, log_s = xi * np.exp(new - log_s), new
    if best_res <= tol * max(1.0, 1.0 / level):
        return best
    raise NoConvergence(f"gradient-ray inversion stalled at relative round trip {best_res:.3e}; "
                        "cost may violate strict convexity or its growth constant")


def check_growth(supremand, sample_count, radius, points=None, seed=0):
    """Sampled witnesses of the two growth bounds.

    Returns (max |xi|^2 / F, max |F_xi| / |xi|) over random xi with magnitudes
    log-spread up to radius; raises GrowthViolation when a witness exceeds the
    declared constant c.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not radius > 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    n = supremand.n_components
    pts = [None] if points is None else list(points)
    lower_witness = 0.0
    upper_witness = 0.0
    offenders = []
    for k in range(sample_count):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        r = radius * np.exp(rng.uniform(np.log(1e-3), 0.0))
        xi = r * d
        x = pts[k % len(pts)]
        f = supremand.eval(x, xi)
        g = supremand.grad(x, xi)
        w1 = (r * r / f) if f > 0 else np.inf
        w2 = np.linalg.norm(g) / r
        lower_witness = max(lower_witness, w1)
        upper_witness = max(upper_witness, w2)
        if w1 > supremand.c * (1.0 + 1e-9) or w2 > supremand.c * (1.0 + 1e-9):
            offenders.append((x, xi, w1, w2))
    if offenders:
        raise GrowthViolation(
            f"{len(offenders)} samples exceed declared c={supremand.c:.6g}; "
            f"worst witnesses ({lower_witness:.6g}, {upper_witness:.6g})",
            offenders=offenders,
        )
    return lower_witness, upper_witness
