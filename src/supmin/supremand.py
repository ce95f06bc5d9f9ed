"""Pointwise costs F(x, xi), their calculus, and the gradient-ray map they induce.

The map sending xi to F(x, xi) * F_xi / |F_xi| pairs each cost level with the
direction of steepest increase; the optimality-system verifier evaluates it
(duality_map_field) on the stage field, and its inverse (duality_map_inverse)
recovers xi from a target vector.  Costs must vanish at
the origin, be strictly convex in xi, and obey two-sided quadratic growth
with a declared constant c:  F >= |xi|^2 / c  and  |F_xi| <= c |xi|.
"""

import numpy as np

from .errors import GrowthViolation, NoConvergence, SingularHessian

ZERO_RADIUS = 1e-14  # below this, the gradient-ray map is pinned to 0


class Supremand:
    """Base class: scalar cost F(x, xi) with gradient/Hessian access and growth constant c.

    A subclass implements the field methods eval_field, grad_field and
    hess_field and sets c and n_components.  The field methods take node
    coordinates points of shape (M, n), or None for costs without spatial
    dependence, and values xi of shape (M, N); they return F of shape (M,),
    F_xi of shape (M, N) and F_xixi of shape (M, N, N).  The pointwise eval,
    grad and hess at one node x are their first rows.
    """

    c = None
    n_components = None

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
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
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
    to keep F(x, 0) = 0.  alpha may be a constant or a callable on point
    arrays; callables need explicit (alpha_min, alpha_max) bounds for the
    growth constant.

    The squared Euclidean norm (q = 2, eps = 0) is evaluated in closed form:
    F = alpha * sum xi_k^2, F_xi = alpha * 2 xi, F_xixi = alpha * 2 I.  These
    are exactly the values the general formulas give at q = 2 (s^1 = s,
    S^0 = 1, a zero rank-one term), without their powers and masks.
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
        q = self.q
        s = values**2 + self.eps**2
        s_pow = s ** (q / 2.0)
        big_s = s_pow.sum(axis=1)
        offset = (self.n_components * self.eps**q) ** (2.0 / q) if self.eps > 0 else 0.0
        return s, big_s, offset

    def eval_field(self, points, values):
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self._quadratic:
            return self._weighted(points, (values**2).sum(axis=1))
        return self._eval_general(points, values)

    def grad_field(self, points, values):
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self._quadratic:
            return self._weighted(points, 2.0 * values)
        return self._grad_general(points, values)

    def hess_field(self, points, values):
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self._quadratic:
            m, n = values.shape
            hess = np.zeros((m, n * n))
            hess[:, :: n + 1] = 2.0   # the diagonal of each flattened (n, n) block
            return self._weighted(points, hess.reshape(m, n, n))
        return self._hess_general(points, values)

    def _eval_general(self, points, values):
        _, big_s, offset = self._core(values)
        base = big_s ** (2.0 / self.q) - offset
        return self._weighted(points, base)

    def _grad_general(self, points, values):
        q = self.q
        s, big_s, _ = self._core(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = big_s ** (2.0 / q - 1.0)
        outer = np.where(big_s > 0.0, outer, 0.0 if q != 2.0 else 1.0)
        t = s ** (q / 2.0 - 1.0)
        g = 2.0 * outer[:, None] * t * values
        return self._weighted(points, g)

    def _hess_general(self, points, values):
        n = values.shape[1]
        q = self.q
        s, big_s, _ = self._core(values)
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
    """F(x, xi) * F_xi / |F_xi| over nodal fields, extended by 0 at the origin; shape (M, N).

    Each image row has magnitude F(x, xi) and points along the cost gradient.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    f = supremand.eval_field(points, values)
    g = supremand.grad_field(points, values)
    ng = np.linalg.norm(g, axis=1)
    small = (np.linalg.norm(values, axis=1) < ZERO_RADIUS) | (ng == 0.0)
    safe = np.where(small, 1.0, ng)
    out = (f / safe)[:, None] * g
    out[small] = 0.0
    return out


def duality_map(supremand, x, xi):
    """The gradient-ray map at one node: the one row of duality_map_field."""
    return duality_map_field(supremand, _point_array(x), xi)[0]


def duality_map_jacobian(supremand, x, xi):
    """Derivative matrix of the gradient-ray map at xi != 0."""
    xi = np.asarray(xi, dtype=np.float64)
    f = supremand.eval(x, xi)
    g = supremand.grad(x, xi)
    h = supremand.hess(x, xi)
    ng = np.linalg.norm(g)
    if ng == 0.0:
        raise SingularHessian("gradient vanishes away from the origin")
    ghat = g / ng
    proj = np.eye(xi.size) - np.outer(ghat, ghat)
    return (np.outer(g, g) + f * h @ proj) / ng


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


def _newton_invert(supremand, x, eta, xi0, tol, max_iter=60):
    """Damped Newton for duality_map(xi) = eta; returns (xi, converged).

    The target is relative to |eta| (tighter than the advertised
    tol * max(1, |eta|)), so that round trips stay accurate for small inputs.
    """
    xi = np.array(xi0, dtype=np.float64)
    target = tol * np.linalg.norm(eta)
    res = duality_map(supremand, x, xi) - eta
    res2 = res @ res
    for _ in range(max_iter):
        if np.sqrt(res2) <= target:
            return xi, True
        try:
            jac = duality_map_jacobian(supremand, x, xi)
            step = np.linalg.solve(jac, -res)
        except (np.linalg.LinAlgError, SingularHessian):
            return xi, False
        t = 1.0
        improved = False
        for _ in range(60):
            trial = xi + t * step
            r_try = duality_map(supremand, x, trial) - eta
            r2_try = r_try @ r_try
            if r2_try < res2:
                xi, res, res2 = trial, r_try, r2_try
                improved = True
                break
            t *= 0.5
        if not improved:
            return xi, False
    return xi, np.sqrt(res2) <= target


def _ray_start(supremand, x, eta):
    """Initial guess on the ray eta/|eta|: bisect the radius to the target level."""
    n_eta = np.linalg.norm(eta)
    d = eta / n_eta
    hi = np.sqrt(supremand.c * n_eta) * (1.0 + 1e-12)
    for _ in range(200):
        if supremand.eval(x, hi * d) >= n_eta:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if supremand.eval(x, mid * d) < n_eta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * d


def duality_map_inverse(supremand, x, eta, tol=1e-10, max_iter=60):
    """Invert the gradient-ray map: xi with |duality_map(xi) - eta| <= tol * max(1, |eta|).

    Damped Newton from a radius-matched point on the ray of eta; if Newton
    stalls, a homotopy in |eta| walks the target up from smaller magnitudes.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if np.linalg.norm(eta) == 0.0:
        return np.zeros_like(eta)
    xi0 = _ray_start(supremand, x, eta)
    xi, ok = _newton_invert(supremand, x, eta, xi0, tol, max_iter)
    if ok:
        return xi
    # homotopy fallback: increase the target magnitude stepwise
    tau, step = 0.0, 0.25
    xi = _ray_start(supremand, x, 0.01 * eta)
    while tau < 1.0:
        tau_next = min(1.0, tau + step)
        trial, ok = _newton_invert(supremand, x, tau_next * eta, xi, tol, max_iter)
        if ok:
            xi, tau = trial, tau_next
            step = min(2.0 * step, 1.0 - tau if tau < 1.0 else step)
        else:
            step *= 0.5
            if step < 1e-6:
                raise NoConvergence(
                    "gradient-ray inversion stalled; cost may violate strict convexity"
                )
    return xi


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
