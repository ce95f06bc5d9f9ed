"""Run configuration: flat key/value files with dotted section keys.

A config is plain text, one ``key = value`` per line, ``#`` comments allowed.
Recognized keys (defaults in parentheses):

    domain.dim (1)            1 or 2
    domain.lo / domain.hi     comma-separated extents per axis (0 / 1)
    domain.nodes (101)        comma-separated nodes per axis
    field.components (1)      number of vector components N
    tensor.kind (identity)    identity | constant | block_diagonal | det_coupled
    tensor.entries            row-major (n, n, N, N) floats, kind=constant
    tensor.blocks             per-component n*n matrices, ';'-separated, kind=block_diagonal
    tensor.gamma              determinant coupling strength, kind=det_coupled
    tensor.lambda             declared ellipticity constant (optional)
    supremand.q (2)           power-norm exponent, must exceed 1
    supremand.alpha (1)       constant, or affine:c0,c1[,c2] for c0 + c . x
    supremand.eps (0)         smoothing radius, required positive when q < 2
    bc.kind (affine)          affine | quadratic | symmetric_velocity | sinusoidal | file
    bc.amplitude (1,...)      per-component amplitudes, every kind but file
    bc.coeffs (0.1,0.3[,0.3]) affine profile coefficients c0, c1[, c2], kind=affine
    bc.frequency (1,2,...)    per-component wave numbers, kind=sinusoidal
    bc.file                   whitespace table of nodal values, kind=file
    schedule.p_max (4096)     doubling exponent schedule 2, 4, ..., p_max
    tol.newton (1e-9)         adjoint-residual tolerance of the stage that ends the run
    tol.bracket_stop (0.01)   stop when bracket width < this fraction of its midpoint
    check.r_system (0.05)     verification bound: r_system <= this * e_inf
    check.r_harmonic (1e-6)   verification bound on the adjoint residual

A key marked with a kind is read only under that setting;
elsewhere it would change nothing, so it is a config error naming the key
and the setting that reads it.  Every number must be finite; a nan or inf
value is a config error.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .continuation import BRACKET_STOP, NEWTON_TOL, P_MAX
from .errors import AsymmetricTensor, ConfigError
from .grid import Grid
from .supremand import WeightedPowerNorm
from .tensors import (
    block_diagonal_tensor,
    constant_tensor,
    det_coupled_tensor,
    identity_tensor,
)

_BC_KINDS = ("affine", "quadratic", "symmetric_velocity", "sinusoidal", "file")
_TENSOR_KINDS = ("identity", "constant", "block_diagonal", "det_coupled")
# keys read only under one setting, and that setting
_GATED_KEYS = {
    "tensor.entries": "with tensor.kind = constant",
    "tensor.blocks": "with tensor.kind = block_diagonal",
    "tensor.gamma": "with tensor.kind = det_coupled",
    "bc.amplitude": "with a bc.kind other than file",
    "bc.coeffs": "with bc.kind = affine",
    "bc.frequency": "with bc.kind = sinusoidal",
    "bc.file": "with bc.kind = file",
}


@dataclass
class RunConfig:
    dim: int = 1
    lo: tuple = (0.0,)
    hi: tuple = (1.0,)
    nodes: tuple = (101,)
    components: int = 1
    tensor_kind: str = "identity"
    tensor_entries: tuple = ()
    tensor_blocks: tuple = ()
    tensor_gamma: float = 0.0
    tensor_lam: float = None
    q: float = 2.0
    alpha: str = "1"
    eps: float = 0.0
    bc_kind: str = "affine"
    bc_amplitude: tuple = None
    bc_coeffs: tuple = None
    bc_frequency: tuple = None
    bc_file: str = None
    p_max: float = P_MAX
    newton_tol: float = NEWTON_TOL
    bracket_stop: float = BRACKET_STOP
    r_system_frac: float = 0.05
    r_harmonic_max: float = 1e-6
    items: dict = field(default_factory=dict)  # canonical parsed key/value text


def _parse_numbers(value, key, errors, cast=float):
    try:
        vals = tuple(cast(v) for v in str(value).split(","))
    except ValueError:
        vals = ()
    if vals and (cast is int or np.all(np.isfinite(vals))):
        return vals
    kind = "integers" if cast is int else "finite numbers"
    errors.append(f"{key}: expected comma-separated {kind}, got {value!r}")
    return ()


def parse_config(text):
    """Parse and validate config text; raises ConfigError naming every bad key."""
    items = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            errors.append(f"line {lineno}: empty key or value in {raw!r}")
            continue
        if key in items:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        items[key] = value
    cfg = RunConfig(items=dict(items))
    known = set()

    def take(key, default=None):
        known.add(key)
        return items.get(key, default)

    def number(key, default, cast=float):
        """One number under key, or default when the key is absent or invalid."""
        raw = take(key)
        if raw is None:
            return default
        vals = _parse_numbers(raw, key, errors, cast)
        if len(vals) == 1:
            return vals[0]
        if vals:
            errors.append(f"{key}: expected one number, got {raw!r}")
        return default

    def per_component(key, default):
        """One number per field component under key; a single one is repeated."""
        vals = _parse_numbers(take(key, default), key, errors)
        if vals and len(vals) not in (1, cfg.components):
            errors.append(f"{key}: expected 1 or {cfg.components} entries")
        return tuple(np.resize(vals or (1.0,), cfg.components))

    # domain
    cfg.dim = number("domain.dim", 1, int)
    if cfg.dim not in (1, 2):
        errors.append(f"domain.dim: must be 1 or 2, got {cfg.dim}")
        cfg.dim = 1
    cfg.lo = _parse_numbers(take("domain.lo", "0"), "domain.lo", errors)
    cfg.hi = _parse_numbers(take("domain.hi", "1"), "domain.hi", errors)
    cfg.nodes = _parse_numbers(take("domain.nodes", "101"), "domain.nodes", errors, int)
    for key, val in (("domain.lo", cfg.lo), ("domain.hi", cfg.hi), ("domain.nodes", cfg.nodes)):
        if val and len(val) not in (1, cfg.dim):
            errors.append(f"{key}: expected 1 or {cfg.dim} entries, got {len(val)}")
    cfg.lo = tuple(np.resize(cfg.lo or (0.0,), cfg.dim))
    cfg.hi = tuple(np.resize(cfg.hi or (1.0,), cfg.dim))
    cfg.nodes = tuple(int(v) for v in np.resize(cfg.nodes or (101,), cfg.dim))
    if any(m < 5 for m in cfg.nodes):
        errors.append(f"domain.nodes: need at least 5 nodes per axis, got {cfg.nodes}")
    if any(b <= a for a, b in zip(cfg.lo, cfg.hi)):
        errors.append(f"domain.lo, domain.hi: empty extent, lo={cfg.lo} hi={cfg.hi}")

    cfg.components = number("field.components", 1, int)
    if cfg.components < 1:
        errors.append(f"field.components: must be >= 1, got {cfg.components}")

    # tensor
    cfg.tensor_kind = take("tensor.kind", "identity")
    if cfg.tensor_kind not in _TENSOR_KINDS:
        errors.append(f"tensor.kind: unknown kind {cfg.tensor_kind!r}, expected one of {_TENSOR_KINDS}")
    if cfg.tensor_kind == "constant":
        cfg.tensor_entries = _parse_numbers(take("tensor.entries", ""), "tensor.entries", errors)
        want = cfg.dim * cfg.dim * cfg.components * cfg.components
        if len(cfg.tensor_entries) != want:
            errors.append(f"tensor.entries: expected {want} numbers, got {len(cfg.tensor_entries)}")
    if cfg.tensor_kind == "block_diagonal":
        blocks = []
        raw = take("tensor.blocks", "")
        for k, chunk in enumerate(str(raw).split(";")):
            vals = _parse_numbers(chunk, f"tensor.blocks[{k}]", errors)
            if len(vals) != cfg.dim * cfg.dim:
                errors.append(f"tensor.blocks[{k}]: expected {cfg.dim * cfg.dim} numbers, got {len(vals)}")
            blocks.append(vals)
        if len(blocks) != cfg.components:
            errors.append(f"tensor.blocks: expected {cfg.components} blocks, got {len(blocks)}")
        cfg.tensor_blocks = tuple(tuple(b) for b in blocks)
    if cfg.tensor_kind == "det_coupled":
        if cfg.dim != 2 or cfg.components != 2:
            errors.append("tensor.kind=det_coupled requires domain.dim=2 and field.components=2")
        cfg.tensor_gamma = number("tensor.gamma", 1.0)
    cfg.tensor_lam = number("tensor.lambda", None)

    # supremand
    cfg.q = number("supremand.q", 2.0)
    if not cfg.q > 1.0:
        errors.append(f"supremand.q: must exceed 1, got {cfg.q}")
    cfg.alpha = str(take("supremand.alpha", "1"))
    if cfg.alpha.startswith("affine:"):
        coeffs = _parse_numbers(cfg.alpha[len("affine:"):], "supremand.alpha", errors)
        if len(coeffs) != cfg.dim + 1:
            errors.append(f"supremand.alpha: affine form needs {cfg.dim + 1} coefficients")
    elif not number("supremand.alpha", 1.0) > 0:
        errors.append(f"supremand.alpha: must be positive, got {cfg.alpha}")
    cfg.eps = number("supremand.eps", 0.0)
    if cfg.q < 2.0 and not cfg.eps > 0:
        errors.append("supremand.eps: must be positive when supremand.q < 2")

    # boundary data
    cfg.bc_kind = take("bc.kind", "affine")
    if cfg.bc_kind not in _BC_KINDS:
        errors.append(f"bc.kind: unknown kind {cfg.bc_kind!r}, expected one of {_BC_KINDS}")
    if cfg.bc_kind != "file":
        cfg.bc_amplitude = per_component("bc.amplitude", "1")
    if cfg.bc_kind == "affine":
        default_coeffs = ",".join(["0.1"] + ["0.3"] * cfg.dim)
        cfg.bc_coeffs = _parse_numbers(take("bc.coeffs", default_coeffs), "bc.coeffs", errors)
        if len(cfg.bc_coeffs) != cfg.dim + 1:
            errors.append(f"bc.coeffs: expected {cfg.dim + 1} coefficients")
    if cfg.bc_kind == "sinusoidal":
        cfg.bc_frequency = per_component("bc.frequency",
                                         ",".join(str(k + 1) for k in range(cfg.components)))
    if cfg.bc_kind == "file":
        cfg.bc_file = take("bc.file")
        if not cfg.bc_file:
            errors.append("bc.file: required when bc.kind=file")
    if cfg.bc_kind == "symmetric_velocity" and cfg.dim != 1:
        errors.append("bc.kind=symmetric_velocity is a 1D profile")

    cfg.p_max = number("schedule.p_max", cfg.p_max)
    if cfg.p_max < 1:
        errors.append(f"schedule.p_max: must be >= 1, got {cfg.p_max}")

    # tolerances and verification thresholds
    for attr, key in (
        ("newton_tol", "tol.newton"),
        ("bracket_stop", "tol.bracket_stop"),
        ("r_system_frac", "check.r_system"),
        ("r_harmonic_max", "check.r_harmonic"),
    ):
        val = number(key, getattr(cfg, attr))
        if not val > 0:
            errors.append(f"{key}: must be positive, got {val}")
        setattr(cfg, attr, val)

    for key in sorted(set(items) - known):
        if key in _GATED_KEYS:
            errors.append(f"{key}: read only {_GATED_KEYS[key]}")
        else:
            errors.append(f"unknown key {key!r}")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_hash(cfg):
    """Stable hash of the canonical key/value content (order-independent)."""
    canon = "\n".join(f"{k} = {v}" for k, v in sorted(cfg.items.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def build_grid(cfg):
    return Grid(shape=cfg.nodes, lo=cfg.lo, hi=cfg.hi)


def build_tensor(cfg):
    """The configured tensor; one that is not symmetric is a ConfigError naming its key."""
    lam = cfg.tensor_lam
    key = {"constant": "tensor.entries", "block_diagonal": "tensor.blocks"}.get(
        cfg.tensor_kind, "tensor.kind")
    try:
        if cfg.tensor_kind == "identity":
            tensor = identity_tensor(cfg.dim, cfg.components, lam=lam if lam is not None else 1.0)
        elif cfg.tensor_kind == "constant":
            entries = np.array(cfg.tensor_entries).reshape(
                cfg.dim, cfg.dim, cfg.components, cfg.components
            )
            tensor = constant_tensor(entries, lam=lam if lam is not None else 1.0)
        elif cfg.tensor_kind == "block_diagonal":
            blocks = [np.array(b).reshape(cfg.dim, cfg.dim) for b in cfg.tensor_blocks]
            tensor = block_diagonal_tensor(blocks, lam=lam)
        elif cfg.tensor_kind == "det_coupled":
            tensor = det_coupled_tensor(cfg.tensor_gamma, lam=lam)
        else:
            raise ConfigError(f"tensor.kind: unknown kind {cfg.tensor_kind!r}")
        tensor.check_symmetry()
    except (AsymmetricTensor, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return tensor


def alpha_bounds_on_box(coeffs, lo, hi):
    """Range of c0 + c . x over the box corners (affine => extremes at corners)."""
    corners = [np.array(c) for c in np.ndindex(*(2,) * len(lo))]
    values = [
        coeffs[0] + sum(coeffs[1 + a] * (lo[a] if c[a] == 0 else hi[a]) for a in range(len(lo)))
        for c in corners
    ]
    return min(values), max(values)


def build_supremand(cfg):
    if cfg.alpha.startswith("affine:"):
        coeffs = tuple(float(v) for v in cfg.alpha[len("affine:"):].split(","))

        def alpha(points):
            pts = np.atleast_2d(points)
            return coeffs[0] + pts @ np.array(coeffs[1:])

        bounds = alpha_bounds_on_box(coeffs, cfg.lo, cfg.hi)
        if bounds[0] <= 0:
            raise ConfigError("supremand.alpha: affine weight must stay positive on the box")
        return WeightedPowerNorm(
            cfg.components, q=cfg.q, alpha=alpha, eps=cfg.eps, alpha_bounds=bounds
        )
    return WeightedPowerNorm(cfg.components, q=cfg.q, alpha=float(cfg.alpha), eps=cfg.eps)


def boundary_profile(cfg, coords):
    """Sample the named boundary profile at the given coordinates, shape (n_nodes, N)."""
    x = coords[:, 0]
    n_nodes = coords.shape[0]
    if cfg.bc_kind == "sinusoidal":
        lateral = np.sin(np.pi * coords[:, 1:]) if coords.shape[1] == 2 else 1.0
        waves = np.sin(np.outer(x, np.multiply(cfg.bc_frequency, np.pi)))
        return np.multiply(cfg.bc_amplitude, waves) * lateral
    if cfg.bc_kind == "affine":
        base = cfg.bc_coeffs[0] + coords @ np.array(cfg.bc_coeffs[1:])
    elif cfg.bc_kind == "quadratic":
        base = np.sum(coords**2, axis=1)
    elif cfg.bc_kind == "symmetric_velocity":
        base = 2.0 * x**3 - 3.0 * x**2 + x
    elif cfg.bc_kind == "file":
        try:
            data = np.loadtxt(cfg.bc_file, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bc.file: cannot read {cfg.bc_file!r}: {exc}") from exc
        if data.shape != (n_nodes, cfg.components):
            raise ConfigError(
                f"bc.file: table shape {data.shape} != ({n_nodes}, {cfg.components})"
            )
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            raise ConfigError(f"bc.file: non-finite value in row {bad[0, 0] + 1}")
        return data
    else:
        raise ConfigError(f"bc.kind: unknown kind {cfg.bc_kind!r}")
    return np.outer(base, cfg.bc_amplitude)


def oracle_endpoint_data(cfg):
    """Endpoint (position, velocity) pairs of the 1D boundary profile, when analytic.

    Returns None when the closed-form comparison does not apply (not 1D scalar
    with the squared-norm cost and identity coefficients, or file data).
    """
    applicable = (
        cfg.dim == 1
        and cfg.components == 1
        and cfg.tensor_kind == "identity"
        and cfg.q == 2.0
        and not cfg.alpha.startswith("affine:")
        and cfg.bc_kind != "file"
        and cfg.lo == (0.0,)
        and cfg.hi == (1.0,)
    )
    if not applicable:
        return None
    amp = cfg.bc_amplitude[0]
    if cfg.bc_kind == "affine":
        c0, c1 = cfg.bc_coeffs
        return amp * c0, amp * c1, amp * (c0 + c1), amp * c1
    if cfg.bc_kind == "quadratic":
        return 0.0, 0.0, amp, 2.0 * amp
    if cfg.bc_kind == "symmetric_velocity":
        return 0.0, amp, 0.0, amp
    k = cfg.bc_frequency[0]
    return 0.0, amp * k * np.pi, amp * np.sin(k * np.pi), amp * k * np.pi * np.cos(k * np.pi)
