"""Command-line front end: run / sweep / oracle / check-tensor.

Exit codes: 0 success, 2 invalid configuration, 3 solver failure,
4 verification failure.  Outputs are plain structured text; re-running with
the same config reproduces every byte.

``sweep`` parses every config first, then runs them in forked worker
processes: one worker per usable CPU, capped by the number of distinct
configs, each with scipy's OpenBLAS pinned to one thread.  Its outputs are
byte-identical to ``run`` on each config.
"""

import argparse
import ctypes
import glob
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  unused; perfbench/tracer.py:146 patches this name

import numpy as np

from .bangbang import ClampedBC1D, solve_bang_bang
from .config import (
    _parse_numbers,
    boundary_profile,
    build_supremand,
    build_tensor,
    config_hash,
    load_config,
    oracle_endpoint_data,
    parse_config,
)
from .errors import ConfigError, SupminError, VerificationFailure
from .estimator import SupremalMinimizer
from .tensors import LEGENDRE_HADAMARD, check_legendre, check_legendre_hadamard

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# exception -> (exit code, stderr label, sweep.txt status); a subclass takes
# the row of its nearest listed base
_FAILURES = {
    ConfigError: (EXIT_CONFIG, "config error", "config-error"),
    VerificationFailure: (EXIT_VERIFY, "verification failure", "verify-failure"),
    SupminError: (EXIT_SOLVER, "solver error", "solver-error"),
}

# rows of fields.dat formatted per write
FIELDS_CHUNK_ROWS = 4096


def _failure(exc):
    """(exit code, stderr label, sweep.txt status) of a package exception."""
    return next(_FAILURES[cls] for cls in type(exc).__mro__ if cls in _FAILURES)


def _fmt(x):
    return format(float(x), ".17e")


def _apply_overrides(cfg, args):
    """Write the override flags into the config text and validate it like a file."""
    items = dict(cfg.items)
    if args.p_max is not None:
        items["schedule.p_max"] = repr(float(args.p_max))
        items.pop("schedule.p", None)
    if args.nodes is not None:
        items["domain.nodes"] = args.nodes
    cfg = parse_config("\n".join(f"{k} = {v}" for k, v in items.items()))
    if args.nodes is not None:
        # a single --nodes value is stored per axis, as it is solved
        cfg.items["domain.nodes"] = ",".join(str(m) for m in cfg.nodes)
    return cfg


def _solve_from_config(cfg):
    """Fitted SupremalMinimizer for a parsed config."""
    est = SupremalMinimizer(
        nodes=cfg.nodes,
        lo=cfg.lo,
        hi=cfg.hi,
        components=cfg.components,
        tensor=build_tensor(cfg),
        supremand=build_supremand(cfg),
        p_schedule=cfg.schedule,
        p_max=cfg.p_max,
        newton_tol=cfg.newton_tol,
        bracket_stop=cfg.bracket_stop,
        theta=cfg.theta,
    )
    return est.fit(lambda coords: boundary_profile(cfg, coords))


def _check_report(cfg, report):
    """Enforce the structural and residual bounds; raises VerificationFailure."""
    try:
        report.check_invariants()
    except AssertionError as exc:
        raise VerificationFailure(str(exc)) from exc
    v = report.verify
    if v is None or report.degenerate:
        return
    if report.e_inf > 0 and v.r_system > cfg.r_system_frac * report.e_inf:
        raise VerificationFailure(
            f"r_system {v.r_system:.6e} exceeds {cfg.r_system_frac} * e_inf ({report.e_inf:.6e})"
        )
    if v.r_harmonic > cfg.r_harmonic_max:
        raise VerificationFailure(
            f"r_harmonic {v.r_harmonic:.6e} exceeds {cfg.r_harmonic_max:.1e}"
        )


def _write_report(out_dir, cfg, report, oracle_row):
    lines = [
        "status = ok",
        f"config_hash = {config_hash(cfg)}",
        f"dim = {cfg.dim}",
        f"nodes = {','.join(str(m) for m in cfg.nodes)}",
        f"components = {cfg.components}",
        f"degenerate = {'true' if report.degenerate else 'false'}",
        "p_table_columns = p energy peak newton_iters grad_norm cv",
    ]
    for row in report.rows:
        lines.append(" ".join(["p_row =", _fmt(row.p), _fmt(row.energy), _fmt(row.peak),
                               str(row.newton_iters), _fmt(row.grad_norm), _fmt(row.cv)]))
    stalled = [_fmt(row.p) for row in report.rows if row.stalled]
    if stalled:
        lines.append(f"stalled_stages = {','.join(stalled)}")
    lines.append(f"e_inf_estimate = {_fmt(report.e_inf)}")
    lines.append(f"bracket_low = {_fmt(report.bracket[0])}")
    lines.append(f"bracket_high = {_fmt(report.bracket[1])}")
    if report.verify is not None:
        for key, value in report.verify.as_dict().items():
            lines.append(f"verify.{key} = {_fmt(value)}")
    if oracle_row is not None:
        lines += ["oracle." + line for line in _oracle_text(*oracle_row).splitlines()]
    _write_text(out_dir, "report.txt", "\n".join(lines) + "\n")


def _write_fields(path, op, report):
    coords = op.grid.coords()
    n_nodes, dim = coords.shape
    n_comp = op.n_components
    # columns x, u, Lu, F, f; Lu, F and f are zero off the equation nodes
    table = np.zeros((n_nodes, dim + 3 * n_comp + 1))
    table[:, :dim] = coords
    table[:, dim:dim + n_comp] = report.u
    eq = op.eq_idx
    table[eq, dim + n_comp:dim + 2 * n_comp] = report.lu
    table[eq, dim + 2 * n_comp] = report.fv
    table[eq, dim + 2 * n_comp + 1:] = report.f
    headers = (
        [f"x{a}" for a in range(dim)]
        + [f"u{i}" for i in range(n_comp)]
        + [f"Lu{i}" for i in range(n_comp)]
        + ["F"]
        + [f"f{i}" for i in range(n_comp)]
    )
    row_fmt = " ".join(["%.17e"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(headers) + "\n")
        # bounded chunks: formatting the whole table at once holds all its text
        for start in range(0, n_nodes, FIELDS_CHUNK_ROWS):
            chunk = table[start:start + FIELDS_CHUNK_ROWS]
            fh.write((row_fmt * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _oracle_text(bb, e_oracle):
    return f"a = {_fmt(bb.a)}\ns = {_fmt(bb.s)}\nsigma = {bb.sigma}\ne_inf = {_fmt(e_oracle)}\n"


def _write_text(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _oracle_for_config(cfg, supremand):
    data = oracle_endpoint_data(cfg)
    if data is None:
        return None
    bb = solve_bang_bang(ClampedBC1D(*data))
    e_oracle = supremand.eval(None, np.array([bb.a]))
    return bb, e_oracle


def _run_single(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    est = _solve_from_config(cfg)
    report = est.report_
    oracle_row = _oracle_for_config(cfg, est.supremand)
    _check_report(cfg, report)
    _write_report(out_dir, cfg, report, oracle_row)
    _write_fields(os.path.join(out_dir, "fields.dat"), est.operator_, report)
    if oracle_row is not None:
        _write_text(out_dir, "oracle.txt", _oracle_text(*oracle_row))
    return report


def cmd_run(args):
    cfg = _apply_overrides(load_config(args.config), args)
    _run_single(cfg, args.out)
    return EXIT_OK


def _scipy_openblas():
    """scipy's bundled OpenBLAS as a ctypes library, or None where scipy ships none."""
    import scipy

    site = os.path.dirname(os.path.dirname(scipy.__file__))
    found = sorted(glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so")))
    return ctypes.CDLL(found[0]) if found else None


def _pin_blas_thread():
    """Worker initializer: one OpenBLAS thread, so workers do not oversubscribe the CPUs."""
    lib = _scipy_openblas()
    set_threads = getattr(lib, "scipy_openblas_set_num_threads", None)
    if set_threads is None:
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _sweep_pool(workers):
    """Process pool of forked workers with one BLAS thread each.

    The start method is named because fork is not the default everywhere: a
    spawned or forkserver worker re-imports numpy and scipy, which costs more
    than a small solve.
    """
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_pin_blas_thread)


def _sweep_item(cfg, out_dir):
    """(exit code, sweep.txt status, message) of one config, run in a worker.

    Package exceptions become the tuple here, so none has to be pickled back
    to the parent.
    """
    try:
        _run_single(cfg, out_dir)
    except SupminError as exc:
        code, _, status = _failure(exc)
        return code, status, str(exc)
    return EXIT_OK, "ok", ""


def cmd_sweep(args):
    if not args.config:
        raise ConfigError("sweep: at least one --config is required")
    cfgs = [_apply_overrides(load_config(path), args) for path in args.config]
    os.makedirs(args.out, exist_ok=True)
    keys = [config_hash(cfg) for cfg in cfgs]
    # a config listed twice shares its subdirectory, so it is solved once
    # (two workers writing one report.txt would race)
    jobs = dict(zip(keys, cfgs))
    with _sweep_pool(min(len(jobs), _usable_cpus())) as pool:
        futures = {key: pool.submit(_sweep_item, cfg, os.path.join(args.out, key))
                   for key, cfg in jobs.items()}
        results = {key: future.result() for key, future in futures.items()}
    lines = []
    for path, key in zip(args.config, keys):
        _, status, message = results[key]
        lines.append(f"{path} -> {key} : {status}" + (f" ({message})" if message else ""))
    with open(os.path.join(args.out, "sweep.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return max(code for code, _, _ in results.values())


def cmd_oracle(args):
    if args.bc is not None:
        errors = []
        vals = _parse_numbers(args.bc, "--bc", errors)
        if errors or len(vals) != 4:
            raise ConfigError(errors[0] if errors else "--bc: expected x0,v0,x1,v1")
        bb = solve_bang_bang(ClampedBC1D(*vals))
        e_oracle = bb.a**2
    else:
        if args.config is None:
            raise ConfigError("oracle: provide --config or --bc")
        cfg = load_config(args.config)
        supremand = build_supremand(cfg)
        row = _oracle_for_config(cfg, supremand)
        if row is None:
            raise ConfigError(
                "oracle: closed form needs a 1D scalar config with identity tensor, "
                "q=2, constant weight, and a named analytic profile"
            )
        bb, e_oracle = row
    text = _oracle_text(bb, e_oracle)
    print(text, end="")
    if args.out:
        _write_text(args.out, "oracle.txt", text)
    return EXIT_OK


def cmd_check_tensor(args):
    # every tensor a config builds is constant, so no sample points are needed
    tensor = build_tensor(load_config(args.config))
    dev = tensor.check_symmetry()
    legendre = check_legendre(tensor)
    lh = check_legendre_hadamard(tensor)
    lines = [f"symmetry_deviation = {_fmt(dev)}", f"mode = {tensor.mode}",
             f"lambda_declared = {_fmt(tensor.lam)}", f"legendre_min = {_fmt(legendre)}",
             f"legendre_hadamard_min = {_fmt(lh)}"]
    declared_ok = (lh if tensor.mode == LEGENDRE_HADAMARD else legendre) >= tensor.lam - 1e-6
    lines.append(f"declared_lambda_consistent = {'true' if declared_ok else 'false'}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_text(args.out, "tensor.txt", text)
    if not declared_ok:
        raise VerificationFailure(
            f"declared lambda {tensor.lam} not supported by the measured constants"
        )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="supmin",
        description="sup-norm minimization of elliptic divergence-form costs on clamped box grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, multi_config=False, solves=False):
        if multi_config:
            p.add_argument("--config", action="append", default=[], help="config file (repeatable)")
        else:
            p.add_argument("--config", required=config_required, help="config file")
        p.add_argument("--out", help="output directory")
        if solves:
            p.add_argument("--p-max", dest="p_max", type=float, help="override schedule.p_max")
            p.add_argument("--nodes", help="override domain.nodes (comma-separated)")

    p_run = sub.add_parser("run", help="solve one configuration and verify it")
    common(p_run, solves=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run several configurations")
    common(p_sweep, multi_config=True, solves=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="closed-form 1D least-peak-acceleration profile")
    common(p_oracle, config_required=False)
    p_oracle.add_argument("--bc", help="x0,v0,x1,v1 endpoint data (bypasses --config)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_check = sub.add_parser("check-tensor", help="symmetry and ellipticity of the coefficient tensor")
    common(p_check)
    p_check.set_defaults(func=cmd_check_tensor)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "sweep") and not args.out:
        print("error: --out is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except SupminError as exc:
        code, label, _ = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
