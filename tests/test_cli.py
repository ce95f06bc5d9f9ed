import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import supmin.cli
import supmin.config
from supmin.cli import main
from supmin.config import config_hash, load_config, parse_config

SYMMETRIC_CFG = """
# 1D least-peak-acceleration benchmark (coarse)
domain.dim = 1
domain.nodes = 51
field.components = 1
tensor.kind = identity
supremand.q = 2
supremand.alpha = 1
bc.kind = symmetric_velocity
schedule.p_max = 256
"""

AFFINE_CFG = """
domain.dim = 1
domain.nodes = 51
bc.kind = affine
schedule.p_max = 256
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(out_dir):
    entries = {}
    rows = []
    for line in (out_dir / "report.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "p_row":
            rows.append([float(v) for v in value.split()])
        else:
            entries[key] = value
    return entries, rows


def test_run_produces_verified_report(tmp_path):
    cfg = write(tmp_path, "sym.cfg", SYMMETRIC_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    entries, rows = read_report(out)
    assert entries["status"] == "ok"
    assert float(entries["e_inf_estimate"]) == pytest.approx(16.0, rel=0.1)
    assert float(entries["oracle.a"]) == pytest.approx(4.0)
    assert float(entries["oracle.s"]) == pytest.approx(0.5)
    assert float(entries["oracle.e_inf"]) == pytest.approx(16.0)
    # monotone energies and bracket containment in the emitted table
    energies = [r[1] for r in rows]
    peaks = [r[2] for r in rows]
    e_inf = float(entries["e_inf_estimate"])
    assert all(b >= a - 1e-8 for a, b in zip(energies, energies[1:]))
    assert all(e - 1e-8 <= e_inf <= m + 1e-8 for e, m in zip(energies, peaks))
    assert (out / "oracle.txt").exists()
    # no stage stalled, so the report names none
    assert "stalled_stages" not in entries

    fields = np.loadtxt(out / "fields.dat")
    assert fields.shape == (51, 5)  # x, u, Lu, F, f


def test_run_is_bit_reproducible(tmp_path):
    cfg = write(tmp_path, "sym.cfg", SYMMETRIC_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("report.txt", "fields.dat", "oracle.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


VECTOR_CFG = """
domain.dim = 2
domain.nodes = 11
field.components = 2
tensor.kind = det_coupled
tensor.gamma = 1
bc.kind = sinusoidal
schedule.p_max = 64
"""


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_fields_file_matches_reference_rows(tmp_path, monkeypatch, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(supmin.cli, "FIELDS_CHUNK_ROWS", chunk_rows)
    cfg = write(tmp_path, "vec.cfg", VECTOR_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    # reference: the same (bit-reproducible) solve, one format() per value
    est = supmin.cli._solve_from_config(load_config(cfg))
    op, F, report = est.operator_, est.supremand, est.report_
    coords = op.grid.coords()
    lu = np.zeros((coords.shape[0], 2))
    fv = np.zeros(coords.shape[0])
    dual = np.zeros((coords.shape[0], 2))
    lu[op.eq_idx] = supmin.apply_operator(op, report.u)
    fv[op.eq_idx] = F.eval_field(op.eq_coords(), lu[op.eq_idx])
    dual[op.eq_idx] = report.f
    lines = ["# x0 x1 u0 u1 Lu0 Lu1 F f0 f1"]
    for k in range(coords.shape[0]):
        row = [*coords[k], *report.u[k], *lu[k], fv[k], *dual[k]]
        lines.append(" ".join(format(float(v), ".17e") for v in row))
    assert np.any(dual < 0.0) and np.any(lu != 0.0)
    assert (out / "fields.dat").read_text() == "\n".join(lines) + "\n"


def test_run_zero_energy_branch(tmp_path):
    cfg = write(tmp_path, "affine.cfg", AFFINE_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    entries, rows = read_report(out)
    assert entries["degenerate"] == "true"
    assert float(entries["e_inf_estimate"]) <= 1e-6


STALL_CFG = """
domain.dim = 1
domain.nodes = 41
bc.kind = symmetric_velocity
schedule.p_max = 64
tol.newton = 1e-16
"""


def test_report_names_stalled_stages(tmp_path):
    # a newton_tol below the residual floor makes the p = 64 stage stall
    cfg = write(tmp_path, "stall.cfg", STALL_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    entries, _ = read_report(out)
    assert entries["stalled_stages"] == format(64.0, ".17e")


def test_tiny_data_is_solver_error(tmp_path, capsys):
    # the squared cost scale underflows to 0 in the Newton system
    text = ("domain.dim = 2\ndomain.nodes = 15\nfield.components = 1\n"
            "bc.kind = sinusoidal\nbc.amplitude = 1e-100\n")
    cfg = write(tmp_path, "tiny.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "cost scale" in capsys.readouterr().err


def test_invalid_exponent_rejected(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "supremand.q = 0.5\nbc.kind = affine\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("extra, flags, name", [
    ("", ["--p-max", "0.5"], "schedule.p_max"),
    ("", ["--p-max", "inf"], "schedule.p_max"),
    ("", ["--nodes", "abc"], "domain.nodes"),
    ("schedule.p_max = nan\n", [], "schedule.p_max"),
    ("bc.amplitude = nan\n", [], "bc.amplitude"),
    ("bc.coeffs = 0.1,nan\n", [], "bc.coeffs"),
    ("supremand.q = inf\n", [], "supremand.q"),
    ("domain.hi = inf\n", [], "domain.hi"),
    ("tol.newton = inf\n", [], "tol.newton"),
    (None, ["--bc", "a,b,c,d"], "--bc"),
    (None, ["--bc", "nan,1,0,1"], "--bc"),
])
def test_invalid_number_is_config_error(tmp_path, capsys, extra, flags, name):
    if extra is None:
        argv = ["oracle", *flags]
    else:
        cfg = write(tmp_path, "bad.cfg", "domain.nodes = 51\nbc.kind = symmetric_velocity\n" + extra)
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "o"), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err


def test_override_flags_hash_like_edited_config(tmp_path):
    cfg = write(tmp_path, "vec.cfg", VECTOR_CFG)
    args = supmin.cli.build_parser().parse_args(
        ["run", "--config", cfg, "--out", str(tmp_path / "o"),
         "--nodes", "31", "--p-max", "32"])
    overridden = supmin.cli._apply_overrides(load_config(cfg), args)
    edited = VECTOR_CFG.replace("domain.nodes = 11", "domain.nodes = 31,31").replace(
        "schedule.p_max = 64", "schedule.p_max = 32.0")
    assert overridden.nodes == (31, 31)
    assert overridden.items["domain.nodes"] == "31,31"
    assert config_hash(overridden) == config_hash(parse_config(edited))


def test_unknown_key_rejected(tmp_path):
    for key in ("not.a.key", "tol.linear", "tol.degenerate", "seed"):
        cfg = write(tmp_path, "bad.cfg", f"domain.dim = 1\n{key} = 3\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg = write(tmp_path, "ok.cfg", AFFINE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 2


# a value the parser accepts for each key of the config module's key list, and
# the lines a key needs before it is read
DOC_KEY_VALUES = {
    "domain.dim": "2", "domain.lo": "0", "domain.hi": "2", "domain.nodes": "21",
    "field.components": "2", "tensor.kind": "identity", "tensor.entries": "2",
    "tensor.blocks": "1", "tensor.gamma": "0.5", "tensor.lambda": "0.5",
    "supremand.q": "3", "supremand.alpha": "affine:1,0.5", "supremand.eps": "0.1",
    "bc.kind": "quadratic", "bc.amplitude": "2", "bc.coeffs": "0.1,0.2",
    "bc.frequency": "3", "bc.file": "values.txt", "schedule.p": "2,8",
    "schedule.p_max": "64", "tol.newton": "1e-8", "tol.bracket_stop": "0.02",
    "tol.theta": "0.2", "check.r_system": "0.1", "check.r_harmonic": "1e-5",
}
DOC_KEY_PREREQS = {
    "tensor.entries": "tensor.kind = constant\n",
    "tensor.blocks": "tensor.kind = block_diagonal\n",
    "tensor.gamma": "domain.dim = 2\nfield.components = 2\ntensor.kind = det_coupled\n",
    "bc.file": "bc.kind = file\n",
}


def documented_config_keys():
    doc = supmin.config.__doc__
    block = doc.split("Recognized keys (defaults in parentheses):")[1].split("\n\n")[1]
    keys = []
    for line in block.splitlines():
        names = re.match(r"    ([a-z][\w.]*(?: / [a-z][\w.]*)*)", line).group(1)
        keys += names.split(" / ")
    return keys


def test_documented_config_keys_are_accepted():
    keys = documented_config_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(DOC_KEY_VALUES)
    for key in keys:
        cfg = parse_config(DOC_KEY_PREREQS.get(key, "") + f"{key} = {DOC_KEY_VALUES[key]}\n")
        assert key in cfg.items


def test_verification_threshold_failure(tmp_path):
    text = SYMMETRIC_CFG + "check.r_harmonic = 1e-30\n"
    cfg = write(tmp_path, "strict.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_override_flags_change_hash(tmp_path):
    cfg_path = write(tmp_path, "sym.cfg", SYMMETRIC_CFG)
    base = parse_config(SYMMETRIC_CFG)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out),
                 "--nodes", "41", "--p-max", "64"]) == 0
    entries, rows = read_report(out)
    assert entries["nodes"] == "41"
    assert "seed" not in entries
    assert rows[-1][0] <= 64.0
    assert entries["config_hash"] != config_hash(base)


def test_sweep_runs_all_and_aggregates(tmp_path):
    cfg_a = write(tmp_path, "a.cfg", SYMMETRIC_CFG)
    cfg_b = write(tmp_path, "b.cfg", AFFINE_CFG)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_a, "--config", cfg_b, "--out", str(out)]) == 0
    summary = (out / "sweep.txt").read_text()
    assert summary.count(": ok") == 2
    subdirs = [d for d in os.listdir(out) if (out / d).is_dir()]
    assert len(subdirs) == 2
    for sub in subdirs:
        assert (out / sub / "report.txt").exists()


def test_sweep_empty_rejected(tmp_path):
    assert main(["sweep", "--out", str(tmp_path / "o")]) == 2


def test_sweep_propagates_failures(tmp_path):
    good = write(tmp_path, "good.cfg", AFFINE_CFG)
    strict = write(tmp_path, "strict.cfg", SYMMETRIC_CFG + "check.r_harmonic = 1e-30\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", good, "--config", strict, "--out", str(out)]) == 4
    assert "verify-failure" in (out / "sweep.txt").read_text()


def test_refinement_sweep_converges_toward_oracle(tmp_path):
    outs = {}
    cfg = write(tmp_path, "sym.cfg", SYMMETRIC_CFG)
    for nodes in (26, 51, 101):
        out = tmp_path / f"n{nodes}"
        assert main(["run", "--config", cfg, "--out", str(out), "--nodes", str(nodes)]) == 0
        entries, _ = read_report(out)
        outs[nodes] = abs(float(entries["e_inf_estimate"]) - 16.0)
    assert outs[26] > outs[51] > outs[101]


def test_p_max_sweep_shrinks_bracket(tmp_path):
    widths = []
    # low p_max runs are legitimately uncertified; relax the residual check
    cfg = write(tmp_path, "sym.cfg", SYMMETRIC_CFG + "tol.bracket_stop = 1e-9\ncheck.r_system = 0.5\n")
    for p_max in (16, 64, 256):
        out = tmp_path / f"p{p_max}"
        assert main(["run", "--config", cfg, "--out", str(out), "--p-max", str(p_max)]) == 0
        entries, _ = read_report(out)
        widths.append(float(entries["bracket_high"]) - float(entries["bracket_low"]))
    assert widths[0] > widths[1] > widths[2]


def test_oracle_direct_endpoint_data(capsys):
    assert main(["oracle", "--bc", "0,1,0,1"]) == 0
    text = capsys.readouterr().out
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert float(values["a"]) == pytest.approx(4.0)
    assert float(values["s"]) == pytest.approx(0.5)
    assert int(values["sigma"]) == -1
    assert float(values["e_inf"]) == pytest.approx(16.0)


def test_oracle_from_config(tmp_path, capsys):
    cfg = write(tmp_path, "sym.cfg", SYMMETRIC_CFG)
    assert main(["oracle", "--config", cfg]) == 0
    assert "a = 4.0" in capsys.readouterr().out


def test_oracle_not_applicable(tmp_path):
    cfg = write(tmp_path, "vec.cfg", "domain.dim = 2\ndomain.nodes = 11,11\nbc.kind = sinusoidal\n")
    assert main(["oracle", "--config", cfg]) == 2


def test_check_tensor_det_coupled(tmp_path, capsys):
    text = (
        "domain.dim = 2\ndomain.nodes = 11,11\nfield.components = 2\n"
        "tensor.kind = det_coupled\ntensor.gamma = 3\ntensor.lambda = 1\n"
        "bc.kind = sinusoidal\n"
    )
    cfg = write(tmp_path, "det.cfg", text)
    assert main(["check-tensor", "--config", cfg]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["legendre_min"]) == pytest.approx(-0.5, abs=1e-8)
    assert float(values["legendre_hadamard_min"]) == pytest.approx(1.0, abs=1e-6)
    assert out == (
        "symmetry_deviation = 0.00000000000000000e+00\n"
        "mode = legendre_hadamard\n"
        "lambda_declared = 1.00000000000000000e+00\n"
        "legendre_min = -4.99999999999999889e-01\n"
        "legendre_hadamard_min = 9.99999999999999778e-01\n"
        "declared_lambda_consistent = true\n"
    )


@pytest.mark.parametrize("argv", [
    ["oracle", "--bc", "0,1,0,1", "--nodes", "31"],
    ["oracle", "--bc", "0,1,0,1", "--p-max", "64"],
    ["check-tensor", "--config", "any.cfg", "--nodes", "31"],
    ["check-tensor", "--config", "any.cfg", "--p-max", "64"],
])
def test_override_flags_only_for_solving_commands(argv):
    # oracle and check-tensor read neither the schedule nor the grid
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


ASYMMETRIC_TENSORS = {
    "tensor.entries": ("domain.dim = 2\ndomain.nodes = 11\n"
                       "tensor.kind = constant\ntensor.entries = 1,0.5,0,1\n"),
    "tensor.blocks": ("domain.dim = 2\ndomain.nodes = 11\nfield.components = 2\n"
                      "tensor.kind = block_diagonal\ntensor.blocks = 1,0,0,1;2,0.5,0.1,1\n"),
}


@pytest.mark.parametrize("command", ["run", "check-tensor"])
@pytest.mark.parametrize("key", sorted(ASYMMETRIC_TENSORS))
def test_asymmetric_tensor_is_config_error(tmp_path, capsys, command, key):
    cfg = write(tmp_path, "asym.cfg", ASYMMETRIC_TENSORS[key] + "bc.kind = sinusoidal\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + key)
    assert not (tmp_path / "o" / "report.txt").exists()


def sweep(out, paths):
    argv = ["sweep", "--out", str(out)]
    for path in paths:
        argv += ["--config", path]
    return main(argv)


def sweep_statuses(tmp_path, name, paths):
    """Exit code and sweep.txt statuses of a sweep over paths."""
    out = tmp_path / name
    code = sweep(out, paths)
    statuses = [line.split(" : ")[1].split(" (")[0]
                for line in (out / "sweep.txt").read_text().splitlines()]
    return code, statuses


def test_sweep_status_per_failure_kind(tmp_path):
    good = write(tmp_path, "good.cfg", AFFINE_CFG)
    asym = write(tmp_path, "asym.cfg", ASYMMETRIC_TENSORS["tensor.entries"] + "bc.kind = sinusoidal\n")
    tiny = write(tmp_path, "tiny.cfg", "domain.dim = 2\ndomain.nodes = 15\n"
                 "bc.kind = sinusoidal\nbc.amplitude = 1e-100\n")
    strict = write(tmp_path, "strict.cfg", SYMMETRIC_CFG + "check.r_harmonic = 1e-30\n")
    # a boundary file that does not exist fails in the worker, after parsing
    missing = write(tmp_path, "missing.cfg", "domain.nodes = 31\nbc.kind = file\n"
                    f"bc.file = {tmp_path / 'no-such-file.dat'}\n")
    assert sweep_statuses(tmp_path, "all", [good, asym, tiny]) == (
        3, ["ok", "config-error", "solver-error"])
    # each failure kind next to a passing config, both solved in workers
    for bad, code, status, name in ((asym, 2, "config-error", "asym"),
                                    (missing, 2, "config-error", "missing"),
                                    (tiny, 3, "solver-error", "tiny"),
                                    (strict, 4, "verify-failure", "strict")):
        assert sweep_statuses(tmp_path, name, [bad, good]) == (code, [status, "ok"])
        assert (tmp_path / name / config_hash(load_config(good)) / "report.txt").exists()


def assert_equals_run(sub, cfg, serial):
    """The sweep subdirectory sub holds the bytes `supmin run` writes for cfg."""
    assert main(["run", "--config", cfg, "--out", str(serial)]) == 0
    for name in ("report.txt", "fields.dat"):
        assert (sub / name).read_bytes() == (serial / name).read_bytes()


def test_sweep_outputs_equal_run(tmp_path):
    paths = [write(tmp_path, "sym.cfg", SYMMETRIC_CFG), write(tmp_path, "vec.cfg", VECTOR_CFG)]
    out = tmp_path / "sweep"
    assert sweep(out, paths) == 0
    for k, path in enumerate(paths):
        assert_equals_run(out / config_hash(load_config(path)), path, tmp_path / f"run{k}")


def test_sweep_duplicate_config_solved_once(tmp_path, monkeypatch):
    cfg = write(tmp_path, "vec.cfg", VECTOR_CFG)
    log = tmp_path / "solved.log"
    run_single = supmin.cli._run_single

    def logged_run_single(cfg, out_dir):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(out_dir + "\n")
        return run_single(cfg, out_dir)

    monkeypatch.setattr(supmin.cli, "_run_single", logged_run_single)
    out = tmp_path / "sweep"
    assert sweep(out, [cfg, cfg]) == 0
    assert len(log.read_text().splitlines()) == 1
    subdirs = [d for d in out.iterdir() if d.is_dir()]
    assert [d.name for d in subdirs] == [config_hash(load_config(cfg))]
    assert (out / "sweep.txt").read_text().count(f"-> {subdirs[0].name} : ok") == 2
    assert_equals_run(subdirs[0], cfg, tmp_path / "run")


@pytest.mark.parametrize("extra, code", [("", 0), ("check.r_harmonic = 1e-30\n", 4)])
def test_sweep_leaves_no_worker_running(tmp_path, extra, code):
    good = write(tmp_path, "good.cfg", AFFINE_CFG)
    other = write(tmp_path, "other.cfg", SYMMETRIC_CFG + extra)
    assert sweep(tmp_path / "o", [good, other]) == code
    assert multiprocessing.active_children() == []


def openblas_threads():
    return supmin.cli._scipy_openblas().scipy_openblas_get_num_threads()


@pytest.mark.parametrize("found", [None, object()], ids=["no-library", "no-symbol"])
def test_blas_pin_without_library_is_noop(monkeypatch, found):
    lib = supmin.cli._scipy_openblas()
    count = getattr(lib, "scipy_openblas_get_num_threads", lambda: None)
    before = count()
    monkeypatch.setattr(supmin.cli, "_scipy_openblas", lambda: found)
    supmin.cli._pin_blas_thread()
    assert count() == before


def test_sweep_worker_uses_one_blas_thread():
    lib = supmin.cli._scipy_openblas()
    if getattr(lib, "scipy_openblas_get_num_threads", None) is None:
        pytest.skip("scipy ships no OpenBLAS with a thread-count API here")
    before = openblas_threads()
    with supmin.cli._sweep_pool(1) as pool:
        assert pool.submit(openblas_threads).result(timeout=60) == 1
    assert openblas_threads() == before


def test_boundary_file_round_trip(tmp_path):
    t = np.linspace(0.0, 1.0, 31)
    table = (2 * t**3 - 3 * t**2 + t).reshape(-1, 1)
    data_path = tmp_path / "boundary.dat"
    np.savetxt(data_path, table)
    text = (
        "domain.dim = 1\ndomain.nodes = 31\nbc.kind = file\n"
        f"bc.file = {data_path}\nschedule.p_max = 128\n"
    )
    cfg = write(tmp_path, "file.cfg", text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    entries, _ = read_report(out)
    assert float(entries["e_inf_estimate"]) == pytest.approx(16.0, rel=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_boundary_file_nonfinite_is_config_error(tmp_path, capsys, bad):
    t = np.linspace(0.0, 1.0, 31)
    table = (2 * t**3 - 3 * t**2 + t).reshape(-1, 1)
    table[7, 0] = bad
    data_path = tmp_path / "boundary.dat"
    np.savetxt(data_path, table)
    text = (
        "domain.dim = 1\ndomain.nodes = 31\nbc.kind = file\n"
        f"bc.file = {data_path}\nschedule.p_max = 128\n"
    )
    cfg = write(tmp_path, "file.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bc.file" in err and "row 8" in err


@pytest.mark.parametrize("content", [None, "0.0\nnot-a-number\n"], ids=["missing", "non-numeric"])
def test_unreadable_boundary_file_is_config_error(tmp_path, capsys, content):
    data_path = tmp_path / "boundary.dat"
    if content is not None:
        data_path.write_text(content)
    text = f"domain.dim = 1\ndomain.nodes = 31\nbc.kind = file\nbc.file = {data_path}\n"
    cfg = write(tmp_path, "file.cfg", text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bc.file: cannot read")
    assert not (out / "report.txt").exists()


def test_inconsistent_report_is_verification_failure(tmp_path, capsys, monkeypatch):
    solve = supmin.cli._solve_from_config

    def inflated(cfg):
        est = solve(cfg)
        est.report_.e_inf = 100.0 * est.report_.bracket[1]
        return est

    monkeypatch.setattr(supmin.cli, "_solve_from_config", inflated)
    cfg = write(tmp_path, "sym.cfg", SYMMETRIC_CFG)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 4
    assert "verification failure: estimate" in capsys.readouterr().err
    assert not (out / "report.txt").exists()


def test_check_invariants_raises_under_optimize():
    code = (
        "from supmin.continuation import SolveReport, StageRow\n"
        "row = StageRow(p=2.0, energy=5.0, peak=6.0, newton_iters=1, grad_norm=0.0, cv=0.0,"
        " stalled=False)\n"
        "report = SolveReport(rows=[row], u=None, f=None, e_inf=100.0, bracket=(5.0, 6.0))\n"
        "try:\n"
        "    report.check_invariants()\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(supmin.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == "estimate 100.0 above stage peak 6.0\n"


# config text with one invalid entry, the key its error names, and the message
CONFIG_ERRORS = [
    pytest.param("domain.dim 2\n", "domain.dim", "expected 'key = value'", id="no-equals"),
    pytest.param("domain.dim =\n", "domain.dim", "empty key or value", id="empty-value"),
    pytest.param("domain.dim = 1\ndomain.dim = 1\n", "domain.dim", "duplicate key",
                 id="duplicate-key"),
    pytest.param("domain.dim = 3\n", "domain.dim", "must be 1 or 2", id="dim-3"),
    pytest.param("domain.lo = 0,0,0\n", "domain.lo", "expected 1 or 1 entries", id="lo-count"),
    pytest.param("domain.nodes = 4\n", "domain.nodes", "at least 5 nodes", id="nodes-4"),
    pytest.param("domain.lo = 1\ndomain.hi = 0.5\n", "domain.lo", "empty extent",
                 id="empty-extent"),
    pytest.param("field.components = 0\n", "field.components", "must be >= 1", id="components-0"),
    pytest.param("tensor.kind = diagonal\n", "tensor.kind", "unknown kind", id="tensor-kind"),
    pytest.param("tensor.kind = constant\ntensor.entries = 1,2\n", "tensor.entries",
                 "expected 1 numbers", id="entries-count"),
    pytest.param("domain.dim = 2\nfield.components = 2\ntensor.kind = block_diagonal\n"
                 "tensor.blocks = 1,0,0,1\n", "tensor.blocks", "expected 2 blocks",
                 id="blocks-count"),
    pytest.param("domain.dim = 2\ntensor.kind = block_diagonal\ntensor.blocks = 1,0\n",
                 "tensor.blocks[0]", "expected 4 numbers", id="block-size"),
    pytest.param("tensor.kind = det_coupled\n", "tensor.kind",
                 "requires domain.dim=2 and field.components=2", id="det-coupled-1d"),
    pytest.param("domain.dim = 2\nsupremand.alpha = affine:1,2\n", "supremand.alpha",
                 "needs 3 coefficients", id="alpha-affine-count"),
    pytest.param("supremand.alpha = 0\n", "supremand.alpha", "must be positive", id="alpha-0"),
    pytest.param("supremand.q = 1\n", "supremand.q", "must exceed 1", id="q-1"),
    pytest.param("supremand.q = 1.5\n", "supremand.eps", "positive when supremand.q < 2",
                 id="q-below-2-no-eps"),
    pytest.param("bc.kind = spline\n", "bc.kind", "unknown kind", id="bc-kind"),
    pytest.param("field.components = 2\nbc.amplitude = 1,2,3\n", "bc.amplitude",
                 "expected 1 or 2 entries", id="amplitude-count"),
    pytest.param("bc.coeffs = 1,2,3\n", "bc.coeffs", "expected 2 coefficients",
                 id="coeffs-count"),
    pytest.param("field.components = 2\nbc.frequency = 1,2,3\n", "bc.frequency",
                 "expected 1 or 2 entries", id="frequency-count"),
    pytest.param("bc.kind = file\n", "bc.file", "required when bc.kind=file", id="file-missing"),
    pytest.param("domain.dim = 2\nbc.kind = symmetric_velocity\n", "bc.kind",
                 "is a 1D profile", id="symmetric-velocity-2d"),
    pytest.param("schedule.p = 4,2\n", "schedule.p", "strictly increasing", id="schedule-order"),
    pytest.param("schedule.p_max = 0.5\n", "schedule.p_max", "must be >= 1", id="p-max-half"),
    pytest.param("tol.newton = 0\n", "tol.newton", "must be positive", id="newton-0"),
    pytest.param("tol.bracket_stop = -0.1\n", "tol.bracket_stop", "must be positive",
                 id="bracket-stop-negative"),
    pytest.param("check.r_system = 0\n", "check.r_system", "must be positive", id="r-system-0"),
    pytest.param("check.r_harmonic = -1\n", "check.r_harmonic", "must be positive",
                 id="r-harmonic-negative"),
    pytest.param("tol.theta = 1\n", "tol.theta", "must lie in (0, 1)", id="theta-1"),
]


@pytest.mark.parametrize("text, key, message", CONFIG_ERRORS)
def test_invalid_config_names_its_key(tmp_path, capsys, text, key, message):
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid configuration")
    assert key in err and message in err
    assert not (out / "report.txt").exists()
