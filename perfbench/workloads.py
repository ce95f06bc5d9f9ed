"""The three benchmark workloads: inputs from a seed, items to time, and gates.

An item is one timed call into supmin (a solve, an estimator fit, or one CLI
invocation) followed by the correctness gates for its result.  Every gate
failure is counted against the solves the item attempted.
"""

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import supmin
from reference import bracket_failures, lp_energy

R_SYSTEM_FRAC = 0.05      # the CLI's default verification bounds, applied to API solves too
R_HARMONIC_MAX = 1e-6
ORACLE_REL_TOL = 0.02     # 201-node discretization error against the continuum bang-bang value


def amplitude_scale(seed):
    """Common scale of the boundary data: 1 for seed 0, else log-uniform on [1/2, 2].

    The costs are 2-homogeneous, so a common scale multiplies every value by
    its square and leaves the solver's work nearly unchanged.
    """
    if seed == 0:
        return 1.0
    return float(2.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0))


@dataclass
class Outcome:
    kind: str                 # "solve", "serial" (one CLI run) or "sweep" (one CLI sweep)
    solves: int
    wall: float = 0.0         # the timed call only
    cpu: float = 0.0          # process CPU seconds (all threads and reaped children) in it
    failures: list = field(default_factory=list)
    brackets: list = field(default_factory=list)
    lp_rel_err: list = field(default_factory=list)
    oracle_rel_err: list = field(default_factory=list)
    r_system_rel: list = field(default_factory=list)
    r_harmonic: list = field(default_factory=list)
    e_inf: list = field(default_factory=list)


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@contextlib.contextmanager
def timed(out):
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        out.wall = time.perf_counter() - t0
        out.cpu = _cpu_s() - cpu0


def check_report(report, label, out):
    """Structural invariants and the CLI's residual bounds on an API solve."""
    try:
        report.check_invariants()
    except AssertionError as exc:
        out.failures.append(f"{label}: invariants: {exc}")
    v = report.verify
    if v is None:
        out.failures.append(f"{label}: no verification report")
        return
    out.e_inf.append(report.e_inf)
    if report.degenerate:
        return
    out.brackets.append(tuple(report.bracket))
    out.r_system_rel.append(v.r_system / report.e_inf)
    out.r_harmonic.append(v.r_harmonic)
    if v.r_system > R_SYSTEM_FRAC * report.e_inf:
        out.failures.append(f"{label}: r_system {v.r_system:.3e} > {R_SYSTEM_FRAC} * e_inf")
    if v.r_harmonic > R_HARMONIC_MAX:
        out.failures.append(f"{label}: r_harmonic {v.r_harmonic:.3e} > {R_HARMONIC_MAX}")


@dataclass
class Item:
    label: str
    kind: str
    solves: int
    run: object               # callable(tracer) -> Outcome


class Smoke2D:
    """One 41 x 41 two-component solve (the acceptance gate's smoke case at seed 0)."""

    name = "smoke2d"
    MIN_ITEMS = 3             # one solve takes 11-13 s; a median needs three
    BLOCKS = (np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]]))

    def __init__(self, seed, workdir):
        self.scale = amplitude_scale(seed)

    def write_inputs(self):
        pass

    def build(self):
        grid = supmin.Grid((41, 41))
        xy = grid.coords()
        clamp = self.scale * np.stack(
            [
                np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1]),
                0.5 * np.sin(2.0 * np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1]),
            ],
            axis=1,
        )
        op = supmin.assemble_operator(grid, supmin.block_diagonal_tensor(list(self.BLOCKS)))
        return op, supmin.WeightedPowerNorm(2, q=2.0), clamp

    build_all = build

    def prepare(self):
        pass

    def _solve(self, tracer):
        out = Outcome("solve", 1)
        with tracer.span("bench.build"):
            op, cost, clamp = self.build()
        with timed(out):
            report = supmin.continuation_solve(op, cost, clamp, p_max=1024.0)
        with tracer.span("bench.check"):
            check_report(report, "smoke2d", out)
        return out

    def items(self):
        return [Item("solve", "solve", 1, self._solve)]


    def describe(self, records):
        e_inf = next((o.e_inf[0] for _, o in records if o.e_inf), float("nan"))
        return (f"data scale {self.scale:.6g}; e_inf {e_inf:.7g}, e_inf / scale^2 "
                f"{e_inf / self.scale**2:.7g} (the acceptance fixture gives 747.7233)")


def hermite(t, x0, v0, x1, v1):
    """Cubic with value x0, slope v0 at t=0 and value x1, slope v1 at t=1."""
    return (x0 * (2 * t**3 - 3 * t**2 + 1) + v0 * (t**3 - 2 * t**2 + t)
            + x1 * (-2 * t**3 + 3 * t**2) + v1 * (t**3 - t**2))


class Oracle1D:
    """A batch of 1D least-peak-acceleration fits, each checked against two exact values."""

    name = "oracle1d"
    MIN_ITEMS = 0
    BATCH = 100
    NODES = 201

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        data = np.column_stack([rng.uniform(-1.0, 1.0, self.BATCH), rng.uniform(-2.0, 2.0, self.BATCH),
                                rng.uniform(-1.0, 1.0, self.BATCH), rng.uniform(-2.0, 2.0, self.BATCH)])
        if seed == 0:
            data[0] = (0.0, 1.0, 0.0, 1.0)   # the acceptance gate's symmetric_velocity case
        self.data = [tuple(float(v) for v in row) for row in data]
        self.t = np.linspace(0.0, 1.0, self.NODES)
        self.lp = {}

    def write_inputs(self):
        pass

    def boundary(self, k):
        return hermite(self.t, *self.data[k])

    def build_all(self):
        built = []
        for k in range(self.BATCH):
            grid = supmin.Grid((self.NODES,))
            clamp = hermite(grid.coords()[:, 0], *self.data[k]).reshape(-1, 1)
            op = supmin.assemble_operator(grid, supmin.identity_tensor(1, 1))
            built.append((op, supmin.WeightedPowerNorm(1, q=2.0), clamp))
        return built

    def prepare(self):
        op = supmin.assemble_operator(supmin.Grid((self.NODES,)), supmin.identity_tensor(1, 1))
        for k in range(self.BATCH):
            self.lp[k] = lp_energy(op, self.boundary(k).reshape(-1, 1))

    def _fit(self, k):
        def run(tracer):
            out = Outcome("solve", 1)
            boundary = self.boundary(k)
            est = supmin.SupremalMinimizer(nodes=self.NODES, p_max=4096.0)
            with timed(out):
                est.fit(boundary)
            with tracer.span("bench.check"):
                report = est.report_
                label = f"oracle1d[{k}]"
                check_report(report, label, out)
                if report.degenerate:
                    out.failures.append(f"{label}: unexpected zero-energy branch")
                    return out
                lo, hi = report.bracket
                exact = self.lp[k]
                out.failures += bracket_failures(lo, hi, exact, f"{label} LP")
                out.lp_rel_err.append(abs(report.e_inf - exact) / exact)
            bb = supmin.solve_bang_bang(supmin.ClampedBC1D(*self.data[k]))
            with tracer.span("bench.check"):
                e_oracle = bb.a**2
                rel = abs(report.e_inf - e_oracle) / e_oracle
                out.oracle_rel_err.append(rel)
                if rel > ORACLE_REL_TOL:
                    out.failures.append(f"{label}: e_inf {report.e_inf:.6g} vs bang-bang {e_oracle:.6g}")
            return out
        return run

    def items(self):
        return [Item(f"fit{k}", "solve", 1, self._fit(k)) for k in range(self.BATCH)]


    def describe(self, records):
        e_inf = next((o.e_inf[0] for label, o in records if label == "fit0" and o.e_inf), float("nan"))
        return (f"{self.BATCH} items; item 0 endpoint data {self.data[0]}: e_inf {e_inf:.6g}, "
                f"LP optimum {self.lp[0]:.6g} (symmetric_velocity at seed 0: 15.8592, 15.8404)")


_SWEEP_CONFIGS = {
    "detcoupled31": ("domain.dim = 2\ndomain.nodes = 31\nfield.components = 2\n"
                     "tensor.kind = det_coupled\ntensor.gamma = 1\nbc.kind = sinusoidal\n"),
    "weighted41": ("domain.dim = 2\ndomain.nodes = 41\nfield.components = 1\n"
                   "supremand.alpha = affine:1,0.5,0.25\nbc.kind = sinusoidal\n"),
    "blockq3_25": ("domain.dim = 2\ndomain.nodes = 25\nfield.components = 2\n"
                   "tensor.kind = block_diagonal\ntensor.blocks = 1,0,0,1;2,0.5,0.5,1\n"
                   "supremand.q = 3\nbc.kind = sinusoidal\n"),
    "zero161": "domain.dim = 2\ndomain.nodes = 161\nfield.components = 1\nbc.kind = affine\n",
}
_SWEEP_PAIRS = (("detcoupled31", "weighted41"), ("blockq3_25", "zero161"))
_LP_CONFIG = "weighted41"
_ZERO_CONFIG = "zero161"


def _cli():
    import supmin.cli

    return supmin.cli


def read_report(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    entries = {}
    for line in raw.decode("utf-8").splitlines():
        key, _, value = line.partition(" = ")
        entries.setdefault(key, value)
    return raw, entries


class SweepCLI:
    """Per round, `supmin run` once per config, then `supmin sweep` on each two-config pair."""

    name = "sweep_cli"
    MIN_ITEMS = 0
    # sweep item label -> labels of the serial runs of the same configs
    SWEEP_PARTS = {"sweep-" + "+".join(pair): ["run-" + name for name in pair] for pair in _SWEEP_PAIRS}

    def __init__(self, seed, workdir):
        self.scale = amplitude_scale(seed)
        self.workdir = workdir
        self.cfg_dir = os.path.join(workdir, "configs")
        self.paths = {name: os.path.join(self.cfg_dir, name + ".cfg") for name in _SWEEP_CONFIGS}
        self.reports = {}
        self.lp_exact = None

    def write_inputs(self):
        os.makedirs(self.cfg_dir, exist_ok=True)
        for name, text in _SWEEP_CONFIGS.items():
            with open(self.paths[name], "w", encoding="utf-8") as fh:
                fh.write(text + f"bc.amplitude = {self.scale!r}\n")

    @staticmethod
    def _build(path):
        from supmin import config

        cfg = config.load_config(path)
        grid = config.build_grid(cfg)
        clamp = config.boundary_profile(cfg, grid.coords())
        op = supmin.assemble_operator(grid, config.build_tensor(cfg))
        return op, config.build_supremand(cfg), clamp

    def build_all(self):
        return [self._build(self.paths[name]) for name in _SWEEP_CONFIGS]

    def prepare(self):
        _cli()  # import outside the timed calls
        op, cost, clamp = self._build(self.paths[_LP_CONFIG])
        self.lp_exact = lp_energy(op, clamp, np.sqrt(cost.alpha(op.eq_coords())))

    def _fresh_dir(self, name):
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _serial(self, name):
        def run(tracer):
            out = Outcome("serial", 1)
            out_dir = self._fresh_dir("run-" + name)
            with timed(out), contextlib.redirect_stdout(io.StringIO()):
                code = _cli().main(["run", "--config", self.paths[name], "--out", out_dir])
            with tracer.span("bench.check"):
                self._check_serial(name, code, out_dir, out)
            return out
        return run

    def _check_serial(self, name, code, out_dir, out):
        if code != 0:
            out.failures.append(f"run {name}: exit code {code}")
            return
        raw, rep = read_report(os.path.join(out_dir, "report.txt"))
        previous = self.reports.setdefault(name, raw)
        if previous != raw:
            out.failures.append(f"run {name}: report.txt differs between two serial runs")
        e_inf = float(rep["e_inf_estimate"])
        out.e_inf.append(e_inf)
        degenerate = rep["degenerate"] == "true"
        if name == _ZERO_CONFIG:
            if not degenerate or e_inf != 0.0:
                out.failures.append(f"run {name}: expected the zero-energy branch, e_inf {e_inf}")
            return
        if degenerate:
            out.failures.append(f"run {name}: unexpected zero-energy branch")
            return
        lo, hi = float(rep["bracket_low"]), float(rep["bracket_high"])
        out.brackets.append((lo, hi))
        out.r_system_rel.append(float(rep["verify.r_system"]) / e_inf)
        out.r_harmonic.append(float(rep["verify.r_harmonic"]))
        if name == _LP_CONFIG:
            out.failures += bracket_failures(lo, hi, self.lp_exact, f"run {name} LP")
            out.lp_rel_err.append(abs(e_inf - self.lp_exact) / self.lp_exact)

    def _sweep(self, pair):
        def run(tracer):
            out = Outcome("sweep", len(pair))
            out_dir = self._fresh_dir("sweep")
            argv = ["sweep", "--out", out_dir]
            for name in pair:
                argv += ["--config", self.paths[name]]
            with timed(out), contextlib.redirect_stdout(io.StringIO()):
                code = _cli().main(argv)
            with tracer.span("bench.check"):
                self._check_sweep(pair, code, out_dir, out)
            shutil.rmtree(out_dir, ignore_errors=True)
            return out
        return run

    def _check_sweep(self, pair, code, out_dir, out):
        if code != 0:
            out.failures.append(f"sweep {pair}: exit code {code}")
            return
        with open(os.path.join(out_dir, "sweep.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for name, line in zip(pair, lines):
            sub = line.split(" -> ", 1)[1].split(" : ", 1)[0]
            raw, _ = read_report(os.path.join(out_dir, sub, "report.txt"))
            if raw != self.reports.get(name):
                out.failures.append(f"sweep {name}: report.txt differs from the serial run")

    def items(self):
        serial = [Item("run-" + name, "serial", 1, self._serial(name)) for name in _SWEEP_CONFIGS]
        sweeps = [Item("sweep-" + "+".join(pair), "sweep", len(pair), self._sweep(pair))
                  for pair in _SWEEP_PAIRS]
        return serial + sweeps

    def describe(self, records):
        e_inf = next((o.e_inf[0] for label, o in records if label == "run-" + _LP_CONFIG and o.e_inf),
                     float("nan"))
        return f"data scale {self.scale:.6g}; {_LP_CONFIG}: e_inf {e_inf:.10g}, LP optimum {self.lp_exact:.10g}"


WORKLOADS = {cls.name: cls for cls in (Smoke2D, Oracle1D, SweepCLI)}
