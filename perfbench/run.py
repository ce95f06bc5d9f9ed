"""supmin benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {smoke2d,oracle1d,sweep_cli} --seed N --seconds S --trace {0,1}

The seed makes the inputs; the package sees only those inputs.  With
``--trace 0`` the run measures end-to-end metrics with no instrumentation;
with ``--trace 1`` every item runs twice, once with spans around supmin's
public entry points and once without, and the run reports per-layer metrics
and the tracing overhead.  Outputs are checked by the gates in workloads.py.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.perfbench/`` under the repository root, which the run removes except for
the span file of a traced run.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

from layers import layer_metrics
from tracer import NullTracer, Tracer, span_cost_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("smoke2d", "oracle1d", "sweep_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def setup_seconds(workload, seed, workdir):
    """Median set-up time over fresh interpreters (import plus problem building)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-4000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def run_item(item, tracer):
    """Run one item; an exception fails every solve the item attempted."""
    from workloads import Outcome

    try:
        return item.run(tracer)
    except Exception as exc:  # a crashing solve is a counted failure, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return Outcome(item.kind, item.solves, failures=[f"{item.label}: {exc!r}"])


def measure(wl, seconds):
    """Untraced loop: one pass over the items, then more while below MIN_ITEMS or the next one fits in time."""
    null = NullTracer()
    records = []
    durations = defaultdict(list)
    items = wl.items()
    start = time.perf_counter()
    for k in itertools.count():
        item = items[k % len(items)]
        if k >= max(len(items), wl.MIN_ITEMS):
            expected = statistics.median(durations[item.label])
            if time.perf_counter() - start + expected > seconds:
                return records
        t0 = time.perf_counter()
        records.append((item.label, run_item(item, null)))
        durations[item.label].append(time.perf_counter() - t0)


def measure_traced(wl):
    """One pass; each item runs traced and untraced, in alternating order."""
    tracer, null = Tracer(), NullTracer()
    traced, untraced, item_spans = [], [], []
    for i, item in enumerate(wl.items()):
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                tracer.install()
                try:
                    with tracer.span("bench.item", kind="item") as idx:
                        traced.append((item.label, run_item(item, tracer)))
                finally:
                    tracer.uninstall()
                item_spans.append(idx)
            else:
                untraced.append((item.label, run_item(item, null)))
    return tracer, item_spans, traced, untraced


def e2e_metrics(records, setup_s, rss_mb):
    outs = [o for _, o in records]
    per_solve = [o.wall / o.solves for o in outs if o.kind in ("solve", "serial")]
    throughput = [o for o in outs if o.kind == "sweep"] or [o for o in outs if o.kind == "solve"]
    widths = [(hi - lo) / (0.5 * (hi + lo)) for o in outs for lo, hi in o.brackets]
    attempted = sum(o.solves for o in outs)
    failed = sum(o.solves for o in outs if o.failures)
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(per_solve), "s"),
        "solve_s_p90": (p90(per_solve), "s"),
        "solves_per_s": (sum(o.solves for o in throughput) / sum(o.wall for o in throughput), "1/s"),
        "bracket_rel_width": (max(widths), "ratio"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, sorted(per_solve)


def _max_or(values, default):
    return max(values) if values else default


def trace_metrics(wl, tracer, item_spans, traced, untraced):
    metrics, n_solves = layer_metrics(tracer.spans, item_spans)
    outs = [o for _, o in traced]
    traced_wall = sum(o.wall for o in outs)
    untraced_wall = sum(o.wall for _, o in untraced)
    n_spans = metrics["trace.spans"][0] * max(n_solves, 1)
    sweeps = [o for _, o in untraced if o.kind == "sweep"]
    walls = defaultdict(list)
    for label, o in untraced:
        walls[label].append(o.wall)
    speedups = [
        sum(statistics.median(walls[part]) for part in parts) / statistics.median(walls[label])
        for label, parts in getattr(wl, "SWEEP_PARTS", {}).items()
        if label in walls and all(part in walls for part in parts)
    ]
    metrics.update({
        "verify.r_system_rel_max": (_max_or([r for o in outs for r in o.r_system_rel], 0.0), "ratio"),
        "verify.r_harmonic_max": (_max_or([r for o in outs for r in o.r_harmonic], 0.0), "ratio"),
        "verify.lp_rel_err": (_max_or([r for o in outs for r in o.lp_rel_err], -1.0), "ratio"),
        "bangbang.oracle_rel_err": (_max_or([r for o in outs for r in o.oracle_rel_err], -1.0), "ratio"),
        "cli.cores_busy": (statistics.median([o.cpu / o.wall for o in sweeps]) if sweeps else 0.0, "ratio"),
        "cli.pool_speedup": (statistics.median(speedups) if speedups else 0.0, "ratio"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.span_cost_frac": (span_cost_s() * n_spans / traced_wall, "ratio"),
    })
    return metrics, n_solves


def machine_facts():
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "supmin", "__init__.py")):
        print(f"perfbench: no supmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.write_inputs()
        setup_s = setup_samples = None
        if not args.trace:
            setup_s, setup_samples = setup_seconds(args.workload, args.seed, workdir)
        wl.prepare()
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} {machine_facts()}")
        if args.trace:
            tracer, item_spans, traced, untraced = measure_traced(wl)
            span_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(span_file)
            metrics, n = trace_metrics(wl, tracer, item_spans, traced, untraced)
            records = traced + untraced
            print(f"traced solves: {n}; spans written to {os.path.relpath(span_file, ROOT)}")
        else:
            records = measure(wl, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, samples = e2e_metrics(records, setup_s, rss_mb)
            quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
            print(f"solve_s samples: n={len(samples)} min={samples[0]:.4f} q1={quartiles[0]:.4f} "
                  f"median={quartiles[1]:.4f} q3={quartiles[2]:.4f} max={samples[-1]:.4f}")
            print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_samples))
            walls = defaultdict(list)
            for label, o in records:
                walls[label].append(o.wall)
            if len(walls) <= 10:
                print("median wall per item: " + " ".join(
                    f"{label}={statistics.median(w):.4f}(n={len(w)})" for label, w in walls.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"inputs: {wl.describe(records)}")
    attempted = sum(o.solves for _, o in records)
    failed = sum(o.solves for _, o in records if o.failures)
    for label, o in records:
        for message in o.failures[:3]:
            print(f"FAIL {label}: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
