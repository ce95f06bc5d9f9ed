"""The benchmark's span tracer still finds every name it patches in the package.

perfbench/tracer.py replaces supmin functions by attribute name, so deleting
or renaming one of them breaks traced benchmark runs; this catches it in
tier-1.
"""

import collections
import importlib.util
import pathlib

from conftest import make_1d_problem

import supmin
import supmin.continuation

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    module = _load_tracer()
    original = supmin.continuation.minimize_power_energy
    tracer = module.Tracer()
    try:
        tracer.install()
        assert supmin.continuation.minimize_power_energy is not original
    finally:
        tracer.uninstall()
    assert supmin.continuation.minimize_power_energy is original
    assert supmin.minimize_power_energy is original


def test_traced_solve_records_stage_and_dual_spans():
    # the solver calls the functions the tracer wraps, so their spans are not empty
    module = _load_tracer()
    grid, op, F, u0 = make_1d_problem(nodes=41)
    tracer = module.Tracer()
    try:
        tracer.install()
        rep = supmin.continuation.continuation_solve(op, F, u0)
    finally:
        tracer.uninstall()
    counts = collections.Counter(rec[module.NAME] for rec in tracer.spans)
    assert counts["continuation.solve"] == 1
    # one dual field per row: the cold start (row 0) and the scheduled stages
    assert counts["continuation.dual"] == counts["continuation.stage"] == len(rep.rows)
