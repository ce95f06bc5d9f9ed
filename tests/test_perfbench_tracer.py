"""The benchmark's span tracer still finds every name it patches in the package.

perfbench/tracer.py replaces supmin functions by attribute name, so deleting
or renaming one of them breaks traced benchmark runs; this catches it in
tier-1.
"""

import importlib.util
import pathlib

import supmin
import supmin.continuation

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = supmin.continuation.minimize_power_energy
    tracer = module.Tracer()
    try:
        tracer.install()
        assert supmin.continuation.minimize_power_energy is not original
    finally:
        tracer.uninstall()
    assert supmin.continuation.minimize_power_energy is original
    assert supmin.minimize_power_energy is original
