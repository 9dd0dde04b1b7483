"""The benchmark's tracer must still find its targets in the library.

A target the tracer cannot resolve is reported absent and its layer reads
zero, so a rename inside pontus would silently blind a per-layer metric.
"""

import importlib.util
from pathlib import Path

import pontus.cli  # noqa: F401  (loads every module the tracer patches)

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# targets whose code was gone before this check existed
STALE = {"pontus.dynamics.ConstantFlow.block"}


def test_tracer_resolves_every_live_target():
    with tracer.Tracer() as t:
        pass
    assert set(t.absent) <= STALE
