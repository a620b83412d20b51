"""The benchmark tracer wraps recurlab functions by name in the modules that
call them; every binding it names must exist, or ``perfbench/run.py
--trace 1`` fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [
        (attr, module)
        for attr, (_, _, modules) in tracer._TARGETS.items()
        for module in modules
    ]


@pytest.mark.parametrize("attr, module", _targets())
def test_traced_binding_exists(attr, module):
    # checked with hasattr only; the tracer itself is not installed
    assert hasattr(importlib.import_module(f"recurlab.{module}"), attr)
