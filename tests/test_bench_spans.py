"""The benchmark's tracer finds every rapflow name it wraps, and puts it back.

``perfbench/spans.py`` looks its names up by attribute, so a public name
deleted from rapflow fails here instead of in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import rapflow

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(classes):
    """Every attribute of every rapflow module and of the wrapped classes."""
    owners = [m for name, m in sys.modules.items()
              if name == "rapflow" or name.startswith("rapflow.")]
    return {(id(owner), key): value
            for owner in owners + list(classes)
            for key, value in list(vars(owner).items())}


def test_tracer_wraps_every_name_and_restores_the_originals():
    spans = _load_spans()
    functions, methods = spans.spans_for(rapflow)
    classes = {cls for _, cls, _, _ in methods} | {rapflow.expr.Expression}
    before = _snapshot(classes)
    tracer = spans.Tracer()
    try:
        tracer.install(rapflow)
        for _, owner, attr, _ in functions + methods:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    after = _snapshot(classes)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
