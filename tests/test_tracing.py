"""The benchmark's span recorder must still find every layer it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while executing
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_and_restores_every_layer():
    tracing = _load_tracing()
    before = [_lookup(m, a) for m, a, _ in tracing.WRAPPED]
    with tracing.Tracer() as tracer:
        assert len(tracer._saved) == len(tracing.WRAPPED)
        assert all(_lookup(m, a) is not f
                   for (m, a, _), f in zip(tracing.WRAPPED, before))
    assert all(_lookup(m, a) is f for (m, a, _), f in zip(tracing.WRAPPED, before))
