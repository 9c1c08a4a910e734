"""The benchmark's span recorder must still find every layer it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from regulus import ExperimentParams, Inconclusive, make_field, make_synthetic
from regulus.unitgroup import run_unit_group

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


def test_tracer_sees_every_sampling_layer():
    """A traced D=13 unit run and a short rank-2 synth run reach every layer
    the benchmark reports on those paths."""
    tracing = _load_tracing()
    unit_params = ExperimentParams(rank=1, n_param=64, q=2 ** 16, k=3)
    synth = make_synthetic(16.0 * np.eye(2), n_param=4, bucket=5, q=256)
    synth_params = ExperimentParams(rank=2, n_param=4, q=256, k=6)
    with tracing.Tracer() as tracer:
        run_unit_group(make_field(13), unit_params, trials=64, seed=11)
        try:
            run_unit_group(synth, synth_params, trials=256, seed=9)
        except Inconclusive:
            pass    # too few accepted outcomes to stabilise a rank-2 fit
    metrics = tracer.layer_metrics({})
    for name in ("ideals.principal_cycle.calls", "qsim.preimage_points.calls",
                 "qsim.qft_spectrum.calls", "qsim.two_stage.sample_calls",
                 "oracle.synthetic_preimage.calls", "lattice.recover_basis.r1_calls"):
        assert metrics[name] > 0, name
    assert metrics["qsim.state_from_points.s"] > 0
