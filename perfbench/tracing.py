"""Span recorder that wraps regulus layer functions from outside the package.

Each wrapped call records a span (name, start, end, parent) in memory; self
time is a span's duration minus the time its child spans cover.  Functions
are replaced at the names where their callers look them up (for example
`regulus.unitgroup.qft_spectrum`, not `regulus.qsim.qft_spectrum`), and
methods on their classes, so nothing under `src/` changes.  `Tracer` is a
context manager: leaving it restores every original attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field

from regulus.errors import Inconclusive

# (module, attribute or Class.method, span name).  One function may be looked
# up under several module names; each lookup site is wrapped.
WRAPPED = [
    ("regulus.unitgroup", "principal_cycle", "ideals.principal_cycle"),
    ("regulus.pip_solver", "principal_cycle", "ideals.principal_cycle"),
    ("regulus.qsim", "CycleHider.preimage_points", "qsim.preimage_points"),
    ("regulus.unitgroup", "state_from_points", "qsim.state_from_points"),
    ("regulus.unitgroup", "qft_spectrum", "qsim.qft_spectrum"),
    ("regulus.qsim", "TwoStageSampler.__init__", "qsim.two_stage.init"),
    ("regulus.qsim", "TwoStageSampler.sample", "qsim.two_stage.sample"),
    ("regulus.oracle", "SyntheticOracle.preimage_points", "oracle.synthetic_preimage"),
    ("regulus.unitgroup", "recover_basis", "lattice.recover_basis"),
    ("regulus.unitgroup", "run_unit_group", "unitgroup.run_unit_group"),
    ("regulus.pip_solver", "run_unit_group", "unitgroup.run_unit_group"),
    ("regulus.pip_solver", "run_pip", "pip_solver.run_pip"),
    ("regulus.pip_solver", "PairSampler.__init__", "pip_solver.pair_sampler.init"),
    ("regulus.pip_solver", "PairSampler.sample", "pip_solver.pair_sampler.sample"),
    ("regulus.pip_solver", "PairSampler.row_transforms", "pip_solver.row_transforms"),
    ("regulus.pip_solver", "verify_generator", "pip_solver.verify_generator"),
]

# qft_spectrum writes a float64 indicator, a complex128 transform and float64
# probabilities over the (qk)^r grid: 8 + 16 + 8 bytes per grid point.
_QFT_BYTES_PER_POINT = 32

# Per-layer metrics: name -> unit.  Every traced run reports all of them; a
# layer the workload never reaches reads 0.
PER_LAYER = {
    "ideals.principal_cycle.s": "s",
    "ideals.principal_cycle.calls": "count",
    "ideals.cycle_entries": "count",
    "qsim.preimage_points.s": "s",
    "qsim.preimage_points.calls": "count",
    "qsim.state_from_points.s": "s",
    "qsim.qft_spectrum.s": "s",
    "qsim.qft_spectrum.calls": "count",
    "qsim.qft_spectrum.bytes_computed": "B",
    "qsim.label_reuse": "trials/label",
    "qsim.two_stage.init_s": "s",
    "qsim.two_stage.sample_s": "s",
    "qsim.two_stage.sample_calls": "count",
    "oracle.synthetic_preimage.s": "s",
    "oracle.synthetic_preimage.calls": "count",
    "lattice.recover_basis.r1_s": "s",
    "lattice.recover_basis.r1_calls": "count",
    "lattice.recover_basis.r2_s": "s",
    "lattice.recover_basis.r2_calls": "count",
    "unitgroup.run_unit_group.self_s": "s",
    "unitgroup.run_unit_group.calls": "count",
    "unitgroup.accepted_frac": "frac",
    "unitgroup.restarts": "count",
    "unitgroup.stabilised_at_p50": "count",
    "unitgroup.inconclusive.constant_hider": "count",
    "unitgroup.inconclusive.unit_verify": "count",
    "unitgroup.inconclusive.other": "count",
    "pip_solver.run_pip.self_s": "s",
    "pip_solver.unit_stage_s": "s",
    "pip_solver.pair_sampler.init_s": "s",
    "pip_solver.pair_sampler.sample_s": "s",
    "pip_solver.pair_sampler.sample_calls": "count",
    "pip_solver.row_transforms.s": "s",
    "pip_solver.row_transforms.calls": "count",
    "pip_solver.row_transforms.cells": "count",
    "pip_solver.verify_generator.s": "s",
    "pip_solver.verify_generator.calls": "count",
    "pip_solver.accepted_frac": "frac",
    "pip_solver.coprime_attempts": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _annotate(name: str, args: tuple, kwargs: dict, result, info: dict) -> None:
    """Counters read at the span boundary from the call's arguments and result."""
    if name == "ideals.principal_cycle":
        info["entries"] = len(result)
    elif name == "qsim.qft_spectrum":
        params = args[1] if len(args) > 1 else kwargs["params"]
        info["bytes"] = params.qk ** params.rank * _QFT_BYTES_PER_POINT
    elif name == "unitgroup.run_unit_group":
        info["stats"] = result.stats
    elif name == "pip_solver.run_pip":
        info["diagnostics"] = result.diagnostics
    elif name == "pip_solver.row_transforms":
        info["cells"] = int(args[0].starts.size)


class Tracer:
    """Installs span-recording wrappers on enter and removes them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, func, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=stack[-1] if stack else None)
            if name == "lattice.recover_basis":
                rank = kwargs["rank"] if "rank" in kwargs else args[2]
                span.name = f"{name}.r{rank}"
            elif name == "unitgroup.run_unit_group":
                span.info["trials"] = kwargs["trials"] if "trials" in kwargs else args[2]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except Inconclusive as exc:
                span.info["inconclusive"] = str(exc)
                target = args[0] if args else kwargs.get("target")
                span.info["d"] = getattr(target, "d", None)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            _annotate(name, args, kwargs, result, span.info)
            return result

        return wrapper

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, self time."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "self_s": span.self_s,
                }, sort_keys=True) + "\n")

    def layer_metrics(self, principal_len: dict[int, int]) -> dict[str, float]:
        """Per-layer metrics of the traced pass.

        `principal_len` maps D to the oracle's principal-cycle length; an
        Inconclusive unit run on a one-entry cycle is counted as a constant
        hider, since the error message alone does not tell the causes apart."""
        spans = self.spans
        by_name: dict[str, list[Span]] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        def self_s(name):
            return sum(s.self_s for s in by_name.get(name, ()))

        def calls(name):
            return len(by_name.get(name, ()))

        def info_sum(name, key):
            return sum(s.info.get(key, 0) for s in by_name.get(name, ()))

        def under_unit_run(span):
            while span.parent is not None:
                span = spans[span.parent]
                if span.name == "unitgroup.run_unit_group":
                    return True
            return False

        unit_runs = by_name.get("unitgroup.run_unit_group", [])
        # accepted, restarts and stabilisation come from runs that returned
        stats = [s.info["stats"] for s in unit_runs if "stats" in s.info]
        trials = sum(s.info["trials"] for s in unit_runs)
        inconclusive = {"constant_hider": 0, "unit_verify": 0, "other": 0}
        for span in unit_runs:
            message = span.info.get("inconclusive")
            if message is None:
                continue
            if principal_len.get(span.info.get("d")) == 1:
                inconclusive["constant_hider"] += 1
            elif "unit verification" in message:
                inconclusive["unit_verify"] += 1
            else:
                inconclusive["other"] += 1
        # labels built while sampling: preimages collapsed to inside a unit run
        labels = sum(1 for name in ("qsim.preimage_points", "oracle.synthetic_preimage")
                     for s in by_name.get(name, ()) if under_unit_run(s))
        pips = [s.info["diagnostics"] for s in by_name.get("pip_solver.run_pip", ())
                if "diagnostics" in s.info]
        pip_samples = sum(d["samples"] for d in pips)
        unit_stage = sum(s.duration for s in unit_runs
                         if s.parent is not None and spans[s.parent].name == "pip_solver.run_pip")

        return {
            "ideals.principal_cycle.s": self_s("ideals.principal_cycle"),
            "ideals.principal_cycle.calls": calls("ideals.principal_cycle"),
            "ideals.cycle_entries": info_sum("ideals.principal_cycle", "entries"),
            "qsim.preimage_points.s": self_s("qsim.preimage_points"),
            "qsim.preimage_points.calls": calls("qsim.preimage_points"),
            "qsim.state_from_points.s": self_s("qsim.state_from_points"),
            "qsim.qft_spectrum.s": self_s("qsim.qft_spectrum"),
            "qsim.qft_spectrum.calls": calls("qsim.qft_spectrum"),
            "qsim.qft_spectrum.bytes_computed": info_sum("qsim.qft_spectrum", "bytes"),
            "qsim.label_reuse": trials / labels if labels else 0.0,
            "qsim.two_stage.init_s": self_s("qsim.two_stage.init"),
            "qsim.two_stage.sample_s": self_s("qsim.two_stage.sample"),
            "qsim.two_stage.sample_calls": calls("qsim.two_stage.sample"),
            "oracle.synthetic_preimage.s": self_s("oracle.synthetic_preimage"),
            "oracle.synthetic_preimage.calls": calls("oracle.synthetic_preimage"),
            "lattice.recover_basis.r1_s": self_s("lattice.recover_basis.r1"),
            "lattice.recover_basis.r1_calls": calls("lattice.recover_basis.r1"),
            "lattice.recover_basis.r2_s": self_s("lattice.recover_basis.r2"),
            "lattice.recover_basis.r2_calls": calls("lattice.recover_basis.r2"),
            "unitgroup.run_unit_group.self_s": self_s("unitgroup.run_unit_group"),
            "unitgroup.run_unit_group.calls": len(unit_runs),
            "unitgroup.accepted_frac": (sum(s["accepted"] for s in stats)
                                        / sum(s["trials"] for s in stats) if stats else 0.0),
            "unitgroup.restarts": sum(s["restarts"] for s in stats),
            "unitgroup.stabilised_at_p50": (statistics.median(s["stabilised_at"] for s in stats)
                                            if stats else 0.0),
            "unitgroup.inconclusive.constant_hider": inconclusive["constant_hider"],
            "unitgroup.inconclusive.unit_verify": inconclusive["unit_verify"],
            "unitgroup.inconclusive.other": inconclusive["other"],
            "pip_solver.run_pip.self_s": self_s("pip_solver.run_pip"),
            "pip_solver.unit_stage_s": unit_stage,
            "pip_solver.pair_sampler.init_s": self_s("pip_solver.pair_sampler.init"),
            "pip_solver.pair_sampler.sample_s": self_s("pip_solver.pair_sampler.sample"),
            "pip_solver.pair_sampler.sample_calls": calls("pip_solver.pair_sampler.sample"),
            "pip_solver.row_transforms.s": self_s("pip_solver.row_transforms"),
            "pip_solver.row_transforms.calls": calls("pip_solver.row_transforms"),
            "pip_solver.row_transforms.cells": info_sum("pip_solver.row_transforms", "cells"),
            "pip_solver.verify_generator.s": self_s("pip_solver.verify_generator"),
            "pip_solver.verify_generator.calls": calls("pip_solver.verify_generator"),
            "pip_solver.accepted_frac": (sum(d["accepted"] for d in pips) / pip_samples
                                         if pip_samples else 0.0),
            "pip_solver.coprime_attempts": sum(d["coprime_attempts"] for d in pips),
            "trace.spans": len(spans),
        }
