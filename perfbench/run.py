#!/usr/bin/env python3
"""regulus benchmark: one workload per invocation.

    python3 perfbench/run.py --workload units --seed 1 --seconds 40 --trace 0

Run from the repository root.  Set-up (import, inputs, oracle ground truth,
warm-up) is repeated and its median reported as `setup_s`.  The workload is
then run in whole passes over its operations, single-threaded: at least
two passes, then more while another fits in `--seconds`.  An operation's
time is the fastest of its passes.  Every outcome is checked against the
oracle and against the first pass.  `--trace 0` prints the
end-to-end metrics; `--trace 1` adds one pass under the span recorder and
prints the per-layer metrics, with spans written to
`perfbench/out/<workload>-seed<seed>.jsonl`.  The last line of standard
output is the JSON result; the line before it records host and code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "decided_frac": "frac",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["units", "pip", "synth"])
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the acceptance seed (20260808; 9 for synth)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _git_commit() -> str:
    """HEAD commit read from the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host() -> dict:
    import mpmath
    import numpy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "regulus").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def _run_pass(workload, first, op_times) -> tuple[int, int]:
    """Run every operation once; returns (attempted, failed)."""
    failed = 0
    for i, op in enumerate(workload.ops):
        t0 = time.perf_counter()
        try:
            outcome = workload.run(op)
        except Exception:                       # any non-Inconclusive raise fails
            traceback.print_exc()
            outcome = ("error",)
        op_times[i].append(time.perf_counter() - t0)
        ok = outcome[0] != "error" and workload.check(op, outcome)
        if first[i] is None:
            first[i] = outcome
        elif outcome != first[i]:
            print(f"nondeterministic outcome on op {i}: {outcome!r} != {first[i]!r}",
                  file=sys.stderr)
            ok = False
        if not ok:
            print(f"FAILED {workload.name} op {i}: {outcome!r}", file=sys.stderr)
            failed += 1
    return len(workload.ops), failed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "regulus" / "__init__.py").is_file():
        print(f"error: no regulus sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - t0

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    first = [None] * len(workload.ops)
    op_times = [[] for _ in workload.ops]
    pass_times = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        n, bad = _run_pass(workload, first, op_times)
        pass_times.append(time.perf_counter() - t0)
        attempted, failed = attempted + n, failed + bad
        if (len(pass_times) >= MIN_PASSES and
                time.perf_counter() - start + statistics.median(pass_times) > args.seconds):
            break
    # other tenants' load only ever adds time, so each operation counts at the
    # fastest of its passes; p50 and p90 are then taken across operations
    per_op = [min(ts) for ts in op_times]
    pass_s = statistics.median(pass_times)

    if args.trace:
        import tracing

        with tracing.Tracer() as tracer:
            t0 = time.perf_counter()
            n, bad = _run_pass(workload, first, [[] for _ in workload.ops])
            traced_s = time.perf_counter() - t0
        attempted, failed = attempted + n, failed + bad
        values = tracer.layer_metrics(workload.principal_len)
        values["trace.overhead_frac"] = traced_s / pass_s - 1.0
        units = tracing.PER_LAYER
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{workload.name}-seed{workload.seed}.jsonl")
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "throughput_per_s": workload.work_per_pass / sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_p90_s": (statistics.quantiles(per_op, n=10, method="inclusive")[-1]
                         if len(per_op) > 1 else per_op[0]),
            "decided_frac": sum(map(workload.decided, first)) / len(first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(json.dumps({
        "workload": workload.name, "seed": workload.seed, "trace": args.trace,
        "work_unit": workload.work_unit, "ops_per_pass": len(workload.ops),
        "passes": len(pass_times), "pass_s": pass_times,
        "import_s": import_s, "setup_repeats_s": setup_times,
        "op_s": {workload.label(op): ts for op, ts in zip(workload.ops, op_times)},
        "host": _host(),
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
