#!/usr/bin/env python3
"""Write the behaviour contract of a refactor as one sorted-key JSON file.

A change that should not move any output must give a byte-identical file
before and after it.  The script uses only the public API, so one copy of it
serves both trees: run it with `PYTHONPATH` set to each tree's `src`, then
compare the files.

    PYTHONPATH=path/to/parent/src python scripts/pinned_outputs.py --out pinned-parent.json
    PYTHONPATH=src python scripts/pinned_outputs.py --out pinned-change.json
    cmp pinned-parent.json pinned-change.json

The file holds:
- `run_unit_group` on every squarefree D <= 200 at seed 20260808: the
  regulator's repr, the unit, the stats and the recovered basis;
- the criterion-3 planted rank-2 lattice (8192 trials) at seeds 0, 6 and 9;
- `run_pip` on the 10 reduced ideals of D=10 and D=13 at seeds 0, 11 and
  20260808: the verdict, the repr of theta and every diagnostic;
- `empirical_success` on the criterion-2 fields and the criterion-3
  instance, as reprs;
- a sha256 of the output of every README command-line example and of the
  criterion-10 command.

An `Inconclusive` run is recorded by its message.  A run takes about a
minute and a half on one x86_64 core.
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from regulus import ExperimentParams, Inconclusive, make_field, make_synthetic
from regulus.cli import main as cli_main
from regulus.numfield import _squarefree
from regulus.oracle import reduced_ideals
from regulus.pip_solver import PipInstance, run_pip
from regulus.unitgroup import empirical_success, run_unit_group

SEED = 20260808
UNIT_PARAMS = ExperimentParams(rank=1, n_param=64, q=2 ** 16, k=3, precision=96)
SYNTH_PARAMS = ExperimentParams(rank=2, n_param=4, q=2 ** 8, k=6, precision=96)
PIP_SEEDS = (0, 11, SEED)

# README command-line examples, then the criterion-10 command
CLI_EXAMPLES = [
    "units --d 13 --log2q 16 --n 64 --k 3 --trials 200 --seed 7",
    "pip --d 13 --p 1 --q-coeff 3 --trials 48 --seed 11",
    "spectrum --d 13 --n 64 --log2q 12 --k 3 --seed 5",
    "probe-f --d 13 --n 64 --from 0 --to 100",
    "oracle regulator --d 13",
    "oracle cycle --d 13",
    "oracle nonprincipal --d 10",
    "synth --rank 2 --scale 16 --n 4 --bucket 5 --log2q 8 --k 6 --trials 8192 --seed 9",
    "units --d 13 --log2q 14 --n 64 --k 3 --trials 100 --seed 7",
]


def _synth():
    return make_synthetic(16.0 * np.eye(2), n_param=4, bucket=5, q=2 ** 8)


def _unit_run(target, params, trials, seed):
    try:
        res = run_unit_group(target, params, trials=trials, seed=seed)
    except Inconclusive as exc:
        return {"inconclusive": str(exc)}
    return {
        "regulator": repr(res.regulator),
        "unit": res.fundamental_unit,
        "stats": res.stats,
        "basis": [[repr(float(x)) for x in row] for row in res.lattice.basis],
    }


def _pip_run(field, ideal, seed):
    try:
        res = run_pip(PipInstance(field=field, ideal=ideal), trials=48, seed=seed)
    except Inconclusive as exc:
        return {"inconclusive": str(exc)}
    return {"verdict": res.verdict, "theta": repr(res.theta),
            "diagnostics": {k: repr(v) for k, v in res.diagnostics.items()}}


def _cli_digest(command: str, tmp: Path) -> str:
    """sha256 of what the command writes: its --out file, or stdout."""
    argv = command.split()
    out = tmp / "out"
    if argv[0] in ("units", "pip", "spectrum", "synth") or argv[1] == "cycle":
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    data = out.read_bytes() if out.exists() else stdout.getvalue().encode()
    out.unlink(missing_ok=True)
    return f"exit {code} sha256 {hashlib.sha256(data).hexdigest()}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    args = ap.parse_args()

    units = {str(d): _unit_run(make_field(d), UNIT_PARAMS, 200, SEED)
             for d in range(2, 201) if _squarefree(d)}
    synth = {str(s): _unit_run(_synth(), SYNTH_PARAMS, 8192, s) for s in (0, 6, 9)}
    pip = {}
    for d in (10, 13):
        field = make_field(d)
        for ideal in reduced_ideals(field):
            for seed in PIP_SEEDS:
                pip[f"D={d} ({ideal.p},{ideal.q}) seed={seed}"] = _pip_run(field, ideal, seed)
    success = {f"D={d}": repr(empirical_success(make_field(d), UNIT_PARAMS))
               for d in (2, 3, 6, 7, 13, 19)}
    success["synth"] = repr(empirical_success(_synth(), SYNTH_PARAMS))
    with tempfile.TemporaryDirectory() as tmp:
        cli = {cmd: _cli_digest(cmd, Path(tmp)) for cmd in CLI_EXAMPLES}

    doc = {"units": units, "synth": synth, "pip": pip,
           "empirical_success": success, "cli": cli}
    Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
