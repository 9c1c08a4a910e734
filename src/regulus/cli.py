"""Command-line experiment harness.

Subcommands: units, pip, spectrum, probe-f, oracle {regulator|cycle|
nonprincipal}, synth.  All flags are long-form, and each default is the
argparse default of its flag; an optional key=value config file replaces the
defaults of the same-named flags, which explicit flags override.  Trials run
serially, and a fixed seed makes every output byte-identical across reruns;
`units --workers` is still accepted and has no effect."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import Inconclusive, NotSquarefree, RegulusError
from .ideals import ExperimentParams, ReducedIdeal, grid_label, is_reduced, principal_cycle
from .lattice import RealLattice
from .numfield import make_field
from .oracle import certified_nonprincipal, cf_regulator, make_synthetic
from .pip_solver import PipInstance, run_pip
from .qsim import CycleHider, collapse, qft_spectrum
from .unitgroup import run_unit_group

_CSV_HEADER_NOTE = ("# values: IEEE-754 binary64, shortest 17-significant-digit "
                    "decimal, round-half-even\n")


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _field_or_error(parser: argparse.ArgumentParser, d: int):
    try:
        return make_field(d)
    except NotSquarefree:
        parser.error("--d: D must be squarefree")
    except ValueError as exc:
        parser.error(f"--d: {exc}")


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _checked_int(ok, what: str):
    """argparse type: an integer for which `ok` holds.  On a bad value
    argparse exits 2, naming the flag before this message."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or not ok(int(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return int(text)
    return parse


_POWER_OF_2 = _checked_int(lambda v: v >= 1 and v & (v - 1) == 0, "a power of 2")
_POSITIVE = _checked_int(lambda v: v >= 1, "at least 1")
_K_OR_ZERO = _checked_int(lambda v: v >= 0, "at least 0 (0 picks 3 * rank)")


def cmd_units(parser, args) -> int:
    field = _field_or_error(parser, args.d)
    params = ExperimentParams(rank=1, n_param=args.n, q=2 ** args.log2q,
                              k=args.k, precision=args.precision)
    reg_oracle = float(cf_regulator(args.d, args.precision))
    oracle_lat = RealLattice(np.array([[params.n_param * reg_oracle]]))
    res = run_unit_group(field, params, trials=args.trials, seed=args.seed,
                         workers=args.workers, oracle_lattice=oracle_lat)
    x, y = res.fundamental_unit
    _write_json(args.out, {
        "d": args.d,
        "n_param": params.n_param,
        "q": params.q,
        "k": params.k,
        "trials": res.stats["trials"],
        "restarts": res.stats["restarts"],
        "accepted": res.stats["accepted"],
        "regulator": res.regulator,
        "unit": {"x": x, "y": y},
        "success_rate": res.stats["success_rate"],
        "seed": args.seed,
    })
    return 0


def cmd_pip(parser, args) -> int:
    field = _field_or_error(parser, args.d)
    ideal = ReducedIdeal(args.p, args.q_coeff)
    if not is_reduced(field, ideal):
        parser.error(f"--p/--q-coeff: ({args.p}, {args.q_coeff}) is not a "
                     f"reduced ideal of D={args.d}")
    res = run_pip(PipInstance(field=field, ideal=ideal), trials=args.trials,
                  seed=args.seed)
    _write_json(args.out, {
        "d": args.d,
        "ideal": {"p": args.p, "q_coeff": args.q_coeff},
        "verdict": res.verdict,
        "theta": res.theta,
        "samples": res.diagnostics["samples"],
        "coprime_attempts": res.diagnostics["coprime_attempts"],
        "seed": args.seed,
    })
    return 0


def cmd_spectrum(parser, args) -> int:
    field = _field_or_error(parser, args.d)
    params = ExperimentParams(rank=1, n_param=args.n, q=2 ** args.log2q,
                              k=args.k, precision=args.precision)
    cycle = principal_cycle(field, args.precision)
    hider = CycleHider(cycle, params)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed))
    state = collapse(hider, params, rng)
    dist = qft_spectrum(state, params)
    lines = [_CSV_HEADER_NOTE, "c,probability\n"]
    for c, p in dist.nonzero_items():
        lines.append(f"{c[0]},{format(p, '.17g')}\n")
    with open(args.out, "w") as fh:
        fh.writelines(lines)
    return 0


def cmd_probe_f(parser, args) -> int:
    field = _field_or_error(parser, args.d)
    cycle = principal_cycle(field, args.precision)
    rows = ["v,p,q_coeff\n"]
    for v in range(args.start, args.stop + 1):
        ideal = grid_label(cycle, args.n, v)
        rows.append(f"{v},{ideal.p},{ideal.q}\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(rows)
    else:
        sys.stdout.writelines(rows)
    return 0


def cmd_oracle(parser, args) -> int:
    field = _field_or_error(parser, args.d)
    if args.oracle_cmd == "regulator":
        print(f"{float(cf_regulator(args.d, args.precision)):.6f}")
        return 0
    if args.oracle_cmd == "cycle":
        cycle = principal_cycle(field, args.precision)
        rows = [_CSV_HEADER_NOTE, "p,q_coeff,delta\n"]
        rows += [f"{p},{q},{delta}\n" for p, q, delta in cycle.csv_rows()]
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(rows)
        else:
            sys.stdout.writelines(rows)
        return 0
    # nonprincipal
    try:
        cert = certified_nonprincipal(field, args.precision)
    except RegulusError:
        print(f"every reduced ideal of D={args.d} is principal", file=sys.stderr)
        return 3
    _write_json(args.out, {
        "d": args.d,
        "ideal": {"p": cert.ideal.p, "q_coeff": cert.ideal.q},
        "total_reduced": cert.total_reduced,
        "principal_count": cert.principal_count,
    })
    return 0


def cmd_synth(parser, args) -> int:
    if args.rank not in (1, 2):
        parser.error(f"--rank: must be 1 or 2, got {args.rank}")
    basis = args.scale * np.eye(args.rank)
    oracle = make_synthetic(basis, args.n, args.bucket, 2 ** args.log2q)
    params = ExperimentParams(rank=args.rank, n_param=args.n, q=2 ** args.log2q,
                              k=args.k, precision=args.precision)
    planted = RealLattice(oracle.effective)
    res = run_unit_group(oracle, params, trials=args.trials, seed=args.seed,
                         oracle_lattice=planted)
    det_rec = res.lattice.det() * args.n ** args.rank   # det of the scaled lattice
    det_planted = planted.det()
    _write_json(args.out, {
        "rank": args.rank,
        "scale": args.scale,
        "n_param": args.n,
        "q": params.q,
        "k": params.k,
        "bucket": args.bucket,
        "trials": res.stats["trials"],
        "restarts": res.stats["restarts"],
        "accepted": res.stats["accepted"],
        "det_planted": det_planted,
        "det_recovered": det_rec,
        "det_rel_error": abs(det_rec - det_planted) / det_planted,
        "success_rate": res.stats["success_rate"],
        "seed": args.seed,
    })
    return 0


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; `config` (key -> text) sets the defaults of same-named
    flags, which argparse type-checks as it does flag values."""
    parser = argparse.ArgumentParser(
        prog="regulus",
        description="Period-finding experiments on real quadratic orders")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, precision=True, out=None):
        """The shared flags, added last, then the config over every flag."""
        p.add_argument("--config", type=str, default=None)
        if precision:
            p.add_argument("--precision", type=int, default=96)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=out)
        if config:
            p.set_defaults(**{a.dest: config[a.dest] for a in p._actions if a.dest in config})

    p_units = sub.add_parser("units", help="recover the regulator and unit")
    p_units.add_argument("--d", type=int, required=True)
    p_units.add_argument("--n", type=_POWER_OF_2, default=64)
    p_units.add_argument("--log2q", type=_POSITIVE, default=16)
    p_units.add_argument("--k", type=_POSITIVE, default=3)
    p_units.add_argument("--trials", type=int, default=200)
    p_units.add_argument("--workers", type=int, default=1,
                         help="accepted for older scripts; trials run serially")
    common(p_units)

    p_pip = sub.add_parser("pip", help="decide principality of a reduced ideal")
    p_pip.add_argument("--d", type=int, required=True)
    p_pip.add_argument("--p", type=int, required=True)
    p_pip.add_argument("--q-coeff", type=int, required=True, dest="q_coeff")
    p_pip.add_argument("--trials", type=int, default=48)
    common(p_pip, precision=False)

    p_spec = sub.add_parser("spectrum", help="dump one collapse's exact spectrum")
    p_spec.add_argument("--d", type=int, required=True)
    p_spec.add_argument("--n", type=_POWER_OF_2, default=64)
    p_spec.add_argument("--log2q", type=_POSITIVE, default=16)
    p_spec.add_argument("--k", type=_POSITIVE, default=3)
    common(p_spec, out="spectrum.csv")

    p_probe = sub.add_parser("probe-f", help="tabulate the grid hiding function")
    p_probe.add_argument("--d", type=int, required=True)
    p_probe.add_argument("--n", type=_POWER_OF_2, default=64)
    p_probe.add_argument("--from", type=int, required=True, dest="start")
    p_probe.add_argument("--to", type=int, required=True, dest="stop")
    common(p_probe)

    p_oracle = sub.add_parser("oracle", help="classical ground-truth queries")
    osub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("regulator", "cycle", "nonprincipal"):
        po = osub.add_parser(name)
        po.add_argument("--d", type=int, required=True)
        common(po)

    p_synth = sub.add_parser("synth", help="planted-lattice recovery experiment")
    p_synth.add_argument("--rank", type=int, default=2)
    p_synth.add_argument("--scale", type=float, default=16.0)
    p_synth.add_argument("--n", type=_POWER_OF_2, default=4)
    p_synth.add_argument("--bucket", type=int, default=5)
    p_synth.add_argument("--log2q", type=_POSITIVE, default=8)
    p_synth.add_argument("--k", type=_K_OR_ZERO, default=0)
    p_synth.add_argument("--trials", type=int, default=4096)
    common(p_synth)
    return parser


_DISPATCH = {
    "units": cmd_units,
    "pip": cmd_pip,
    "spectrum": cmd_spectrum,
    "probe-f": cmd_probe_f,
    "oracle": cmd_oracle,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:         # parse again with the file's values as defaults
        try:
            config = _load_config(args.config)
        except OSError as exc:
            parser.error(f"--config: {exc}")
        parser = build_parser(config)
        args = parser.parse_args(argv)
    sub = _DISPATCH[args.command]
    try:
        return sub(parser, args)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except RegulusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
