"""Command-line interface.

Subcommands: phases, prepare, verify-bounds, grover, sweep, make-oracle.
The exit code is 0 exactly when every bound check of the invoked run passed,
1 when one failed, and 2, with one ``error:`` line, when the run was refused
(any ``QsprepError``, a file that cannot be read, decoded or written
included).
File formats match the library serializers: polynomials as a header plus one
coefficient per line, phase sequences as one angle per line, oracle tables
as a header plus one amplitude per line, sweeps as JSON grids.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import InputError, QsprepError
from .oracle import AmplitudeOracle, oracle_from_text, oracle_to_text
from .phases import find_phases, phases_to_text
from .pipeline import (
    PrepConfig,
    PrepReport,
    SweepSpec,
    grover_case,
    prepare_state,
    sweep,
    sweep_to_csv,
    verify_error_bounds,
)
from .polyapprox import poly_from_text


def _print_report(rep: PrepReport) -> None:
    print(f"fidelity_to_target   {rep.fidelity_to_target:.12f}")
    print(f"success_probability  {rep.success_probability:.12f}")
    print(f"oracle_calls         {rep.oracle_calls}")
    print(f"arcsin_degree        {rep.degrees[0]}")
    print(f"sign_degree          {rep.degrees[1]}")
    print(f"m                    {rep.info['m']}")
    print(f"levels               {rep.info['levels']}")
    for key in ("gamma", "eps_measured", "sigma", "final_error"):
        if key in rep.info:
            print(f"{key:<20} {rep.info[key]:.6e}")
    print("bound checks:")
    for c in rep.bound_checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"  [{mark}] {c.name}: {c.lhs:.6e} {c.relation} {c.rhs:.6e}")


def _read(path: str) -> str:
    """An input file's text; a file that cannot be read or decoded raises InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {_reason(exc)}") from exc


def _write(path: str | None, text: str) -> None:
    """Write an output file, or standard output without a path; a file that
    cannot be written raises InputError."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {_reason(exc)}") from exc


def _reason(exc: Exception) -> str:
    # an OSError's str() repeats the path; its strerror does not
    return getattr(exc, "strerror", None) or str(exc)


def _cmd_phases(args) -> int:
    phi = find_phases(poly_from_text(_read(args.poly_file)))
    _write(args.out, phases_to_text(phi))
    return 0


def _load_config(args) -> PrepConfig:
    oracle = oracle_from_text(_read(args.oracle))
    return PrepConfig(oracle=oracle, epsilon=args.eps, delta=args.delta)


def _cmd_prepare(args) -> int:
    rep = prepare_state(_load_config(args))
    _print_report(rep)
    return 0 if rep.all_passed else 1


def _cmd_verify_bounds(args) -> int:
    rep = verify_error_bounds(_load_config(args))
    _print_report(rep)
    return 0 if rep.all_passed else 1


def _cmd_grover(args) -> int:
    rep = grover_case(args.n, args.x0, delta=args.delta, epsilon=args.eps)
    _print_report(rep)
    print(f"calls_per_sqrt_n     {rep.info['calls_per_sqrt_n']:.3f}")
    return 0 if rep.all_passed else 1


def _cmd_sweep(args) -> int:
    try:
        raw = json.loads(_read(args.spec))
    except json.JSONDecodeError as exc:
        raise InputError(f"sweep spec {args.spec} is not valid JSON: {exc}") from exc
    spec = SweepSpec.from_dict(raw)
    rows = sweep(spec)
    csv_text = sweep_to_csv(rows)
    _write(args.out, csv_text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0 if all(row.get("pass") is True for row in rows) else 1


def _cmd_make_oracle(args) -> int:
    oracle = AmplitudeOracle.from_dist(args.n, args.m, args.dist)
    _write(args.out, oracle_to_text(oracle))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsprep",
        description="Oracle quantum-state preparation via signal-processing "
        "polynomials, with every error bound checked per run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phases", help="compute the phase sequence for a polynomial file")
    p.add_argument("poly_file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phases)

    for name, fn in (("prepare", _cmd_prepare), ("verify-bounds", _cmd_verify_bounds)):
        p = sub.add_parser(name, help=f"{name} a state from an oracle table file")
        p.add_argument("--oracle", required=True)
        p.add_argument("--eps", type=float, default=0.05)
        p.add_argument("--delta", type=float, default=0.1)
        p.set_defaults(func=fn)

    p = sub.add_parser("grover", help="single-marked-item search special case")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.1)
    p.set_defaults(func=_cmd_grover)

    p = sub.add_parser("sweep", help="run a JSON grid spec and write a CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("make-oracle", help="generate an amplitude table file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=8,
                   help="the header's value bits, the register width of the compiled "
                   "oracle; prepare and verify-bounds quantize at the m they derive "
                   "from eps and gamma")
    p.add_argument("--dist", required=True,
                   help="uniform | indicator:x0 | gaussian:mu,sigma")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_make_oracle)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args keeps no state in
    # the parser, so every call shares it
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except QsprepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
