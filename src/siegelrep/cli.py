"""Command line front end: coefficient tables, representation numbers, the
verification suites, and the cusp basis listing.

Records go to stdout as JSON lines (default) or CSV.  Rationals are always
serialized as "numerator/denominator" strings, never floats, so every value
round-trips exactly.  Exit codes: 0 success, 1 verification or oracle
failure, 2 usage error (including an invalid series spec or lattice), 3
invalid matrix argument, 4 enumeration refused by theta.VECTOR_GUARD, 141
stdout closed before all output was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields
from fractions import Fraction

from .eisenstein import (
    EisensteinSpec,
    HalfIntegralMatrix,
    LevelPartition,
    fourier_coefficient,
    partitions_of_level,
    reduced_representatives,
)
from .exactmath import decompose_discriminant, prime_divisors
from .lattice import BUILTIN_NAMES, builtin_lattice, genus_rep_number, load_gram, profile
from .theta import VectorGuardError, rep_deg2
from .verify import SUITE_NAMES, VerifyBounds, run_suites

__all__ = ["main"]


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_triple(text: str, what: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{what} must be three comma-separated integers")
    try:
        a, b, c = (int(s) for s in parts)
    except ValueError:
        raise ValueError(f"{what} must be three comma-separated integers") from None
    return a, b, c


def _emit(records: list[dict], fmt: str, stream) -> None:
    if fmt == "csv":
        if not records:
            return
        writer = csv.DictWriter(stream, fieldnames=list(records[0].keys()))
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
    else:
        for rec in records:
            stream.write(json.dumps(rec) + "\n")


def _matrix_record(t: HalfIntegralMatrix) -> dict:
    rec = {"m": t.m, "r": t.r, "n": t.n, "delta": t.delta, "content": t.content,
           "disc": None, "conductor": None}
    if t.delta > 0:
        dec = decompose_discriminant(t.delta)
        rec["disc"] = dec.disc
        rec["conductor"] = dec.conductor
    return rec


def _cmd_coeff(args) -> int:
    try:
        spec = EisensteinSpec(args.weight, LevelPartition(*_parse_triple(args.partition, "partition")))
    except (ValueError, OverflowError) as exc:
        print(f"error: invalid series spec: {exc}", file=sys.stderr)
        return 2
    if args.matrix is None and args.delta_max is None:
        print("error: give -T or --delta-max", file=sys.stderr)
        return 2
    if args.delta_max is not None and args.delta_max < 0:
        print(f"error: --delta-max must be non-negative, got {args.delta_max}", file=sys.stderr)
        return 2
    try:
        if args.matrix is not None:
            mats = [HalfIntegralMatrix(*_parse_triple(args.matrix, "matrix"))]
        else:
            mats = reduced_representatives(args.delta_max, args.delta_max,
                                           include_zero=True, all_classes=args.all_classes)
    except ValueError as exc:
        print(f"error: invalid matrix: {exc}", file=sys.stderr)
        return 3
    records = []
    try:
        for t in mats:
            rec = {"k": spec.k, "n0": spec.partition.n0, "n1": spec.partition.n1,
                   "n2": spec.partition.n2}
            rec.update(_matrix_record(t))
            rec["value"] = _frac(fourier_coefficient(spec, t))
            records.append(rec)
    except OverflowError as exc:
        # The level passed FACTOR_GUARD above, so the matrix is past it.
        print(f"error: invalid matrix: {exc}", file=sys.stderr)
        return 3
    _emit(records, args.format, sys.stdout)
    return 0


def _cmd_rep(args) -> int:
    if (args.lattice is None) == (args.gram is None):
        print("error: give exactly one of --lattice or --gram", file=sys.stderr)
        return 2
    try:
        if args.lattice is not None:
            gram = builtin_lattice(args.lattice)
            label = args.lattice
        else:
            gram = load_gram(args.gram)
            label = str(args.gram)
    except (ValueError, OSError) as exc:
        print(f"error: invalid lattice: {exc}", file=sys.stderr)
        return 2
    try:
        level = profile(gram).level
    except ValueError:
        # odd rank has no profile; enumeration is still fine
        level = None
    except OverflowError as exc:
        # A level that factorize refuses, as for `basis -N`.
        print(f"error: invalid lattice: {exc}", file=sys.stderr)
        return 2
    rec = {"lattice": label, "level": level}
    try:
        t = HalfIntegralMatrix(*_parse_triple(args.matrix, "matrix"))
        rec.update(_matrix_record(t))
    except (ValueError, OverflowError) as exc:
        print(f"error: invalid matrix: {exc}", file=sys.stderr)
        return 3
    rec.update({"mode": args.mode, "value": None, "count": None, "match": None})
    status = 0
    try:
        if args.mode in ("formula", "both"):
            rec["value"] = _frac(genus_rep_number(gram, t))
        if args.mode in ("enumerate", "both"):
            rec["count"] = rep_deg2(gram, t)
        if args.mode == "both":
            rec["match"] = rec["value"] == f"{rec['count']}/1"
            if not rec["match"]:
                status = 1
    except VectorGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # A rank 1 T past FACTOR_GUARD: its content is factored only here.
        print(f"error: invalid matrix: {exc}", file=sys.stderr)
        return 3
    _emit([rec], args.format, sys.stdout)
    return status


def _cmd_basis(args) -> int:
    try:
        parts = partitions_of_level(args.level)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = []
    for part in parts:
        ranks = {}
        for i, block in enumerate(part.as_tuple()):
            for p in prime_divisors(block):
                ranks[p] = i
        records.append({
            "n0": part.n0, "n1": part.n1, "n2": part.n2, "level": part.level,
            "constant_term": 1 if (part.n1, part.n2) == (1, 1) else 0,
            "cusp_ranks": ";".join(f"{p}:{ranks[p]}" for p in sorted(ranks)),
        })
    _emit(records, args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    try:
        bounds = VerifyBounds(**{f.name: getattr(args, f.name) for f in fields(VerifyBounds)})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = run_suites(args.suite, bounds)
    bad = False
    for rep in reports:
        state = "ok" if rep.ok else "FAIL"
        print(f"{rep.name}: {rep.checks} checks, {len(rep.failures)} failures [{state}]")
        for line in rep.failures:
            print(f"  {line}")
        bad = bad or not rep.ok
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelrep",
        description="Exact Eisenstein coefficients and lattice representation numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="Fourier coefficients of one basis series")
    coeff.add_argument("-k", "--weight", type=int, required=True)
    coeff.add_argument("-p", "--partition", required=True, metavar="N0,N1,N2")
    coeff.add_argument("-T", "--matrix", metavar="m,r,n")
    coeff.add_argument("--delta-max", type=int,
                       help="range mode: all reduced matrices with discriminant (and "
                            "rank 1 content) up to this bound, plus the zero matrix")
    coeff.add_argument("--all-classes", action="store_true",
                       help="range mode also emits the (m,-r,n) twins")
    coeff.add_argument("--format", choices=("json", "csv"), default="json")
    coeff.set_defaults(func=_cmd_coeff)

    rep = sub.add_parser("rep", help="representation numbers of an even lattice")
    rep.add_argument("--lattice", choices=BUILTIN_NAMES)
    rep.add_argument("--gram", help="path to a Gram matrix file")
    rep.add_argument("-T", "--matrix", required=True, metavar="m,r,n")
    rep.add_argument("--mode", choices=("formula", "enumerate", "both"), default="formula")
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.set_defaults(func=_cmd_rep)

    basis = sub.add_parser("basis", help="list the cusp basis for one level")
    basis.add_argument("-N", "--level", type=int, required=True)
    basis.add_argument("--format", choices=("json", "csv"), default="json")
    basis.set_defaults(func=_cmd_basis)

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("suite", choices=SUITE_NAMES)
    # One flag per VerifyBounds field, defaults included.
    for field in fields(VerifyBounds):
        verify.add_argument("--" + field.name.replace("_", "-"), type=int)
    verify.set_defaults(func=_cmd_verify, **asdict(VerifyBounds()))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point its fd at devnull, so that
        # the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a reader that quit
    return code
