"""Command line front end: coefficient tables, representation numbers, the
verification suites, and the cusp basis listing.

Records go to stdout as JSON lines (default) or CSV.  Rationals are always
serialized as "numerator/denominator" strings, never floats, so every value
round-trips exactly.

A subcommand refuses an input by raising _Refusal, and main alone prints its
one `error:` line and returns its exit code.  The exit codes: 0 success, 1
verification or oracle failure, 2 usage error (including an invalid series
spec or lattice), 3 invalid matrix argument, 4 enumeration refused by
theta.VECTOR_GUARD or pair count refused by theta.PAIR_GUARD, 141 stdout
closed before all output was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
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


class _Refusal(Exception):
    """A refused input, raised as _Refusal(code, message): main prints
    `error: <message>` and returns the exit code."""


@contextmanager
def _refuse(code: int, prefix: str, *types: type[Exception]):
    """Re-raises an exception of `types` from the block as a _Refusal with
    `code` and the message `prefix` + str(exc).  Stacked in one `with`, the
    last one listed catches first."""
    try:
        yield
    except types as exc:
        raise _Refusal(code, f"{prefix}{exc}") from None


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_triple(text: str, what: str) -> tuple[int, int, int]:
    try:
        a, b, c = (int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be three comma-separated integers") from None
    return a, b, c


def _emit(records: list[dict], fmt: str, stream) -> None:
    if fmt == "csv":
        writer = csv.DictWriter(stream, fieldnames=list(records[0].keys()))
        writer.writeheader()
        writer.writerows(records)
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
    with _refuse(2, "invalid series spec: ", ValueError, OverflowError):
        spec = EisensteinSpec(args.weight, LevelPartition(*_parse_triple(args.partition, "partition")))
    if args.matrix is None and args.delta_max is None:
        raise _Refusal(2, "give -T or --delta-max")
    if args.delta_max is not None and args.delta_max < 0:
        raise _Refusal(2, f"--delta-max must be non-negative, got {args.delta_max}")
    # The level passed FACTOR_GUARD above, so an OverflowError is the matrix's.
    with _refuse(3, "invalid matrix: ", ValueError, OverflowError):
        if args.matrix is not None:
            mats = [HalfIntegralMatrix(*_parse_triple(args.matrix, "matrix"))]
        else:
            mats = reduced_representatives(args.delta_max, args.delta_max,
                                           include_zero=True, all_classes=args.all_classes)
        head = {"k": spec.k, "n0": spec.partition.n0, "n1": spec.partition.n1,
                "n2": spec.partition.n2}
        records = [{**head, **_matrix_record(t), "value": _frac(fourier_coefficient(spec, t))}
                   for t in mats]
    _emit(records, args.format, sys.stdout)
    return 0


def _cmd_rep(args) -> int:
    if (args.lattice is None) == (args.gram is None):
        raise _Refusal(2, "give exactly one of --lattice or --gram")
    # An OverflowError is a level that factorize refuses, as for `basis -N`.
    with _refuse(2, "invalid lattice: ", ValueError, OSError, OverflowError):
        if args.lattice is not None:
            gram, label = builtin_lattice(args.lattice), args.lattice
        else:
            gram, label = load_gram(args.gram), str(args.gram)
        try:
            level = profile(gram).level
        except ValueError:
            # odd rank has no profile; enumeration is still fine
            level = None
    rec = {"lattice": label, "level": level}
    with _refuse(3, "invalid matrix: ", ValueError, OverflowError):
        t = HalfIntegralMatrix(*_parse_triple(args.matrix, "matrix"))
        rec.update(_matrix_record(t))
    rec.update({"mode": args.mode, "value": None, "count": None, "match": None})
    # A rank 1 T's content is factored only here, so an OverflowError is the
    # matrix's.  VectorGuardError is a ValueError, so it is caught first.
    with (_refuse(3, "invalid matrix: ", OverflowError), _refuse(2, "", ValueError),
          _refuse(4, "", VectorGuardError)):
        if args.mode in ("formula", "both"):
            rec["value"] = _frac(genus_rep_number(gram, t))
        if args.mode in ("enumerate", "both"):
            rec["count"] = rep_deg2(gram, t)
    if args.mode == "both":
        rec["match"] = rec["value"] == f"{rec['count']}/1"
    _emit([rec], args.format, sys.stdout)
    return 1 if rec["match"] is False else 0


def _cmd_basis(args) -> int:
    with _refuse(2, "", ValueError, OverflowError):
        parts = partitions_of_level(args.level)
    records = []
    for part in parts:
        ranks = {p: i for i, block in enumerate(part.as_tuple()) for p in prime_divisors(block)}
        records.append({
            "n0": part.n0, "n1": part.n1, "n2": part.n2, "level": part.level,
            "constant_term": 1 if (part.n1, part.n2) == (1, 1) else 0,
            "cusp_ranks": ";".join(f"{p}:{ranks[p]}" for p in sorted(ranks)),
        })
    _emit(records, args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    with _refuse(2, "", ValueError):
        bounds = VerifyBounds(**{f.name: getattr(args, f.name) for f in fields(VerifyBounds)})
    reports = run_suites(args.suite, bounds)
    for rep in reports:
        state = "ok" if rep.ok else "FAIL"
        print(f"{rep.name}: {rep.checks} checks, {rep.failed} failures [{state}]")
        for line in rep.failures:
            print(f"  {line}")
    return 0 if all(rep.ok for rep in reports) else 1


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
    coeff.set_defaults(func=_cmd_coeff)

    rep = sub.add_parser("rep", help="representation numbers of an even lattice")
    rep.add_argument("--lattice", choices=BUILTIN_NAMES)
    rep.add_argument("--gram", help="path to a Gram matrix file")
    rep.add_argument("-T", "--matrix", required=True, metavar="m,r,n")
    rep.add_argument("--mode", choices=("formula", "enumerate", "both"), default="formula")
    rep.set_defaults(func=_cmd_rep)

    basis = sub.add_parser("basis", help="list the cusp basis for one level")
    basis.add_argument("-N", "--level", type=int, required=True)
    basis.set_defaults(func=_cmd_basis)

    for cmd in (coeff, rep, basis):
        cmd.add_argument("--format", choices=("json", "csv"), default="json")

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
    except _Refusal as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point its fd at devnull, so that
        # the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a reader that quit
    return code
