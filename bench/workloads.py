"""The three benchmark workloads: inputs, the timed section and the output
checks.

Every workload runs in a fresh process (see worker.py), so every cache starts
empty.  `build` makes the inputs and counts as set-up; `execute` is the timed
section and records one latency per result; `check` runs afterwards, outside
the timed section, and returns (attempted, failed, problems).

The seed only permutes the order of the inputs.  The set of inputs, and so
the total work and every exact count, does not depend on it.

Why these workloads:

- coeff-sweep: all 27 basis series of level 30 at weight 4 over the matrices
  of `coeff --delta-max 1000`.  The first series pays every cold generalized
  Bernoulli value and class sum, the other 26 reuse them, so the Bernoulli
  and class-sum layers and coefficient assembly each take a large share.
  theta is never touched.
- lattice-oracle: the five-lattice oracle (genus formula against enumeration
  at the matrices of `verify lattices`) plus the S1 pair count at norms 8x8.
  theta does nearly all of the work; the formula side is small, so a change
  to the coefficient engine should not move it.
- verify-all: `siegelrep verify all` at default bounds through `cli.main`.
  It uses the coefficient layer breadth-first (all squarefree levels up to
  30, class sums up to M = 24,500) and is the acceptance path users run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("coeff-sweep", "lattice-oracle", "verify-all")

# Problem sizes.  "full" is the benchmark; "small" keeps the same code paths
# at a size the benchmark's own tests can afford.
SIZES = {
    "coeff-sweep": {
        "full": {"level": 30, "weight": 4, "delta_max": 1000},
        "small": {"level": 6, "weight": 4, "delta_max": 40},
    },
    "lattice-oracle": {
        "full": {"delta_max": 30, "singular_content_max": 10, "pair_lattice": "S1", "pair_m": 4},
        "small": {"delta_max": 6, "singular_content_max": 2, "pair_lattice": "S1", "pair_m": 2},
    },
    "verify-all": {
        "full": {"argv": ["verify", "all"]},
        "small": {"argv": ["verify", "lattices", "--lattice-delta-max", "4",
                           "--lattice-sing-max", "1"]},
    },
}

# sha256 of every coeff-sweep value in canonical order, frozen from the
# commit that introduced the benchmark.
COEFF_DIGESTS = {
    "full": "e11fbb986f4e7fd206b59cbb4fa7f9a4255f436c616f6dcaf98f8f50c2da61f5",
    "small": "e5c6ded34b4c02db0f0cbeee6add1ab7c5e420efbcc9ee8e64894641a016c9e8",
}

# Check count of every suite of `verify all`, per size.
VERIFY_COUNTS = {
    "full": {"identities/local-sums": 780, "identities/class-sums": 58000,
             "identities/coefficients": 22692, "hecke": 7560, "lattices": 335},
    "small": {"lattices": 45},
}


@dataclass
class Run:
    """Inputs of one workload run and, after `execute`, its outputs."""

    name: str
    size: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    latencies_ns: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def build(name: str, seed: int, size: str = "full") -> Run:
    """Make the inputs of one run: imports plus input construction."""
    params = SIZES[name][size]
    rng = random.Random(seed)
    if name == "coeff-sweep":
        from siegelrep.eisenstein import (EisensteinSpec, partitions_of_level,
                                          reduced_representatives)
        specs = [EisensteinSpec(params["weight"], p)
                 for p in partitions_of_level(params["level"])]
        mats = reduced_representatives(params["delta_max"], params["delta_max"],
                                       include_zero=True)
        rng.shuffle(specs)
        rng.shuffle(mats)
        return Run(name, size, {"specs": specs, "mats": mats})
    if name == "lattice-oracle":
        from siegelrep.eisenstein import HalfIntegralMatrix, reduced_representatives
        from siegelrep.lattice import BUILTIN_NAMES, builtin_lattice
        mats = reduced_representatives(params["delta_max"], params["singular_content_max"],
                                       include_zero=True)
        max_norm = max(2 * max(t.m, t.n) for t in mats)
        names = list(BUILTIN_NAMES)
        rng.shuffle(names)
        rng.shuffle(mats)
        m = params["pair_m"]
        pair_mats = [HalfIntegralMatrix(m, r, m) for r in range(-2 * m, 2 * m + 1)]
        rng.shuffle(pair_mats)
        return Run(name, size, {
            "lattices": [(n, builtin_lattice(n)) for n in names],
            "mats": mats, "max_norm": max_norm,
            "pair_lattice": (params["pair_lattice"], builtin_lattice(params["pair_lattice"])),
            "pair_mats": pair_mats,
        })
    if name == "verify-all":
        import siegelrep.cli  # noqa: F401  (imported as part of set-up)
        return Run(name, size, {"argv": list(params["argv"])})
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")


def execute(run: Run) -> None:
    """The timed section.  Fills run.outputs, run.latencies_ns, run.errors."""
    clock = time.perf_counter_ns
    lat = run.latencies_ns
    if run.name == "coeff-sweep":
        from siegelrep import eisenstein
        values = {}
        for spec in run.inputs["specs"]:
            part = spec.partition.as_tuple()
            for t in run.inputs["mats"]:
                start = clock()
                try:
                    value = eisenstein.fourier_coefficient(spec, t)
                except Exception as exc:  # a failed result is counted, not fatal
                    value = None
                    run.errors.append(f"{part} T=({t.m},{t.r},{t.n}): {exc!r}")
                lat.append(clock() - start)
                values[(part, (t.m, t.r, t.n))] = value
        run.outputs["values"] = values
    elif run.name == "lattice-oracle":
        from siegelrep import lattice, theta
        oracle = []
        for name, gram in run.inputs["lattices"]:
            first = True
            for t in run.inputs["mats"]:
                start = clock()
                try:
                    if first:
                        theta.shells(gram, run.inputs["max_norm"])
                        first = False
                    formula = lattice.genus_rep_number(gram, t)
                    count = theta.rep_deg2(gram, t)
                except Exception as exc:
                    formula = count = None
                    run.errors.append(f"{name} T=({t.m},{t.r},{t.n}): {exc!r}")
                lat.append(clock() - start)
                oracle.append((name, (t.m, t.r, t.n), formula, count))
        pairs = []
        name, gram = run.inputs["pair_lattice"]
        for t in run.inputs["pair_mats"]:
            start = clock()
            try:
                count = theta.rep_deg2(gram, t)
            except Exception as exc:
                count = None
                run.errors.append(f"{name} T=({t.m},{t.r},{t.n}): {exc!r}")
            lat.append(clock() - start)
            pairs.append(((t.m, t.r, t.n), count))
        run.outputs["oracle"] = oracle
        run.outputs["pairs"] = pairs
    elif run.name == "verify-all":
        from siegelrep import cli
        buf = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(run.inputs["argv"])
        except Exception as exc:
            code = None
            run.errors.append(f"cli.main raised {exc!r}")
        lat.append(clock() - start)
        run.outputs["exit_code"] = code
        run.outputs["stdout"] = buf.getvalue()
    else:
        raise ValueError(f"unknown workload {run.name!r}")


def check(run: Run) -> tuple[int, int, list[str]]:
    """Check the outputs of an executed run; returns (attempted, failed,
    problems).  Reference values computed here are outside the timed
    section."""
    if run.name == "coeff-sweep":
        from siegelrep.eisenstein import EisensteinSpec, LevelPartition, fourier_coefficient
        weight = SIZES[run.name][run.size]["weight"]
        base = EisensteinSpec(weight, LevelPartition(1, 1, 1))
        reference = {(t.m, t.r, t.n): fourier_coefficient(base, t) for t in run.inputs["mats"]}
        return check_coeff(run.outputs["values"], reference, COEFF_DIGESTS.get(run.size))
    if run.name == "lattice-oracle":
        from siegelrep.eisenstein import HalfIntegralMatrix
        from siegelrep.lattice import genus_rep_number
        _, gram = run.inputs["pair_lattice"]
        pair_formula = {(t.m, t.r, t.n): genus_rep_number(gram, t)
                        for t in run.inputs["pair_mats"]}
        m = SIZES[run.name][run.size]["pair_m"]
        norm_count = genus_rep_number(gram, HalfIntegralMatrix(m, 0, 0))
        return check_lattice(run.outputs["oracle"], run.outputs["pairs"], pair_formula,
                             norm_count)
    if run.name == "verify-all":
        return check_verify(run.outputs["exit_code"], run.outputs["stdout"],
                            VERIFY_COUNTS[run.size])
    raise ValueError(f"unknown workload {run.name!r}")


def coeff_digest(values: dict) -> str:
    """sha256 over every (series, T, value) in canonical order."""
    h = hashlib.sha256()
    for (part, mat), value in sorted(values.items()):
        text = "none" if value is None else f"{value.numerator}/{value.denominator}"
        h.update(f"{part};{mat};{text}\n".encode())
    return h.hexdigest()


def check_coeff(values: dict, reference: dict, digest: str | None) -> tuple[int, int, list[str]]:
    """At every T the values of all series of the level sum to the level 1
    coefficient; and all values together hash to the frozen digest.

    A failed sum marks every result at that T as failed.
    """
    by_mat: dict = {}
    for (_, mat), value in values.items():
        by_mat.setdefault(mat, []).append(value)
    failed = 0
    problems = []
    for mat, vals in sorted(by_mat.items()):
        if any(v is None for v in vals) or sum(vals, Fraction(0)) != reference[mat]:
            failed += len(vals)
            problems.append(f"series do not sum to the level 1 coefficient at T={mat}")
    if digest and coeff_digest(values) != digest:
        problems.append("value digest differs from the frozen one")
        failed = max(failed, 1)
    return len(values), failed, problems


def check_lattice(oracle: list, pairs: list, pair_formula: dict,
                  norm_count: Fraction) -> tuple[int, int, list[str]]:
    """Formula equals count, and is a non-negative integer, at every oracle
    result; the pair counts match the formula and sum over r to the square
    of the number of vectors of that norm."""
    failed = 0
    problems = []
    for name, mat, formula, count in oracle:
        if formula is None or count is None or formula != count \
                or formula.denominator != 1 or formula < 0:
            failed += 1
            problems.append(f"{name} T={mat}: formula {formula} count {count}")
    pair_failed = 0
    for mat, count in pairs:
        if count is None or count != pair_formula[mat]:
            pair_failed += 1
            problems.append(f"pair T={mat}: count {count} formula {pair_formula[mat]}")
    total = sum(c for _, c in pairs if c is not None)
    if total != norm_count * norm_count:
        problems.append(f"pair counts sum to {total}, want {norm_count}^2")
        pair_failed = max(pair_failed, 1)
    return len(oracle) + len(pairs), failed + pair_failed, problems


_SUITE_LINE = re.compile(r"^(\S+): (\d+) checks, (\d+) failures \[(ok|FAIL)\]$")


def verify_counts(stdout: str) -> dict[str, tuple[int, int]]:
    """(checks, failures) per suite from the output of `siegelrep verify`."""
    out = {}
    for line in stdout.splitlines():
        match = _SUITE_LINE.match(line)
        if match:
            out[match.group(1)] = (int(match.group(2)), int(match.group(3)))
    return out


def check_verify(exit_code, stdout: str, expected: dict) -> tuple[int, int, list[str]]:
    """Exit code 0, no failures, and the expected check count per suite.

    A result is a check.  Reported failures count one each; a suite with a
    wrong or missing count, or a nonzero exit without reported failures,
    counts as one failure.
    """
    counts = verify_counts(stdout)
    problems = []
    failed = 0
    for suite, (checks, fails) in counts.items():
        if fails:
            failed += fails
            problems.append(f"{suite}: {fails} failures")
    for suite, want in expected.items():
        got = counts.get(suite, (None, 0))[0]
        if got != want:
            failed += 1
            problems.append(f"{suite}: {got} checks, want {want}")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        failed = max(failed, 1)
    attempted = max(sum(c for c, _ in counts.values()), sum(expected.values()), 1)
    return attempted, min(failed, attempted), problems


def result_count(run: Run) -> int:
    """Results completed by the timed section (checks, for verify-all)."""
    if run.name == "verify-all":
        return sum(c for c, _ in verify_counts(run.outputs["stdout"]).values())
    return len(run.latencies_ns)
