"""Exhaustive identity suites over finite grids.

Each suite walks a finite grid and compares two independent evaluation
routes with exact equality; a failure message names the offending point.
`VerifyBounds` holds the grid settings that callers may change and their
defaults, one field per flag of the CLI `verify` subcommand; the rest of
each grid is fixed by the module constants below.  The CLI and the
acceptance tests both run these suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .classnumbers import class_divisor_sum, cohen_h_level, local_correction
from .eisenstein import (
    EisensteinSpec,
    LevelPartition,
    definite_local_factors,
    fourier_coefficient,
    hecke_tp,
    hecke_u1p2,
    hecke_up,
    partitions_of_level,
    raise_level,
    reduced_representatives,
    singular_local_factors,
)
from .exactmath import (
    decompose_discriminant,
    divisors,
    is_prime,
    is_squarefree,
    kronecker_symbol,
    l_negative,
    prime_divisors,
    valuation,
)
from .lattice import BUILTIN_NAMES, builtin_lattice, genus_coefficients, genus_rep_number
from .theta import rep_deg2, shells

__all__ = [
    "SuiteReport",
    "VerifyBounds",
    "verify_coefficient_identities",
    "verify_class_identities",
    "verify_local_sums",
    "verify_hecke",
    "verify_lattices",
    "run_suites",
    "SUITE_NAMES",
]

# Genus decomposition rows of the built-in lattices, frozen for the table check.
EXPECTED_GENUS_TABLES: dict[str, dict[tuple[int, int, int], Fraction]] = {
    "S1": {(1, 1, 1): Fraction(1)},
    "S2": {(3, 1, 1): Fraction(1), (1, 3, 1): Fraction(1, 3), (1, 1, 3): Fraction(1, 9)},
    "S3": {(2, 1, 1): Fraction(1), (1, 2, 1): Fraction(1, 2), (1, 1, 2): Fraction(1, 4)},
    "S4": {(2, 1, 1): Fraction(1), (1, 2, 1): Fraction(1, 4), (1, 1, 2): Fraction(1, 16)},
    "S5": {(2, 1, 1): Fraction(1), (1, 2, 1): Fraction(1, 8), (1, 1, 2): Fraction(1, 64)},
}


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


_FAILURE_LIMIT = 12  # failure messages kept per suite


class _Tally:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition and len(self.failures) < _FAILURE_LIMIT:
            self.failures.append(message)

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, self.checks, tuple(self.failures))


# Fixed parts of each grid.
COEFFICIENT_WEIGHTS = (4, 6)
CLASS_LEVEL_MAX = 30
CLASS_PRIME_MAX = 7
CLASS_WEIGHTS = (4, 6)
LOCAL_PRIME_MAX = 7
LOCAL_ORDER_MAX = 4
LOCAL_WEIGHTS = (4, 6, 8)
HECKE_LEVELS = (1, 3, 7)
HECKE_PRIMES = (2, 3, 5)
HECKE_WEIGHTS = (4, 6)
# The matrices of the Hecke suite; t_count takes a prefix of these 55.
HECKE_GRID = tuple(reduced_representatives(48, 6, include_zero=True))


@dataclass(frozen=True)
class VerifyBounds:
    """The settable bounds of every suite, each a CLI flag of the same name
    (delta_max is --delta-max).  delta_max, sing_max, level_max and prime_max
    bound the coefficient suite, m_max the class sums, t_count the Hecke
    matrices (at most len(HECKE_GRID)), and lattice_delta_max and
    lattice_sing_max the lattice oracle.  Negative values are refused, and
    so is a t_count the grid cannot hold."""
    delta_max: int = 50
    sing_max: int = 12
    level_max: int = 15
    prime_max: int = 5
    m_max: int = 500
    t_count: int = 30
    lattice_delta_max: int = 30
    lattice_sing_max: int = 10

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ValueError(f"{field.name} must be non-negative, got {value}")
        if self.t_count > len(HECKE_GRID):
            raise ValueError(f"t_count must be at most {len(HECKE_GRID)}, got {self.t_count}")


def _primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


def _squarefree_up_to(limit: int) -> list[int]:
    return [n for n in range(1, limit + 1) if is_squarefree(n)]


def _raised_series(levels, primes, weights):
    """For each level, prime p not dividing it, partition and weight, yield
    (k, p, spec, (s0, s1, s2)): the series and the three level Np series
    whose partitions put p in slot 0, 1 and 2."""
    for level in levels:
        for p in primes:
            if level % p == 0:
                continue
            for part in partitions_of_level(level):
                n0, n1, n2 = part.as_tuple()
                raised = (LevelPartition(p * n0, n1, n2),
                          LevelPartition(n0, p * n1, n2),
                          LevelPartition(n0, n1, p * n2))
                for k in weights:
                    yield k, p, EisensteinSpec(k, part), tuple(EisensteinSpec(k, q) for q in raised)


def verify_coefficient_identities(bounds: VerifyBounds = VerifyBounds()) -> SuiteReport:
    """Level raising against direct evaluation, plus the three-term
    decomposition of each series into the next level's basis."""
    tally = _Tally("identities/coefficients")
    mats = reduced_representatives(bounds.delta_max, bounds.sing_max, include_zero=True)
    for k, p, spec, up_specs in _raised_series(_squarefree_up_to(bounds.level_max),
                                               _primes_up_to(bounds.prime_max),
                                               COEFFICIENT_WEIGHTS):
        for t in mats:
            base = fourier_coefficient(spec, t)
            lifted = raise_level(base,
                                 fourier_coefficient(spec, t.scaled(p)),
                                 fourier_coefficient(spec, t.scaled(p * p)),
                                 p, k)
            direct = tuple(fourier_coefficient(s, t) for s in up_specs)
            where = f"k={k} {spec.partition.as_tuple()} p={p} T=({t.m},{t.r},{t.n})"
            tally.check(lifted == direct, f"level raise mismatch at {where}")
            tally.check(sum(direct, Fraction(0)) == base,
                        f"decomposition sum mismatch at {where}")
    return tally.report()


def _level_one_euler_product(k: int, m: int) -> Fraction:
    """The level 1 class-number sum at -m = D f**2 with the Moebius sum over
    g | f rearranged into local factors:

        L(2 - k, chi_D) sum_{g | f} (f/g)^(2k-3) prod_{p | g} (1 - chi_D(p) p^(k-2))
    """
    dec = decompose_discriminant(m)
    f = dec.conductor
    acc = 0
    for g in divisors(f):
        term = (f // g) ** (2 * k - 3)
        for p in prime_divisors(g):
            term *= 1 - kronecker_symbol(dec.disc, p) * p ** (k - 2)
        acc += term
    return l_negative(k - 1, dec.disc) * acc


def verify_class_identities(bounds: VerifyBounds = VerifyBounds()) -> SuiteReport:
    """Level correction and p-squared stability of the class-number sums, and
    the level 1 sum against its Euler-product form.

    At -M = D f**2 every sum is L(2 - k, chi_D) times the integer
    class_divisor_sum, so the first two checks compare those integers.  The
    L-value is a common factor of both sides, and it is nonzero: chi_D is
    odd and k - 1 is odd, so the functional equation makes it a nonzero
    multiple of L(k - 1, chi_D).  The Euler-product check keeps the L-value,
    through cohen_h_level.
    """
    tally = _Tally("identities/class-sums")
    decs = [(m, decompose_discriminant(m)) for m in range(1, bounds.m_max + 1) if m % 4 in (0, 3)]
    primes = _primes_up_to(CLASS_PRIME_MAX)
    for level in _squarefree_up_to(CLASS_LEVEL_MAX):
        # The level N sums, shared by every prime p.
        at_level = {(k, m): class_divisor_sum(level, k, dec.disc, dec.conductor)
                    for k in CLASS_WEIGHTS for m, dec in decs}
        for p in primes:
            if level % p == 0:
                continue
            for k in CLASS_WEIGHTS:
                for m, dec in decs:
                    disc, f = dec.disc, dec.conductor
                    raised = class_divisor_sum(level * p, k, disc, f)
                    corr = local_correction(p, kronecker_symbol(disc, p), valuation(p, f), k)
                    here = f"N={level} p={p} k={k} M={m}"
                    tally.check(raised * corr == at_level[k, m],
                                f"level correction fails at {here}")
                    # -p^2 M = D (p f)^2: the same L-value on both sides again.
                    tally.check(class_divisor_sum(level * p, k, disc, p * f) == raised,
                                f"p^2 stability fails at {here}")
    for k in CLASS_WEIGHTS:
        for m in range(1, max(bounds.m_max, 1000) + 1):
            if m % 4 in (1, 2):
                continue
            tally.check(cohen_h_level(1, k, m) == _level_one_euler_product(k, m),
                        f"level 1 disagrees with Euler product at k={k} M={m}")
    return tally.report()


def verify_local_sums() -> SuiteReport:
    """Sums of the local factors against the correction-factor sums.

    The definite identity needs u <= v, which every genuine matrix satisfies
    because the content divides the conductor.
    """
    tally = _Tally("identities/local-sums")
    for p in _primes_up_to(LOCAL_PRIME_MAX):
        for k in LOCAL_WEIGHTS:
            for u in range(LOCAL_ORDER_MAX + 1):
                want = sum(p ** (j * (k - 1)) for j in range(u + 1))
                got = sum(singular_local_factors(p, u, k), Fraction(0))
                tally.check(got == want, f"singular sum fails at p={p} u={u} k={k}")
            for chi in (-1, 0, 1):
                for v in range(LOCAL_ORDER_MAX + 1):
                    for u in range(v + 1):
                        got = sum(definite_local_factors(p, u, v, chi, k), Fraction(0))
                        want = sum(p ** (j * (k - 1)) * local_correction(p, chi, v - j, k)
                                   for j in range(u + 1))
                        tally.check(got == want,
                                    f"definite sum fails at p={p} chi={chi} u={u} v={v} k={k}")
                    recur = (local_correction(p, chi, v, k)
                             + p ** ((v + 1) * (2 * k - 3))
                             - chi * p ** (k - 2) * p ** (v * (2 * k - 3)))
                    tally.check(local_correction(p, chi, v + 1, k) == recur,
                                f"correction recursion fails at p={p} chi={chi} v={v} k={k}")
    return tally.report()


def verify_hecke(bounds: VerifyBounds = VerifyBounds()) -> SuiteReport:
    """Eigenvalue of the good-prime operator, and the triangular systems of
    the two bad-prime operators on the next level's basis."""
    tally = _Tally("hecke")
    mats = HECKE_GRID[:bounds.t_count]
    for k, p, spec, (s0, s1, s2) in _raised_series(HECKE_LEVELS, HECKE_PRIMES, HECKE_WEIGHTS):
        eigen = p ** (2 * k - 3) + p ** (k - 1) + p ** (k - 2) + 1
        pp = p * p
        # Each row: p^2 times the image of the U(p) or U1(p^2) action, as
        # integer coefficients of (f0, f1, f2); the factor p^2 clears the
        # 1/p and 1/p^2 of the triangular systems
        #   U   f0 + (1 - 1/p)(f1 + f2),  p^(k-1) f1 + (p^(k-1) - p^(k-3)) f2,
        #       p^(2k-3) f2;
        #   U1  (p + 1) f0 + (p^(k-1) + 1)(1 - 1/p) f1 + (1 - 1/p^2) f2,
        #       (p^(2k-2) + p) f1 + (p^(k-2) + 1)(p - 1/p) f2,
        #       (p^(2k-2) + p^(2k-3)) f2.
        rows = (
            ("U rank0", hecke_up, s0, (pp, pp - p, pp - p)),
            ("U rank1", hecke_up, s1, (0, pp * p ** (k - 1), pp * (p ** (k - 1) - p ** (k - 3)))),
            ("U rank2", hecke_up, s2, (0, 0, pp * p ** (2 * k - 3))),
            ("U1 rank0", hecke_u1p2, s0, (pp * (p + 1), (p ** (k - 1) + 1) * (pp - p), pp - 1)),
            ("U1 rank1", hecke_u1p2, s1,
             (0, pp * (p ** (2 * k - 2) + p), (p ** (k - 2) + 1) * (pp * p - p))),
            ("U1 rank2", hecke_u1p2, s2, (0, 0, pp * (p ** (2 * k - 2) + p ** (2 * k - 3)))),
        )
        for t in mats:
            where = f"k={k} {spec.partition.as_tuple()} p={p} T=({t.m},{t.r},{t.n})"
            got, base = hecke_tp(spec, p, t), fourier_coefficient(spec, t)
            tally.check(got.numerator * base.denominator
                        == eigen * base.numerator * got.denominator,
                        f"eigenvalue fails at {where}")
            f0, f1, f2 = (fourier_coefficient(s, t) for s in (s0, s1, s2))
            d = math.lcm(f0.denominator, f1.denominator, f2.denominator)
            n0, n1, n2 = (f.numerator * (d // f.denominator) for f in (f0, f1, f2))
            for label, action, series, (c0, c1, c2) in rows:
                got = action(series, p, t)
                want = c0 * n0 + c1 * n1 + c2 * n2
                tally.check(got.numerator * pp * d == want * got.denominator,
                            f"{label} fails at {where}")
    return tally.report()


def verify_lattices(bounds: VerifyBounds = VerifyBounds()) -> SuiteReport:
    """Genus decomposition table, then formula versus enumeration with an
    integrality check, for every built-in lattice."""
    tally = _Tally("lattices")
    mats = reduced_representatives(bounds.lattice_delta_max, bounds.lattice_sing_max,
                                   include_zero=True)
    max_norm = max(2 * max(t.m, t.n) for t in mats)
    for name in BUILTIN_NAMES:
        gram = builtin_lattice(name)
        table = {part.as_tuple(): c for part, c in genus_coefficients(gram).items()}
        tally.check(table == EXPECTED_GENUS_TABLES[name], f"genus table differs for {name}")
        shells(gram, max_norm)
        for t in mats:
            formula = genus_rep_number(gram, t)
            count = rep_deg2(gram, t)
            where = f"{name} T=({t.m},{t.r},{t.n})"
            tally.check(formula == count,
                        f"formula {formula} != count {count} at {where}")
            tally.check(formula.denominator == 1 and formula >= 0,
                        f"non-integral or negative value {formula} at {where}")
    return tally.report()


SUITE_NAMES = ("identities", "hecke", "lattices", "all")


def run_suites(name: str, bounds: VerifyBounds = VerifyBounds()) -> list[SuiteReport]:
    # Each suite is called through its module-global name, so a caller that
    # rebinds one (as a tracer does) sees every call.
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose one of {SUITE_NAMES}")
    reports = []
    if name in ("identities", "all"):
        reports.append(verify_local_sums())
        reports.append(verify_class_identities(bounds))
        reports.append(verify_coefficient_identities(bounds))
    if name in ("hecke", "all"):
        reports.append(verify_hecke(bounds))
    if name in ("lattices", "all"):
        reports.append(verify_lattices(bounds))
    return reports
