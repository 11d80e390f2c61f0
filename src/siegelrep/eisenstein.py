"""Fourier coefficients of the natural basis of degree 2 Eisenstein series.

For squarefree level N the basis is indexed by the ordered factorizations
N = N0 * N1 * N2, one series per 0-cusp; the series for (N, 1, 1) is the one
with constant term 1.  Coefficients are exact rationals indexed by positive
semidefinite half-integral 2x2 matrices T.  The closed formula multiplies a
level 1 style divisor sum (of class-number values if T is definite, of powers
if it has rank 1) by one local factor per prime p dividing the level, which
depends only on the orders of p in the content and the conductor, chi_D(p)
and the slot of p in the partition.  So a value reads T only through
(delta, content) and is memoized under (k, N0, N1, N2, delta, content); each
local factor function returns its triple of values in slots 0, 1 and 2, and
one term table per (level, k, delta, content) serves every partition.

raise_level and the Hecke actions give independent evaluation routes; the
verification suites compare them against the closed formula, which is the
strongest internal consistency check this module has.  Like
fourier_coefficient, they combine their terms as integer numerators over one
integer denominator and build a single Fraction per returned value.

Everything is a pure function of immutable inputs; the memo tables
(exactmath.memo) are thread-safe, so concurrent use needs no extra care.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .classnumbers import class_divisor_sum
from .exactmath import (
    bernoulli,
    decompose_discriminant,
    divisors,
    generalized_bernoulli,
    integers,
    is_squarefree,
    kronecker_symbol,
    memo,
    prime_divisors,
    require_chi,
    require_order,
    require_prime,
    require_weight,
    valuation,
    zeta_negative,
)

__all__ = [
    "HalfIntegralMatrix",
    "LevelPartition",
    "EisensteinSpec",
    "partitions_of_level",
    "singular_local_factors",
    "definite_local_factors",
    "fourier_coefficient",
    "raise_level",
    "hecke_tp",
    "hecke_up",
    "hecke_u1p2",
    "reduced_representatives",
]


@dataclass(frozen=True)
class HalfIntegralMatrix:
    """Matrix ((m, r/2), (r/2, n)) stored as the integer triple (m, r, n).

    Construction enforces positive semidefiniteness; indefinite input is a
    hard error, never coerced.  Entries follow exactmath.integers (Python
    or numpy ints, not 1.0, Fraction(2) or "1"); they are kept as Python
    ints.
    """

    m: int
    r: int
    n: int

    def __post_init__(self) -> None:
        if not (type(self.m) is int and type(self.r) is int and type(self.n) is int):
            for name, x in zip("mrn", integers((self.m, self.r, self.n), "matrix entries")):
                object.__setattr__(self, name, x)
        if self.m < 0 or self.n < 0 or 4 * self.m * self.n - self.r * self.r < 0:
            raise ValueError("matrix must be positive semidefinite")

    @property
    def delta(self) -> int:
        """Discriminant 4mn - r^2."""
        return 4 * self.m * self.n - self.r * self.r

    @property
    def content(self) -> int:
        """gcd of m, r, n (0 only for the zero matrix)."""
        return math.gcd(self.m, self.r, self.n)

    @property
    def is_zero(self) -> bool:
        return self.m == 0 and self.r == 0 and self.n == 0

    def scaled(self, c: int) -> "HalfIntegralMatrix":
        return HalfIntegralMatrix(c * self.m, c * self.r, c * self.n)

    def transformed(self, mat: tuple[tuple[int, int], tuple[int, int]]) -> "HalfIntegralMatrix":
        """Congruent matrix under the integral change of basis mat."""
        (a, b), (c, d) = mat
        m, r, n = self.m, self.r, self.n
        return HalfIntegralMatrix(m * a * a + r * a * c + n * c * c,
                                  2 * m * a * b + r * (a * d + b * c) + 2 * n * c * d,
                                  m * b * b + r * b * d + n * d * d)

    def divided_by(self, p: int) -> "HalfIntegralMatrix | None":
        """T / p when that is still half-integral, else None."""
        if self.m % p or self.r % p or self.n % p:
            return None
        return HalfIntegralMatrix(self.m // p, self.r // p, self.n // p)


@dataclass(frozen=True)
class LevelPartition:
    """Ordered factorization (n0, n1, n2) of a squarefree level, as Python ints."""

    n0: int
    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name, x in zip(("n0", "n1", "n2"), integers(self.as_tuple(), "partition entries")):
            object.__setattr__(self, name, x)
        if min(self.n0, self.n1, self.n2) < 1:
            raise ValueError("partition entries must be positive")
        if not is_squarefree(self.n0 * self.n1 * self.n2):
            raise ValueError("the level must be squarefree")

    @property
    def level(self) -> int:
        return self.n0 * self.n1 * self.n2

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n0, self.n1, self.n2)


@dataclass(frozen=True)
class EisensteinSpec:
    """Weight plus cusp partition, identifying one series of the basis."""

    k: int
    partition: LevelPartition

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", require_weight(self.k))


def partitions_of_level(level: int) -> tuple[LevelPartition, ...]:
    """All ordered factorizations of a squarefree level into three parts."""
    if level < 1 or not is_squarefree(level):
        raise ValueError("level must be a squarefree positive integer")
    primes = prime_divisors(level)
    parts = []
    for assign in itertools.product(range(3), repeat=len(primes)):
        slots = [1, 1, 1]
        for p, s in zip(primes, assign):
            slots[s] *= p
        parts.append(LevelPartition(*slots))
    return tuple(sorted(parts, key=lambda q: q.as_tuple()))


def singular_local_factors(p: int, u: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Factors at p for rank 1 coefficients in slots 0, 1 and 2 of the
    partition; u is the order of p in the content."""
    p, u, k = require_prime(p), require_order("u", u), require_weight(k)
    x = p ** (k - 1)
    high = x ** (u + 1)
    slot1 = Fraction(high * p, p**k - 1)
    return Fraction(high - 1, x - 1) - slot1, slot1, Fraction(0)


@memo
def definite_local_factors(p: int, u: int, v: int, chi: int,
                           k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Factors at p for definite coefficients in slots 0, 1 and 2 of the
    partition.  u and v are the orders of p in the content and in the
    conductor, so u <= v; chi is the character value at p."""
    p, u, v = require_prime(p), require_order("u", u), require_order("v", v)
    if u > v:
        raise ValueError(f"u must be at most v, got u={u} v={v}")
    chi, k = require_chi(chi), require_weight(k)
    y = 2 * k - 3
    a = p**y - chi * p ** (k - 2)
    b = chi * p ** (k - 2) - 1
    yv = p ** (v * y)
    pu = p ** (u * (k - 1))
    cross = p ** ((v - u) * y) * pu
    # p^e - 1 for e = 2k - 3, k, 2k - 2, k - 1 and k - 2.
    qy, qk, q2, q1, q0 = (p**e - 1 for e in (y, k, 2 * k - 2, k - 1, k - 2))
    slot2 = a * Fraction(yv * p ** (k + 1), q2 * qk)
    slot1 = (a * (yv * Fraction(p ** (k - 1) * (p * p - 1), q2 * qk * q0)
                  - cross * Fraction(p * q1, qy * qk * q0))
             + b * pu * Fraction(p**k, qy * qk))
    slot0 = (a * (yv * Fraction(p ** (k - 2) * (p - 1), qy * q2 * q0)
                  - cross * Fraction(p - 1, qy * qk * q0))
             + b * (pu * Fraction(p ** (k - 1) * (p - 1), qy * qk * q1) - Fraction(1, qy * q1)))
    return slot0, slot1, slot2


def fourier_coefficient(spec: EisensteinSpec, mat: HalfIntegralMatrix) -> Fraction:
    """Coefficient of the basis series `spec` at the matrix `mat`, which it
    reads only through (delta, content): the memo, _coefficient, is keyed by
    (k, n0, n1, n2, delta, content), and cache_info() reports its table.
    The zero matrix (content 0) gives 1 exactly for the partition (N, 1, 1)
    and 0 otherwise; rank 1 matrices use the singular local factors with a
    power-divisor sum; definite matrices use the class-number divisor sum
    over divisors of the content coprime to the level.
    """
    part = spec.partition
    return _coefficient(spec.k, part.n0, part.n1, part.n2, mat.delta, mat.content)


@memo
def _coefficient(k: int, n0: int, n1: int, n2: int, delta: int, content: int) -> Fraction:
    if content == 0:
        return Fraction(1) if n1 == 1 and n2 == 1 else Fraction(0)
    local, num, den = _level_terms(n0 * n1 * n2, k, delta, content)
    # Only the slot of each prime depends on the partition.  Factors are
    # multiplied as numerator and denominator ints; the one Fraction built
    # is the value itself.
    for p, by_slot in local:
        factor = by_slot[0 if n0 % p == 0 else 1 if n1 % p == 0 else 2]
        num *= factor.numerator
        den *= factor.denominator
    return Fraction(num, den)


fourier_coefficient.cache_info = _coefficient.cache_info


@memo
def _level_terms(level: int, k: int, delta: int, content: int) -> tuple[tuple, int, int]:
    """Coefficient data shared by every partition of the level: each prime of
    the level with its local factor triple, indexed by slot 0, 1, 2, and the
    level 1 style factor as (numerator, denominator).

    For rank 1 (delta = 0) that factor is 2 / zeta(1 - k) times the power
    sum over divisors d of the content coprime to the level.  For definite
    matrices it is 2 L(2 - k, chi_D) / (zeta(1 - k) zeta(3 - 2k)) times the
    integer class-number divisor sum over the same d: every -delta / d^2 has
    the same fundamental discriminant D, so the L-value factors out.  With
    L(2 - k, chi_D) = -B_(k-1, chi) / (k - 1) and zeta(1 - j) = -B_j / j the
    constant is -4k B_(k-1, chi) / (B_k B_(2k-2)), taken as one integer
    numerator and denominator, not reduced; fourier_coefficient's Fraction
    reduces the value.
    """
    coprime = [d for d in divisors(content) if math.gcd(d, level) == 1]
    if delta == 0:
        local = tuple((p, singular_local_factors(p, valuation(p, content), k))
                      for p in prime_divisors(level))
        zeta = zeta_negative(k)
        return local, 2 * sum(d ** (k - 1) for d in coprime) * zeta.denominator, zeta.numerator
    dec = decompose_discriminant(delta)
    disc, conductor = dec.disc, dec.conductor
    local = tuple((p, definite_local_factors(p, valuation(p, content), valuation(p, conductor),
                                             kronecker_symbol(disc, p), k))
                  for p in prime_divisors(level))
    class_sum = sum(d ** (k - 1) * class_divisor_sum(level, k, disc, conductor // d)
                    for d in coprime)
    gen, b_k, b_2k = generalized_bernoulli(k - 1, disc), bernoulli(k), bernoulli(2 * k - 2)
    num = -4 * k * gen.numerator * b_k.denominator * b_2k.denominator
    return local, class_sum * num, gen.denominator * b_k.numerator * b_2k.numerator


def raise_level(a_t: Fraction | int, a_pt: Fraction | int, a_p2t: Fraction | int,
                p: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Split a level N coefficient triple (a(T), a(pT), a(p^2 T)) into the
    coefficients at T of the three level Np basis series, in slot order.

    The three outputs always sum back to a(T).  p must be prime, and k even
    and at least 4, as for a basis series.
    """
    p, k = require_prime(p), require_weight(k)
    # The inputs over one denominator d, and every combination multiplied
    # through by q = p^(k-4), which turns the p^(4-k) terms into the plain
    # differences of t, pt and p2t below.
    d = math.lcm(a_t.denominator, a_pt.denominator, a_p2t.denominator)
    t, pt, p2t = (a.numerator * (d // a.denominator) for a in (a_t, a_pt, a_p2t))
    q = p ** (k - 4)
    pp = p * p
    upper = p ** (2 * k - 1) + p ** (k + 1)
    out0 = q * (
        (p ** (3 * k - 2) + upper - p ** (2 * k - 2) - p**k - p + 1) * t
        - (upper + pp - p) * pt
        + pp * p2t
    )
    out1 = q * (
        (-upper - pp * p + p) * t
        + (upper + pp * p + pp - p) * pt
        - pp * p2t
    ) + pt - p2t
    out2 = q * pp * p * (t - pt) + p2t - pt
    den = (p**k - 1) * (p ** (2 * k - 2) - 1) * d * q
    return (Fraction(out0, den), Fraction(out1, den), Fraction(out2, den))


def _require_prime_divides(spec: EisensteinSpec, p: int, should_divide: bool) -> int:
    p = require_prime(p)
    divides = spec.partition.level % p == 0
    if divides != should_divide:
        verb = "must" if should_divide else "must not"
        raise ValueError(f"p {verb} divide the level")
    return p


def _degree_p_images(mat: HalfIntegralMatrix, p: int) -> list[HalfIntegralMatrix]:
    """mat under the p + 1 column transforms of determinant p:
    ((1, 0), (alpha, p)) for 0 <= alpha < p, then ((p, 0), (0, 1))."""
    moves = [((1, 0), (alpha, p)) for alpha in range(p)] + [((p, 0), (0, 1))]
    return [mat.transformed(move) for move in moves]


def hecke_tp(spec: EisensteinSpec, p: int, mat: HalfIntegralMatrix) -> Fraction:
    """Coefficient at mat of the series after the Hecke operator at p coprime
    to the level, assembled from coefficient values.

    Transform terms that leave the half-integral lattice contribute 0.
    """
    p = _require_prime_divides(spec, p, False)
    k = spec.k
    terms = [(1, fourier_coefficient(spec, mat.scaled(p)))]
    for image in _degree_p_images(mat, p):
        w = image.divided_by(p)
        if w is not None:
            terms.append((p ** (k - 2), fourier_coefficient(spec, w)))
    down = mat.divided_by(p)
    if down is not None:
        terms.append((p ** (2 * k - 3), fourier_coefficient(spec, down)))
    return _combination(terms)


def hecke_up(spec: EisensteinSpec, p: int, mat: HalfIntegralMatrix) -> Fraction:
    """Coefficient action of U(p) for p dividing the level: a(pT)."""
    p = _require_prime_divides(spec, p, True)
    return fourier_coefficient(spec, mat.scaled(p))


def hecke_u1p2(spec: EisensteinSpec, p: int, mat: HalfIntegralMatrix) -> Fraction:
    """Coefficient action of U_1(p^2) for p dividing the level: the p + 1
    term sum over the degree p column transforms."""
    p = _require_prime_divides(spec, p, True)
    return _combination([(1, fourier_coefficient(spec, w)) for w in _degree_p_images(mat, p)])


def _combination(terms) -> Fraction:
    """Sum of c * x over pairs (int c, Fraction x): the numerators over
    d = lcm of the denominators, then one Fraction."""
    d = math.lcm(*(x.denominator for _, x in terms))
    return Fraction(sum(c * x.numerator * (d // x.denominator) for c, x in terms), d)


def reduced_representatives(delta_max: int, singular_content_max: int = 0,
                            include_zero: bool = False,
                            all_classes: bool = False) -> list[HalfIntegralMatrix]:
    """Reduced half-integral representatives: optionally the zero matrix,
    rank 1 forms (e, 0, 0) up to the content bound, and definite forms with
    0 <= r <= m <= n and discriminant at most delta_max.

    all_classes additionally emits the (m, -r, n) twins, which are improperly
    equivalent to their partners.
    """
    out: list[HalfIntegralMatrix] = []
    if include_zero:
        out.append(HalfIntegralMatrix(0, 0, 0))
    for e in range(1, singular_content_max + 1):
        out.append(HalfIntegralMatrix(e, 0, 0))
    m = 1
    while 3 * m * m <= delta_max:
        for r in range(m + 1):
            n = m
            while 4 * m * n - r * r <= delta_max:
                out.append(HalfIntegralMatrix(m, r, n))
                if all_classes and r:
                    out.append(HalfIntegralMatrix(m, -r, n))
                n += 1
        m += 1
    return out
