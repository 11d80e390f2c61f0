"""Cohen class-number sums, their prime-to-level restrictions, and the local
correction factors that relate one level to the next.

cohen_h_level(N, k, M) restricts both divisor variables of the classical sum
to integers coprime to N; level 1 recovers the plain value.  For
-M = D f**2 it is L(2 - k, chi_D) times the integer class_divisor_sum(N, k,
D, f), which the coefficient engine and the class-sum checks use
directly.  Multiplying the level Np sum by local_correction(p, D, ord_p(f),
k) recovers the level N sum, which is the identity the verification suites
exercise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactmath import (
    decompose_discriminant,
    divisors,
    is_squarefree,
    kronecker_symbol,
    l_negative,
    memo,
    moebius,
)

__all__ = ["cohen_h_level", "class_divisor_sum", "local_correction"]


def class_divisor_sum(level: int, k: int, disc: int, conductor: int) -> int:
    """Integer factor of the class-number sum at -disc * conductor**2:

        sum over g | conductor coprime to level of
            mu(g) chi_disc(g) g^(k-2) sum_{h | conductor/g, (h, level) = 1} h^(2k-3)

    disc must be a fundamental discriminant; the full sum is this times
    L(2 - k, chi_disc).  Not cached itself: cohen_h_level and the coefficient
    engine cache their results, and the class-sum suite of verify, which
    compares these integers directly, keeps each level's values for the
    length of one level.
    """
    if level < 1 or not is_squarefree(level):
        raise ValueError("level must be a squarefree positive integer")
    if k < 4 or k % 2:
        raise ValueError("weight must be even and at least 4")
    acc = 0
    for g in divisors(conductor):
        if gcd(g, level) > 1:
            continue
        mu = moebius(g)
        if mu == 0:
            continue
        chi = kronecker_symbol(disc, g)
        if chi == 0:
            continue
        inner = sum(h ** (2 * k - 3) for h in divisors(conductor // g) if gcd(h, level) == 1)
        acc += mu * chi * g ** (k - 2) * inner
    return acc


@memo
def cohen_h_level(level: int, k: int, m: int) -> Fraction:
    """Class-number sum with divisors restricted to integers coprime to level.

    m must be positive and 0 or 3 mod 4; hitting anything else indicates a
    caller bug (discriminants of half-integral matrices never are), so it is
    a hard error rather than a silent zero.
    """
    if m <= 0 or m % 4 in (1, 2):
        raise ValueError("argument must be positive and 0 or 3 mod 4")
    dec = decompose_discriminant(m)
    acc = class_divisor_sum(level, k, dec.disc, dec.conductor)
    return l_negative(k - 1, dec.disc) * acc


def local_correction(p: int, disc: int, v: int, k: int) -> Fraction:
    """Geometric factor linking the class sums of level Np and level N at p:

        sum_{j<=v} p^(j(2k-3)) - chi_D(p) p^(k-2) sum_{j<=v-1} p^(j(2k-3))

    with empty sums equal to 0.  Negative v is rejected.
    """
    if v < 0:
        raise ValueError("order must be non-negative")
    first = sum(p ** (j * (2 * k - 3)) for j in range(v + 1))
    second = sum(p ** (j * (2 * k - 3)) for j in range(v))
    return Fraction(first - kronecker_symbol(disc, p) * p ** (k - 2) * second)
