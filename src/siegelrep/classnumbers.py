"""Cohen class-number sums, their prime-to-level restrictions, and the local
correction factors that relate one level to the next.

cohen_h_level(N, k, M) restricts both divisor variables of the classical sum
to integers coprime to N; level 1 recovers the plain value.  For
-M = D f**2 it is L(2 - k, chi_D) times the integer class_divisor_sum(N, k,
D, f), which the coefficient engine and the class-sum checks use directly.
That integer sees the level only through gcd(N, f) and is cached under it,
so each value is computed once for every level that shares those primes
with f.  Multiplying the level Np sum by the integer local_correction(p,
chi_D(p), ord_p(f), k) recovers the level N sum, which is the identity the
verification suites exercise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactmath import (
    decompose_discriminant,
    divisors,
    is_fundamental_discriminant,
    is_squarefree,
    kronecker_symbol,
    l_negative,
    memo,
    moebius,
    require_chi,
    require_prime,
    require_weight,
)

__all__ = ["cohen_h_level", "class_divisor_sum", "local_correction"]


def class_divisor_sum(level: int, k: int, disc: int, conductor: int) -> int:
    """Integer factor of the class-number sum at -disc * conductor**2:

        sum over g | conductor coprime to level of
            mu(g) chi_disc(g) g^(k-2) sum_{h | conductor/g, (h, level) = 1} h^(2k-3)

    disc must be a fundamental discriminant and the conductor positive; the
    full sum is this times L(2 - k, chi_disc).  A divisor of the conductor
    shares a prime with the level exactly when it shares one with
    gcd(level, conductor), so the value is cached under that gcd and every
    level with the same primes in the conductor reads the same entry.
    """
    if level < 1 or not is_squarefree(level):
        raise ValueError("level must be a squarefree positive integer")
    require_weight(k)
    return _class_divisor_sum(gcd(level, conductor), k, disc, conductor)


@memo
def _class_divisor_sum(shared: int, k: int, disc: int, conductor: int) -> int:
    """class_divisor_sum with the level reduced to its gcd with the conductor."""
    if conductor < 1:
        raise ValueError(f"conductor must be positive, got {conductor}")
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"disc must be a fundamental discriminant, got {disc}")
    acc = 0
    for g in divisors(conductor):
        if gcd(g, shared) > 1:
            continue
        mu = moebius(g)
        if mu == 0:
            continue
        chi = kronecker_symbol(disc, g)
        if chi == 0:
            continue
        inner = sum(h ** (2 * k - 3) for h in divisors(conductor // g) if gcd(h, shared) == 1)
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


def local_correction(p: int, chi: int, v: int, k: int) -> int:
    """Geometric factor linking the class sums of level Np and level N at p,
    where chi is chi_D(p):

        sum_{j<=v} p^(j(2k-3)) - chi p^(k-2) sum_{j<=v-1} p^(j(2k-3))

    with empty sums equal to 0.  A p that is not prime, negative v, a chi
    outside -1, 0, 1 and a weight that is odd or below 4 are rejected.
    """
    require_prime(p)
    require_weight(k)
    require_chi(chi)
    if v < 0:
        raise ValueError("order must be non-negative")
    first = sum(p ** (j * (2 * k - 3)) for j in range(v + 1))
    second = sum(p ** (j * (2 * k - 3)) for j in range(v))
    return first - chi * p ** (k - 2) * second
