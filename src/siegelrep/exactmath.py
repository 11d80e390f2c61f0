"""Exact arithmetic primitives used by every other module.

Scalars are plain ints and fractions.Fraction (always in lowest terms with a
positive denominator, so equality is bit-exact); nothing in this module ever
touches floating point.  The arrays are a table of character values in
{-1, 0, 1} and the int64 powers of generalized_bernoulli's power sums, used
only under a bound, checked at run time, that rules out overflow.  All
functions are pure.  The package's one cache policy lives here (`memo` is
functools.cache, unbounded and thread-safe, plus registration, and
clear_caches() empties every registered table), and so does its one
integer rule, `integers`, which the argument checks and value types apply.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat

import numpy as np

__all__ = [
    "FACTOR_GUARD",
    "Factorization",
    "FundamentalDecomposition",
    "memo",
    "clear_caches",
    "bernoulli",
    "zeta_negative",
    "kronecker_symbol",
    "decompose_discriminant",
    "is_fundamental_discriminant",
    "generalized_bernoulli",
    "l_negative",
    "factorize",
    "divisors",
    "prime_divisors",
    "moebius",
    "valuation",
    "is_squarefree",
    "is_prime",
]

# Trial division is exact and entirely sufficient at the scales this package
# works at, but it would crawl on cryptographic-size inputs; refuse those
# outright instead of hanging.
FACTOR_GUARD = 1 << 64

# factorize trial-divides by p <= _TRIAL_LIMIT only.  A cofactor left below
# _TRIAL_LIMIT**2 is then prime; a larger one is tested with Miller-Rabin
# on the first 12 primes as bases, which is exact below 3.18 * 10^23
# (Sorenson & Webster, Math. Comp. 86, 2017), far beyond FACTOR_GUARD.
_TRIAL_LIMIT = 1 << 20
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The no-argument callables clear_caches() runs: cache_clear of every memo
# table, plus the clearing of theta's shell store.
CLEARERS: list = []


def memo(fn):
    """functools.cache, registered so that clear_caches() empties it."""
    cached = cache(fn)
    CLEARERS.append(cached.cache_clear)
    return cached


def clear_caches() -> None:
    """Empty every cached table of the package, so the next call runs cold."""
    for clear in CLEARERS:
        clear()


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs with primes increasing."""

    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def squarefree(self) -> bool:
        """Computed once per instance; factorize's table keeps the instances."""
        return all(a == 1 for _, a in self.pairs)


@dataclass(frozen=True)
class FundamentalDecomposition:
    """Split of a negated discriminant, -delta = disc * conductor**2."""

    disc: int
    conductor: int


@memo
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, with the convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    # recurrence sum_{j=0}^{n} binom(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def zeta_negative(k: int) -> Fraction:
    """zeta(1 - k) = -B_k / k for k >= 2.  With B_1 = -1/2 the formula
    fails at k = 1 (zeta(0) = -1/2), so k = 1 is refused too."""
    if k < 2:
        raise ValueError("zeta_negative needs k >= 2")
    return -bernoulli(k) / k


def kronecker_symbol(a: int, m: int) -> int:
    """Kronecker symbol (a / m) for m >= 1, completely multiplicative in m.

    The factor at 2 follows the usual mod 8 rule, so for a fundamental
    discriminant D this is the quadratic character attached to Q(sqrt(D)).
    """
    if m < 1:
        raise ValueError("kronecker_symbol needs m >= 1")
    sign = 1
    if m % 2 == 0:
        if a % 2 == 0:
            return 0
        two = 1 if a % 8 in (1, 7) else -1
        while m % 2 == 0:
            m //= 2
            sign *= two
    # Jacobi symbol (a / m) for the remaining odd m
    a %= m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 37 with _MILLER_RABIN_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@memo
def factorize(n: int) -> Factorization:
    """Trial-division factorization.  Inputs above FACTOR_GUARD are refused,
    and so are those with two prime factors above _TRIAL_LIMIT (counted
    with multiplicity)."""
    (n,) = integers((n,), "factorize arguments")
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    if n > FACTOR_GUARD:
        raise OverflowError("refusing to trial-divide beyond 2**64")
    pairs = []
    rest = n
    p = 2
    while p * p <= rest and p <= _TRIAL_LIMIT:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    if rest >= _TRIAL_LIMIT ** 2 and not _is_strong_probable_prime(rest):
        raise OverflowError(f"refusing to factor {n}: no prime factor up to 2**20")
    if rest > 1:
        pairs.append((rest, 1))
    return Factorization(tuple(pairs))


@memo
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    out = [1]
    for p, a in factorize(n).pairs:
        out = [d * p**e for d in out for e in range(a + 1)]
    return tuple(sorted(out))


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n).pairs)


def moebius(n: int) -> int:
    fac = factorize(n)
    if not fac.squarefree:
        return 0
    return -1 if len(fac.pairs) % 2 else 1


def valuation(p: int, n: int) -> int:
    """Exponent of p in n (n >= 1)."""
    if p < 2 or n < 1:
        raise ValueError("valuation needs p >= 2 and n >= 1")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_squarefree(n: int) -> bool:
    return factorize(n).squarefree


def is_prime(n: int) -> bool:
    """Exact up to FACTOR_GUARD, which it refuses to pass as factorize does."""
    if n > FACTOR_GUARD:
        raise OverflowError("refusing to test primality beyond 2**64")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    return _is_strong_probable_prime(n)


def integers(values, what: str) -> tuple[int, ...]:
    """values as Python ints, through operator.index: Python and numpy ints
    pass, while floats, Fractions and strings are refused."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


# The argument checks that classnumbers and eisenstein share.  Each returns
# its argument as a Python int, and callers compute with that.
def require_prime(p: int) -> int:
    p = p if type(p) is int else integers((p,), "primes")[0]
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


def require_weight(k: int) -> int:
    k = k if type(k) is int else integers((k,), "weights")[0]
    if k < 4 or k % 2:
        raise ValueError("weight must be even and at least 4")
    return k


def require_chi(chi: int) -> int:
    chi = chi if type(chi) is int else integers((chi,), "character values")[0]
    if chi not in (-1, 0, 1):
        raise ValueError(f"chi must be -1, 0 or 1, got {chi}")
    return chi


def require_order(name: str, value: int) -> int:
    value = value if type(value) is int else integers((value,), "orders")[0]
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


@memo
def decompose_discriminant(delta: int) -> FundamentalDecomposition:
    """Split -delta into D * f**2 with D a fundamental discriminant.

    Only delta = 0, 3 mod 4 can occur as 4mn - r**2, and exactly those split
    this way; anything else is rejected as a caller bug.
    """
    if delta <= 0:
        raise ValueError("decompose_discriminant needs delta > 0")
    if delta % 4 in (1, 2):
        raise ValueError("delta must be 0 or 3 mod 4")
    core = 1
    conductor = 1
    for p, a in factorize(delta).pairs:
        conductor *= p ** (a // 2)
        if a % 2:
            core *= p
    if (-core) % 4 == 1:
        return FundamentalDecomposition(-core, conductor)
    # -core is 2 or 3 mod 4, so 4 divides delta / core and the conductor is even
    return FundamentalDecomposition(-4 * core, conductor // 2)


def is_fundamental_discriminant(d: int) -> bool:
    if d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree(abs(d))
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and is_squarefree(abs(q))
    return False


def _character_table(disc: int) -> np.ndarray:
    """chi_disc(a) for a = 1..|disc|, as int8.

    A fundamental discriminant is a product of prime discriminants, and its
    character is the product of theirs.  By quadratic reciprocity the factor
    of an odd prime p is the Legendre symbol (a / p), read off the squares
    mod p; the 2-part (-4, 8 or -8) has period 8.
    """
    q = abs(disc)
    a = np.arange(1, q + 1)
    chi = np.ones(q, dtype=np.int8)
    odd_part = 1
    for p, _ in factorize(q).pairs:
        if p == 2:
            continue
        legendre = np.full(p, -1, dtype=np.int8)
        legendre[0] = 0
        legendre[np.arange(1, p) ** 2 % p] = 1
        chi *= legendre[a % p]
        odd_part *= p if p % 4 == 1 else -p
    if q % 2 == 0:
        two_part = disc // odd_part
        period = np.array([kronecker_symbol(two_part, r) for r in range(1, 9)], dtype=np.int8)
        chi *= period[(a - 1) % 8]
    return chi


@memo
def generalized_bernoulli(n: int, disc: int) -> Fraction:
    """Generalized Bernoulli number for the quadratic character of
    discriminant disc: |D|^(n-1) * sum_a chi(a) B_n(a / |D|).

    Expanding B_n(x) = sum_j binom(n, j) B_j x^(n-j) gives
    sum_j binom(n, j) B_j |D|^(j-1) S_(n-j) with the integer power sums
    S_e = sum_a chi(a) a^e, so the residues only ever meet ints and there is
    one Fraction per j.  The powers a^e for e <= n + 1 and the partial sums
    of every S_e with e <= n are at most q^(n+1) in absolute value, so when
    q^(n+1) < 2^63 the sums are int64 dot products; otherwise they are
    summed as Python ints.
    """
    n, disc = integers((n, disc), "generalized_bernoulli arguments")
    if n < 1:
        raise ValueError("generalized_bernoulli needs n >= 1")
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    q = abs(disc)
    chi = _character_table(disc)
    residues = np.arange(1, q + 1, dtype=np.int64)
    if q ** (n + 1) < 1 << 63:
        chi = chi.astype(np.int64)
        power = np.ones(q, dtype=np.int64)
        sums = []
        for _ in range(n + 1):
            sums.append(int(chi @ power))
            power *= residues
    else:
        plus = residues[chi == 1].tolist()
        minus = residues[chi == -1].tolist()
        sums = [sum(map(pow, plus, repeat(e))) - sum(map(pow, minus, repeat(e)))
                for e in range(n + 1)]
    acc = Fraction(sums[n], q)
    for j in range(1, n + 1):
        acc += math.comb(n, j) * bernoulli(j) * q ** (j - 1) * sums[n - j]
    return acc


def l_negative(n: int, disc: int) -> Fraction:
    """L(1 - n, chi_disc) = -B_(n, chi) / n."""
    return -generalized_bernoulli(n, disc) / n
