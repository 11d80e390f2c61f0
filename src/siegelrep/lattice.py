"""Even lattices presented by Gram matrices: level, determinant, character,
local invariants, and the genus decomposition against the Eisenstein basis.

One exact LDL' decomposition, computed when a GramMatrix is built and kept
on it (GramMatrix.ldl), supplies the positive definiteness check, the
determinant, the level (through S^-1), the Hasse invariants (through its
pivots) and the enumeration bounds in theta.

The five built-in rank 8 single-class lattices S1..S5 are stored as their
lower-triangular tuples and decoded on demand.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import MappingProxyType

from .eisenstein import (
    EisensteinSpec,
    HalfIntegralMatrix,
    LevelPartition,
    fourier_coefficient,
    partitions_of_level,
)
from .exactmath import (integers, is_squarefree, kronecker_symbol, memo, prime_divisors,
                         require_prime, valuation)

__all__ = [
    "GramMatrix",
    "LatticeProfile",
    "profile",
    "hilbert_symbol",
    "hasse_invariant",
    "genus_coefficients",
    "genus_rep_number",
    "BUILTIN_NAMES",
    "builtin_lattice",
    "parse_gram",
    "format_gram",
    "load_gram",
]


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix with even diagonal, positive definite.

    The genus machinery needs even rank; the plain enumeration helpers do
    not, so rank is not restricted here.  Entries follow exactmath.integers
    (Python or numpy ints, not 2.0 or "2"); they are kept as Python ints.
    Equality, hashing and repr use rows only; the LDL' decomposition is
    derived from them once, when built.
    """

    rows: tuple[tuple[int, ...], ...]
    _ldl: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(integers(r, "matrix entries") for r in self.rows))
        n = len(self.rows)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            if self.rows[i][i] % 2:
                raise ValueError("diagonal entries must be even")
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        # Fraction-free (Bareiss) elimination: entering step k, the entries
        # a_ij with i, j >= k are m_(k-1) times the Schur complement, where
        # m_k = d_1 ... d_k is the k-th leading principal minor.  So
        # d_k = m_k / m_(k-1) and L_ik = a_ik / m_k, and every intermediate
        # is an integer.
        a = [list(row) for row in self.rows]
        pivots = []
        low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        prev = 1
        for k in range(n):
            piv = a[k][k]
            if piv <= 0:
                raise ValueError("matrix must be positive definite")
            pivots.append(Fraction(piv, prev))
            for i in range(k + 1, n):
                low[i][k] = Fraction(a[i][k], piv)
                for j in range(k + 1, n):
                    a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = piv
        object.__setattr__(self, "_ldl", (tuple(pivots), tuple(map(tuple, low))))

    @classmethod
    def from_lower_triangular(cls, values) -> "GramMatrix":
        vals = list(values)
        size = (math.isqrt(8 * len(vals) + 1) - 1) // 2
        if size * (size + 1) // 2 != len(vals):
            raise ValueError("entry count is not a triangular number")
        rows = [[0] * size for _ in range(size)]
        pos = 0
        for i in range(size):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = vals[pos]
                pos += 1
        return cls(rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def determinant(self) -> int:
        return int(math.prod(self.ldl()[0]))

    def ldl(self) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
        """Exact S = L D L' as (pivots, rows of L): D = diag(d_1, ..., d_n)
        and L is unit lower-triangular.  Computed once, at construction,
        where a non-positive pivot rules out positive definiteness
        (Sylvester) and raises ValueError."""
        return self._ldl

    def lower_triangular(self) -> tuple[int, ...]:
        return tuple(self.rows[i][j] for i in range(self.size) for j in range(i + 1))


@dataclass(frozen=True)
class LatticeProfile:
    """Genus invariants of an even lattice: minimal level, determinant,
    character triviality, and local data at the primes of the level.
    The two mappings are read-only views."""

    level: int
    determinant: int
    character_trivial: bool
    hasse: Mapping[int, int]
    d_powers: Mapping[int, int]


def profile(gram: GramMatrix) -> LatticeProfile:
    """Level, determinant, character triviality, plus Hasse invariants and
    determinant p-parts at the primes dividing the level."""
    if gram.size % 2:
        raise ValueError("profile needs even rank")
    det = gram.determinant
    # S^-1 = M' D^-1 M with M = L^-1, unit lower-triangular like L
    pivots, low = gram.ldl()
    n = gram.size
    inv_low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv_low[i][j] = -sum(low[i][k] * inv_low[k][j] for k in range(j, i))
    # the level is the least N with N S^-1 integral and even on the diagonal
    level = 1
    for i in range(n):
        for j in range(i + 1):
            s = sum(inv_low[k][i] * inv_low[k][j] / pivots[k] for k in range(i, n))
            q = s / 2 if i == j else s
            level = math.lcm(level, q.denominator)
    k = gram.size // 2
    signed = det if k % 2 == 0 else -det
    trivial = signed > 0 and math.isqrt(signed) ** 2 == signed
    hasse = {p: hasse_invariant(gram, p) for p in prime_divisors(level)}
    d_powers = {p: p ** valuation(p, det) for p in prime_divisors(level)}
    return LatticeProfile(level, det, trivial, MappingProxyType(hasse),
                          MappingProxyType(d_powers))


def _unit_split(x: Fraction, p: int) -> tuple[int, Fraction]:
    num, den = x.numerator, x.denominator
    order = 0
    while num % p == 0:
        num //= p
        order += 1
    while den % p == 0:
        den //= p
        order -= 1
    return order, Fraction(num, den)


def _unit_residue(u: Fraction, modulus: int) -> int:
    return (u.numerator * pow(u.denominator, -1, modulus)) % modulus


def hilbert_symbol(a, b, p) -> int:
    """Hilbert symbol (a, b)_p for nonzero rationals; p is a prime or the
    string "infinity"."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol needs nonzero arguments")
    if p == "infinity" or p == math.inf:
        return -1 if a < 0 and b < 0 else 1
    try:
        p = require_prime(p)
    except ValueError:
        raise ValueError('p must be a prime or "infinity"') from None
    alpha, u = _unit_split(a, p)
    beta, v = _unit_split(b, p)
    if p == 2:
        eps_u = 0 if _unit_residue(u, 4) == 1 else 1
        eps_v = 0 if _unit_residue(v, 4) == 1 else 1
        omega_u = 0 if _unit_residue(u, 8) in (1, 7) else 1
        omega_v = 0 if _unit_residue(v, 8) in (1, 7) else 1
        expo = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if expo % 2 else 1
    sign = 1
    if alpha * beta % 2 and p % 4 == 3:
        sign = -sign
    if beta % 2:
        sign *= kronecker_symbol(_unit_residue(u, p), p)
    if alpha % 2:
        sign *= kronecker_symbol(_unit_residue(v, p), p)
    return sign


def hasse_invariant(gram: GramMatrix, p) -> int:
    """Product of hilbert_symbol(d_i, d_j, p) over i < j for the pivots
    d_1, ..., d_n of the LDL' decomposition.  Any rational diagonalization
    gives the same product."""
    return math.prod(hilbert_symbol(a, b, p) for a, b in combinations(gram.ldl()[0], 2))


@memo
def genus_coefficients(gram: GramMatrix) -> Mapping[LevelPartition, Fraction]:
    """Weight of each basis series in the genus average of the lattice's
    degree 2 theta coefficients, one entry per partition of the level, as a
    read-only mapping."""
    prof = profile(gram)
    k = gram.size // 2
    if k % 2 or k < 4:
        raise ValueError("rank must be 2k with k even and at least 4")
    if not is_squarefree(prof.level):
        raise ValueError("level must be squarefree")
    if not prof.character_trivial:
        raise ValueError("character must be trivial")
    out = {}
    for part in partitions_of_level(prof.level):
        c = Fraction(1)
        for p in prime_divisors(part.n1):
            c *= Fraction(prof.hasse[p], math.isqrt(prof.d_powers[p]))
        for p in prime_divisors(part.n2):
            c /= prof.d_powers[p]
        out[part] = c
    return MappingProxyType(out)


def genus_rep_number(gram: GramMatrix, mat: HalfIntegralMatrix) -> Fraction:
    """Genus-average number of 2-column integer matrices X with X' S X = 2T.

    For a single-class genus this is the exact count, hence an integer.
    """
    k = gram.size // 2
    total = Fraction(0)
    for part, weight in genus_coefficients(gram).items():
        total += weight * fourier_coefficient(EisensteinSpec(k, part), mat)
    return total


# Lower-triangular tuples of the five built-in rank 8 single-class lattices.
_BUILTIN: dict[str, tuple[int, ...]] = {
    "S1": (2, 1, 2, 1, 1, 2, 1, 0, 0, 2, 1, 1, 0, 0, 2, 1, 1, 0, 0, 1, 2,
           1, 0, 1, 0, 0, 0, 2, 1, 1, 0, 1, 1, 1, 0, 2),
    "S2": (2, -1, 2, 0, -1, 2, 0, 0, -1, 2, 0, 0, 0, -1, 2, 0, 0, -1, 0, 0, 2,
           0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 2),
    "S3": (2, 1, 2, -1, -1, 2, 1, 1, 0, 2, 1, 1, 0, 1, 2, 1, 1, 0, 1, 1, 2,
           1, 1, 0, 1, 1, 1, 2, 1, 1, 0, 1, 1, 1, 1, 2),
    "S4": (2, 0, 2, 0, 0, 2, 1, 1, 1, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2,
           0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 1, 1, 2),
    "S5": (2, 0, 2, 0, 0, 2, 1, -1, 1, 4, 0, 0, 0, 1, 2, 0, 0, 0, -1, 0, 2,
           0, 0, 0, -1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2),
}

BUILTIN_NAMES = tuple(_BUILTIN)


def builtin_lattice(name: str) -> GramMatrix:
    """One of the built-in lattices S1..S5."""
    try:
        values = _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown lattice {name!r}; choose one of {BUILTIN_NAMES}") from None
    return GramMatrix.from_lower_triangular(values)


def parse_gram(text: str) -> GramMatrix:
    """Read the plain-text Gram format: first the size, then the
    lower-triangular entries row by row.  '#' starts a comment."""
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens:
        raise ValueError("empty gram file")
    size = int(tokens[0])
    body = tokens[1:]
    need = size * (size + 1) // 2
    if len(body) != need:
        raise ValueError(f"expected {need} entries for size {size}, got {len(body)}")
    return GramMatrix.from_lower_triangular(int(t) for t in body)


def format_gram(gram: GramMatrix) -> str:
    vals = gram.lower_triangular()
    lines = [str(gram.size)]
    pos = 0
    for i in range(gram.size):
        lines.append(" ".join(str(v) for v in vals[pos:pos + i + 1]))
        pos += i + 1
    return "\n".join(lines) + "\n"


def load_gram(path) -> GramMatrix:
    return parse_gram(Path(path).read_text())
