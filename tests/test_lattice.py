import random
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelrep.eisenstein import HalfIntegralMatrix
from siegelrep.exactmath import prime_divisors
from siegelrep.lattice import (
    BUILTIN_NAMES,
    GramMatrix,
    builtin_lattice,
    format_gram,
    genus_coefficients,
    genus_rep_number,
    hasse_invariant,
    hilbert_symbol,
    load_gram,
    parse_gram,
    profile,
)

EXPECTED_PROFILES = {
    "S1": (1, 1),
    "S2": (3, 9),
    "S3": (2, 4),
    "S4": (2, 16),
    "S5": (2, 64),
}

EXPECTED_TABLES = {
    "S1": {(1, 1, 1): Fraction(1)},
    "S2": {(3, 1, 1): Fraction(1), (1, 3, 1): Fraction(1, 3), (1, 1, 3): Fraction(1, 9)},
    "S3": {(2, 1, 1): Fraction(1), (1, 2, 1): Fraction(1, 2), (1, 1, 2): Fraction(1, 4)},
    "S4": {(2, 1, 1): Fraction(1), (1, 2, 1): Fraction(1, 4), (1, 1, 2): Fraction(1, 16)},
    "S5": {(2, 1, 1): Fraction(1), (1, 2, 1): Fraction(1, 8), (1, 1, 2): Fraction(1, 64)},
}


def a_series(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = -1
    return rows


def block_sum(*blocks):
    size = sum(len(b) for b in blocks)
    rows = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                rows[at + i][at + j] = b[i][j]
        at += len(b)
    return rows


def nonzero_fractions():
    ints = st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0)
    return st.builds(Fraction, ints, st.integers(min_value=1, max_value=12))


class TestGramMatrix:
    def test_builtin_decode(self):
        for name in BUILTIN_NAMES:
            g = builtin_lattice(name)
            assert g.size == 8
            for i in range(8):
                assert g.rows[i][i] % 2 == 0
                for j in range(8):
                    assert g.rows[i][j] == g.rows[j][i]

    def test_validation(self):
        with pytest.raises(ValueError):
            GramMatrix([[2, 1], [0, 2]])
        with pytest.raises(ValueError):
            GramMatrix([[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            GramMatrix([[2, 3], [3, 2]])
        with pytest.raises(ValueError):
            GramMatrix.from_lower_triangular([2, 1])
        # zero first pivot, singular, and rank 3 with a negative last pivot
        for rows in ([[0, 1], [1, 2]], [[2, 2], [2, 2]], [[2, 1, 2], [1, 2, 2], [2, 2, 2]]):
            with pytest.raises(ValueError, match="positive definite"):
                GramMatrix(rows)

    @pytest.mark.parametrize("rows, message", [
        ([], "matrix must be nonempty"), ([[2, 1]], "matrix must be square")])
    def test_shape_refused(self, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GramMatrix(rows)

    def test_unknown_builtin_refused(self):
        message = "unknown lattice 'S9'; choose one of ('S1', 'S2', 'S3', 'S4', 'S5')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builtin_lattice("S9")

    @pytest.mark.parametrize("entry", [2.5, 2.0, Fraction(5, 2), Fraction(2), "2"],
                             ids=["2.5", "2.0", "Fraction(5,2)", "Fraction(2)", "str"])
    @pytest.mark.parametrize("build", [
        lambda e: GramMatrix([[e, 1], [1, 2]]),
        lambda e: GramMatrix.from_lower_triangular([e, 1, 2]),
        lambda e: GramMatrix(((e, 1), (1, 2))),
    ], ids=["from_rows", "from_lower_triangular", "constructor"])
    def test_non_integral_entries_refused(self, entry, build):
        # int() would truncate 2.5 to 2 and silently give A2.
        with pytest.raises(ValueError, match="entries must be integers"):
            build(entry)

    def test_numpy_int_entries(self):
        a2 = GramMatrix([[2, 1], [1, 2]])
        for g in (GramMatrix(np.array([[2, 1], [1, 2]], dtype=np.int64)),
                  GramMatrix.from_lower_triangular([np.int64(2), np.int8(1), np.int64(2)]),
                  GramMatrix(((np.int64(2), 1), (1, np.int16(2))))):
            assert g == a2 and hash(g) == hash(a2)
            assert all(type(v) is int for row in g.rows for v in row)

    def test_lower_triangular_round_trip(self):
        g = builtin_lattice("S4")
        assert GramMatrix.from_lower_triangular(g.lower_triangular()) == g

    def test_ldl_is_stored_and_read_only(self):
        g = builtin_lattice("S1")
        assert g.ldl() is g.ldl()
        pivots, low = g.ldl()
        with pytest.raises(TypeError):
            pivots[0] = Fraction(1)
        with pytest.raises(TypeError):
            low[1][0] = Fraction(0)
        with pytest.raises(AttributeError):
            g._ldl = None
        # equality, hash and repr see the rows only
        twin = GramMatrix(g.rows)
        assert twin == g and hash(twin) == hash(g) and twin.ldl() == g.ldl()
        assert repr(g) == f"GramMatrix(rows={g.rows!r})"


class TestProfile:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_profiles(self, name):
        prof = profile(builtin_lattice(name))
        assert (prof.level, prof.determinant) == EXPECTED_PROFILES[name]
        assert prof.character_trivial
        assert all(s == 1 for s in prof.hasse.values())

    def test_cached_profile_is_read_only(self):
        # flipping the cached Hasse invariant at 3 used to flip the sign of
        # a genus weight of S2
        gram = builtin_lattice("S2")
        prof = profile(gram)
        with pytest.raises(TypeError):
            prof.hasse[3] = -prof.hasse[3]
        with pytest.raises(TypeError):
            prof.d_powers[3] = 1
        table = {part.as_tuple(): c for part, c in genus_coefficients(gram).items()}
        assert table == EXPECTED_TABLES["S2"]

    def test_nontrivial_character_detected(self):
        gram = GramMatrix(block_sum(a_series(6), a_series(2)))
        prof = profile(gram)
        assert prof.level == 21 and prof.determinant == 21
        assert not prof.character_trivial
        with pytest.raises(ValueError):
            genus_coefficients(gram)

    def test_odd_rank_rejected(self):
        with pytest.raises(ValueError):
            profile(GramMatrix(a_series(3)))


class TestHilbertSymbol:
    def test_spot_values(self):
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(2, 3, 3) == -1
        for b, p in [(5, 2), (-7, 3), (Fraction(3, 4), 5), (11, "infinity")]:
            assert hilbert_symbol(1, b, p) == 1

    def test_minus_one_pair_via_mod8_search(self):
        # x^2 + y^2 + z^2 = 0 mod 8 forces x, y, z all even, so the form
        # x^2 + y^2 = -1 has no 2-adic solution and the symbol must be -1.
        solvable = any(
            (x * x + y * y + z * z) % 8 == 0
            for x in range(8) for y in range(8) for z in range(8)
            if x % 2 or y % 2 or z % 2
        )
        assert not solvable
        assert hilbert_symbol(-1, -1, 2) == -1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, 5)

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="p must be a prime"):
            hilbert_symbol(3, 5, p)
        with pytest.raises(ValueError, match="p must be a prime"):
            hasse_invariant(builtin_lattice("S2"), p)

    @pytest.mark.parametrize("p", [2.5, 3.9, Fraction(7, 2), 2.0, "3"])
    def test_rejects_non_integral(self, p):
        # int() would turn these into the primes 2, 3, 3, 2 and 3;
        # exactmath.require_prime refuses them
        with pytest.raises(ValueError, match='p must be a prime or "infinity"'):
            hilbert_symbol(3, 5, p)

    def test_numpy_prime_accepted(self):
        assert hilbert_symbol(2, 3, np.int64(3)) == hilbert_symbol(2, 3, 3) == -1

    @given(nonzero_fractions(), nonzero_fractions(), nonzero_fractions(),
           st.sampled_from([2, 3, 5, 7, "infinity"]))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bimultiplicative(self, a, b, c, p):
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert hilbert_symbol(a, b * c, p) == hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)

    @given(nonzero_fractions(), nonzero_fractions(),
           st.integers(min_value=1, max_value=10),
           st.sampled_from([2, 3, 5, "infinity"]))
    @settings(max_examples=100, deadline=None)
    def test_square_invariance(self, a, b, t, p):
        assert hilbert_symbol(a * t * t, b, p) == hilbert_symbol(a, b, p)

    def test_product_formula(self):
        rng = random.Random(0)
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
        for _ in range(100):
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
            support = a.numerator * a.denominator * b.numerator * b.denominator * 2
            product = hilbert_symbol(a, b, "infinity")
            for p in primes:
                if support % p == 0:
                    product *= hilbert_symbol(a, b, p)
            assert product == 1


class TestHasse:
    def test_diagonal_twos_at_odd_primes(self):
        gram = GramMatrix([[2 * (i == j) for j in range(8)] for i in range(8)])
        for p in (3, 5, 7):
            assert hasse_invariant(gram, p) == 1

    def test_pivot_order_independence(self):
        rng = random.Random(1)
        grams = [builtin_lattice(name) for name in BUILTIN_NAMES]
        while len(grams) < 25:
            diag = [2 * rng.randint(1, 4) for _ in range(4)]
            rows = [[0] * 4 for _ in range(4)]
            for i in range(4):
                rows[i][i] = diag[i]
                for j in range(i):
                    rows[i][j] = rows[j][i] = rng.randint(-1, 1)
            try:
                grams.append(GramMatrix(rows))
            except ValueError:
                continue
        for gram in grams:
            # P'SP changes which basis vector the elimination pivots on first
            orders = [list(range(gram.size)), list(reversed(range(gram.size)))]
            shuffled = list(range(gram.size))
            rng.shuffle(shuffled)
            orders.append(shuffled)
            permuted = [GramMatrix([[gram.rows[i][j] for j in o] for i in o])
                        for o in orders]
            for p in (2, 3, 5):
                values = {hasse_invariant(g, p) for g in permuted}
                assert len(values) == 1


def reference_minors(rows):
    """Leading principal minors by Bareiss elimination, the determinant and
    positive-definiteness route before the shared LDL'; None at a zero
    pivot."""
    n = len(rows)
    a = [list(row) for row in rows]
    minors = []
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv == 0:
            return None
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = piv
        minors.append(piv)
    return minors


def reference_inverse(rows):
    """Gauss-Jordan inverse over the rationals, the level route before the
    shared LDL'."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        scale = 1 / a[col][col]
        a[col] = [v * scale for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def reference_level(rows):
    inv = reference_inverse(rows)
    level = 1
    for i in range(len(rows)):
        for j in range(len(rows)):
            level = lcm(level, (inv[i][j] / 2 if i == j else inv[i][j]).denominator)
    return level


def reference_hasse(minors, p):
    """Hasse invariant from the diagonalization m_k / m_(k-1)."""
    diag = [Fraction(m, prev) for prev, m in zip([1] + minors, minors)]
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert_symbol(diag[i], diag[j], p)
    return out


class TestDecompositionEquivalence:
    """The LDL' invariants against in-test copies of the eliminations it
    replaced: Bareiss minors for the definiteness verdict and the
    determinant, a Gauss-Jordan inverse for the level."""

    def grams(self):
        rng = random.Random(7)
        out = [builtin_lattice(name) for name in BUILTIN_NAMES]
        rejected = 0
        while len(out) < 55:
            n = rng.choice([2, 4, 6, 8])
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = 2 * rng.randint(1, 4)
                for j in range(i):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
            minors = reference_minors(rows)
            definite = minors is not None and all(v > 0 for v in minors)
            try:
                gram = GramMatrix(rows)
            except ValueError:
                assert not definite
                rejected += 1
                continue
            assert definite
            out.append(gram)
        assert rejected > 0
        return out

    def test_determinant_level_and_hasse(self):
        for gram in self.grams():
            minors = reference_minors(gram.rows)
            det = gram.determinant
            assert type(det) is int and det == minors[-1]
            prof = profile(gram)
            assert prof.level == reference_level(gram.rows)
            assert prof.determinant == det
            for p in sorted(set(prime_divisors(2 * det)) | {3, 5, 7}):
                assert hasse_invariant(gram, p) == reference_hasse(minors, p)
            assert dict(prof.hasse) == {p: reference_hasse(minors, p)
                                        for p in prime_divisors(prof.level)}


class TestGenus:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_tables(self, name):
        table = {part.as_tuple(): c for part, c in genus_coefficients(builtin_lattice(name)).items()}
        assert table == EXPECTED_TABLES[name]

    def test_rep_number_spots(self):
        g1 = builtin_lattice("S1")
        assert genus_rep_number(g1, HalfIntegralMatrix(0, 0, 0)) == 1
        assert genus_rep_number(g1, HalfIntegralMatrix(1, 1, 1)) == 13440

    def test_cached_table_is_read_only(self):
        gram = builtin_lattice("S2")
        table = genus_coefficients(gram)
        with pytest.raises(TypeError):
            table[next(iter(table))] = Fraction(0)
        assert genus_rep_number(gram, HalfIntegralMatrix(1, 1, 1)) == 1452

    def test_small_rank_rejected(self):
        gram = GramMatrix([[2, 0], [0, 2]])
        with pytest.raises(ValueError):
            genus_coefficients(gram)

    def test_level_not_squarefree_rejected(self):
        # 2 I_8: rank 8, trivial character, level 4.
        gram = GramMatrix([[2 * (i == j) for j in range(8)] for i in range(8)])
        assert profile(gram).level == 4
        with pytest.raises(ValueError, match="^level must be squarefree$"):
            genus_coefficients(gram)


class TestGramFiles:
    def test_round_trip(self, tmp_path):
        g = builtin_lattice("S2")
        path = tmp_path / "s2.gram"
        path.write_text(format_gram(g))
        assert load_gram(path) == g

    def test_parse_layout_and_comments(self):
        text = "# toy rank 2 lattice\n2\n2\n1 2\n"
        assert parse_gram(text) == GramMatrix([[2, 1], [1, 2]])

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_gram("")
        with pytest.raises(ValueError):
            parse_gram("2\n2\n1")
        with pytest.raises(ValueError):
            parse_gram("2\n2\n1 2 5")
