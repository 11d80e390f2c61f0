import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelrep.eisenstein import HalfIntegralMatrix
from siegelrep.lattice import GramMatrix, builtin_lattice, genus_rep_number
from siegelrep.theta import rep_deg1, rep_deg2, shells

DIAG22 = GramMatrix.from_rows([[2, 0], [0, 2]])
A2 = GramMatrix.from_rows([[2, 1], [1, 2]])
TOY3 = GramMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 4]])


def naive_box_vectors(gram, max_norm):
    """Independent oracle: exhaustive cube search with per-coordinate bounds
    x_i^2 <= max_norm * (S^-1)_ii, derived with exact arithmetic."""
    n = gram.size
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(gram.rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = 1 / aug[col][col]
        aug[col] = [v * scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv_diag = [aug[i][n + i] for i in range(n)]
    bounds = []
    for q in inv_diag:
        limit = max_norm * q
        b = 0
        while (b + 1) ** 2 <= limit:
            b += 1
        bounds.append(b)
    found = {}
    for vec in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if all(v == 0 for v in vec):
            continue
        norm = sum(gram.rows[i][j] * vec[i] * vec[j] for i in range(n) for j in range(n))
        if norm <= max_norm:
            found.setdefault(norm, set()).add(vec)
    return found


class TestShells:
    def test_toy_counts(self):
        got = shells(DIAG22, 2)
        assert [(s.norm, len(s.vectors)) for s in got] == [(2, 4)]
        vecs = {tuple(v) for v in got[0].vectors}
        assert vecs == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    @pytest.mark.parametrize("gram", [DIAG22, A2, TOY3])
    def test_against_naive_box(self, gram):
        oracle = naive_box_vectors(gram, 12)
        got = {s.norm: {tuple(v) for v in s.vectors} for s in shells(gram, 12)}
        assert got == oracle

    def test_distinct_and_negation_closed(self):
        for shell in shells(TOY3, 16):
            vecs = [tuple(v) for v in shell.vectors]
            assert len(vecs) == len(set(vecs))
            assert {tuple(-x for x in v) for v in vecs} == set(vecs)

    def test_e8_first_shell(self):
        assert len(shells(builtin_lattice("S1"), 2)[0].vectors) == 240

    def test_cross_module_count(self):
        g2 = builtin_lattice("S2")
        first = shells(g2, 2)[0]
        assert first.norm == 2
        assert len(first.vectors) == genus_rep_number(g2, HalfIntegralMatrix(1, 0, 0))

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            shells(DIAG22, 0)

    def test_cached_vectors_are_read_only(self):
        # zeroing the cached norm 2 shell of S3 used to turn 6944 into 12544
        g3 = builtin_lattice("S3")
        first = shells(g3, 2)[0]
        with pytest.raises(ValueError):
            first.vectors[:] = 0
        assert rep_deg2(g3, HalfIntegralMatrix(1, 0, 1)) == 6944


class TestRepDeg1:
    def test_values(self):
        assert rep_deg1(DIAG22, 1) == 4
        assert rep_deg1(builtin_lattice("S1"), 1) == 240

    def test_extension_beyond_cached_norm(self):
        gram = GramMatrix.from_rows([[4, 0], [0, 4]])
        shells(gram, 2)
        assert rep_deg1(gram, 1) == 0
        assert rep_deg1(gram, 2) == 4
        assert rep_deg1(gram, 10) == 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rep_deg1(DIAG22, 0)


class TestRepDeg2:
    def test_spot_values(self):
        g1 = builtin_lattice("S1")
        assert rep_deg2(g1, HalfIntegralMatrix(0, 0, 0)) == 1
        assert rep_deg2(g1, HalfIntegralMatrix(1, 0, 0)) == 240
        assert rep_deg2(g1, HalfIntegralMatrix(1, 1, 1)) == 13440

    def test_rank_one_both_orientations(self):
        assert rep_deg2(DIAG22, HalfIntegralMatrix(2, 0, 0)) == rep_deg1(DIAG22, 2)
        assert rep_deg2(DIAG22, HalfIntegralMatrix(0, 0, 2)) == rep_deg1(DIAG22, 2)

    def test_rank_one_equal_columns(self):
        # delta = 0 with both norms positive forces the columns to coincide
        assert rep_deg2(A2, HalfIntegralMatrix(1, 2, 1)) == rep_deg1(A2, 1)

    @given(st.integers(0, 3), st.integers(-3, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_symmetries(self, m, r, n):
        if m < 0 or n < 0 or 4 * m * n - r * r < 0:
            return
        t = HalfIntegralMatrix(m, r, n)
        base = rep_deg2(TOY3, t)
        assert rep_deg2(TOY3, HalfIntegralMatrix(n, r, m)) == base
        assert rep_deg2(TOY3, HalfIntegralMatrix(m, -r, n)) == base

    def test_gl2_invariance(self):
        moves = (((1, 1), (0, 1)), ((0, 1), (1, 0)))
        for t in (HalfIntegralMatrix(1, 0, 1), HalfIntegralMatrix(1, 1, 2),
                  HalfIntegralMatrix(2, 2, 2)):
            base = rep_deg2(TOY3, t)
            for mv in moves:
                assert rep_deg2(TOY3, t.transformed(mv)) == base

    def test_worker_determinism(self):
        g3 = builtin_lattice("S3")
        for t in (HalfIntegralMatrix(1, 0, 2), HalfIntegralMatrix(2, 1, 2)):
            assert rep_deg2(g3, t, workers=1) == rep_deg2(g3, t, workers=3)

    def test_vectors_are_int64(self):
        shell = shells(A2, 6)[0]
        assert shell.vectors.dtype == np.int64
