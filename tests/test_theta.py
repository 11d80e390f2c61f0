import collections
import functools
import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegelrep import theta
from siegelrep.eisenstein import HalfIntegralMatrix
from siegelrep.exactmath import clear_caches
from siegelrep.lattice import GramMatrix, builtin_lattice, genus_rep_number
from siegelrep.theta import rep_deg1, rep_deg2, shells

DIAG22 = GramMatrix([[2, 0], [0, 2]])
A2 = GramMatrix([[2, 1], [1, 2]])
TOY3 = GramMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 4]])


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

    def test_integer_bound(self):
        # 4.5 used to raise TypeError from inside the search
        with pytest.raises(ValueError, match="shells arguments must be integers"):
            shells(builtin_lattice("S1"), 4.5)
        norms = [shell.norm for shell in shells(builtin_lattice("S1"), np.int64(4))]
        assert norms == [2, 4] and all(type(q) is int for q in norms)

    def test_cached_vectors_are_read_only(self):
        # zeroing the cached norm 2 shell of S3 used to turn 6944 into 12544
        g3 = builtin_lattice("S3")
        first = shells(g3, 2)[0]
        with pytest.raises(ValueError):
            first.vectors[:] = 0
        assert rep_deg2(g3, HalfIntegralMatrix(1, 0, 1)) == 6944
        # so is the cached pair histogram of norms (2, 2)
        with pytest.raises(TypeError):
            theta._pair_histogram(g3, 2, 2)[0] = 0
        assert rep_deg2(g3, HalfIntegralMatrix(1, 0, 1)) == 6944


class TestRepDeg1:
    def test_values(self):
        assert rep_deg1(DIAG22, 1) == 4
        assert rep_deg1(builtin_lattice("S1"), 1) == 240

    def test_extension_beyond_cached_norm(self):
        gram = GramMatrix([[4, 0], [0, 4]])
        shells(gram, 2)
        assert rep_deg1(gram, 1) == 0
        assert rep_deg1(gram, 2) == 4
        assert rep_deg1(gram, 10) == 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rep_deg1(DIAG22, 0)

    def test_integer_argument(self):
        # 1.5 used to return 0, the count at the norm 3 that no vector has
        with pytest.raises(ValueError, match="rep_deg1 arguments must be integers"):
            rep_deg1(builtin_lattice("S1"), 1.5)
        assert rep_deg1(builtin_lattice("S1"), np.int64(1)) == 240


class TestRepDeg2:
    def test_spot_values(self):
        g1 = builtin_lattice("S1")
        assert rep_deg2(g1, HalfIntegralMatrix(0, 0, 0)) == 1
        assert rep_deg2(g1, HalfIntegralMatrix(1, 0, 0)) == 240
        assert rep_deg2(g1, HalfIntegralMatrix(1, 1, 1)) == 13440
        # 2 S3: every cross product is even, so an odd r has no pairs
        g3 = builtin_lattice("S3")
        doubled = GramMatrix([[2 * v for v in row] for row in g3.rows])
        assert rep_deg2(doubled, HalfIntegralMatrix(2, 1, 2)) == 0
        assert rep_deg2(doubled, HalfIntegralMatrix(2, 2, 2)) == 2688
        assert rep_deg2(g3, HalfIntegralMatrix(1, 1, 1)) == 2688

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

    def test_many_tiles_match_default_tiles(self, monkeypatch):
        # equal norms over many tiles, off-diagonal ones included
        g3 = builtin_lattice("S3")
        t = HalfIntegralMatrix(2, 1, 2)
        clear_caches()
        want = rep_deg2(g3, t)
        monkeypatch.setattr(theta, "_BLOCK", 64)
        half = len(shells(g3, 4)[1].vectors) // 2
        # K = 9 at norms 4 x 4, so the kernel packs p = 4 products per output.
        assert sum(w == 2 for *_, w in theta._blocks(half, half, True, 4)) > 1
        clear_caches()
        assert rep_deg2(g3, t) == want

    def test_vectors_are_int64(self):
        shell = shells(A2, 6)[0]
        assert shell.vectors.dtype == np.int64


# In-test copies of the kernel that the vectorized one replaced: a recursive
# Fincke-Pohst walk and int64 products over the full shells.

def recursive_walk(gram, max_norm):
    n = gram.size
    diag, low = gram.ldl()
    den = [1] * n
    for i in range(n):
        for j in range(i + 1, n):
            den[i] = lcm(den[i], low[j][i].denominator)
    col = [[int(low[level][i] * den[i]) for i in range(level)] for level in range(n)]
    scale = 1
    for i in range(n):
        scale = lcm(scale, (diag[i] / den[i] ** 2).denominator)
    quad = [int(diag[i] * scale / den[i] ** 2) for i in range(n)]
    budget0 = scale * max_norm
    hits = {}
    coords = [0] * n

    def walk(level, budget, offs, zero_tail):
        dl = den[level]
        gl = quad[level]
        c = offs[level]
        root = isqrt(budget // gl)
        lo = -((root + c) // dl)
        if zero_tail and lo < 0:
            lo = 0
        hi = (root - c) // dl
        if level == 0:
            for xv in range(lo, hi + 1):
                if zero_tail and xv == 0:
                    continue
                t = dl * xv + c
                used = budget0 - budget + gl * t * t
                coords[0] = xv
                hits.setdefault(used // scale, []).append(tuple(coords))
            return
        cl = col[level]
        for xv in range(lo, hi + 1):
            t = dl * xv + c
            coords[level] = xv
            walk(level - 1, budget - gl * t * t,
                 [offs[i] + cl[i] * xv for i in range(level)],
                 zero_tail and xv == 0)

    walk(n - 1, budget0, [0] * n, True)
    out = {}
    for norm, vecs in hits.items():
        arr = np.array(vecs, dtype=np.int64)
        out[norm] = np.concatenate([arr, -arr])
    return out


def full_product_counts(gram, norm_a, norm_b):
    """{r: number of (x, y) with norms (norm_a, norm_b) and x' S y = r}, in
    int64 when max |x| * sum |S_ij| * max |y|, a bound on every partial sum,
    is below 2^63, else in Python ints."""
    lo, hi = sorted((norm_a, norm_b))
    by_norm = recursive_walk(gram, hi)
    va, vb = by_norm.get(lo), by_norm.get(hi)
    if va is None or vb is None:
        return {}
    entry_sum = sum(abs(v) for row in gram.rows for v in row)
    if int(np.abs(va).max()) * entry_sum * int(np.abs(vb).max()) >= 2 ** 63:
        prods = (va.astype(object) @ np.array(gram.rows, dtype=object)) @ vb.T.astype(object)
        return dict(collections.Counter(prods.ravel().tolist()))
    bound = isqrt(lo * hi)
    prods = (va @ np.array(gram.rows, dtype=np.int64)) @ vb.T
    hist = np.bincount((prods + bound).ravel(), minlength=2 * bound + 1)
    return {r - bound: int(c) for r, c in enumerate(hist) if c}


def kernel_counts(gram, norm_a, norm_b):
    return dict(theta._pair_histogram(gram, *sorted((norm_a, norm_b))))


def shell_sets(by_norm):
    return {norm: {tuple(v) for v in vecs} for norm, vecs in by_norm.items()}


def assert_half_shell_layout(vectors):
    half = len(vectors) // 2
    assert len(vectors) == 2 * half
    assert np.array_equal(vectors[half:], -vectors[:half])
    for row in vectors[:half]:
        assert row[np.flatnonzero(row)[-1]] > 0


BUILTINS = ["S1", "S2", "S3", "S4", "S5"]
PAIRS = [(a, b) for a in (2, 4, 6) for b in (2, 4, 6) if a <= b]


def skewed_a2(k):
    """A2 in the basis (e1, k e1 + e2)."""
    return GramMatrix([[2, 2 * k + 1], [2 * k + 1, 2 * k * k + 2 * k + 2]])


@st.composite
def even_grams(draw):
    n = draw(st.integers(2, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * draw(st.integers(1, 3))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
    try:
        return GramMatrix(rows)
    except ValueError:
        assume(False)


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_shells_match_recursive_walk(self, name):
        gram = builtin_lattice(name)
        got = {sh.norm: sh.vectors for sh in shells(gram, 10)}
        assert shell_sets(got) == shell_sets(recursive_walk(gram, 10))
        for vectors in got.values():
            assert_half_shell_layout(vectors)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_histograms_match_full_products(self, name):
        gram = builtin_lattice(name)
        for a, b in PAIRS:
            assert kernel_counts(gram, a, b) == full_product_counts(gram, a, b)

    @pytest.mark.parametrize("name", ["S3", "S4", "S5"])
    def test_small_blocks(self, name, monkeypatch):
        gram = builtin_lattice(name)
        monkeypatch.setattr(theta, "_BLOCK", 256)
        clear_caches()
        half = len(shells(gram, 6)[-1].vectors) // 2
        tiles = theta._blocks(half, half, True, 4)  # K <= 13: p = 4
        assert any(w == 2 for *_, w in tiles)
        for a, b in PAIRS:
            assert kernel_counts(gram, a, b) == full_product_counts(gram, a, b)
        clear_caches()

    @pytest.mark.parametrize("k", [62, 63, 127, 128, 300, 40_000, 3_000_000_000])
    def test_large_coordinates(self, k):
        # A2 in the basis (e1, k e1 + e2): its short vectors have coordinates
        # down to -2k - 2, at the int8/int16 edge (k = 62, 63: -126 stored
        # in int8, -128 in int16) and beyond int8, int16 and int32 in turn
        # (the last on Python ints), so the half-shells must still hold them
        # exactly.
        gram = skewed_a2(k)
        got = {sh.norm: sh.vectors for sh in shells(gram, 8)}
        assert shell_sets(got) == shell_sets(recursive_walk(gram, 8))
        assert max(int(np.abs(v).max()) for v in got.values()) >= k
        for vectors in got.values():
            assert_half_shell_layout(vectors)

    @pytest.mark.parametrize("k", [62, 63, 127, 128])
    def test_large_coordinate_pairs(self, k):
        # The product dtypes are chosen from max |x| of narrow half-shells.
        gram = skewed_a2(k)
        for a, b in PAIRS:
            assert kernel_counts(gram, a, b) == full_product_counts(gram, a, b)

    @given(even_grams(), st.sampled_from([16, theta._BLOCK]))
    @settings(max_examples=40, deadline=None)
    def test_random_even_grams(self, gram, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theta, "_BLOCK", block)
            clear_caches()
            got = {sh.norm: sh.vectors for sh in shells(gram, 8)}
            assert shell_sets(got) == shell_sets(recursive_walk(gram, 8))
            for vectors in got.values():
                assert_half_shell_layout(vectors)
            for a, b in PAIRS:
                assert kernel_counts(gram, a, b) == full_product_counts(gram, a, b)
            clear_caches()


TIER_MATS = [HalfIntegralMatrix(m, r, n)
             for m in range(1, 5) for n in range(m, 5) for r in range(-m, m + 1)]


@pytest.fixture
def chosen(monkeypatch):
    """The (floats allowed, dtype) choices made from now on."""
    seen = set()
    pick = theta._exact_dtype

    def spy(bound, floats=False):
        dtype = pick(bound, floats)
        seen.add((floats, dtype))
        return dtype

    monkeypatch.setattr(theta, "_exact_dtype", spy)
    return seen


def product_dtypes(chosen):
    return {dtype for floats, dtype in chosen if floats}


@pytest.fixture
def packed(monkeypatch):
    """The digit counts p chosen from now on."""
    seen = set()
    pick = theta._pack_width

    def spy(base, prod_bound):
        digits = pick(base, prod_bound)
        seen.add(digits)
        return digits

    monkeypatch.setattr(theta, "_pack_width", spy)
    return seen


class TestExactTiers:
    """Scaling S and T by c changes no count and, as the products are taken
    on S divided by the gcd of its entries, no product dtype; only the
    search's bounds move with c, to Python ints at c = 2^70.  skewed_a2(k)
    is A2 in another basis: its products x' S y are A2's, while x' S and the
    packed sums grow with k, so k moves the products from float32 (k = 1)
    to float64 (2^12), int64 (2^26) and Python ints (2^31)."""

    def test_norm_bound_alone_leaves_int64(self, chosen):
        # A2 scaled by c = 2^60: every entry of the split form fits int64,
        # but the scaled norm bound 8c = 2^63 does not.
        c = 2 ** 60
        scaled = GramMatrix([[c * v for v in row] for row in A2.rows])
        large = shells(scaled, 8 * c)
        assert chosen == {(False, object)}
        small = shells(A2, 8)
        assert [sh.norm * c for sh in small] == [sh.norm for sh in large]
        assert all(np.array_equal(a.vectors, b.vectors) for a, b in zip(small, large))

    def test_isqrt_near_float_rounding(self):
        # k^2 - 1 rounds up to k^2 in float64 once k > 2^26
        ks = [3, 2 ** 26 + 1, 2 ** 31 - 1, 3_000_000_000]
        values = [v for k in ks for v in (k * k - 1, k * k, k * k + 2 * k)]
        want = [isqrt(v) for v in values]
        assert theta._isqrt(np.array(values, dtype=np.int64)).tolist() == want
        big = [v << 80 for v in values]
        assert theta._isqrt(np.array(big, dtype=object)).tolist() == [isqrt(v) for v in big]

    @pytest.mark.parametrize("rows", [A2.rows, TOY3.rows], ids=["A2", "TOY3"])
    @pytest.mark.parametrize("c, tiers", [
        (1, {(False, np.int64), (True, np.float32)}),
        (2 ** 30, {(False, np.int64), (True, np.float32)}),
        (2 ** 55, {(False, np.int64), (True, np.float32)}),
        (2 ** 70, {(False, object), (False, np.int64), (True, np.float32)}),
    ], ids=["1", "2^30", "2^55", "2^70"])
    def test_scaled_gram(self, rows, c, tiers, chosen):
        base = GramMatrix(rows)
        scaled = GramMatrix([[c * v for v in row] for row in rows])
        want = [rep_deg2(base, t) for t in TIER_MATS]
        clear_caches()
        chosen.clear()
        got = [rep_deg2(scaled, HalfIntegralMatrix(c * t.m, c * t.r, c * t.n))
               for t in TIER_MATS]
        assert chosen == tiers
        assert got == want and any(want)
        assert all(type(v) is int for v in got)
        small = shells(base, 8)
        large = shells(scaled, 8 * c)
        assert [sh.norm * c for sh in small] == [sh.norm for sh in large]
        for a, b in zip(small, large):
            assert b.vectors.dtype == np.int64 and not b.vectors.flags.writeable
            assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("k, dtype", [
        (1, np.float32), (2 ** 12, np.float64), (2 ** 26, np.int64), (2 ** 31, object)],
        ids=["1", "2^12", "2^26", "2^31"])
    def test_primitive_tiers(self, k, dtype, chosen):
        gram = skewed_a2(k)
        clear_caches()
        for a, b in [(2, 6), (6, 6)]:
            chosen.clear()
            assert kernel_counts(gram, a, b) == full_product_counts(gram, a, b)
            assert product_dtypes(chosen) == {dtype}
        clear_caches()

    # skewed_a2(k) at norms 2 x 6: K = 7 keys, p = 4 digits, and the packed
    # sums are bounded by (1 + 7 + 7^2 + 7^3) * prod_bound = 16,562,400 at
    # k = 100 and 16,889,600 at k = 101, on either side of 2^24.  The bound
    # is not tight: float32 first miscounts at k = 52,103.
    @pytest.mark.parametrize("k, dtype", [(100, np.float32), (101, np.float64)])
    def test_float32_bound(self, k, dtype, chosen):
        gram = skewed_a2(k)
        clear_caches()
        chosen.clear()
        assert kernel_counts(gram, 2, 6) == full_product_counts(gram, 2, 6)
        assert product_dtypes(chosen) == {dtype}
        clear_caches()

    def test_float32_past_its_bound_miscounts(self, monkeypatch):
        # At k = 2^16 the packed sums reach 400 * 17,180,786,694, far past
        # 2^24; float32 cannot hold them all, and in any summation order some
        # round and keys move.
        gram = skewed_a2(2 ** 16)
        want = full_product_counts(gram, 2, 6)
        pick = theta._exact_dtype
        clear_caches()
        assert kernel_counts(gram, 2, 6) == want
        monkeypatch.setattr(theta, "_exact_dtype",
                            lambda bound, floats=False: np.float32 if floats else pick(bound))
        clear_caches()
        assert kernel_counts(gram, 2, 6) != want
        clear_caches()


class TestTileGeometry:
    """_blocks(na, nb, same, digits) covers the products once: every pair
    counted with its weight, no two tiles overlapping, each tile within
    _BLOCK outputs once packed, and a row block's tiles consecutive."""

    SIZES = [1, 2, 124, 125, 126, 3 * 125 + 1]

    @pytest.mark.parametrize("block", [300, theta._BLOCK])
    @pytest.mark.parametrize("same", [False, True])
    @pytest.mark.parametrize("digits", [1, 2, 3, 4])
    def test_tiles(self, digits, same, block, monkeypatch):
        monkeypatch.setattr(theta, "_BLOCK", block)
        for na, nb in itertools.product(self.SIZES, repeat=2):
            if same and nb != na:
                continue
            tiles = theta._blocks(na, nb, same, digits)
            cover = np.zeros((na, nb), dtype=np.int64)
            weighted = 0
            for rows, cols, weight in tiles:
                height, width = rows.stop - rows.start, cols.stop - cols.start
                assert 0 < height and 0 < width
                assert -(-height // digits) * width <= block
                cover[rows, cols] += 1
                weighted += weight * height * width
                if same and weight == 1:
                    assert rows == cols
                elif same:
                    assert weight == 2 and cols.start >= rows.stop
                else:
                    assert weight == 1
            assert cover.max() == 1
            assert weighted == na * nb
            if same:
                assert int(np.triu(cover).sum()) == na * (na + 1) // 2
            else:
                assert int(cover.sum()) == na * nb
            starts = [rows.start for rows, _, _ in tiles]
            assert starts == sorted(starts)


class TestHalfShellStore:
    """The store keeps only half-shells, in int8 for the built-ins; the full
    int64 shells are built on request."""

    def test_builtin_store_is_int8(self):
        clear_caches()
        for name in BUILTINS:
            shells(builtin_lattice(name), 20)
        halves = [h for _, by_norm in theta._stores.values() for h in by_norm.values()]
        assert len(theta._stores) == len(BUILTINS)
        assert {h.dtype for h in halves} == {np.dtype(np.int8)}
        # 1,769,730 vectors to norm 20, half of them stored, 8 bytes each
        assert sum(len(h) for h in halves) * 2 == 1_769_730
        assert sum(h.nbytes for h in halves) == 7_078_920

    # sha256 over (norm, dtype, shape, bytes) of each half-shell up to norm
    # 10.  The shell tests compare sets; these pin the row order as well,
    # which a search over chunks of the frontier must keep.
    HALF_DIGESTS = {
        "S1": "527d06ba3abdd647a1dc085c82f8e919004d44db62ff121129ffcce2f468ef85",
        "S2": "b7e3206a6349e575914aa80ee6c6d3fccdbef69a80a971bb4f920b800fe32fa8",
        "S3": "4ad837f7fd1d18c3d70dcca103f845acf0a2323db4eea442b5f1d88e23471495",
        "S4": "4dadced60bd4676517adb4fe05f54dc512866598939eba48388934c9f345501f",
        "S5": "8f174e30d764ad9c6d84588c0bb358d2d4187aff6c29577dec545e61d95aa8d3",
    }

    @pytest.mark.parametrize("name", BUILTINS)
    def test_half_shell_rows_pinned(self, name):
        digest = hashlib.sha256()
        by_norm = theta._enumerate(builtin_lattice(name), 10)
        for norm in sorted(by_norm):
            half = by_norm[norm]
            digest.update(f"{norm} {half.dtype.str} {half.shape}\n".encode())
            digest.update(half.tobytes())
        assert digest.hexdigest() == self.HALF_DIGESTS[name]

    @staticmethod
    def cold_peak(max_norm):
        """The tracemalloc peak of a cold search of S1, and its store."""
        clear_caches()
        tracemalloc.start()
        try:
            by_norm = theta._enumerate(builtin_lattice("S1"), max_norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(h.nbytes for h in by_norm.values())

    def test_cold_enumeration_peak(self):
        # The search in windows peaks at about 1.7 times the int8 store
        # (3.0 MiB) that it returns; built whole, level by level, it peaked at
        # 6.4 times.
        peak, store = self.cold_peak(20)
        assert peak <= 3 * store

    def test_cold_enumeration_peak_norm_32(self):
        # The store is 18.5 MiB; built whole, the search peaked at 110 MiB.
        peak, _ = self.cold_peak(32)
        assert peak <= 37 * 2 ** 20

    def test_warm_shells_build_no_full_shell(self):
        gram = builtin_lattice("S1")
        shells(gram, 20)
        tracemalloc.start()
        try:
            got = shells(gram, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 10
        assert peak < 2 ** 20

    @pytest.mark.parametrize("name", BUILTINS)
    def test_rep_deg1_counts_full_shells(self, name):
        gram = builtin_lattice(name)
        for shell in shells(gram, 20):
            assert rep_deg1(gram, shell.norm // 2) == len(shell.vectors) == 2 * len(shell.half)

    def test_vectors_built_per_access(self):
        shell = shells(builtin_lattice("S1"), 4)[1]
        first, second = shell.vectors, shell.vectors
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        for vectors in (first, second):
            assert vectors.dtype == np.int64 and not vectors.flags.writeable
            assert np.array_equal(vectors[: len(shell.half)], shell.half)
            assert_half_shell_layout(vectors)
        with pytest.raises(ValueError):
            shell.half[0, 0] = 0


def assert_same_halves(got, want):
    assert list(got) == list(want)
    for norm, half in want.items():
        other = got[norm]
        assert (other.dtype, other.shape) == (half.dtype, half.shape)
        assert other.tobytes() == half.tobytes()


class TestChunkedSearch:
    """A search that builds each level's children in windows of _CHUNK, its
    leaves filed by norm in batches of windows, keeps every leaf in the order
    of one search over the whole frontier, so the halves are the same byte
    for byte.  _PIECE_ROWS = 0 files every window on its own."""

    # Chunks of 1 and 7 rows run tens of thousands of windows per norm 20
    # search (about 25 s over the built-ins), so they stop at norm 10.
    @pytest.mark.parametrize("chunk, piece_rows, max_norm", [
        (1, 16, 10), (7, 0, 10), (7, 16, 10), (100, 0, 20), (100, 16, 20)])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtins(self, name, chunk, piece_rows, max_norm, monkeypatch):
        gram = builtin_lattice(name)
        want = theta._enumerate(gram, max_norm)
        monkeypatch.setattr(theta, "_CHUNK", chunk)
        monkeypatch.setattr(theta, "_PIECE_ROWS", piece_rows)
        assert_same_halves(theta._enumerate(gram, max_norm), want)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_range_without_leaves(self, chunk, monkeypatch):
        # Some rows of the last level have no admissible value, so they own
        # no children; a window may span such rows between those whose
        # children it builds.
        gram = GramMatrix([[8, 2, 0, 1], [2, 6, 3, 3], [0, 3, 2, 1], [1, 3, 1, 4]])
        want = theta._enumerate(gram, 4)
        monkeypatch.setattr(theta, "_CHUNK", chunk)
        monkeypatch.setattr(theta, "_PIECE_ROWS", 0)
        assert_same_halves(theta._enumerate(gram, 4), want)

    @given(even_grams(), st.sampled_from([1, 7, 100]), st.sampled_from([0, 16]))
    @settings(max_examples=40, deadline=None)
    def test_random_even_grams(self, gram, chunk, piece_rows):
        want = theta._enumerate(gram, 8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theta, "_CHUNK", chunk)
            mp.setattr(theta, "_PIECE_ROWS", piece_rows)
            assert_same_halves(theta._enumerate(gram, 8), want)

    @staticmethod
    def spied_windows(gram, max_norm):
        """The totals of the levels whose children _children built in one
        search, after checking that the windows [a, b) of each level of each
        parent frontier hold 1 to _CHUNK children and tile [0, total) in
        order."""
        children = theta._children
        building = {}  # level -> (ends, next a) of the frontier in progress
        totals = []

        def spy(budget, coords, c, lo, count, ends, a, b, level, dl, gl):
            total = int(ends[-1])
            if a == 0:
                assert level not in building
                totals.append(total)
            else:
                assert building[level][0] is ends and building[level][1] == a
            assert 1 <= b - a <= theta._CHUNK
            assert b == total or b - a == theta._CHUNK
            if b < total:
                building[level] = (ends, b)
            else:
                building.pop(level, None)
            rest, sub = children(budget, coords, c, lo, count, ends, a, b, level, dl, gl)
            assert len(rest) == len(sub) == b - a
            return rest, sub

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theta, "_children", spy)
            theta._enumerate(gram, max_norm)
        assert building == {}
        return totals

    @pytest.mark.parametrize("chunk", [7, 100, theta._CHUNK])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_windows_tile_each_level(self, name, chunk, monkeypatch):
        monkeypatch.setattr(theta, "_CHUNK", chunk)
        assert self.spied_windows(builtin_lattice(name), 10)

    @pytest.mark.parametrize("chunk", [7, 100, theta._CHUNK])
    def test_wide_row_windows(self, chunk, monkeypatch):
        # [[2]] to norm 10^9: one row with 22,361 children, more than any
        # chunk here.
        monkeypatch.setattr(theta, "_CHUNK", chunk)
        assert self.spied_windows(GramMatrix([[2]]), 10 ** 9) == [22_361]

    def test_wide_keys(self, monkeypatch):
        # A binary form to norm 200,000: 32-bit norm keys and about nine rows
        # per norm, filed in one batch by default and window by window with
        # _PIECE_ROWS = 0.
        gram = GramMatrix([[2, 1], [1, 2]])
        want = theta._enumerate(gram, 200_000)
        monkeypatch.setattr(theta, "_PIECE_ROWS", 0)
        assert_same_halves(theta._enumerate(gram, 200_000), want)


class TestZeroTail:
    """_bounds reads the rows whose fixed coordinates are all 0 as those whose
    budget is still the root's, budget0: the fixed coordinates have taken a
    positive definite form in themselves from it.  A spy checks the rule
    against the coordinates at every call."""

    @staticmethod
    def spied_search(gram, max_norm):
        """The budget dtypes and the rows that _bounds saw, by whether their
        fixed coordinates are all 0, in one search."""
        seen = {"dtypes": set(), "zero": 0, "nonzero": 0}
        bounds = theta._bounds

        def spy(budget, coords, level, dl, gl, weights, budget0):
            zero = ~coords.any(axis=1)
            assert np.array_equal(budget == budget0, zero)
            seen["dtypes"].add(budget.dtype)
            seen["zero"] += int(zero.sum())
            seen["nonzero"] += int((~zero).sum())
            return bounds(budget, coords, level, dl, gl, weights, budget0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theta, "_bounds", spy)
            theta._enumerate(gram, max_norm)
        return seen

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtins(self, name):
        seen = self.spied_search(builtin_lattice(name), 10)
        # One row per level whose fixed coordinates are all 0.
        assert seen["zero"] == builtin_lattice(name).size
        assert seen["nonzero"] > 0

    @given(even_grams())
    @settings(max_examples=40, deadline=None)
    def test_random_even_grams(self, gram):
        assert self.spied_search(gram, 8)["zero"] == gram.size

    def test_object_budgets(self):
        # Norms past 2^63 put the budgets in Python ints.
        gram = GramMatrix([[2 ** 61, 0], [0, 2 ** 61 + 2]])
        seen = self.spied_search(gram, 2 ** 64)
        assert seen["dtypes"] == {np.dtype(object)}
        assert seen["zero"] == 2 and seen["nonzero"] > 0


class TestVectorGuard:
    def test_refused_within_the_guard(self, monkeypatch):
        # S1 to norm 32 holds 4,845,120 vectors.  The halves filed before the
        # refusal hold at most 2^19 int8 rows of 8 bytes (4 MiB); the whole
        # search peaks at 23 MiB.
        gram = builtin_lattice("S1")
        clear_caches()
        monkeypatch.setattr(theta, "VECTOR_GUARD", 2 ** 20)
        tracemalloc.start()
        try:
            with pytest.raises(theta.VectorGuardError, match="VECTOR_GUARD = 1,048,576"):
                shells(gram, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20
        assert gram.rows not in theta._stores

    def test_guard_counts_both_signs(self, monkeypatch):
        # S1 to norm 4: 240 + 2,160 nonzero vectors, 1,200 stored rows.
        gram = builtin_lattice("S1")
        monkeypatch.setattr(theta, "VECTOR_GUARD", 2_400)
        assert sum(map(len, theta._enumerate(gram, 4).values())) == 1_200
        monkeypatch.setattr(theta, "VECTOR_GUARD", 2_399)
        with pytest.raises(theta.VectorGuardError):
            theta._enumerate(gram, 4)

    def test_is_a_value_error(self):
        assert issubclass(theta.VectorGuardError, ValueError)

    @staticmethod
    def refused_peak(width):
        """The tracemalloc peak of a refused cold search of 2I whose top row
        has `width` children."""
        clear_caches()
        tracemalloc.start()
        try:
            with pytest.raises(theta.VectorGuardError):
                theta._enumerate(DIAG22, 2 * (width - 1) ** 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_wide_row_refused_in_windows(self, monkeypatch):
        # A row with more than _CHUNK children goes down in windows of its
        # values, so the peak does not grow with its width; built at once, the
        # top row's 2^20 children alone took 64 MiB.
        monkeypatch.setattr(theta, "VECTOR_GUARD", 2 ** 16)
        narrow = self.refused_peak(2 ** 16)
        assert self.refused_peak(2 ** 20) <= 1.25 * narrow
        assert narrow <= 4 * 2 ** 20


class TestPairGuard:
    # S1: 120 half-shell rows at norm 2 and 1,080 at norm 4.
    @pytest.mark.parametrize("lo, hi, products", [(2, 2, 120 * 121 // 2), (2, 4, 120 * 1_080)])
    def test_counts_half_shell_products(self, lo, hi, products, monkeypatch):
        gram = builtin_lattice("S1")
        clear_caches()
        monkeypatch.setattr(theta, "PAIR_GUARD", products)
        assert theta._pair_histogram(gram, lo, hi)
        clear_caches()
        monkeypatch.setattr(theta, "PAIR_GUARD", products - 1)
        with pytest.raises(theta.VectorGuardError,
                           match=f"PAIR_GUARD = {products - 1:,} pair products: "
                                 f"norms {lo} x {hi} need {products:,}"):
            theta._pair_histogram(gram, lo, hi)

    def test_default_guard(self):
        # S1 at norms 32 x 32 passes VECTOR_GUARD, then needs 1.6 * 10^11
        # products: minutes of work, refused before the first tile.
        with pytest.raises(theta.VectorGuardError, match="PAIR_GUARD = 34,359,738,368"):
            rep_deg2(builtin_lattice("S1"), HalfIntegralMatrix(16, 0, 16))


class TestSparseHistogram:
    """Keys whose range is wider than the products are counted sparsely."""

    def test_huge_entries_small_gcd(self):
        # The dense histogram over [-sqrt(ab), sqrt(ab)] / 2 would need 2^61
        # entries for four pairs.
        gram = GramMatrix([[2 ** 61, 0], [0, 2 ** 61 + 2]])
        assert rep_deg2(gram, HalfIntegralMatrix(2 ** 60, 0, 2 ** 60 + 1)) == 4
        assert rep_deg2(gram, HalfIntegralMatrix(2 ** 60, 2, 2 ** 60 + 1)) == 0
        assert rep_deg2(gram, HalfIntegralMatrix(2 ** 60, 2 ** 61, 2 ** 60 + 1)) == 0

    def test_sparse_matches_full_products(self, monkeypatch):
        # 2 x^2 + 2 x y + 1000 y^2: few vectors of large norm
        gram = GramMatrix([[2, 1], [1, 1000]])
        monkeypatch.setattr(theta, "_BLOCK", 1)
        clear_caches()
        pairs = [(2, 1000), (8, 1000), (1000, 1000), (1000, 1004), (18, 1024)]
        for a, b in pairs:
            halves = {sh.norm: len(sh.half) for sh in shells(gram, max(a, b))}
            assert 2 * isqrt(a * b) + 1 > halves[a] * halves[b]
            assert kernel_counts(gram, a, b) == full_product_counts(gram, a, b)
        clear_caches()


D4 = GramMatrix([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


# full_product_counts, computed once per Gram matrix and norm pair.
full_counts = functools.cache(full_product_counts)


class TestPackedKernel:
    """Dense float products carry p cross products each, as base-K digits
    with K = 2 bound + 1; every p must give the counts of full products."""

    @pytest.fixture
    def force(self, monkeypatch):
        """Cap p through the private _PACK_MAX, with cold histograms."""
        def cap(digits):
            monkeypatch.setattr(theta, "_PACK_MAX", digits)
            clear_caches()
        yield cap
        clear_caches()

    @pytest.mark.parametrize("digits", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_every_width_matches_full_products(self, name, digits, packed, force):
        # K <= 13 for norms up to 6, so 13^4 bins fit and p reaches the cap.
        gram = builtin_lattice(name)
        force(digits)
        for a, b in PAIRS:
            assert kernel_counts(gram, a, b) == full_counts(gram, a, b)
        assert packed == {digits}

    @pytest.mark.parametrize("name, digits", [
        ("TOY3", 2), ("TOY3", 4), ("S3", 3), ("S2", 4), ("S5", 3)])
    def test_half_shells_not_multiples_of_p(self, name, digits, packed, force):
        # Packing leaves zero rows in the last tile of a half-shell; TOY3's
        # 3-row half-shells at p = 4 leave a whole digit group empty.
        gram = TOY3 if name == "TOY3" else builtin_lattice(name)
        force(digits)
        assert any(len(sh.half) % digits for sh in shells(gram, 6))
        for a, b in PAIRS:
            assert kernel_counts(gram, a, b) == full_counts(gram, a, b)
        assert packed == {digits}

    @pytest.mark.parametrize("digits", [2, 3, 4])
    def test_diagonal_tiles_small_block(self, digits, packed, force, monkeypatch):
        # _BLOCK = 256 makes tiles of 4 rows: with p = 3 each leaves 2 zero
        # rows, on the diagonal tiles (weight 1) and off them (weight 2).
        gram = builtin_lattice("S3")
        monkeypatch.setattr(theta, "_BLOCK", 256)
        force(digits)
        half = len(shells(gram, 6)[-1].half)
        weights = {w for *_, w in theta._blocks(half, half, True, digits)}
        assert weights == {1, 2}
        for a, b in PAIRS:
            assert kernel_counts(gram, a, b) == full_counts(gram, a, b)
        assert packed == {digits}

    @pytest.mark.parametrize("digits", [1, 2, 3, 4])
    def test_step_above_one(self, digits, packed, force):
        # 2 S3: every product is even, so keys are products / 2.
        rows = builtin_lattice("S3").rows
        gram = GramMatrix([[2 * v for v in row] for row in rows])
        force(digits)
        for a, b in PAIRS:
            want = full_counts(gram, 2 * a, 2 * b)
            assert want == {2 * r: n for r, n in
                            full_counts(GramMatrix(rows), a, b).items()}
            assert kernel_counts(gram, 2 * a, 2 * b) == want
        assert packed == {digits}

    @pytest.mark.parametrize("a, b, base, digits", [
        (6, 10, 15, 4), (8, 8, 17, 3), (8, 48, 39, 3), (8, 52, 41, 2),
        (120, 136, 255, 2), (128, 130, 257, 1)])
    def test_bin_cap(self, a, b, base, digits, packed, force):
        # K on each side of the largest K with K^p <= 2^16 bins, for p = 4,
        # 3, 2 and 1.
        force(4)
        assert 2 * isqrt(a * b) + 1 == base
        assert base ** digits <= theta._PACK_BINS < base ** (digits + 1)
        assert kernel_counts(D4, a, b) == full_counts(D4, a, b)
        assert packed == {digits}

    @pytest.mark.parametrize("slack, digits", [(0, 3), (1, 2)])
    def test_bins_equal_to_cap(self, slack, digits, packed, force, monkeypatch):
        # K = 13 for norms 6 x 6: 13^3 bins fit a cap of exactly 13^3.
        monkeypatch.setattr(theta, "_PACK_BINS", 13 ** 3 - slack)
        force(4)
        assert kernel_counts(TOY3, 6, 6) == full_counts(TOY3, 6, 6)
        assert packed == {digits}

    @pytest.mark.parametrize("k, digits", [(16_777_214, 2), (16_777_215, 1)])
    def test_float_bound_forces_one_digit(self, k, digits, packed, chosen, force):
        # skewed_a2(k) at norms 2 x 6: products stay below 2^53 in float64,
        # but two packed digits, (1 + 7) * prod_bound, pass it from
        # k = 16,777,215 on.
        force(4)
        gram = skewed_a2(k)
        assert kernel_counts(gram, 2, 6) == full_counts(gram, 2, 6)
        assert product_dtypes(chosen) == {np.float64}
        assert packed == {digits}

    @pytest.mark.parametrize("c", [2, 3, 500])
    @pytest.mark.parametrize("name, a, b, digits", [("S1", 8, 8, 3), ("TOY3", 6, 6, 4)])
    def test_content_divided_out(self, name, a, b, digits, c, packed, chosen, force):
        # c S is multiplied as S: the same digits, the same float32 products,
        # and the histogram of S with every r times c.
        gram = TOY3 if name == "TOY3" else builtin_lattice(name)
        scaled = GramMatrix([[c * v for v in row] for row in gram.rows])
        force(4)
        want = kernel_counts(gram, a, b)
        assert (packed, product_dtypes(chosen)) == ({digits}, {np.float32})
        packed.clear()
        chosen.clear()
        assert kernel_counts(scaled, c * a, c * b) == {c * r: n for r, n in want.items()}
        assert (packed, product_dtypes(chosen)) == ({digits}, {np.float32})
