"""Brute-force theta coefficients: exact enumeration of lattice vectors and
pair counting with prescribed Gram data.

Enumeration is a breadth-first Fincke-Pohst search (Fincke & Pohst,
Math. Comp. 44, 1985) on numpy arrays.  Each row of its frontier is one
partial vector, held in two arrays: the remaining budget, and the coordinates
with those not yet fixed at 0.  Rows move by ndarray.take along axis 0, which
copies each row as one chunk; indexing a 2-D array by an index array walks it
element by element.  Whether a row's fixed coordinates are all 0 is read from
its budget, not its coordinates: they have taken a positive definite form in
themselves from the root's budget, so they are all 0 exactly when the budget
is still the root's.  The coordinate bounds come from the exact LDL'
decomposition that lattice.GramMatrix.ldl shares with the genus invariants,
rescaled to integer arithmetic, so completeness never depends on floating
point.  A row needs no other row to finish, so the children of a level are
numbered in row order, each row's in the order of their values, and built
at most _CHUNK at a time; each window of children goes down to its leaves
before the next is built.  The search then peaks near the store it leaves
instead of at its int64 leaf frontier, whatever the width of a row.

Two guards bound the work, each raising VectorGuardError: a search past
VECTOR_GUARD vectors is refused before its leaves are allocated, a pair
histogram past PAIR_GUARD half-shell products before its first tile runs.

Only the half-shell h of each norm is stored: the vectors whose last
nonzero coordinate is positive, in the narrowest integer dtype that the
search's coordinate bounds allow (int8 for every built-in lattice).
VectorShell.vectors builds the whole shell [h, -h] as a new read-only int64
array on each access.  Pair histograms are counted on half-shells only,
H(r) = 2 (h(r) + h(-r)), and for two equal norms on the upper-triangular
blocks of h x h.  Every x' S y is a multiple of the gcd g of the entries of
S, so the products are taken on S / g: c S runs in the dtypes of S.  Each
arithmetic step runs in the narrowest exact dtype that a bound checked at
run time allows: float32 below 2^24 and float64 below 2^53 (products only,
through BLAS), int64 below 2^63, and Python ints (dtype=object) above; the
code is the same for all four.  A histogram keeps only the values r that
occur, with their counts, so a Gram matrix with huge entries costs no more
than its products.  Counts are exact ints.

The dense float tier packs p <= 4 cross products into each product as
base-K digits, K = 2 bound + 1 the number of keys.  A packed row is
sum_j K^(p-1-j) [x_j S / g | bound] over p rows x_j of a row block, so
against a row [y | 1] it gives sum_j K^(p-1-j) (x_j' S y / g + bound), and
one bincount over K^p bins, summed over all but one digit at a time, counts
all p products.  p is the largest with K^p <= 2^16 whose packed sums stay
below 2^53, checked at run time; else p = 1, one product per output.  The
products are float32 when the packed sums stay below 2^24: then every packed
entry, every partial sum of the sgemm, in any order, and every key is an
exact integer.  Each row block is packed once, and its transpose multiplies
the rows [y | 1] of each of its tiles.  A block whose height is not a
multiple of p is padded with zero rows; their products, all of key 0, are
subtracted again.

Shells are cached per Gram matrix behind a lock and pair histograms in an
exactmath.memo table of {r: count} mappings; both are read-only once built
and are emptied by exactmath.clear_caches().
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby
from math import gcd, isqrt, lcm
from types import MappingProxyType

import numpy as np

from .eisenstein import HalfIntegralMatrix
from .exactmath import CLEARERS, integers, memo
from .lattice import GramMatrix

__all__ = ["PAIR_GUARD", "VECTOR_GUARD", "VectorGuardError", "VectorShell", "shells",
           "rep_deg1", "rep_deg2"]

# Outputs per tile of pair products, counted after packing: a tile's float32
# products take 1 MB and its keys 2 MB, little next to the cached shells;
# tiles of 4 M float64 outputs were slower and raised the peak memory by
# 64 MB.
_BLOCK = 250_000

# The packed float tier: at most _PACK_MAX cross products per matmul
# output, and at most _PACK_BINS histogram bins for the packed keys.
_PACK_MAX = 4
_PACK_BINS = 2 ** 16

# Frontier rows per window of the search: a level's children are built at
# most _CHUNK at a time, and each window goes down to the leaves before the
# next is built (see _enumerate).
_CHUNK = 2 ** 14

# Leaves are filed by norm in batches of whole windows, at least _CHUNK rows
# and at least _PIECE_ROWS rows per norm that a batch may hold.  Each piece
# a batch files costs microseconds of Python, so a form with few vectors
# per norm (rank 2 at norms of 10^6, say) files in few large batches.
_PIECE_ROWS = 16

# The search refuses to enumerate more vectors than this, x and -x counted
# apart: S1 to norm 32 (4,845,120 vectors) runs, S1 to norm 60 (56.5 M) is
# refused.  Like exactmath.FACTOR_GUARD it is a constant, not an option.
VECTOR_GUARD = 2 ** 25

# A pair histogram refuses to compute more half-shell products than this:
# at 0.11-0.16 ns each on the built-ins and about 0.46 ns on D16+, some 4 to
# 16 s.  S1 at norms 8 x 8 (3.8 * 10^7 products) runs, S1 at norms 32 x 32
# (1.6 * 10^11) is refused.
PAIR_GUARD = 2 ** 35


class VectorGuardError(ValueError):
    """A search that would enumerate more than VECTOR_GUARD vectors, or a pair
    histogram that would compute more than PAIR_GUARD products."""


@dataclass(frozen=True)
class VectorShell:
    """All lattice vectors of one norm.  Only the read-only half-shell `half`
    is kept: the rows whose last nonzero coordinate is positive, in the
    narrowest integer dtype that the enumeration bounds allow.  `vectors`
    builds the whole shell on each access, as a new read-only int64 array
    laid out as [half, -half]: its rows are distinct and closed under
    negation."""

    norm: int
    half: np.ndarray

    @property
    def vectors(self) -> np.ndarray:
        h = self.half.astype(np.int64)
        full = np.concatenate((h, -h))
        full.flags.writeable = False
        return full


# rows -> (max_norm, {norm: half-shell})
_stores: dict[tuple, tuple[int, dict[int, np.ndarray]]] = {}
_lock = threading.Lock()


def _clear_stores() -> None:
    with _lock:
        _stores.clear()


CLEARERS.append(_clear_stores)


def _exact_dtype(bound: int, floats: bool = False):
    """The narrowest dtype whose arithmetic is exact on integers of absolute
    value below bound: float32 or float64 (if allowed), int64, else Python
    ints."""
    if floats and bound < 2 ** 53:
        return np.float32 if bound < 2 ** 24 else np.float64
    return np.int64 if bound < 2 ** 63 else object


def _isqrt(values: np.ndarray) -> np.ndarray:
    """Exact floor square roots of nonnegative integers.  For int64 the
    float64 estimate is off by at most one (with a correctly rounded sqrt,
    never below), and one step each way corrects it; the caller keeps
    (isqrt(v) + 1)^2 below 2^63."""
    if values.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(values)
    root = np.sqrt(values.astype(np.float64)).astype(np.int64)
    root -= root * root > values
    root += (root + 1) * (root + 1) <= values
    return root


def _bounds(budget: np.ndarray, coords: np.ndarray, level: int, dl: int, gl: int,
            weights: list[int], budget0: int) -> tuple[np.ndarray, ...]:
    """The admissible values of coordinate `level` of each partial vector
    (budget, coords), whose centre weighs the fixed coordinates after `level`
    by `weights`: returns the centres c, the least values lo and the number
    of values of each row, which is its number of children.  budget0 is the
    budget of the search's root: a row whose budget is still budget0 has
    every fixed coordinate 0, so its coordinate `level` starts at 0."""
    c = np.zeros_like(budget)
    for w, xs in zip(weights, coords[:, level + 1:].T):
        if w:
            c += w * xs.astype(budget.dtype)
    r = _isqrt(budget // gl)
    lo = -((r + c) // dl)
    lo[(budget == budget0) & (lo < 0)] = 0
    hi = (r - c) // dl
    count = np.maximum(hi - lo + 1, 0).astype(np.int64)
    return c, lo, count


def _children(budget: np.ndarray, coords: np.ndarray, c: np.ndarray, lo: np.ndarray,
              count: np.ndarray, ends: np.ndarray, a: int, b: int, level: int, dl: int,
              gl: int) -> tuple[np.ndarray, ...]:
    """Children a..b-1 of the frontier (budget, coords), given the rows'
    _bounds and ends = cumsum(count): a level's children are numbered in row
    order, each row's in the order of their values.  The temporaries are
    freed on return, before the next level allocates."""
    s = int(np.searchsorted(ends, a, side="right"))
    e = int(np.searchsorted(ends, b)) + 1
    first = ends[s:e] - count[s:e]  # the number of each row's first child
    parent = np.repeat(np.arange(s, e), np.minimum(ends[s:e], b) - np.maximum(first, a))
    # The next frontier's arrays dominate the peak memory of the search, so
    # they are built in place.
    x = (lo[s:e] - first)[parent - s]
    x += np.arange(a, b)
    t = x * dl
    t += c[parent]
    t *= t
    t *= gl
    rest = budget[parent]
    rest -= t
    sub = coords.take(parent, axis=0)
    sub[:, level] = x
    return rest, sub


def _enumerate(gram: GramMatrix, max_norm: int) -> dict[int, np.ndarray]:
    """The half-shells of all nonzero x with x' S x <= max_norm, by norm:
    one of x, -x each, the one whose last nonzero coordinate is positive.

    With S = L D L', the split form is sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2.
    Each linear form is scaled by the lcm of its denominators and the whole
    inequality by a global factor, after which every bound is an integer
    comparison.  Coordinates are fixed from the last to the first; each level
    expands the frontier by the whole admissible range of its coordinate at
    once.  A frontier row is one partial vector: its remaining budget, and
    its coordinates in the half-shell dtype, 0 where not yet fixed.  While
    the coordinates after it are all zero, a coordinate starts at 0, so only
    one of x, -x is produced.

    A level's children are numbered in row order, each row's in the order
    of their values, and built in windows of at most _CHUNK (see _children),
    each going down to its leaves before the next is built.  A window may
    take part of one row's children or those of many rows.  The leaves of
    consecutive windows are filed in batches (see _PIECE_ROWS): sorted by
    norm (stably), with only their half-shell rows kept, norm by norm.
    Every leaf of one window precedes every leaf of the next, in the order
    of a search over the whole frontier, so the rows of each norm,
    concatenated in batch order, are that search's stable sort: the same
    arrays, byte for byte, for every _CHUNK and _PIECE_ROWS.

    Raises VectorGuardError when the leaves, each but the zero vector
    standing for x and -x, would pass VECTOR_GUARD vectors.  The count of
    finished leaves is checked before each window's leaves are allocated, so
    the store never passes the guard and the work before a refusal is
    bounded by it.  There is no volume estimate: a refused search has built
    up to VECTOR_GUARD / 2 rows first.
    """
    n = gram.size
    diag, low = gram.ldl()
    den = [lcm(*(low[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    weights = [[int(low[j][i] * den[i]) for j in range(i + 1, n)] for i in range(n)]
    scale = lcm(*((d / e ** 2).denominator for d, e in zip(diag, den)))
    quad = [int(d * scale / e ** 2) for d, e in zip(diag, den)]
    budget0 = scale * max_norm

    # Bound every intermediate: |x_l| <= span[l], |partial sums of centre_l|
    # <= reach[l], |den_l x_l + centre_l| <= root[l] for the x_l kept.
    root = [isqrt(budget0 // q) for q in quad]
    span, reach = [0] * n, [0] * n
    for level in range(n - 1, -1, -1):
        reach[level] = sum(abs(w) * x for w, x in zip(weights[level], span[level + 1:]))
        span[level] = (root[level] + reach[level]) // den[level]
    peak = max(budget0 + 2 * isqrt(budget0) + 1, *quad, *den,
               *(abs(v) for row in weights for v in row),
               *(den[i] * span[i] + reach[i] + root[i] for i in range(n)))
    # The narrowest dtype that holds |x| <= span.  VectorShell.vectors is
    # int64, so a coordinate beyond int64 raises OverflowError when set.
    half_dtype = np.min_scalar_type(-max(span) - 1)
    key_dtype = np.min_scalar_type(max_norm)
    # A batch holds at most max_norm norms besides the zero vector.
    batch_rows = max(_CHUNK, _PIECE_ROWS * max_norm)
    batch: list[tuple[np.ndarray, np.ndarray]] = []  # (norms, coords) of leaf ranges
    pieces: dict[int, list[np.ndarray]] = {}  # norm -> its rows, batch by batch
    done = waiting = 0  # leaves finished, and those in batch

    def file() -> None:
        # As 8- or 16-bit keys the norms are radix-sorted.  Norm 0 is the
        # zero vector alone, in the first batch only.
        nonlocal waiting
        norms = np.concatenate([k for k, _ in batch])
        coords = np.concatenate([c for _, c in batch])
        batch.clear()
        waiting = 0
        order = np.argsort(norms, kind="stable")
        norms = norms[order]
        rows = coords.take(order, axis=0)
        del coords, order
        starts = np.flatnonzero(np.concatenate(([True], norms[1:] != norms[:-1])))
        cuts = [*starts.tolist(), len(norms)]
        for key, s, e in zip(norms[starts].tolist(), cuts, cuts[1:]):
            if key:
                pieces.setdefault(key, []).append(rows[s:e].copy())

    def descend(budget: np.ndarray, coords: np.ndarray, level: int) -> None:
        nonlocal done, waiting
        if level < 0:
            batch.append((((budget0 - budget) // scale).astype(key_dtype), coords))
            done += len(budget)
            waiting += len(budget)
            if waiting >= batch_rows:
                file()
            return
        c, lo, count = _bounds(budget, coords, level, den[level], quad[level], weights[level],
                               budget0)
        ends = np.cumsum(count)
        total = int(ends[-1])
        for a in range(0, total, _CHUNK):
            b = min(a + _CHUNK, total)
            # Each leaf but the zero vector stands for x and -x.
            if level == 0 and 2 * (done + b - a - 1) > VECTOR_GUARD:
                raise VectorGuardError(
                    f"refusing to enumerate more than VECTOR_GUARD = {VECTOR_GUARD:,} "
                    f"vectors: the shells up to norm {max_norm} hold more")
            descend(*_children(budget, coords, c, lo, count, ends, a, b, level, den[level],
                               quad[level]), level - 1)

    descend(np.array([budget0], dtype=_exact_dtype(peak)),
            np.zeros((1, n), dtype=np.int64 if half_dtype == object else half_dtype), n - 1)
    if batch:
        file()
    out: dict[int, np.ndarray] = {}
    for key in sorted(pieces):
        parts = pieces.pop(key)
        half = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # shells() hands these cached arrays to every caller.
        half.flags.writeable = False
        out[key] = half
    return out


def _ensure(gram: GramMatrix, max_norm: int) -> dict[int, np.ndarray]:
    """Half-shells by norm, complete at least up to max_norm."""
    key = gram.rows
    with _lock:
        store = _stores.get(key)
        if store is not None and store[0] >= max_norm:
            return store[1]
    by_norm = _enumerate(gram, max_norm)
    with _lock:
        store = _stores.get(key)
        if store is None or store[0] < max_norm:
            store = _stores[key] = (max_norm, by_norm)
        return store[1]


def shells(gram: GramMatrix, max_norm: int) -> list[VectorShell]:
    """Complete nonempty shells of nonzero vectors with norm up to max_norm.
    Raises VectorGuardError if they hold more than VECTOR_GUARD vectors."""
    max_norm = max_norm if type(max_norm) is int else integers((max_norm,), "shells arguments")[0]
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    by_norm = _ensure(gram, max_norm)
    return [VectorShell(q, by_norm[q]) for q in sorted(by_norm) if q <= max_norm]


def rep_deg1(gram: GramMatrix, m: int) -> int:
    """Number of lattice vectors x with x' S x = 2m.

    Extends the cached shells as needed, so a large m is never a silent 0;
    a search past VECTOR_GUARD raises VectorGuardError instead.
    """
    m = m if type(m) is int else integers((m,), "rep_deg1 arguments")[0]
    if m < 1:
        raise ValueError("m must be positive")
    half = _ensure(gram, 2 * m).get(2 * m)
    return 0 if half is None else 2 * len(half)


def _blocks(na: int, nb: int, same: bool, digits: int) -> list[tuple[slice, slice, int]]:
    """Tiles (rows, columns, weight) covering the na x nb product matrix,
    each of at most _BLOCK outputs once its rows are packed `digits` to a
    row (see _pack).  The tiles of one row block are consecutive, so the
    block is packed once.  For two copies of one half-shell the matrix is
    symmetric: only the upper triangle is tiled, the diagonal tiles once and
    the others with weight 2."""
    height = max(1, isqrt(_BLOCK) // 4)
    tiles = []
    for i in range(0, na, height):
        rows = slice(i, min(i + height, na))
        start = 0
        if same:
            tiles.append((rows, rows, 1))
            start = rows.stop
        width = max(1, _BLOCK // -(-(rows.stop - rows.start) // digits))
        tiles.extend((rows, slice(j, min(j + width, nb)), 2 if same else 1)
                     for j in range(start, nb, width))
    return tiles


def _absmax(values: np.ndarray) -> int:
    """max |v| over values, as a Python int: np.abs wraps on the least value
    of a narrow integer dtype."""
    return max(-int(values.min()), int(values.max()))


def _pack_width(base: int, prod_bound: int) -> int:
    """The number p of cross products that one float product carries as
    base-`base` digits: the largest p <= _PACK_MAX with base^p <=
    _PACK_BINS and (sum_{j<p} base^j) * prod_bound < 2^53, where prod_bound
    bounds every |x' S y / g + bound|; 1 when no larger p passes.  p is
    fixed before the dtype: S1 at norms 8 x 8 took 0.027 s in float64 at
    p = 3 and 0.031 s in float32 at p = 2 (2-vCPU Xeon)."""
    digits = 1
    while (digits < _PACK_MAX and base ** (digits + 1) <= _PACK_BINS
           and sum(base ** j for j in range(digits + 1)) * prod_bound < 2 ** 53):
        digits += 1
    return digits


def _pack(block: np.ndarray, digits: int, base: int) -> tuple[np.ndarray, int]:
    """The rows of block, `digits` to a row: with g = ceil(len(block) /
    digits), row i is sum_j base^(digits-1-j) block[i + j g], and a row past
    the end of block counts as zero.  Returns the packed rows as columns,
    contiguous, and the number of zero rows."""
    groups = -(-len(block) // digits)
    packed = block[:groups].copy()
    for j in range(1, digits):
        packed *= base
        rows = block[j * groups:(j + 1) * groups]
        packed[:len(rows)] += rows
    return np.ascontiguousarray(packed.T), groups * digits - len(block)


@memo
def _pair_histogram(gram: GramMatrix, lo: int, hi: int) -> Mapping[int, int]:
    """{r: number of pairs (x, y) of norms (lo, hi) with x' S y = r}, lo <=
    hi, as a read-only mapping of the r that occur; every such r is a
    multiple of the gcd of the entries of S.  Empty if either shell is."""
    by_norm = _ensure(gram, hi)
    ha = by_norm.get(lo)
    hb = by_norm.get(hi)
    if ha is None or hb is None:
        return MappingProxyType({})
    # The half-shell products, for equal norms those of the upper triangle.
    products = len(ha) * (len(ha) + 1) // 2 if lo == hi else len(ha) * len(hb)
    if products > PAIR_GUARD:
        raise VectorGuardError(
            f"refusing to compute more than PAIR_GUARD = {PAIR_GUARD:,} pair products: "
            f"norms {lo} x {hi} need {products:,}")
    step = gcd(*(v for row in gram.rows for v in row))
    # Cauchy-Schwarz: |x' S y| <= sqrt(lo * hi).
    bound = isqrt(lo * hi) // step
    kdtype = np.intp if 2 * bound < 2 ** 63 else object
    # Rows x (S / step) with a last column bound, against columns y with a
    # last entry 1, give x' S y / step + bound: a key in [0, 2 bound].
    smat = np.array(gram.rows, dtype=object) // step
    entry_sum = int(np.abs(smat).sum())
    sdtype = _exact_dtype(_absmax(ha) * entry_sum + bound)
    left = ha.astype(sdtype) @ smat.astype(sdtype)
    left = np.column_stack((left, np.full(len(ha), bound, dtype=sdtype)))
    prod_bound = int(np.abs(left).sum(axis=1).max()) * _absmax(hb)
    # Keys are counted densely, unless their range is wider than the
    # products; then each tile's distinct keys are counted.
    base = 2 * bound + 1
    dense = base <= len(ha) * len(hb)
    # Dense float products carry `digits` keys each, as base-`base` digits
    # (see the module docstring); the packed sums pick the dtype.
    digits = _pack_width(base, prod_bound) if dense else 1
    pdtype = _exact_dtype(sum(base ** j for j in range(digits)) * prod_bound, floats=True)
    left = left.astype(pdtype)
    right = np.ones((len(hb), hb.shape[1] + 1), dtype=pdtype)  # rows [y | 1]
    right[:, :-1] = hb

    # All tiles share one pair of buffers: allocated and freed per tile,
    # they were returned to the system and faulted in again on every tile.
    cap = min(_BLOCK, len(ha) * len(hb))
    buf = np.empty(cap, dtype=pdtype)
    flat = np.empty(cap, dtype=kdtype)
    part = np.zeros(base ** digits if dense else 0, dtype=np.int64)
    parts = []  # (distinct keys, weighted counts) of each sparse tile
    padded = 0  # weighted products of the zero rows packing adds
    for rows, tiles in groupby(_blocks(len(ha), len(hb), lo == hi, digits), lambda t: t[0]):
        block, pad = _pack(left[rows], digits, base)
        for _, cols, weight in tiles:
            width = cols.stop - cols.start
            padded += weight * pad * width
            size = width * block.shape[1]
            prods = buf[:size].reshape(width, -1)
            np.matmul(right[cols], block, out=prods)
            np.copyto(flat[:size], prods.ravel(), casting="unsafe")
            if dense:
                times = np.bincount(flat[:size], minlength=len(part))
                part += times
                if weight == 2:
                    part += times
            else:
                distinct, times = np.unique(flat[:size], return_counts=True)
                parts.append((distinct, weight * times))
    if dense:
        # Each digit's own histogram, summed; a zero row's digit is 0
        # against every column.
        hist = sum(part.reshape(base ** j, base, -1).sum(axis=(0, 2))
                   for j in range(digits))
        hist[0] -= padded
        keys = np.flatnonzero(hist)
        counts = hist[keys]
    else:
        keys, where = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
        counts = np.zeros(len(keys), dtype=np.int64)
        np.add.at(counts, where, np.concatenate([c for _, c in parts]))
    # x -> -x pairs the four sign classes of the half-shells:
    # H(r) = 2 (h(r) + h(-r)).
    out: dict[int, int] = {}
    for key, count in zip(keys.tolist(), counts.tolist()):
        r = (key - bound) * step
        out[r] = out.get(r, 0) + 2 * count
        out[-r] = out.get(-r, 0) + 2 * count
    return MappingProxyType(out)


def rep_deg2(gram: GramMatrix, mat: HalfIntegralMatrix) -> int:
    """Number of integer 2-column matrices X with X' S X = 2T, for T given as
    the half-integral (m, r, n).

    Column norms index the two shells and the histogram of cross products
    answers every r for that norm pair at once.
    """
    if mat.is_zero:
        return 1
    if mat.n == 0:
        return rep_deg1(gram, mat.m)
    if mat.m == 0:
        return rep_deg1(gram, mat.n)
    return _pair_histogram(gram, *sorted((2 * mat.m, 2 * mat.n))).get(mat.r, 0)
