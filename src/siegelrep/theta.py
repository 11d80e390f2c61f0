"""Brute-force theta coefficients: exact enumeration of lattice vectors and
pair counting with prescribed Gram data.

Enumeration is a breadth-first Fincke-Pohst search (Fincke & Pohst,
Math. Comp. 44, 1985) on numpy arrays.  Its coordinate bounds come from the
exact LDL' decomposition that lattice.GramMatrix.ldl shares with the genus
invariants, rescaled to integer arithmetic, so completeness never depends on
floating point.

Every shell is stored as [h, -h], where the half-shell h holds the vectors
whose last nonzero coordinate is positive.  Pair histograms are counted on
half-shells only, H(r) = 2 (h(r) + h(-r)), and for two equal norms on the
upper-triangular blocks of h x h.  Each arithmetic step runs in the
narrowest exact dtype that a bound checked at run time allows: float64
(products only, through BLAS) below 2^53, int64 below 2^63, and Python ints
(dtype=object) above; the code is the same for all three.  Counts are exact
ints.

Shells and pair histograms are cached per Gram matrix behind a lock, are
read-only once built, and are emptied by exactmath.clear_caches(); the
optional worker pool only splits the list of product blocks, so counts cannot
depend on scheduling.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import gcd, isqrt, lcm

import numpy as np

from .eisenstein import HalfIntegralMatrix
from .exactmath import CLEARERS
from .lattice import GramMatrix

__all__ = ["VectorShell", "shells", "rep_deg1", "rep_deg2"]

# Entries per block of pair products.  A block's float64 products and keys
# take 2 MB each, little next to the cached shells; blocks of 4 M entries
# were slower and raised the peak memory by 64 MB.
_BLOCK = 250_000


@dataclass(frozen=True)
class VectorShell:
    """All lattice vectors of one norm; rows are distinct and closed under
    negation, laid out as [h, -h] with h the rows whose last nonzero
    coordinate is positive."""

    norm: int
    vectors: np.ndarray


# rows -> (max_norm, {norm: shell}), and (rows, norm, norm) -> (step, hist)
_stores: dict[tuple, tuple[int, dict[int, np.ndarray]]] = {}
_hists: dict[tuple, tuple[int, np.ndarray]] = {}
_lock = threading.Lock()


def _clearer(table: dict):
    def clear() -> None:
        with _lock:
            table.clear()
    return clear


CLEARERS.extend((_clearer(_stores), _clearer(_hists)))


def _exact_dtype(bound: int, floats: bool = False):
    """The narrowest dtype whose arithmetic is exact on integers of absolute
    value below bound: float64 (if allowed), int64, else Python ints."""
    if floats and bound < 2 ** 53:
        return np.float64
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


def _expand(budget: np.ndarray, offs: np.ndarray, tail_zero: np.ndarray, dl: int, gl: int,
            col: np.ndarray) -> tuple[np.ndarray, ...]:
    """One level of the search: every admissible value of the last free
    coordinate of each partial vector in the frontier.  Returns the values,
    their parents' indices and the next frontier (budget, offs, tail_zero).
    The temporaries are freed on return, before the next level allocates."""
    level = offs.shape[1] - 1
    c = offs[:, level]
    r = _isqrt(budget // gl)
    lo = -((r + c) // dl)
    lo[tail_zero & (lo < 0)] = 0
    hi = (r - c) // dl
    count = np.maximum(hi - lo + 1, 0).astype(np.int64)
    parent = np.repeat(np.arange(len(count)), count)
    first = np.cumsum(count) - count
    x = lo[parent] + (np.arange(len(parent)) - first[parent])
    t = dl * x + c[parent]
    return (x, parent, budget[parent] - gl * t * t,
            offs[parent, :level] + np.multiply.outer(x, col), tail_zero[parent] & (x == 0))


def _enumerate(gram: GramMatrix, max_norm: int) -> dict[int, np.ndarray]:
    """All nonzero x with x' S x <= max_norm, grouped by norm, each shell
    laid out as [h, -h].

    With S = L D L', the split form is sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2.
    Each linear form is scaled by the lcm of its denominators and the whole
    inequality by a global factor, after which every bound is an integer
    comparison.  Coordinates are fixed from the last to the first; each level
    expands the frontier of partial vectors by the whole admissible range of
    its coordinate at once.  While the coordinates after it are all zero, a
    coordinate starts at 0, so only one of x, -x is produced.
    """
    n = gram.size
    diag, low = gram.ldl()
    den = [lcm(*(low[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    col = [[int(low[level][i] * den[i]) for i in range(level)] for level in range(n)]
    scale = lcm(*((d / e ** 2).denominator for d, e in zip(diag, den)))
    quad = [int(d * scale / e ** 2) for d, e in zip(diag, den)]
    budget0 = scale * max_norm

    # Bound every intermediate: |x_l| <= span[l], |offset_l| <= reach[l],
    # |den_l x_l + offset_l| <= root[l] for the coordinates kept.
    root = [isqrt(budget0 // q) for q in quad]
    span, reach = [0] * n, [0] * n
    for level in range(n - 1, -1, -1):
        reach[level] = sum(abs(col[j][level]) * span[j] for j in range(level + 1, n))
        span[level] = (root[level] + reach[level]) // den[level]
    peak = max(budget0 + 2 * isqrt(budget0) + 1, *quad, *den,
               *(abs(v) for row in col for v in row),
               *(den[i] * span[i] + reach[i] + root[i] for i in range(n)))
    dtype = _exact_dtype(peak)

    budget = np.array([budget0], dtype=dtype)
    offs = np.zeros((1, n), dtype=dtype)
    tail_zero = np.ones(1, dtype=bool)
    steps = []
    for level in range(n - 1, -1, -1):
        size = len(budget)
        x, parent, budget, offs, tail_zero = _expand(
            budget, offs, tail_zero, den[level], quad[level], np.array(col[level], dtype=dtype))
        # Kept in the narrowest dtypes that hold |x| <= span[level] and
        # 0 <= parent < size.
        steps.append((level, x.astype(np.min_scalar_type(-span[level] - 1)),
                       parent.astype(np.min_scalar_type(size))))

    # Group the leaves by norm; norm 0 is the zero vector alone.  Only the
    # steps, in their narrowest dtypes, and the order of the leaves stay
    # alive while the shells are allocated.
    norms = (budget0 - budget) // scale
    del budget
    order = np.argsort(norms, kind="stable")
    norms = norms[order]
    cuts = [*(np.flatnonzero(norms[1:] != norms[:-1]) + 1), len(norms)]
    keys = norms[cuts[:-1]].tolist()
    del norms
    out: dict[int, np.ndarray] = {}
    for key, s, e in zip(keys, cuts[:-1], cuts[1:]):
        shell = np.empty((2 * (e - s), n), dtype=np.int64)
        idx = order[s:e]
        for level, x, parent in reversed(steps):
            shell[: e - s, level] = x[idx]
            idx = parent[idx]
        np.negative(shell[: e - s], out=shell[e - s:])
        # shells() hands these cached arrays to every caller.
        shell.flags.writeable = False
        out[key] = shell
    return out


def _ensure(gram: GramMatrix, max_norm: int) -> dict[int, np.ndarray]:
    """Shells by norm, complete at least up to max_norm."""
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
    """Complete nonempty shells of nonzero vectors with norm up to max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    by_norm = _ensure(gram, max_norm)
    return [VectorShell(q, by_norm[q]) for q in sorted(by_norm) if q <= max_norm]


def rep_deg1(gram: GramMatrix, m: int) -> int:
    """Number of lattice vectors x with x' S x = 2m.

    Extends the cached shells as needed, so a large m is never a silent 0.
    """
    if m < 1:
        raise ValueError("m must be positive")
    arr = _ensure(gram, 2 * m).get(2 * m)
    return 0 if arr is None else len(arr)


def _blocks(na: int, nb: int, same: bool) -> list[tuple[slice, slice, int]]:
    """Tiles (rows, columns, weight) of at most _BLOCK entries covering the
    na x nb product matrix.  For two copies of one half-shell the matrix is
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
        width = max(1, _BLOCK // (rows.stop - rows.start))
        tiles.extend((rows, slice(j, min(j + width, nb)), 2 if same else 1)
                     for j in range(start, nb, width))
    return tiles


def _pair_counts(gram: GramMatrix, norm_a: int, norm_b: int, workers: int) -> tuple[int, np.ndarray]:
    """(step, hist) with hist[r // step + len(hist) // 2] the number of pairs
    (x, y) of norms (norm_a, norm_b) with x' S y = r; every such r is a
    multiple of step, the gcd of the entries of S."""
    lo, hi = (norm_a, norm_b) if norm_a <= norm_b else (norm_b, norm_a)
    key = (gram.rows, lo, hi)
    with _lock:
        cached = _hists.get(key)
    if cached is not None:
        return cached
    by_norm = _ensure(gram, hi)
    va = by_norm.get(lo)
    vb = by_norm.get(hi)
    step = gcd(*(v for row in gram.rows for v in row))
    # Cauchy-Schwarz: |x' S y| <= sqrt(lo * hi).
    bound = isqrt(lo * hi) // step
    half_counts = np.zeros(2 * bound + 1, dtype=np.int64)
    if va is not None and vb is not None:
        ha, hb = va[: len(va) // 2], vb[: len(vb) // 2]
        # Rows x S with a last column bound * step, against columns y with a
        # last entry 1, give x' S y + bound * step: a key in [0, 2 bound].
        smat = np.array(gram.rows, dtype=object)
        entry_sum = int(np.abs(smat).sum())
        xmax = int(np.abs(ha).max())
        shift = bound * step
        sdtype = _exact_dtype(xmax * entry_sum + shift)
        left = ha.astype(sdtype) @ smat.astype(sdtype)
        left = np.column_stack((left, np.full(len(ha), shift, dtype=sdtype)))
        row_sum = int(np.abs(left).sum(axis=1).max())
        pdtype = _exact_dtype(row_sum * int(np.abs(hb).max()), floats=True)
        left = left.astype(pdtype)
        right = np.vstack((hb.T, np.ones(len(hb), dtype=np.int64))).astype(pdtype)

        def count(tiles: list[tuple[slice, slice, int]]) -> np.ndarray:
            # All of a worker's tiles share one pair of buffers: allocated
            # and freed per tile, they were returned to the system and
            # faulted in again on every tile.
            cap = min(_BLOCK, len(ha) * len(hb))
            buf = np.empty(cap, dtype=pdtype)
            keys = np.empty(cap, dtype=np.intp)
            part = np.zeros_like(half_counts)
            for rows, cols, weight in tiles:
                size = (rows.stop - rows.start) * (cols.stop - cols.start)
                prods = buf[:size].reshape(rows.stop - rows.start, -1)
                np.matmul(left[rows], right[:, cols], out=prods)
                if step != 1:
                    prods //= step
                np.copyto(keys[:size], prods.ravel(), casting="unsafe")
                part += weight * np.bincount(keys[:size], minlength=len(part))
            return part

        tiles = _blocks(len(ha), len(hb), lo == hi)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(count, [tiles[i::workers] for i in range(workers)]):
                    half_counts += part
        else:
            half_counts += count(tiles)
    # x -> -x pairs the four sign classes of the half-shells.
    hist = 2 * (half_counts + half_counts[::-1])
    result = (step, hist)
    with _lock:
        _hists[key] = result
    return result


def rep_deg2(gram: GramMatrix, mat: HalfIntegralMatrix, workers: int = 1) -> int:
    """Number of integer 2-column matrices X with X' S X = 2T, for T given as
    the half-integral (m, r, n).

    Column norms index the two shells and the histogram of cross products
    answers every r for that norm pair at once.  workers >= 1 threads share
    the product blocks.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if mat.is_zero:
        return 1
    if mat.n == 0:
        return rep_deg1(gram, mat.m)
    if mat.m == 0:
        return rep_deg1(gram, mat.n)
    step, hist = _pair_counts(gram, 2 * mat.m, 2 * mat.n, workers)
    key, rest = divmod(mat.r, step)
    bound = len(hist) // 2
    if rest or abs(key) > bound:
        return 0
    return int(hist[key + bound])
