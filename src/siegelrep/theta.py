"""Brute-force theta coefficients: exact enumeration of lattice vectors and
pair counting with prescribed Gram data.

Coordinate bounds (Fincke-Pohst) come from the exact LDL' decomposition
that lattice.GramMatrix.ldl shares with the genus invariants, rescaled to
integer arithmetic, so completeness never depends on floating point.
Counting itself runs on int64 numpy arrays, which is still exact at these
magnitudes.  Shells and pair histograms are cached per Gram matrix
behind a lock, are read-only once built, and are emptied by
exactmath.clear_caches(); the optional worker pool only splits the
histogram accumulation, so counts cannot depend on scheduling.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt, lcm

import numpy as np

from .eisenstein import HalfIntegralMatrix
from .exactmath import CLEARERS
from .lattice import GramMatrix

__all__ = ["VectorShell", "shells", "rep_deg1", "rep_deg2"]


@dataclass(frozen=True)
class VectorShell:
    """All lattice vectors of one norm; rows are distinct and closed under
    negation."""

    norm: int
    vectors: np.ndarray


# rows -> (max_norm, {norm: shell}), and (rows, norm, norm) -> (bound, hist)
_stores: dict[tuple, tuple[int, dict[int, np.ndarray]]] = {}
_hists: dict[tuple, tuple[int, np.ndarray]] = {}
_lock = threading.Lock()


def _clearer(table: dict):
    def clear() -> None:
        with _lock:
            table.clear()
    return clear


CLEARERS.extend((_clearer(_stores), _clearer(_hists)))


def _enumerate(gram: GramMatrix, max_norm: int) -> dict[int, np.ndarray]:
    """All nonzero x with x' S x <= max_norm, grouped by norm.

    With S = L D L', the split form is sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2.
    Each linear form is scaled by the lcm of its denominators and the whole
    inequality by a global factor, after which every bound is an integer
    comparison.
    """
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
    quad = []
    for i in range(n):
        q = diag[i] * scale / den[i] ** 2
        assert q.denominator == 1
        quad.append(int(q))
    budget0 = scale * max_norm
    hits: dict[int, list[tuple[int, ...]]] = {}
    coords = [0] * n

    def walk(level: int, budget: int, offs: list[int], zero_tail: bool) -> None:
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
    out: dict[int, np.ndarray] = {}
    for norm, vecs in hits.items():
        arr = np.array(vecs, dtype=np.int64)
        shell = np.concatenate([arr, -arr])
        # shells() hands these cached arrays to every caller.
        shell.flags.writeable = False
        out[norm] = shell
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


def _pair_counts(gram: GramMatrix, norm_a: int, norm_b: int, workers: int) -> tuple[int, np.ndarray]:
    lo, hi = (norm_a, norm_b) if norm_a <= norm_b else (norm_b, norm_a)
    key = (gram.rows, lo, hi)
    with _lock:
        cached = _hists.get(key)
    if cached is not None:
        return cached
    by_norm = _ensure(gram, hi)
    va = by_norm.get(lo)
    vb = by_norm.get(hi)
    bound = isqrt(lo * hi)
    hist = np.zeros(2 * bound + 1, dtype=np.int64)
    if va is not None and vb is not None:
        smat = np.array(gram.rows, dtype=np.int64)
        left = va @ smat
        chunk = max(1, 4_000_000 // len(va))
        spans = [(s, min(s + chunk, len(vb))) for s in range(0, len(vb), chunk)]

        def count(span: tuple[int, int]) -> np.ndarray:
            s, e = span
            prods = left @ vb[s:e].T
            return np.bincount((prods + bound).ravel(), minlength=2 * bound + 1)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(count, spans):
                    hist += part
        else:
            for span in spans:
                hist += count(span)
    result = (bound, hist)
    with _lock:
        _hists[key] = result
    return result


def rep_deg2(gram: GramMatrix, mat: HalfIntegralMatrix, workers: int = 1) -> int:
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
    bound, hist = _pair_counts(gram, 2 * mat.m, 2 * mat.n, workers)
    if abs(mat.r) > bound:
        return 0
    return int(hist[mat.r + bound])
