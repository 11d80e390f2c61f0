"""Spans and counts at the public entry points of each siegelrep module,
recorded from outside the package.

`Tracer.install` rebinds each traced public name in every siegelrep module
namespace that holds it, so calls between modules (and calls inside a module
through its globals) go through a wrapper that records one span: a label,
start and end in ns, and the index of the enclosing span.  Spans stay in
memory in flat arrays and are written out when the run ends.  Counts come
from `cache_info()` deltas of the existing lru caches and from the values
the traced calls receive and return.  Nothing under src/ changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, public name) -> span label.  Every layer of the package appears.
TRACED = {
    ("exactmath", "generalized_bernoulli"): "exactmath.bernoulli",
    ("exactmath", "factorize"): "exactmath.factorize",
    ("classnumbers", "cohen_h_level"): "classnumbers.class_sum",
    ("eisenstein", "fourier_coefficient"): "eisenstein.coeff",
    ("eisenstein", "hecke_tp"): "eisenstein.hecke",
    ("eisenstein", "hecke_up"): "eisenstein.hecke",
    ("eisenstein", "hecke_u1p2"): "eisenstein.hecke",
    ("eisenstein", "raise_level"): "eisenstein.raise_level",
    ("lattice", "genus_rep_number"): "lattice.genus",
    ("lattice", "profile"): "lattice.profile",
    ("theta", "shells"): "theta.shells",
    ("theta", "rep_deg2"): "theta.pairs",
    ("verify", "verify_local_sums"): "verify.local-sums",
    ("verify", "verify_class_identities"): "verify.class-sums",
    ("verify", "verify_coefficient_identities"): "verify.coefficients",
    ("verify", "verify_hecke"): "verify.hecke",
    ("verify", "verify_lattices"): "verify.lattices",
    ("cli", "main"): "cli",
}

# Cached entry points whose spans record whether the call missed the cache.
PROBED = {"exactmath.bernoulli", "eisenstein.coeff", "classnumbers.class_sum"}

# Entry points whose arguments and results are kept for counting.
CAPTURED = {"exactmath.bernoulli", "theta.shells", "theta.pairs",
            "verify.local-sums", "verify.class-sums", "verify.coefficients",
            "verify.hecke", "verify.lattices"}

SUITES = ("local-sums", "class-sums", "coefficients", "hecke", "lattices")

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("exactmath.bernoulli.values", "count"),
    ("exactmath.bernoulli.residues", "count"),
    ("exactmath.bernoulli.self_s", "s"),
    ("exactmath.bernoulli.ns_per_residue", "ns"),
    ("exactmath.factorize.misses", "count"),
    ("exactmath.factorize.self_s", "s"),
    ("classnumbers.class_sum.calls", "count"),
    ("classnumbers.class_sum.misses", "count"),
    ("classnumbers.class_sum.self_s", "s"),
    ("eisenstein.coeff.calls", "count"),
    ("eisenstein.coeff.hit_ratio", "ratio"),
    ("eisenstein.coeff.cold_us", "us"),
    ("eisenstein.coeff.warm_us", "us"),
    ("eisenstein.coeff.self_s", "s"),
    ("eisenstein.hecke.self_s", "s"),
    ("eisenstein.raise_level.self_s", "s"),
    ("lattice.genus.calls", "count"),
    ("lattice.genus.self_s", "s"),
    ("lattice.profile.self_s", "s"),
    ("theta.shells.vectors", "count"),
    ("theta.shells.bytes", "B"),
    ("theta.shells.self_s", "s"),
    ("theta.shells.us_per_vector", "us"),
    ("theta.pairs.calls", "count"),
    ("theta.pairs.histograms", "count"),
    ("theta.pairs.products", "count"),
    ("theta.pairs.self_s", "s"),
    ("theta.pairs.ns_per_product", "ns"),
    *((f"verify.{s}.{part}", unit) for s in SUITES for part, unit in (("s", "s"), ("checks", "count"))),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _siegelrep_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "siegelrep" or n.startswith("siegelrep."))]


class Tracer:
    """Records spans for the entry points in TRACED while installed."""

    def __init__(self):
        self.labels: list[str] = sorted(set(TRACED.values()))
        self.label_ids = {label: i for i, label in enumerate(self.labels)}
        self.kind = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.missed = array("b")
        self.captured: dict[str, list] = {label: [] for label in CAPTURED}
        self._stack = [-1]
        self._rebound: list[tuple[object, str, object]] = []
        self._caches_before: dict[str, int] = {}
        self._caches_after: dict[str, int] = {}

    def _wrap(self, label: str, fn):
        kind_id = self.label_ids[label]
        kind, start, end, parent, missed = self.kind, self.start, self.end, self.parent, self.missed
        stack = self._stack
        clock = time.perf_counter_ns
        probe = fn.cache_info if label in PROBED else None
        keep = self.captured.get(label)

        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(kind_id)
            parent.append(stack[-1])
            missed.append(0)
            end.append(0)
            before = probe().misses if probe is not None else 0
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None and probe().misses != before:
                missed[idx] = 1
            if keep is not None:
                keep.append((idx, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for modname, _ in TRACED:
            importlib.import_module(f"siegelrep.{modname}")
        self._caches_before = self._cache_misses()
        modules = _siegelrep_modules()
        for (modname, attr), label in TRACED.items():
            mod = sys.modules[f"siegelrep.{modname}"]
            orig = getattr(mod, attr)
            wrapper = self._wrap(label, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._rebound.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._rebound):
            setattr(m, key, orig)
        self._rebound.clear()
        self._caches_after = self._cache_misses()

    def _cache_misses(self) -> dict[str, int]:
        from siegelrep import classnumbers, eisenstein, exactmath
        return {
            "bernoulli": exactmath.generalized_bernoulli.cache_info().misses,
            "factorize": exactmath.factorize.cache_info().misses,
            "class_sum": classnumbers.cohen_h_level.cache_info().misses,
            "coeff": eisenstein.fourier_coefficient.cache_info().misses,
        }

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int8).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "missed": np.frombuffer(self.missed, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write every span as arrays in one .npz file, labels included."""
        np.savez_compressed(path, labels=np.array(self.labels), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        a = self.arrays()
        kind, parent = a["kind"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child

        def ids(label):
            return np.flatnonzero(kind == self.label_ids[label])

        def self_s(label):
            return float(own[ids(label)].sum()) / 1e9

        delta = {k: self._caches_after[k] - self._caches_before[k] for k in self._caches_before}
        out: dict[str, float] = {}

        bern = self.captured["exactmath.bernoulli"]
        residues = sum(abs(args[1]) for idx, args, _, _ in bern if a["missed"][idx])
        out["exactmath.bernoulli.values"] = delta["bernoulli"]
        out["exactmath.bernoulli.residues"] = residues
        out["exactmath.bernoulli.self_s"] = self_s("exactmath.bernoulli")
        out["exactmath.bernoulli.ns_per_residue"] = _ratio(
            out["exactmath.bernoulli.self_s"] * 1e9, residues)
        out["exactmath.factorize.misses"] = delta["factorize"]
        out["exactmath.factorize.self_s"] = self_s("exactmath.factorize")

        out["classnumbers.class_sum.calls"] = len(ids("classnumbers.class_sum"))
        out["classnumbers.class_sum.misses"] = delta["class_sum"]
        out["classnumbers.class_sum.self_s"] = self_s("classnumbers.class_sum")

        coeff = ids("eisenstein.coeff")
        coeff_calls = len(coeff)
        # A coefficient miss is cold when a Bernoulli miss happened inside it.
        cold = np.zeros(len(dur), dtype=bool)
        coeff_kind = self.label_ids["eisenstein.coeff"]
        for idx in np.flatnonzero((kind == self.label_ids["exactmath.bernoulli"]) & (a["missed"] == 1)):
            p = parent[idx]
            while p >= 0:
                if kind[p] == coeff_kind:
                    cold[p] = True
                p = parent[p]
        coeff_miss = coeff[a["missed"][coeff] == 1]
        cold_ids = coeff_miss[cold[coeff_miss]]
        warm_ids = coeff_miss[~cold[coeff_miss]]
        out["eisenstein.coeff.calls"] = coeff_calls
        out["eisenstein.coeff.hit_ratio"] = _ratio(coeff_calls - delta["coeff"], coeff_calls)
        out["eisenstein.coeff.cold_us"] = _ratio(float(dur[cold_ids].sum()) / 1e3, len(cold_ids))
        out["eisenstein.coeff.warm_us"] = _ratio(float(dur[warm_ids].sum()) / 1e3, len(warm_ids))
        out["eisenstein.coeff.self_s"] = self_s("eisenstein.coeff")
        out["eisenstein.hecke.self_s"] = self_s("eisenstein.hecke")
        out["eisenstein.raise_level.self_s"] = self_s("eisenstein.raise_level")

        out["lattice.genus.calls"] = len(ids("lattice.genus"))
        out["lattice.genus.self_s"] = self_s("lattice.genus")
        out["lattice.profile.self_s"] = self_s("lattice.profile")

        # The largest shells() result per lattice holds every enumerated vector.
        widest: dict = {}
        for _, args, kwargs, result in self.captured["theta.shells"]:
            gram = args[0]
            max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
            if gram.rows not in widest or widest[gram.rows][0] < max_norm:
                widest[gram.rows] = (max_norm, {sh.norm: sh.vectors for sh in result})
        vectors = sum(len(v) for _, shells in widest.values() for v in shells.values())
        nbytes = sum(v.nbytes for _, shells in widest.values() for v in shells.values())
        out["theta.shells.vectors"] = vectors
        out["theta.shells.bytes"] = nbytes
        out["theta.shells.self_s"] = self_s("theta.shells")
        out["theta.shells.us_per_vector"] = _ratio(out["theta.shells.self_s"] * 1e6, vectors)

        # Products are computed from shell sizes: |shell a| * |shell b| for
        # each distinct (lattice, norm, norm) histogram.
        hists = set()
        for _, args, _, _ in self.captured["theta.pairs"]:
            gram, mat = args[0], args[1]
            if mat.m and mat.n:
                lo, hi = sorted((2 * mat.m, 2 * mat.n))
                hists.add((gram.rows, lo, hi))
        products = 0
        for rows, lo, hi in hists:
            shells = widest.get(rows, (0, {}))[1]
            products += len(shells.get(lo, ())) * len(shells.get(hi, ()))
        out["theta.pairs.calls"] = len(ids("theta.pairs"))
        out["theta.pairs.histograms"] = len(hists)
        out["theta.pairs.products"] = products
        out["theta.pairs.self_s"] = self_s("theta.pairs")
        out["theta.pairs.ns_per_product"] = _ratio(out["theta.pairs.self_s"] * 1e9, products)

        for suite in SUITES:
            label = f"verify.{suite}"
            spans = self.captured[label]
            out[f"{label}.s"] = float(dur[[idx for idx, *_ in spans]].sum()) / 1e9
            out[f"{label}.checks"] = sum(result.checks for *_, result in spans)

        out["cli.self_s"] = self_s("cli")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
