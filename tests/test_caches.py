"""The one cache policy: every cached table is registered in
exactmath.CLEARERS (through exactmath.memo, or directly for theta's shell
store), clear_caches() empties all of them, and values computed after
clearing equal the values computed from warm caches."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import siegelrep
from siegelrep import theta
from siegelrep.classnumbers import cohen_h_level
from siegelrep.eisenstein import (
    EisensteinSpec,
    HalfIntegralMatrix,
    LevelPartition,
    fourier_coefficient,
    reduced_representatives,
)
from siegelrep.exactmath import CLEARERS, clear_caches
from siegelrep.lattice import builtin_lattice, genus_rep_number
from siegelrep.theta import rep_deg2, shells

SRC = Path(siegelrep.__file__).resolve().parent
T111 = HalfIntegralMatrix(1, 1, 1)


def memo_tables():
    """Every object with cache_info in the namespace of a siegelrep module."""
    found = set()
    for info in pkgutil.iter_modules(siegelrep.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"siegelrep.{info.name}")
        found.update(obj for obj in vars(mod).values() if hasattr(obj, "cache_info"))
    return found


def sample_values():
    """The values of `coeff -k 4 -p 2,3,1 --delta-max 20`, and the formula
    and count of `rep --lattice S2 -T 1,1,1`."""
    spec = EisensteinSpec(4, LevelPartition(2, 3, 1))
    coeffs = [fourier_coefficient(spec, t)
              for t in reduced_representatives(20, 20, include_zero=True)]
    gram = builtin_lattice("S2")
    return coeffs, genus_rep_number(gram, T111), rep_deg2(gram, T111)


def test_every_cache_is_registered():
    tables = memo_tables()
    assert len(tables) == 12
    assert all(table.cache_clear in CLEARERS for table in tables)
    # the 12 memo tables plus theta's shell store
    assert len(CLEARERS) == 13


def test_only_exactmath_imports_functools_caching():
    pattern = re.compile(r"lru_cache|functools\.cache|from functools import[^\n]*\bcache\b")
    users = sorted(path.name for path in SRC.glob("*.py") if pattern.search(path.read_text()))
    assert users == ["exactmath.py"]


def test_clear_caches_empties_every_table():
    sample_values()
    cohen_h_level(1, 4, 3)
    tables = memo_tables()
    assert all(table.cache_info().currsize > 0 for table in tables)
    assert theta._stores
    clear_caches()
    assert all(table.cache_info().currsize == 0 for table in tables)
    assert not theta._stores


def test_cold_equals_warm():
    clear_caches()
    cold = sample_values()
    assert cold[1:] == (1452, 1452)
    assert sample_values() == cold
    clear_caches()
    assert sample_values() == cold


def test_rebuilt_shells_are_read_only():
    gram = builtin_lattice("S3")
    shells(gram, 4)
    clear_caches()
    rebuilt = shells(gram, 4)
    assert [shell.norm for shell in rebuilt] == [2, 4]
    for shell in rebuilt:
        assert not shell.vectors.flags.writeable
        with pytest.raises(ValueError):
            shell.vectors[0, 0] = 0
