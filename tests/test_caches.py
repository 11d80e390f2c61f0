"""The one cache policy: every cached table is registered in
exactmath.CLEARERS (through exactmath.memo, or directly for theta's shell
store), clear_caches() empties all of them, and values computed after
clearing equal the values computed from warm caches.  A memo table holds
only exact values: an argument that is not an integer is refused, and a
numpy int is computed with as a Python int."""

import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import siegelrep
from siegelrep import theta
from siegelrep.classnumbers import class_divisor_sum, cohen_h_level, local_correction
from siegelrep.cli import main
from siegelrep.eisenstein import (
    EisensteinSpec,
    HalfIntegralMatrix,
    LevelPartition,
    definite_local_factors,
    fourier_coefficient,
    reduced_representatives,
)
from siegelrep.exactmath import CLEARERS, clear_caches, factorize, generalized_bernoulli
from siegelrep.lattice import builtin_lattice, genus_rep_number
from siegelrep.theta import rep_deg2, shells
from siegelrep.verify import VerifyBounds

SRC = Path(siegelrep.__file__).resolve().parent
T111 = HalfIntegralMatrix(1, 1, 1)


def memo_tables():
    """Every memo table behind an object with cache_info in the namespace of
    a siegelrep module.  A front that shares a table's cache_info (as
    fourier_coefficient shares _coefficient's, and cohen_h_level
    _class_divisor_sum's) counts as that table."""
    found = set()
    for info in pkgutil.iter_modules(siegelrep.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"siegelrep.{info.name}")
        found.update(obj.cache_info.__self__ for obj in vars(mod).values()
                     if hasattr(obj, "cache_info"))
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
    assert len(tables) == 11
    assert all(table.cache_clear in CLEARERS for table in tables)
    # the 11 memo tables plus theta's shell store
    assert len(CLEARERS) == 12


def test_only_exactmath_imports_functools_caching():
    pattern = re.compile(r"lru_cache|functools\.cache|from functools import[^\n]*\bcache\b")
    users = sorted(path.name for path in SRC.glob("*.py") if pattern.search(path.read_text()))
    assert users == ["exactmath.py"]


def test_only_exactmath_applies_operator_index():
    # exactmath.integers is the one integer rule; everything else calls it.
    pattern = re.compile(r"operator\.index|from operator import[^\n]*\bindex\b")
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


@pytest.fixture
def cold():
    """Empty tables before and after, so that a table a test fills wrongly
    cannot reach another test."""
    clear_caches()
    yield
    clear_caches()


def scalars(value):
    """The scalars of a value, with tuples unpacked at every depth."""
    if isinstance(value, tuple):
        return [x for item in value for x in scalars(item)]
    return [value]


def recomputed(call):
    """call() from empty tables."""
    clear_caches()
    return call()


# A float argument used to miss a table, be computed with, and be kept under
# a key equal to the int one, so that the int call read it back: after
# class_divisor_sum(1, 4.0, -7, 1), cohen_h_level(1, 4, 7) was
# -2.2857142857142856.  Each bad call is refused; the int call after it
# must give the exact value it gives from empty tables.
@pytest.mark.parametrize("bad, message, good", [
    (lambda: class_divisor_sum(1, 4.0, -7, 1), "class_divisor_sum arguments must be integers",
     lambda: cohen_h_level(1, 4, 7)),
    (lambda: class_divisor_sum(1, 4.0, -3, 2), "class_divisor_sum arguments must be integers",
     lambda: class_divisor_sum(1, 4, -3, 2)),
    (lambda: class_divisor_sum(1.0, 4, -3, 2), "class_divisor_sum arguments must be integers",
     lambda: class_divisor_sum(1, 4, -3, 2)),
    (lambda: class_divisor_sum(1, 4, -3, 2.0), "class_divisor_sum arguments must be integers",
     lambda: class_divisor_sum(1, 4, -3, 2)),
    (lambda: cohen_h_level(1, 4, 7.0), "cohen_h_level arguments must be integers",
     lambda: cohen_h_level(1, 4, 7)),
    (lambda: definite_local_factors(2, 0, 1, 1.0, 4), "character values must be integers",
     lambda: definite_local_factors(2, 0, 1, 1, 4)),
    (lambda: definite_local_factors(2, 0, 1.0, 1, 4), "orders must be integers",
     lambda: definite_local_factors(2, 0, 1, 1, 4)),
    (lambda: local_correction(2, 1, 1, 4.0), "weights must be integers",
     lambda: local_correction(2, 1, 1, 4)),
    (lambda: local_correction(2.0, 1, 1, 4), "primes must be integers",
     lambda: local_correction(2, 1, 1, 4)),
    (lambda: factorize(6.0), "factorize arguments must be integers",
     lambda: factorize(6).pairs),
    (lambda: generalized_bernoulli(3, -3.0), "generalized_bernoulli arguments must be integers",
     lambda: generalized_bernoulli(3, -3)),
], ids=["class-sum-k-7", "class-sum-k-3", "class-sum-level", "class-sum-conductor", "cohen-m",
        "definite-chi", "definite-v", "correction-k", "correction-p", "factorize",
        "bernoulli-disc"])
def test_float_arguments_refused(cold, bad, message, good):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bad()
    value = good()
    assert value == recomputed(good)
    assert all(type(x) in (int, Fraction) for x in scalars(value))


def test_warm_cohen_h_level_refuses_a_float(cold):
    # A memoized cohen_h_level checked its arguments on a miss only, so a
    # float that hit a warm entry returned Fraction(-16, 7).
    cohen_h_level(1, 4, 7)
    with pytest.raises(ValueError, match="^cohen_h_level arguments must be integers$"):
        cohen_h_level(1, 4.0, 7)


# numpy ints used to wrap around in the memoized arithmetic, without a
# warning: local_correction(2, 1, 3, np.int64(40)) returned -274877906943,
# and class_divisor_sum(1, np.int64(40), -3, 8) kept 274877906945 for the
# int call too.  Now both calls give the exact value.
@pytest.mark.parametrize("numpy_call, good", [
    (lambda: local_correction(2, 1, 3, np.int64(40)), lambda: local_correction(2, 1, 3, 40)),
    (lambda: class_divisor_sum(1, np.int64(40), -3, 8), lambda: class_divisor_sum(1, 40, -3, 8)),
    (lambda: class_divisor_sum(np.int64(1), 40, np.int64(-3), np.int64(8)),
     lambda: class_divisor_sum(1, 40, -3, 8)),
    (lambda: cohen_h_level(np.int64(1), np.int64(40), np.int64(7)),
     lambda: cohen_h_level(1, 40, 7)),
    (lambda: definite_local_factors(np.int64(7), 0, np.int64(3), np.int64(-1), np.int64(40)),
     lambda: definite_local_factors(7, 0, 3, -1, 40)),
    (lambda: factorize(np.int64(6)).pairs, lambda: factorize(6).pairs),
    (lambda: generalized_bernoulli(np.int64(39), np.int64(-3)),
     lambda: generalized_bernoulli(39, -3)),
], ids=["correction", "class-sum-k", "class-sum-rest", "cohen", "definite", "factorize",
        "bernoulli"])
def test_numpy_arguments_computed_exactly(cold, numpy_call, good):
    got = numpy_call()
    value = good()
    assert got == value == recomputed(good)
    assert all(type(x) in (int, Fraction) for x in scalars(got) + scalars(value))


def test_verify_after_a_refused_float(cold, capsys):
    # This run raised TypeError inside fourier_coefficient after the float
    # call had kept 37.0.
    with pytest.raises(ValueError, match="^class_divisor_sum arguments must be integers$"):
        class_divisor_sum(1, 4.0, -3, 2)
    assert main(["verify", "identities", "--level-max", "2", "--prime-max", "2",
                 "--delta-max", "4", "--sing-max", "1", "--m-max", "20"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("build, attr, value, what", [
    (lambda x: LevelPartition(x, 1, 1), "n0", 2, "partition entries"),
    (lambda x: EisensteinSpec(x, LevelPartition(1, 1, 1)), "k", 4, "weights"),
    (lambda x: VerifyBounds(delta_max=x), "delta_max", 5, "bounds"),
], ids=["partition", "spec", "bounds"])
def test_series_and_bounds_keep_python_ints(build, attr, value, what):
    kept = getattr(build(np.int64(value)), attr)
    assert kept == value and type(kept) is int
    for bad in (float(value), value + 0.5, Fraction(value), str(value)):
        with pytest.raises(ValueError, match=f"^{what} must be integers$"):
            build(bad)
