import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelrep.classnumbers import local_correction
from siegelrep.eisenstein import (
    EisensteinSpec,
    HalfIntegralMatrix,
    LevelPartition,
    _coefficient,
    definite_local_factors,
    fourier_coefficient,
    hecke_tp,
    hecke_u1p2,
    hecke_up,
    partitions_of_level,
    raise_level,
    reduced_representatives,
    singular_local_factors,
)
from siegelrep.exactmath import clear_caches, is_squarefree
from siegelrep.lattice import BUILTIN_NAMES, builtin_lattice, genus_rep_number
from siegelrep.theta import rep_deg2
from siegelrep.verify import HECKE_GRID, VerifyBounds, verify_coefficient_identities

K4_LEVEL1 = EisensteinSpec(4, LevelPartition(1, 1, 1))
T111 = HalfIntegralMatrix(1, 1, 1)


def raise_level_reference(a_t, a_pt, a_p2t, p, k):
    """raise_level term by term in Fractions: the reference for the
    integer assembly."""
    a_t, a_pt, a_p2t = Fraction(a_t), Fraction(a_pt), Fraction(a_p2t)
    den = (p**k - 1) * (p ** (2 * k - 2) - 1)
    low = Fraction(p) ** (4 - k)
    out0 = (
        (p ** (3 * k - 2) + p ** (2 * k - 1) - p ** (2 * k - 2) + p ** (k + 1) - p**k - p + 1) * a_t
        - (p ** (2 * k - 1) + p ** (k + 1) + p * p - p) * a_pt
        + p * p * a_p2t
    )
    out1 = (
        (-p ** (2 * k - 1) - p ** (k + 1) - p**3 + p) * a_t
        + (p ** (2 * k - 1) + p ** (k + 1) + p**3 + p * p - p + low) * a_pt
        - (p * p + low) * a_p2t
    )
    out2 = p**3 * a_t - (p**3 + low) * a_pt + low * a_p2t
    return (out0 / den, out1 / den, out2 / den)


def degree_p_moves(p):
    return [((1, 0), (alpha, p)) for alpha in range(p)] + [((p, 0), (0, 1))]


def hecke_tp_reference(spec, p, t):
    k = spec.k
    images = [t.transformed(move).divided_by(p) for move in degree_p_moves(p)]
    total = fourier_coefficient(spec, t.scaled(p))
    total += p ** (k - 2) * sum((fourier_coefficient(spec, w) for w in images if w is not None),
                                Fraction(0))
    if t.divided_by(p) is not None:
        total += p ** (2 * k - 3) * fourier_coefficient(spec, t.divided_by(p))
    return total


def hecke_u1p2_reference(spec, p, t):
    return sum((fourier_coefficient(spec, t.transformed(move)) for move in degree_p_moves(p)),
               Fraction(0))


class TestTypes:
    def test_matrix_invariants(self):
        t = HalfIntegralMatrix(2, 2, 3)
        assert t.delta == 20 and t.content == 1
        assert HalfIntegralMatrix(0, 0, 0).content == 0
        assert HalfIntegralMatrix(4, 2, 2).content == 2

    @pytest.mark.parametrize("triple", [(-1, 0, 0), (0, 0, -2), (1, 3, 1), (1, 5, 2)])
    def test_indefinite_rejected(self, triple):
        with pytest.raises(ValueError):
            HalfIntegralMatrix(*triple)

    @pytest.mark.parametrize("triple", [(1, 0.5, 1), (1, 1.0, 1), (0.5, 0, 0),
                                        (Fraction(2), 0, 0), (1, 0, "1")],
                             ids=["r=0.5", "r=1.0", "m=0.5", "m=Fraction(2)", "n=str"])
    def test_non_integral_entries_refused(self, triple):
        # r = 0.5 and 1.0 pass the semidefinite test, and 1.0 == 1, so only
        # the integer check refuses them.
        with pytest.raises(ValueError, match="entries must be integers"):
            HalfIntegralMatrix(*triple)

    def test_numpy_int_entries(self):
        t = HalfIntegralMatrix(np.int64(2), np.int8(1), np.int64(3))
        assert t == HalfIntegralMatrix(2, 1, 3) and hash(t) == hash(HalfIntegralMatrix(2, 1, 3))
        assert all(type(v) is int for v in (t.m, t.r, t.n))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            LevelPartition(4, 1, 1)
        with pytest.raises(ValueError):
            LevelPartition(2, 2, 1)
        with pytest.raises(ValueError):
            LevelPartition(0, 1, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EisensteinSpec(5, LevelPartition(1, 1, 1))
        with pytest.raises(ValueError):
            EisensteinSpec(2, LevelPartition(1, 1, 1))

    def test_partitions_of_level(self):
        parts = partitions_of_level(6)
        assert len(parts) == 9
        assert LevelPartition(6, 1, 1) in parts
        assert LevelPartition(2, 3, 1) in parts
        with pytest.raises(ValueError):
            partitions_of_level(12)


class TestLocalFactors:
    def test_singular_values(self):
        assert singular_local_factors(2, 0, 4) == (Fraction(-1, 15), Fraction(16, 15), 0)
        assert singular_local_factors(7, 3, 6)[2] == 0

    def test_singular_sum(self):
        for p in (2, 3, 5, 7):
            for u in range(5):
                for k in (4, 6, 8):
                    total = sum(singular_local_factors(p, u, k))
                    assert total == sum(p ** (j * (k - 1)) for j in range(u + 1))

    def test_definite_values(self):
        assert definite_local_factors(2, 0, 0, -1, 4)[2] == Fraction(128, 105)
        assert sum(definite_local_factors(2, 0, 0, -1, 4)) == 1
        assert sum(definite_local_factors(2, 1, 1, -1, 4)) == 45

    def test_local_values_digest(self):
        """Every local value, slot by slot, for p <= 13, k <= 12 and orders up
        to 5, frozen as a sha256 of its text lines."""
        def text(x):
            return f"{x.numerator}/{x.denominator}"

        lines = []
        for p in (2, 3, 5, 7, 11, 13):
            for k in (4, 6, 8, 10, 12):
                for u in range(6):
                    triple = singular_local_factors(p, u, k)
                    lines.append(f"S {p} {k} {u}: " + " ".join(map(text, triple)))
                for chi in (-1, 0, 1):
                    for v in range(6):
                        lines.append(f"C {p} {k} {chi} {v}: "
                                     + text(local_correction(p, chi, v, k)))
                        for u in range(v + 1):
                            triple = definite_local_factors(p, u, v, chi, k)
                            lines.append(f"D {p} {k} {chi} {u} {v}: "
                                         + " ".join(map(text, triple)))
        assert len(lines) == 2610
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "3ebb4c184314408daffb7a226f29e08e9e07d77a994eca4caeff8b95d801a863"

    @pytest.mark.parametrize("orders, message", [
        ((2, -1, 0, 1), "u must be non-negative, got -1"),
        ((2, 0, -1, 1), "v must be non-negative, got -1"),
        ((2, 0, 0, 2), "chi must be -1, 0 or 1, got 2"),
        ((2, 0, 0, -2), "chi must be -1, 0 or 1, got -2"),
        # The content divides the conductor; u > v returned 368/27 in slot 1.
        ((2, 2, 1, 1), "u must be at most v, got u=2 v=1"),
    ])
    def test_bad_local_orders_rejected(self, orders, message):
        # u < 0 made p ** (u * (k - 1)) a float.
        with pytest.raises(ValueError, match=f"^{message}$"):
            definite_local_factors(*orders, 4)

    @pytest.mark.parametrize("i, p, u, message", [
        (0, 2, -2, "u must be non-negative, got -2"),
        (1, 4, 1, "p must be prime, got 4"),
        (2, 4, 1, "p must be prime, got 4"),
    ])
    def test_bad_singular_arguments_rejected(self, i, p, u, message):
        # Asking for any one slot is refused, slot 2 (which does not use p) included.
        with pytest.raises(ValueError, match=f"^{message}$"):
            singular_local_factors(p, u, 4)[i]

    @pytest.mark.parametrize("call, args", [
        # These returned -1/7 and -1/19844, and raised ZeroDivisionError,
        # before the weight check.
        (singular_local_factors, (2, 0, 3)),
        (definite_local_factors, (3, 0, 0, 1, 5)),
        (definite_local_factors, (2, 0, 0, 1, 2)),
    ])
    def test_bad_weight_rejected(self, call, args):
        with pytest.raises(ValueError, match="^weight must be even and at least 4$"):
            call(*args)


class TestCoefficient:
    def test_constant_terms(self):
        zero = HalfIntegralMatrix(0, 0, 0)
        assert fourier_coefficient(K4_LEVEL1, zero) == 1
        assert fourier_coefficient(EisensteinSpec(4, LevelPartition(3, 1, 1)), zero) == 1
        assert fourier_coefficient(EisensteinSpec(4, LevelPartition(1, 3, 1)), zero) == 0
        assert fourier_coefficient(EisensteinSpec(4, LevelPartition(1, 1, 3)), zero) == 0

    def test_level_one_values(self):
        assert fourier_coefficient(K4_LEVEL1, HalfIntegralMatrix(1, 0, 0)) == 240
        assert fourier_coefficient(K4_LEVEL1, T111) == 13440
        assert fourier_coefficient(K4_LEVEL1, T111.scaled(2)) == 604800
        assert fourier_coefficient(K4_LEVEL1, T111.scaled(4)) == 20818560
        assert fourier_coefficient(K4_LEVEL1, HalfIntegralMatrix(1, 0, 3)) == 497280

    def test_level_two_values(self):
        got = [fourier_coefficient(EisensteinSpec(4, LevelPartition(*q)), T111)
               for q in ((2, 1, 1), (1, 2, 1), (1, 1, 2))]
        assert got == [128, -3072, 16384]

    def test_gl2_invariance(self):
        mats = reduced_representatives(40, 6, include_zero=True)[:50]
        moves = (((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (-1, 1)))
        for part in ((1, 1, 1), (2, 3, 1), (1, 6, 1)):
            spec = EisensteinSpec(4, LevelPartition(*part))
            for t in mats:
                base = fourier_coefficient(spec, t)
                for mv in moves:
                    assert fourier_coefficient(spec, t.transformed(mv)) == base


# (1, 0, 5) and (2, 2, 3) share delta = 20 and content 1 but are not
# GL2(Z)-equivalent; (2, -2, 3) is the improper twin of (2, 2, 3).
NON_EQUIVALENT = (HalfIntegralMatrix(1, 0, 5), HalfIntegralMatrix(2, 2, 3),
                  HalfIntegralMatrix(2, -2, 3))


class TestCoefficientKey:
    """A coefficient reads T only through (delta, content), so the memo is
    keyed by (k, n0, n1, n2, delta, content) and not by the matrix."""

    @staticmethod
    def sweep(reverse=False):
        """Every partition of every squarefree level <= 30 at k = 4 and 6,
        at the T of `coeff --delta-max 60 --all-classes` (the pairs above
        among them), in sweep order or reversed."""
        mats = reduced_representatives(60, 6, include_zero=True, all_classes=True)
        assert set(NON_EQUIVALENT) <= set(mats)
        specs = [EisensteinSpec(k, part) for level in range(1, 31) if is_squarefree(level)
                 for part in partitions_of_level(level) for k in (4, 6)]
        cases = [(spec, t) for spec in specs for t in mats]
        return {case: fourier_coefficient(*case)
                for case in (reversed(cases) if reverse else cases)}

    def test_equal_key_gives_equal_value(self):
        clear_caches()
        values = self.sweep()
        by_key = {}
        for (spec, t), value in values.items():
            by_key.setdefault((spec, t.delta, t.content), set()).add(value)
        assert all(len(seen) == 1 for seen in by_key.values())
        # 121 partitions at two weights, and the 111 T fall in 47 keys
        assert len(values) == 242 * 111
        assert len(by_key) == 242 * 47
        # each value is computed once per key: whichever T of a key comes
        # first, reversing the order from empty tables gives the same values
        clear_caches()
        assert self.sweep(reverse=True) == values

    def test_cache_info_reads_the_key_table(self):
        assert fourier_coefficient.cache_info.__self__ is _coefficient
        clear_caches()
        spec = EisensteinSpec(4, LevelPartition(2, 3, 5))
        values = [fourier_coefficient(spec, t) for t in NON_EQUIVALENT]
        assert values[0] == values[1] == values[2] != 0
        info = fourier_coefficient.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_enumeration_agrees_on_non_equivalent_pairs(self, name):
        # an independent route that reads all of T: the vector counts of a
        # one-class genus at T of equal (delta, content) agree, and equal
        # the formula
        gram = builtin_lattice(name)
        counts = {rep_deg2(gram, t) for t in NON_EQUIVALENT}
        assert counts == {genus_rep_number(gram, NON_EQUIVALENT[0])}


class TestRaiseLevel:
    def test_zero_input(self):
        assert raise_level(0, 0, 0, 3, 4) == (0, 0, 0)

    def test_known_chain(self):
        got = raise_level(13440, 604800, 20818560, 2, 4)
        assert got == (Fraction(128), Fraction(-3072), Fraction(16384))

    @given(st.fractions(max_denominator=40), st.fractions(max_denominator=40),
           st.fractions(max_denominator=40), st.sampled_from([2, 3, 5]),
           st.sampled_from([4, 6]))
    @settings(max_examples=150, deadline=None)
    def test_components_sum_to_input(self, a, b, c, p, k):
        assert sum(raise_level(a, b, c, p, k), Fraction(0)) == a

    @given(st.lists(st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**8)),
                    min_size=3, max_size=3),
           st.sampled_from([2, 3, 5, 7, 11]), st.sampled_from([4, 6, 8, 10, 12]))
    @settings(max_examples=300, deadline=None)
    def test_integer_assembly_matches_the_fraction_reference(self, triple, p, k):
        got = raise_level(*triple, p, k)
        assert got == raise_level_reference(*triple, p, k)
        assert all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_weights_outside_the_basis_rejected(self, k):
        with pytest.raises(ValueError, match="weight must be even and at least 4"):
            raise_level(1, 2, 3, 2, k)


class TestHecke:
    def test_good_prime_eigenvalue(self):
        assert hecke_tp(K4_LEVEL1, 2, T111) == 45 * 13440
        spec3 = EisensteinSpec(4, LevelPartition(3, 1, 1))
        assert hecke_tp(spec3, 2, T111) == 45 * fourier_coefficient(spec3, T111)
        for p in (3, 5, 7):
            eigen = p**5 + p**3 + p**2 + 1
            assert hecke_tp(K4_LEVEL1, p, T111) == eigen * 13440

    def test_zero_matrix_eigenvalue(self):
        spec = EisensteinSpec(4, LevelPartition(3, 1, 1))
        zero = HalfIntegralMatrix(0, 0, 0)
        assert hecke_tp(spec, 2, zero) == 45

    def test_bad_prime_actions(self):
        spec = EisensteinSpec(4, LevelPartition(1, 1, 2))
        for t in (T111, HalfIntegralMatrix(1, 0, 2), HalfIntegralMatrix(2, 0, 0)):
            assert hecke_up(spec, 2, t) == 32 * fourier_coefficient(spec, t)
            assert hecke_u1p2(spec, 2, t) == 96 * fourier_coefficient(spec, t)

    @pytest.mark.parametrize("p", [0, 1, 4, 9])
    def test_non_prime_rejected(self, p):
        level6 = EisensteinSpec(4, LevelPartition(2, 3, 1))
        with pytest.raises(ValueError, match="prime"):
            hecke_tp(K4_LEVEL1, p, T111)
        with pytest.raises(ValueError, match="prime"):
            hecke_up(level6, p, T111)
        with pytest.raises(ValueError, match="prime"):
            hecke_u1p2(level6, p, T111)
        with pytest.raises(ValueError, match="prime"):
            raise_level(13440, 604800, 20818560, p, 4)
        with pytest.raises(ValueError, match="prime"):
            definite_local_factors(p, 0, 0, 1, 4)

    @pytest.mark.parametrize("level", [1, 3, 7])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_integer_assembly_matches_fraction_sums(self, level, p):
        for k in (4, 6):
            if level % p:
                for part in partitions_of_level(level):
                    spec = EisensteinSpec(k, part)
                    for t in HECKE_GRID:
                        got = hecke_tp(spec, p, t)
                        assert got == hecke_tp_reference(spec, p, t) and type(got) is Fraction
            for part in partitions_of_level(level * p if level % p else level):
                spec = EisensteinSpec(k, part)
                for t in HECKE_GRID:
                    got = hecke_u1p2(spec, p, t)
                    assert got == hecke_u1p2_reference(spec, p, t) and type(got) is Fraction

    def test_divisibility_preconditions(self):
        with pytest.raises(ValueError):
            hecke_tp(EisensteinSpec(4, LevelPartition(2, 1, 1)), 2, T111)
        with pytest.raises(ValueError):
            hecke_up(K4_LEVEL1, 2, T111)
        with pytest.raises(ValueError):
            hecke_u1p2(K4_LEVEL1, 2, T111)


def test_identity_suite_small():
    bounds = VerifyBounds(level_max=6, prime_max=3, delta_max=20, sing_max=4)
    report = verify_coefficient_identities(bounds)
    assert report.ok, report.failures


def test_reduced_representatives_shape():
    mats = reduced_representatives(12, 3, include_zero=True)
    assert HalfIntegralMatrix(0, 0, 0) in mats
    assert HalfIntegralMatrix(3, 0, 0) in mats
    definite = [t for t in mats if t.delta > 0]
    assert all(0 <= t.r <= t.m <= t.n and t.delta <= 12 for t in definite)
    twins = reduced_representatives(12, 0, all_classes=True)
    assert HalfIntegralMatrix(1, -1, 1) in twins
