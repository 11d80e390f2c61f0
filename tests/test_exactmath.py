from fractions import Fraction
from math import comb, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelrep import exactmath as xm


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle for B_0..B_n (converted to the B_1 = -1/2 sign)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = Fraction(-1, 2)
    return out


FUNDAMENTAL_NEG = [d for d in range(-3, -201, -1) if xm.is_fundamental_discriminant(d)]
FUNDAMENTAL_300 = [d for d in range(-300, 301) if xm.is_fundamental_discriminant(d)]


def generalized_bernoulli_by_residues(n, disc):
    """Reference: |D|^(n-1) sum_{a=1}^{|D|} chi(a) B_n(a / |D|), one residue at
    a time.  B_n(x) is scaled to the integer polynomial L q^n B_n(x / q),
    with L the lcm of the denominators of B_0..B_n."""
    q = abs(disc)
    b = bernoulli_akiyama_tanigawa(n)
    scale = lcm(*(x.denominator for x in b))
    coef = [comb(n, j) * b[j].numerator * (scale // b[j].denominator) * q**j
            for j in range(n + 1)]
    total = 0
    for a in range(1, q + 1):
        chi = xm.kronecker_symbol(disc, a)
        if chi:
            total += chi * sum(c * a ** (n - j) for j, c in enumerate(coef))
    return Fraction(total, scale * q)


class TestBernoulli:
    def test_first_value(self):
        assert xm.bernoulli(0) == 1

    def test_known_values(self):
        assert xm.bernoulli(4) == Fraction(-1, 30)
        assert xm.bernoulli(6) == Fraction(1, 42)

    def test_matches_independent_recurrence(self):
        oracle = bernoulli_akiyama_tanigawa(20)
        for n in range(21):
            assert xm.bernoulli(n) == oracle[n]

    def test_odd_indices_vanish(self):
        for n in range(3, 26, 2):
            assert xm.bernoulli(n) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xm.bernoulli(-1)


class TestZetaNegative:
    def test_values(self):
        assert xm.zeta_negative(4) == Fraction(1, 120)
        assert xm.zeta_negative(6) == Fraction(-1, 252)
        assert xm.zeta_negative(2) == Fraction(-1, 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            xm.zeta_negative(0)
        with pytest.raises(ValueError):
            xm.zeta_negative(-4)


class TestKronecker:
    def test_spot_values(self):
        assert xm.kronecker_symbol(-4, 2) == 0
        assert xm.kronecker_symbol(-3, 2) == -1
        assert xm.kronecker_symbol(-3, 7) == 1

    def test_euler_criterion(self):
        odd_primes = [p for p in range(3, 50) if all(p % q for q in range(2, p))]
        for d in FUNDAMENTAL_NEG:
            if abs(d) > 50:
                continue
            for p in odd_primes:
                if d % p == 0:
                    continue
                euler = pow(d % p, (p - 1) // 2, p)
                assert xm.kronecker_symbol(d, p) == (1 if euler == 1 else -1)

    def test_multiplicative_and_periodic(self):
        for d in FUNDAMENTAL_NEG:
            if abs(d) > 100:
                continue
            values = [xm.kronecker_symbol(d, m) for m in range(1, 2501 + abs(d))]
            for m in range(1, 51):
                for mp in range(1, 51):
                    assert values[m * mp - 1] == values[m - 1] * values[mp - 1]
                assert values[m - 1] == values[m + abs(d) - 1]

    def test_character_sums_vanish(self):
        for d in FUNDAMENTAL_NEG:
            assert sum(xm.kronecker_symbol(d, a) for a in range(1, abs(d) + 1)) == 0

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            xm.kronecker_symbol(-3, 0)


class TestDiscriminantDecomposition:
    @pytest.mark.parametrize("delta, disc, f", [(3, -3, 1), (4, -4, 1), (12, -3, 2)])
    def test_spot_values(self, delta, disc, f):
        dec = xm.decompose_discriminant(delta)
        assert (dec.disc, dec.conductor) == (disc, f)

    def test_round_trip_everywhere(self):
        for delta in range(1, 100001):
            if delta % 4 in (1, 2):
                continue
            dec = xm.decompose_discriminant(delta)
            assert dec.disc * dec.conductor**2 == -delta
            assert xm.is_fundamental_discriminant(dec.disc)

    @pytest.mark.parametrize("bad", [0, -4, 1, 2, 5, 6])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            xm.decompose_discriminant(bad)


class TestLValues:
    def test_generalized_bernoulli(self):
        assert xm.generalized_bernoulli(3, -3) == Fraction(2, 3)
        assert xm.generalized_bernoulli(3, -4) == Fraction(3, 2)
        assert xm.generalized_bernoulli(4, 1) == Fraction(-1, 30)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_power_sums_match_residue_sum(self, n):
        assert {1, 5, 8, 12} <= set(FUNDAMENTAL_300)
        for d in FUNDAMENTAL_300:
            assert xm.generalized_bernoulli(n, d) == generalized_bernoulli_by_residues(n, d), d

    @pytest.mark.parametrize("n, int64_side, python_side", [
        (5, (1448, -1448), (-1451,)),
        # S_7 at D = -359 exceeds 2^63: int64 sums would wrap there.
        (7, (233,), (-235, -359)),
        (3, (-55108,), (55109,)),
    ])
    def test_power_sums_on_both_sides_of_the_int64_bound(self, n, int64_side, python_side):
        # The power sums are int64 exactly when |D|^(n+1) < 2^63.
        for d in int64_side + python_side:
            assert xm.is_fundamental_discriminant(d)
            assert (abs(d) ** (n + 1) < 2**63) == (d in int64_side)
            assert xm.generalized_bernoulli(n, d) == generalized_bernoulli_by_residues(n, d), d

    def test_l_values(self):
        assert xm.l_negative(3, -3) == Fraction(-2, 9)
        assert xm.l_negative(3, -4) == Fraction(-1, 2)

    def test_trivial_character_matches_zeta(self):
        # odd n >= 3 included: both sides are 0
        for n in range(2, 13):
            assert xm.l_negative(n, 1) == xm.zeta_negative(n)
        # zeta(0) = -1/2 = l_negative(1, 1), but -B_1 / 1 = 1/2
        assert xm.l_negative(1, 1) == Fraction(-1, 2)
        with pytest.raises(ValueError):
            xm.zeta_negative(1)

    @pytest.mark.parametrize("n, disc", [(3, -7), (5, -11), (3, -20)])
    def test_against_hurwitz_zeta(self, n, disc):
        # second oracle: analytic continuation at 40-digit working precision
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        total = mpmath.mpf(0)
        q = abs(disc)
        for a in range(1, q + 1):
            chi = xm.kronecker_symbol(disc, a)
            if chi:
                total += chi * mpmath.zeta(1 - n, mpmath.mpf(a) / q)
        numeric = mpmath.mpf(q) ** (n - 1) * total
        exact = xm.l_negative(n, disc)
        diff = abs(numeric - mpmath.mpf(exact.numerator) / exact.denominator)
        assert diff < mpmath.mpf(10) ** -25

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            xm.l_negative(3, -5)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="^generalized_bernoulli needs n >= 1$"):
            xm.generalized_bernoulli(0, -3)


class TestFactorization:
    def test_spot_values(self):
        assert xm.factorize(12).pairs == ((2, 2), (3, 1))
        assert xm.moebius(6) == 1
        assert xm.moebius(12) == 0
        assert xm.valuation(2, 48) == 4
        assert xm.divisors(12) == (1, 2, 3, 4, 6, 12)
        assert xm.is_squarefree(30) and not xm.is_squarefree(18)
        # the largest prime below 2^64, without trial division to its root
        assert xm.factorize(18446744073709551557).pairs == ((18446744073709551557, 1),)

    @pytest.mark.parametrize("p, n", [(1, 8), (2, 0)])
    def test_valuation_refuses_bad_arguments(self, p, n):
        with pytest.raises(ValueError, match="^valuation needs p >= 2 and n >= 1$"):
            xm.valuation(p, n)

    def test_invalid_and_guard_are_distinct(self):
        with pytest.raises(ValueError):
            xm.factorize(0)
        with pytest.raises(OverflowError):
            xm.factorize(xm.FACTOR_GUARD + 1)
        # two prime factors above 2^20: refused, not trial-divided
        with pytest.raises(OverflowError, match="no prime factor up to 2"):
            xm.factorize(4294967291 * 4294967279)

    def test_is_prime_without_factoring(self):
        assert not xm.is_prime(4294967291 * 4294967279)
        assert xm.is_prime(18446744073709551557)
        # a strong pseudoprime to bases 2, 3, 5 and 7
        assert not xm.is_prime(3215031751)
        with pytest.raises(OverflowError):
            xm.is_prime(xm.FACTOR_GUARD + 1)

    def test_is_prime_agrees_with_factorize(self):
        assert not any(xm.is_prime(n) for n in range(-3, 2))
        # through __wrapped__, so the factorize memo does not keep 10^5 entries
        factorize = xm.factorize.__wrapped__
        assert all(xm.is_prime(n) == (factorize(n).pairs == ((n, 1),))
                   for n in range(2, 10**5))

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction(self, n):
        fac = xm.factorize(n)
        assert prod(p**a for p, a in fac.pairs) == n
        assert list(xm.prime_divisors(n)) == sorted(p for p, _ in fac.pairs)
        ds = xm.divisors(n)
        assert ds[0] == 1 and ds[-1] == n
        assert list(ds) == sorted(ds)

    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
    @settings(max_examples=100, deadline=None)
    def test_moebius_multiplicative_on_coprimes(self, a, b):
        from math import gcd
        if gcd(a, b) == 1:
            assert xm.moebius(a * b) == xm.moebius(a) * xm.moebius(b)


class TestIntegers:
    def test_python_and_numpy_ints_become_python_ints(self):
        got = xm.integers([3, np.int64(-4), np.uint8(5), 2**70], "values")
        assert got == (3, -4, 5, 2**70) and all(type(x) is int for x in got)

    @pytest.mark.parametrize("bad", [2.0, 2.5, np.float64(2), Fraction(2), "2", None])
    def test_floats_fractions_and_strings_refused(self, bad):
        with pytest.raises(ValueError, match="^values must be integers$"):
            xm.integers([1, bad], "values")

    @pytest.mark.parametrize("check, value", [
        (xm.require_prime, 7), (xm.require_weight, 6), (xm.require_chi, -1),
        (lambda v: xm.require_order("v", v), 3)], ids=["prime", "weight", "chi", "order"])
    def test_shared_checks_return_python_ints(self, check, value):
        for arg in (value, np.int64(value), np.int8(value)):
            got = check(arg)
            assert got == value and type(got) is int
