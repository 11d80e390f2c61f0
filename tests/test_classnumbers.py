from fractions import Fraction
from math import gcd

import pytest

from siegelrep import classnumbers
from siegelrep.classnumbers import cohen_h_level, class_divisor_sum, local_correction
from siegelrep.exactmath import (
    clear_caches,
    decompose_discriminant,
    divisors,
    kronecker_symbol,
    l_negative,
    moebius,
)
from siegelrep.verify import VerifyBounds, verify_class_identities


class TestCohenH:
    def test_conductor_one(self):
        assert cohen_h_level(1, 4, 3) == Fraction(-2, 9)
        assert cohen_h_level(1, 4, 4) == Fraction(-1, 2)

    def test_conductor_two(self):
        # L(-2, chi_-3) * (sigma_5(2) + kron(-3,2) * mu(2) * 2^2)
        assert cohen_h_level(1, 4, 12) == Fraction(-2, 9) * (33 + 4)

    def test_level_restriction(self):
        assert cohen_h_level(1, 4, 12) == Fraction(-2, 9) * (33 + 4)
        assert cohen_h_level(2, 4, 12) == Fraction(-2, 9)
        assert cohen_h_level(5, 4, 3) == Fraction(-2, 9)

    @pytest.mark.parametrize("bad", [1, 2, 5, 13, -3, 0])
    def test_rejects_bad_argument(self, bad):
        with pytest.raises(ValueError):
            cohen_h_level(1, 4, bad)

    def test_rejects_bad_level_or_weight(self):
        with pytest.raises(ValueError):
            cohen_h_level(4, 4, 3)
        with pytest.raises(ValueError):
            cohen_h_level(1, 5, 3)
        with pytest.raises(ValueError):
            cohen_h_level(1, 2, 3)


def divisor_sum_reference(level, k, m):
    """sum over g | f coprime to the level of mu(g) chi_D(g) g^(k-2) times
    the sum of h^(2k-3) over h | f/g coprime to the level, for -m = D f^2,
    by trial division."""
    dec = decompose_discriminant(m)
    f = dec.conductor
    total = 0
    for g in range(1, f + 1):
        if f % g or gcd(g, level) > 1:
            continue
        rest = f // g
        inner = sum(h ** (2 * k - 3) for h in range(1, rest + 1)
                    if rest % h == 0 and gcd(h, level) == 1)
        total += moebius(g) * kronecker_symbol(dec.disc, g) * g ** (k - 2) * inner
    return total


@pytest.mark.parametrize("level", [1, 2, 3, 5, 6, 7, 30])
@pytest.mark.parametrize("k", [4, 6, 8])
def test_l_value_times_integer_sum(level, k):
    for m in range(3, 401):
        if m % 4 in (1, 2):
            continue
        dec = decompose_discriminant(m)
        want = divisor_sum_reference(level, k, m)
        assert class_divisor_sum(level, k, dec.disc, dec.conductor) == want, m
        assert cohen_h_level(level, k, m) == l_negative(k - 1, dec.disc) * want, m


SQUAREFREE_30 = [n for n in range(1, 31) if all(n % (p * p) for p in (2, 3, 5))]


@pytest.mark.parametrize("level", SQUAREFREE_30)
def test_level_enters_only_through_its_gcd_with_the_conductor(level):
    for k in (4, 6, 8):
        for m in range(3, 401):
            if m % 4 in (1, 2):
                continue
            dec = decompose_discriminant(m)
            disc, f = dec.disc, dec.conductor
            got = class_divisor_sum(level, k, disc, f)
            assert got == divisor_sum_reference(level, k, m), (k, m)
            assert got == class_divisor_sum(gcd(level, f), k, disc, f), (k, m)


def test_levels_with_the_same_gcd_share_one_entry():
    clear_caches()
    table = classnumbers._class_divisor_sum
    # -75 = -3 * 5^2: the conductor 5 is prime to 6.
    class_divisor_sum(6, 4, -3, 5)
    class_divisor_sum(1, 4, -3, 5)
    assert table.cache_info().misses == 1
    # -12 = -3 * 2^2: gcd(6, 2) = 2 and gcd(1, 2) = 1 are two entries.
    class_divisor_sum(6, 4, -3, 2)
    class_divisor_sum(1, 4, -3, 2)
    assert table.cache_info().misses == 3


@pytest.mark.parametrize("args, message", [
    # -12 = 4 * -3 is a discriminant but not a fundamental one; it returned 33.
    ((1, 4, -12, 2), "disc must be a fundamental discriminant, got -12"),
    ((1, 4, 0, 1), "disc must be a fundamental discriminant, got 0"),
    ((1, 4, -1, 1), "disc must be a fundamental discriminant, got -1"),
    # These failed inside factorize, with "factorize needs n >= 1".
    ((1, 4, -3, 0), "conductor must be positive, got 0"),
    ((6, 4, -3, -2), "conductor must be positive, got -2"),
    ((4, 4, -3, 1), "level must be a squarefree positive integer"),
    ((1, 5, -3, 1), "weight must be even and at least 4"),
])
def test_class_divisor_sum_refuses_broken_preconditions(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        class_divisor_sum(*args)


class TestLocalCorrection:
    def test_order_zero_is_one(self):
        for p, disc, k in [(2, -3, 4), (3, -4, 6), (5, -7, 4)]:
            assert local_correction(p, kronecker_symbol(disc, p), 0, k) == 1

    def test_order_one_expansion(self):
        assert local_correction(2, -1, 1, 4) == 37
        for p, disc, k in [(2, -3, 4), (3, -4, 4), (5, -3, 6), (7, -8, 4)]:
            chi = kronecker_symbol(disc, p)
            got = local_correction(p, chi, 1, k)
            assert got == 1 + p ** (2 * k - 3) - chi * p ** (k - 2) and type(got) is int

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            local_correction(2, -1, -1, 4)

    @pytest.mark.parametrize("args, message", [
        # With D = -3 in the chi position, k = 1 returned 2, through the
        # float 2**-1.
        ((2, -3, 1, 1), "weight must be even and at least 4"),
        ((2, -1, 1, 5), "weight must be even and at least 4"),
        # A discriminant in place of chi_D(p).
        ((2, -3, 1, 4), "chi must be -1, 0 or 1, got -3"),
    ])
    def test_broken_preconditions_refused(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            local_correction(*args)

    # These returned 1009, 1, 1 and -251.
    @pytest.mark.parametrize("p", [4, 1, 0, -3])
    def test_composite_or_small_p_refused(self, p):
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
            local_correction(p, 1, 1, 4)


def test_identity_suite_small():
    report = verify_class_identities(VerifyBounds(m_max=120))
    assert report.ok, report.failures


def test_level_one_check_catches_a_dropped_moebius_factor(monkeypatch):
    def without_moebius(level, k, disc, conductor):
        return sum(kronecker_symbol(disc, g) * g ** (k - 2)
                   * sum(h ** (2 * k - 3) for h in divisors(conductor // g))
                   for g in divisors(conductor))

    monkeypatch.setattr(classnumbers, "class_divisor_sum", without_moebius)
    clear_caches()
    try:
        # m_max=0 leaves only the 1,000 level 1 checks.
        report = verify_class_identities(VerifyBounds(m_max=0))
    finally:
        clear_caches()
    assert report.checks == 1000
    assert report.failures
    assert all(f.startswith("level 1 disagrees") for f in report.failures)
