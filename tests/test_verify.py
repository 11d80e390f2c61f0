from dataclasses import FrozenInstanceError, asdict, fields
from fractions import Fraction

import pytest

from siegelrep import verify
from siegelrep.verify import SuiteReport, VerifyBounds, run_suites


class TestVerifyBounds:
    def test_defaults(self):
        assert asdict(VerifyBounds()) == {
            "delta_max": 50, "sing_max": 12, "level_max": 15, "prime_max": 5,
            "m_max": 500, "t_count": 30, "lattice_delta_max": 30,
            "lattice_sing_max": 10}

    @pytest.mark.parametrize("name", [f.name for f in fields(VerifyBounds)])
    def test_rejects_negative(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
            VerifyBounds(**{name: -1})
        assert getattr(VerifyBounds(**{name: 0}), name) == 0

    def test_t_count_up_to_the_hecke_grid(self):
        assert len(verify.HECKE_GRID) == 55
        assert VerifyBounds(t_count=55).t_count == 55
        with pytest.raises(ValueError, match="^t_count must be at most 55, got 56$"):
            VerifyBounds(t_count=56)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            VerifyBounds().m_max = 1


def test_run_suites_calls_suites_through_module_globals(monkeypatch):
    seen = []

    def fake(name):
        def suite(*args):
            seen.append((name, args))
            return SuiteReport(name, 0, 0, ())
        return suite

    for name in ("verify_local_sums", "verify_class_identities",
                 "verify_coefficient_identities", "verify_hecke", "verify_lattices"):
        monkeypatch.setattr(verify, name, fake(name))
    bounds = VerifyBounds(t_count=3)
    reports = run_suites("all", bounds)
    assert [r.name for r in reports] == [
        "verify_local_sums", "verify_class_identities", "verify_coefficient_identities",
        "verify_hecke", "verify_lattices"]
    assert seen[0][1] == ()
    assert all(args == (bounds,) for _, args in seen[1:])


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites("nonsense")


# Reduced bounds for the tests that break one evaluation route on purpose.
SMALL = VerifyBounds(delta_max=12, sing_max=3, level_max=3, prime_max=3, t_count=5)


def test_coefficient_suite_detects_a_wrong_level_raise(monkeypatch):
    honest = verify.verify_coefficient_identities(SMALL)
    assert honest.ok
    real = verify.raise_level

    def swapped(*args):
        out0, out1, out2 = real(*args)
        return out0, out2, out1

    monkeypatch.setattr(verify, "raise_level", swapped)
    report = verify.verify_coefficient_identities(SMALL)
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT
    assert all(m.startswith("level raise mismatch at k=") for m in report.failures)


def test_hecke_suite_detects_a_wrong_u_p(monkeypatch):
    honest = verify.verify_hecke(SMALL)
    assert honest.ok
    real = verify.hecke_up
    monkeypatch.setattr(verify, "hecke_up", lambda *args: real(*args) + 1)
    report = verify.verify_hecke(SMALL)
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT
    assert report.failures[0].startswith("U rank0 fails at ")
    assert all(m.startswith("U rank") for m in report.failures)


def test_coefficient_suite_detects_a_dropped_p_power_term(monkeypatch):
    honest = verify.verify_coefficient_identities(SMALL)
    assert honest.ok
    real = verify.raise_level

    def dropped(a_t, a_pt, a_p2t, p, k):
        # Slot 0 without the p^(k+1) a(T) term of its numerator.
        out0, out1, out2 = real(a_t, a_pt, a_p2t, p, k)
        return out0 - Fraction(p ** (k + 1) * a_t, (p**k - 1) * (p ** (2 * k - 2) - 1)), out1, out2

    monkeypatch.setattr(verify, "raise_level", dropped)
    report = verify.verify_coefficient_identities(SMALL)
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT
    assert all(m.startswith("level raise mismatch at k=") for m in report.failures)


def test_coefficient_suite_detects_a_wrong_decomposition(monkeypatch):
    honest = verify.verify_coefficient_identities(SMALL)
    assert honest.ok
    real = verify.fourier_coefficient

    def perturbed(spec, t):
        # Every value of the level 1 series moves by 1/7; the level 2 and 3
        # series that decompose it do not.
        value = real(spec, t)
        return value + Fraction(1, 7) if spec.partition.level == 1 else value

    monkeypatch.setattr(verify, "fourier_coefficient", perturbed)
    report = verify.verify_coefficient_identities(SMALL)
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT
    assert any(m.startswith("decomposition sum mismatch at k=") for m in report.failures)
    assert all(m.startswith(("decomposition sum mismatch at k=", "level raise mismatch at k="))
               for m in report.failures)


# Reduced bounds for the class-sum suite.
SMALL_CLASS = VerifyBounds(m_max=40)


def _first_sum_only(p, chi, v, k):
    # local_correction without its chi_D(p) p^(k-2) term.
    return sum(p ** (j * (2 * k - 3)) for j in range(v + 1))


def test_class_suite_detects_a_dropped_correction_term(monkeypatch):
    honest = verify.verify_class_identities(SMALL_CLASS)
    assert honest.ok

    monkeypatch.setattr(verify, "local_correction", _first_sum_only)
    report = verify.verify_class_identities(SMALL_CLASS)
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT
    assert all(m.startswith("level correction fails at N=") for m in report.failures)


def test_class_suite_detects_an_unrestricted_class_sum(monkeypatch):
    honest = verify.verify_class_identities(SMALL_CLASS)
    assert honest.ok
    real = verify.class_divisor_sum
    # At level 1 the gcd filters on g and h pass every divisor.
    monkeypatch.setattr(verify, "class_divisor_sum",
                        lambda level, k, disc, conductor: real(1, k, disc, conductor))
    report = verify.verify_class_identities(SMALL_CLASS)
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT


def test_local_sums_suite_detects_a_wrong_definite_slot(monkeypatch):
    honest = verify.verify_local_sums()
    assert honest.ok and honest.checks == 780
    real = verify.definite_local_factors

    def off_by_one(p, u, v, chi, k):
        slot0, slot1, slot2 = real(p, u, v, chi, k)
        return (slot0, slot1 + 1 if chi == -1 else slot1, slot2)

    monkeypatch.setattr(verify, "definite_local_factors", off_by_one)
    report = verify.verify_local_sums()
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT
    assert all(m.startswith("definite sum fails at p=2 chi=-1 ") for m in report.failures)


def test_local_sums_suite_detects_a_dropped_correction_term(monkeypatch):
    honest = verify.verify_local_sums()
    assert honest.ok

    monkeypatch.setattr(verify, "local_correction", _first_sum_only)
    report = verify.verify_local_sums()
    assert report.checks == honest.checks
    assert len(report.failures) == verify._FAILURE_LIMIT
    # At v = 0 the correction is 1 either way; the recursion to v = 1 fails
    # first, then every sum that reaches v >= 1.
    assert report.failures[0] == "correction recursion fails at p=2 chi=-1 v=0 k=4"
    assert report.failures[1] == "definite sum fails at p=2 chi=-1 u=0 v=1 k=4"
    assert all(" p=2 chi=-1 " in m for m in report.failures)
