"""Acceptance suite.

Every criterion is an exact-equality or property check (no tolerances
anywhere); each test prints one pass/fail line.  Criterion 1 carries the
enumeration cost and shares its data with criteria 2 and 8 through a
module-scoped fixture.
"""

from math import isqrt

import pytest

from siegelrep.eisenstein import (
    EisensteinSpec,
    HalfIntegralMatrix,
    LevelPartition,
    fourier_coefficient,
    reduced_representatives,
)
from siegelrep.lattice import BUILTIN_NAMES, builtin_lattice, genus_coefficients, genus_rep_number
from siegelrep.theta import rep_deg2, shells
from siegelrep.verify import (
    EXPECTED_GENUS_TABLES,
    verify_class_identities,
    verify_coefficient_identities,
    verify_hecke,
    verify_local_sums,
)

ORACLE_MATRICES = reduced_representatives(delta_max=30, singular_content_max=10,
                                          include_zero=True)


def _report(name: str, failures) -> None:
    failures = list(failures)
    state = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {state}")
    assert not failures, failures[:10]


@pytest.fixture(scope="module")
def five_lattice_data():
    """(formula value, enumerated count) per matrix, per built-in lattice."""
    max_norm = max(2 * max(t.m, t.n) for t in ORACLE_MATRICES)
    data = {}
    for name in BUILTIN_NAMES:
        gram = builtin_lattice(name)
        shells(gram, max_norm)
        data[name] = [(t, genus_rep_number(gram, t), rep_deg2(gram, t))
                      for t in ORACLE_MATRICES]
    return data


def test_criterion_1_five_lattice_oracle(five_lattice_data):
    failures = [
        f"{name} T=({t.m},{t.r},{t.n}): formula {value} != count {count}"
        for name, rows in five_lattice_data.items()
        for t, value, count in rows
        if value != count
    ]
    _report("criterion 1 (five-lattice oracle equality, delta <= 30)", failures)


def test_criterion_2_level_one_base_case(five_lattice_data):
    spec = EisensteinSpec(4, LevelPartition(1, 1, 1))
    failures = []
    for t, _, count in five_lattice_data["S1"]:
        if fourier_coefficient(spec, t) != count:
            failures.append(f"T=({t.m},{t.r},{t.n})")
    if fourier_coefficient(spec, HalfIntegralMatrix(1, 0, 0)) != 240:
        failures.append("spot value at (1,0,0)")
    if fourier_coefficient(spec, HalfIntegralMatrix(1, 1, 1)) != 13440:
        failures.append("spot value at (1,1,1)")
    _report("criterion 2 (level 1 base case vs enumeration)", failures)


def test_criterion_3_level_raising_oracle():
    report = verify_coefficient_identities()
    _report("criterion 3 (level raising vs direct, decomposition sums)",
            report.failures)


def test_criterion_4_class_sum_identities():
    report = verify_class_identities()
    _report("criterion 4 (class-number level and p^2 identities)", report.failures)


def test_criterion_5_hecke_relations():
    report = verify_hecke()
    _report("criterion 5 (Hecke eigenvalue and triangular systems)", report.failures)


def test_criterion_6_local_factor_sums():
    report = verify_local_sums()
    _report("criterion 6 (local factor sum identities)", report.failures)


def test_criterion_7_genus_coefficient_table():
    failures = []
    for name in BUILTIN_NAMES:
        table = {part.as_tuple(): c
                 for part, c in genus_coefficients(builtin_lattice(name)).items()}
        if table != EXPECTED_GENUS_TABLES[name]:
            failures.append(f"{name}: {table}")
    _report("criterion 7 (genus coefficient table)", failures)


def test_criterion_8_integrality(five_lattice_data):
    failures = [
        f"{name} T=({t.m},{t.r},{t.n}): {value}"
        for name, rows in five_lattice_data.items()
        for t, value, _ in rows
        if value.denominator != 1 or value < 0
    ]
    _report("criterion 8 (integrality of genus values)", failures)


# dim M_8(Sp_4(Z)) = 1, so the degree 2 theta series of E8 + E8 is the level 1
# weight 8 Eisenstein series.
WEIGHT8_MATRICES = [HalfIntegralMatrix(*t) for t in
                    ((1, 0, 0), (1, 1, 1), (1, 0, 1), (2, 1, 1), (2, 0, 1), (2, 2, 2), (2, 1, 2))]


def _e8_squared_count(t: HalfIntegralMatrix) -> int:
    """Representations of 2T by E8 + E8: the sum over T1 + T2 = T of
    r_S1(T1) r_S1(T2), both halves positive semidefinite."""
    gram = builtin_lattice("S1")
    total = 0
    for m1 in range(t.m + 1):
        for n1 in range(t.n + 1):
            m2, n2 = t.m - m1, t.n - n1
            bound = isqrt(4 * m1 * n1)
            for r1 in range(-bound, bound + 1):
                r2 = t.r - r1
                if r2 * r2 <= 4 * m2 * n2:
                    total += (rep_deg2(gram, HalfIntegralMatrix(m1, r1, n1))
                              * rep_deg2(gram, HalfIntegralMatrix(m2, r2, n2)))
    return total


def test_criterion_9_weight_8_oracle():
    spec = EisensteinSpec(8, LevelPartition(1, 1, 1))
    failures = []
    for t in WEIGHT8_MATRICES:
        count = _e8_squared_count(t)
        value = fourier_coefficient(spec, t)
        if value != count:
            failures.append(f"T=({t.m},{t.r},{t.n}): formula {value} != count {count}")
    _report("criterion 9 (weight 8 formula vs E8+E8 convolution)", failures)
