"""Tests of the benchmark itself: every workload completes at reduced size
through the real entry point, and every checker flags a corrupted result.

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_reduced_run_completes(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace,
                  "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m for m, _ in (LAYER_METRICS if trace == "1" else END_TO_END)]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "coeff-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_seed_permutes_order_but_not_inputs():
    a = workloads.build("lattice-oracle", 1, "small").inputs
    b = workloads.build("lattice-oracle", 2, "small").inputs
    assert a["mats"] != b["mats"] or a["lattices"] != b["lattices"]
    assert sorted(a["mats"], key=repr) == sorted(b["mats"], key=repr)
    assert sorted(a["lattices"]) == sorted(b["lattices"])


@pytest.fixture(scope="module")
def executed():
    runs = {}
    for name in workloads.WORKLOADS:
        run = workloads.build(name, 5, "small")
        workloads.execute(run)
        runs[name] = run
    return runs


def test_clean_runs_pass(executed):
    for run in executed.values():
        attempted, failed, problems = workloads.check(run)
        assert attempted >= 1 and failed == 0, problems


def test_coeff_checker_flags_changed_coefficient(executed):
    run = executed["coeff-sweep"]
    values = run.outputs["values"]
    key = next(k for k, v in values.items() if v)
    corrupt = dict(values)
    corrupt[key] = values[key] + 1
    run.outputs["values"] = corrupt
    try:
        _, failed, problems = workloads.check(run)
    finally:
        run.outputs["values"] = values
    assert failed >= 1 and problems


def test_coeff_checker_flags_digest_only_change(executed):
    # Two compensating changes keep every sum; only the digest catches them.
    run = executed["coeff-sweep"]
    values = run.outputs["values"]
    mat = next(m for (_, m), v in values.items() if v)
    a, b = [k for k in values if k[1] == mat][:2]
    corrupt = dict(values)
    corrupt[a] = values[a] + 1
    corrupt[b] = values[b] - 1
    run.outputs["values"] = corrupt
    try:
        _, failed, problems = workloads.check(run)
    finally:
        run.outputs["values"] = values
    assert failed >= 1 and "digest" in problems[-1]


def test_lattice_checker_flags_changed_count(executed):
    run = executed["lattice-oracle"]
    oracle = run.outputs["oracle"]
    name, mat, formula, count = oracle[3]
    run.outputs["oracle"] = oracle[:3] + [(name, mat, formula, count + 1)] + oracle[4:]
    try:
        _, failed, _ = workloads.check(run)
    finally:
        run.outputs["oracle"] = oracle
    assert failed == 1


def test_lattice_checker_flags_changed_pair_count(executed):
    run = executed["lattice-oracle"]
    pairs = run.outputs["pairs"]
    mat, count = pairs[0]
    run.outputs["pairs"] = [(mat, count + 2)] + pairs[1:]
    try:
        _, failed, _ = workloads.check(run)
    finally:
        run.outputs["pairs"] = pairs
    assert failed >= 1


def test_lattice_checker_flags_non_integral_formula():
    oracle = [("S1", (1, 0, 1), Fraction(1, 2), Fraction(1, 2))]
    _, failed, _ = workloads.check_lattice(oracle, [], {}, Fraction(0))
    assert failed == 1


def test_verify_checker_flags_changed_count(executed):
    run = executed["verify-all"]
    stdout = run.outputs["stdout"]
    assert "lattices: 45 checks" in stdout
    run.outputs["stdout"] = stdout.replace("45 checks", "46 checks")
    try:
        _, failed, problems = workloads.check(run)
    finally:
        run.outputs["stdout"] = stdout
    assert failed == 1 and problems


def test_verify_checker_flags_failures_and_exit_code():
    out = "hecke: 10 checks, 2 failures [FAIL]\n  eigenvalue fails at T\n"
    assert workloads.check_verify(1, out, {"hecke": 10})[1] == 2
    assert workloads.check_verify(1, "hecke: 10 checks, 0 failures [ok]\n", {"hecke": 10})[1] == 1
    assert workloads.check_verify(0, "hecke: 10 checks, 0 failures [ok]\n", {"hecke": 10})[1] == 0
