import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

import siegelrep
from siegelrep import theta, verify
from siegelrep.cli import _build_parser, main
from siegelrep.exactmath import FACTOR_GUARD, clear_caches
from siegelrep.lattice import builtin_lattice, format_gram
from siegelrep.verify import VerifyBounds

# A level or matrix entry past FACTOR_GUARD: 2^65 + 1.
PAST_GUARD = str(2 * FACTOR_GUARD + 1)
# The largest prime below 2^64, and a product of two primes above 2^20.
LARGE_PRIME = str(18446744073709551557)
SEMIPRIME = str(4294967291 * 4294967279)

COEFF_KEYS = ["k", "n0", "n1", "n2", "m", "r", "n", "delta", "content",
              "disc", "conductor", "value"]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestCoeff:
    def test_single_matrix(self, capsys):
        code, out = run(capsys, "coeff", "-k", "4", "-p", "1,1,1", "-T", "1,1,1")
        assert code == 0
        (rec,) = json_lines(out)
        assert list(rec.keys()) == COEFF_KEYS
        assert rec["value"] == "13440/1"
        assert rec["disc"] == -3 and rec["conductor"] == 1

    def test_constant_terms(self, capsys):
        code, out = run(capsys, "coeff", "-k", "4", "-p", "3,1,1", "-T", "0,0,0")
        assert code == 0 and json_lines(out)[0]["value"] == "1/1"
        code, out = run(capsys, "coeff", "-k", "4", "-p", "1,3,1", "-T", "0,0,0")
        assert code == 0 and json_lines(out)[0]["value"] == "0/1"

    def test_range_mode(self, capsys):
        code, out = run(capsys, "coeff", "-k", "4", "-p", "1,1,1", "--delta-max", "8")
        assert code == 0
        recs = json_lines(out)
        assert all(r["delta"] <= 8 for r in recs)
        assert any(r["value"] == "13440/1" for r in recs)

    def test_all_classes_adds_the_twins(self, capsys):
        argv = ["coeff", "-k", "4", "-p", "2,1,1", "--delta-max", "20"]
        code, out = run(capsys, *argv, "--all-classes")
        assert code == 0
        recs = json_lines(out)
        twins = [i for i, rec in enumerate(recs) if rec["r"] < 0]
        for i in twins:
            prev, rec = recs[i - 1], recs[i]
            assert (prev["m"], -prev["r"], prev["n"]) == (rec["m"], rec["r"], rec["n"])
            assert prev["value"] == rec["value"]
        # The reduced definite T = (m, r, n) with 0 < r <= m <= n and
        # discriminant 4mn - r^2 up to 20.
        reduced = [(m, r, n) for m in range(1, 3) for r in range(1, m + 1)
                   for n in range(m, 6) if 4 * m * n - r * r <= 20]
        assert len(twins) == len(reduced) == 8
        _, plain = run(capsys, *argv)
        assert [rec for rec in recs if rec["r"] >= 0] == json_lines(plain)

    def test_values_round_trip(self, capsys):
        _, out = run(capsys, "coeff", "-k", "6", "-p", "2,3,1", "--delta-max", "11")
        for rec in json_lines(out):
            value = Fraction(rec["value"])
            assert rec["value"] == f"{value.numerator}/{value.denominator}"

    def test_csv_lossless(self, capsys):
        code, out = run(capsys, "coeff", "-k", "4", "-p", "1,1,1", "-T", "1,1,1",
                        "--format", "csv")
        assert code == 0
        (row,) = list(csv.DictReader(io.StringIO(out)))
        assert row["value"] == "13440/1"
        assert Fraction(row["value"]) == 13440

    def test_exit_codes(self, capsys):
        assert run(capsys, "coeff", "-k", "5", "-p", "1,1,1", "-T", "0,0,0")[0] == 2
        assert run(capsys, "coeff", "-k", "4", "-p", "4,1,1", "-T", "0,0,0")[0] == 2
        assert run(capsys, "coeff", "-k", "4", "-p", "1,1,1", "-T", "1,5,1")[0] == 3
        assert run(capsys, "coeff", "-k", "4", "-p", "1,1,1", "-T", "1,2")[0] == 3
        assert run(capsys, "coeff", "-k", "4", "-p", "1,1,1")[0] == 2

    def test_negative_delta_max_is_usage_error(self, capsys):
        code = main(["coeff", "-k", "4", "-p", "1,1,1", "--delta-max", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --delta-max must be non-negative, got -5\n"
        code, out = run(capsys, "coeff", "-k", "4", "-p", "1,1,1", "--delta-max", "0")
        assert code == 0 and [r["delta"] for r in json_lines(out)] == [0]

    def test_closed_stdout_ends_quietly(self):
        # ~600 KB of records, far past a pipe buffer: the reader stops after
        # one line, so a later write meets a closed pipe.
        env = dict(os.environ, PYTHONPATH=str(Path(siegelrep.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "siegelrep", "coeff", "-k", "4", "-p", "1,1,1",
             "--delta-max", "1000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert json.loads(proc.stdout.readline())["value"] == "1/1"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestRep:
    def test_formula_mode(self, capsys):
        code, out = run(capsys, "rep", "--lattice", "S1", "-T", "0,0,0")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["value"] == "1/1" and rec["count"] is None

    def test_both_mode_matches(self, capsys):
        code, out = run(capsys, "rep", "--lattice", "S3", "-T", "1,0,1",
                        "--mode", "both")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["match"] is True
        assert rec["value"] == f"{rec['count']}/1"

    def test_gram_file(self, capsys, tmp_path):
        path = tmp_path / "s4.gram"
        path.write_text(format_gram(builtin_lattice("S4")))
        code, out = run(capsys, "rep", "--gram", str(path), "-T", "1,1,1",
                        "--mode", "enumerate")
        assert code == 0
        assert isinstance(json_lines(out)[0]["count"], int)

    def test_enumerate_works_without_profile(self, capsys, tmp_path):
        path = tmp_path / "toy3.gram"
        path.write_text("3\n2\n1 2\n0 1 4\n")
        code, out = run(capsys, "rep", "--gram", str(path), "-T", "1,1,1",
                        "--mode", "enumerate")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["level"] is None and isinstance(rec["count"], int)
        assert run(capsys, "rep", "--gram", str(path), "-T", "1,1,1")[0] == 2

    def test_exit_codes(self, capsys):
        assert run(capsys, "rep", "-T", "0,0,0")[0] == 2
        assert run(capsys, "rep", "--gram", "/nonexistent.gram", "-T", "0,0,0")[0] == 2
        assert run(capsys, "rep", "--lattice", "S1", "-T", "1,9,1")[0] == 3


class TestBasis:
    def test_level_six(self, capsys):
        code, out = run(capsys, "basis", "-N", "6")
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == 9
        assert sum(r["constant_term"] for r in recs) == 1
        top = next(r for r in recs if r["constant_term"] == 1)
        assert (top["n0"], top["n1"], top["n2"]) == (6, 1, 1)
        assert top["cusp_ranks"] == "2:0;3:0"

    def test_bad_level(self, capsys):
        assert run(capsys, "basis", "-N", "12")[0] == 2


class TestFactorGuard:
    """A level or partition past FACTOR_GUARD, or with two prime factors
    above 2^20, is a usage error (2), such a matrix an invalid matrix (3);
    each prints one error line, no traceback."""

    @pytest.mark.parametrize("argv, want", [
        (["basis", "-N", PAST_GUARD], 2),
        (["coeff", "-k", "4", "-p", f"{PAST_GUARD},1,1", "-T", "1,1,1"], 2),
        (["coeff", "-k", "4", "-p", "1,1,1", "-T", f"{PAST_GUARD},1,1"], 3),
        (["coeff", "-k", "4", "-p", "1,1,1", "-T", f"{PAST_GUARD},0,0"], 3),
        (["rep", "--lattice", "S1", "-T", f"{PAST_GUARD},1,1", "--mode", "formula"], 3),
        (["rep", "--lattice", "S1", "-T", f"{PAST_GUARD},0,0", "--mode", "formula"], 3),
    ])
    def test_refused(self, capsys, argv, want):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == want
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith("refusing to trial-divide beyond 2**64\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, want", [
        (["basis", "-N", SEMIPRIME], 2),
        (["coeff", "-k", "4", "-p", "1,1,1", "-T", f"{SEMIPRIME},0,0"], 3),
    ])
    def test_semiprime_refused(self, capsys, argv, want):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == want
        assert captured.out == ""
        assert captured.err.endswith("no prime factor up to 2**20\n")

    @pytest.mark.parametrize("mode", ["formula", "enumerate", "both"])
    def test_gram_level_refused(self, capsys, tmp_path, mode):
        # [[2, 1], [1, 2^70]] has level 2^71 - 1, past FACTOR_GUARD
        path = tmp_path / "big.gram"
        path.write_text("2\n2\n1 1180591620717411303424\n")
        code = main(["rep", "--gram", str(path), "-T", "1,0,0", "--mode", mode])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: invalid lattice: refusing to trial-divide beyond 2**64\n"

    def test_prime_below_guard(self, capsys):
        # trial division up to its square root would take ~2^31 divisions
        code, out = run(capsys, "basis", "-N", LARGE_PRIME)
        assert code == 0
        assert len(json_lines(out)) == 3
        code, out = run(capsys, "coeff", "-k", "4", "-p", "1,1,1", "-T", f"{LARGE_PRIME},0,0")
        assert code == 0
        assert json_lines(out)[0]["content"] == int(LARGE_PRIME)


class TestVectorGuard:
    def test_refused_enumeration_exits_4(self, capsys, monkeypatch):
        # S1 to norm 80 holds far more than 2^16 vectors.
        monkeypatch.setattr(theta, "VECTOR_GUARD", 2 ** 16)
        code = main(["rep", "--lattice", "S1", "-T", "40,0,0", "--mode", "enumerate"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: refusing to enumerate more than VECTOR_GUARD")
        assert captured.err.count("\n") == 1

    def test_refused_pair_count_exits_4(self, capsys, monkeypatch):
        # S1 at norms 2 x 2: 120 * 121 / 2 = 7,260 half-shell products.
        clear_caches()
        monkeypatch.setattr(theta, "PAIR_GUARD", 7_259)
        code = main(["rep", "--lattice", "S1", "-T", "1,1,1", "--mode", "enumerate"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == ("error: refusing to compute more than PAIR_GUARD = 7,259 pair "
                                "products: norms 2 x 2 need 7,260\n")


# Gram files that the refusal table names by key.
GRAMS = {
    "short": "2\n2\n1\n",  # three entries needed, two given
    "toy3": "3\n2\n1 2\n0 1 4\n",  # odd rank: no profile
    "big": "2\n2\n1 1180591620717411303424\n",  # level 2^71 - 1
}


class TestRefusals:
    """Every refused input, as one exit code and one exact stderr line with
    nothing on stdout.  "{short}" and the like stand for the Gram files of
    GRAMS; VECTOR_GUARD is 2^16 throughout."""

    @pytest.mark.parametrize("argv, code, err", [
        ("coeff -k 5 -p 1,1,1 -T 0,0,0", 2,
         "invalid series spec: weight must be even and at least 4"),
        ("coeff -k 4 -p 4,1,1 -T 0,0,0", 2, "invalid series spec: the level must be squarefree"),
        ("coeff -k 4 -p 1,1 -T 0,0,0", 2,
         "invalid series spec: partition must be three comma-separated integers"),
        ("coeff -k 4 -p a,1,1 -T 0,0,0", 2,
         "invalid series spec: partition must be three comma-separated integers"),
        (f"coeff -k 4 -p {PAST_GUARD},1,1 -T 1,1,1", 2,
         "invalid series spec: refusing to trial-divide beyond 2**64"),
        ("coeff -k 4 -p 1,1,1", 2, "give -T or --delta-max"),
        ("coeff -k 4 -p 1,1,1 --delta-max -5", 2, "--delta-max must be non-negative, got -5"),
        ("coeff -k 4 -p 1,1,1 -T 1,5,1", 3, "invalid matrix: matrix must be positive semidefinite"),
        ("coeff -k 4 -p 1,1,1 -T 1,2", 3,
         "invalid matrix: matrix must be three comma-separated integers"),
        ("coeff -k 4 -p 1,1,1 -T x,0,0", 3,
         "invalid matrix: matrix must be three comma-separated integers"),
        ("coeff -k 4 -p 1,1,1 -T 1,2,3,4", 3,
         "invalid matrix: matrix must be three comma-separated integers"),
        (f"coeff -k 4 -p 1,1,1 -T {PAST_GUARD},1,1", 3,
         "invalid matrix: refusing to trial-divide beyond 2**64"),
        (f"coeff -k 4 -p 1,1,1 -T {SEMIPRIME},0,0", 3,
         f"invalid matrix: refusing to factor {SEMIPRIME}: no prime factor up to 2**20"),
        ("rep -T 0,0,0", 2, "give exactly one of --lattice or --gram"),
        ("rep --lattice S1 --gram {toy3} -T 0,0,0", 2, "give exactly one of --lattice or --gram"),
        ("rep --gram /nonexistent.gram -T 0,0,0", 2,
         "invalid lattice: [Errno 2] No such file or directory: '/nonexistent.gram'"),
        ("rep --gram {short} -T 0,0,0", 2,
         "invalid lattice: expected 3 entries for size 2, got 2"),
        ("rep --gram {big} -T 1,0,0", 2, "invalid lattice: refusing to trial-divide beyond 2**64"),
        ("rep --lattice S1 -T 1,9,1", 3, "invalid matrix: matrix must be positive semidefinite"),
        ("rep --lattice S1 -T 1,2", 3,
         "invalid matrix: matrix must be three comma-separated integers"),
        (f"rep --lattice S1 -T {PAST_GUARD},1,1", 3,
         "invalid matrix: refusing to trial-divide beyond 2**64"),
        (f"rep --lattice S1 -T {PAST_GUARD},0,0", 3,
         "invalid matrix: refusing to trial-divide beyond 2**64"),
        ("rep --gram {toy3} -T 1,1,1", 2, "profile needs even rank"),
        ("rep --lattice S1 -T 40,0,0 --mode enumerate", 4,
         "refusing to enumerate more than VECTOR_GUARD = 65,536 vectors: "
         "the shells up to norm 80 hold more"),
        ("basis -N 12", 2, "level must be a squarefree positive integer"),
        ("basis -N 0", 2, "level must be a squarefree positive integer"),
        (f"basis -N {PAST_GUARD}", 2, "refusing to trial-divide beyond 2**64"),
        (f"basis -N {SEMIPRIME}", 2,
         f"refusing to factor {SEMIPRIME}: no prime factor up to 2**20"),
        ("verify hecke --t-count -1", 2, "t_count must be non-negative, got -1"),
        ("verify hecke --t-count 56", 2, "t_count must be at most 55, got 56"),
    ])
    def test_refused(self, capsys, tmp_path, monkeypatch, argv, code, err):
        monkeypatch.setattr(theta, "VECTOR_GUARD", 2 ** 16)
        paths = {}
        for key, text in GRAMS.items():
            paths[key] = tmp_path / f"{key}.gram"
            paths[key].write_text(text)
        assert main([arg.format(**paths) for arg in argv.split()]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "identities", "--delta-max", "10",
                        "--level-max", "3", "--prime-max", "3", "--m-max", "40")
        assert code == 0
        assert "0 failures" in out

    def test_every_failure_is_counted(self, capsys, monkeypatch):
        # One more than the true count fails each of the 165 formula checks;
        # the report keeps the first 12 messages and counts all 165.
        real = verify.rep_deg2
        monkeypatch.setattr(verify, "rep_deg2", lambda gram, t: real(gram, t) + 1)
        code, out = run(capsys, "verify", "lattices")
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "lattices: 335 checks, 165 failures [FAIL]"
        assert len(lines) == 13
        assert all(line.startswith("  formula ") for line in lines[1:])

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(capsys, "verify", "nonsense")[0] == 2

    @pytest.mark.parametrize("flag", ["--delta-max", "--sing-max", "--level-max",
                                      "--prime-max", "--m-max", "--t-count",
                                      "--lattice-delta-max", "--lattice-sing-max"])
    def test_negative_bound_is_usage_error(self, capsys, flag):
        code = main(["verify", "hecke", flag, "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        field = flag[2:].replace("-", "_")
        assert captured.err == f"error: {field} must be non-negative, got -5\n"

    def test_t_count_beyond_the_hecke_grid_is_usage_error(self, capsys):
        code = main(["verify", "hecke", "--t-count", "56"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: t_count must be at most 55, got 56\n"

    def test_t_count_of_the_whole_hecke_grid_runs(self, capsys):
        code, out = run(capsys, "verify", "hecke", "--t-count", "55")
        assert code == 0
        assert out.startswith("hecke: ") and "0 failures" in out

    def test_flag_defaults_are_the_bounds_defaults(self):
        args = _build_parser().parse_args(["verify", "all"])
        assert {name: getattr(args, name) for name in asdict(VerifyBounds())} \
            == asdict(VerifyBounds())
