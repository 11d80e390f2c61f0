"""Golden CLI corpus: stdout byte for byte and the exit code of every command
below, in JSON and CSV, against the files in tests/golden/.

The corpus covers the coefficient engine (coeff), the lattice level, Hasse
invariants and genus weights (through the rep formula values) and the
enumeration bounds (through the rep counts).  Each file holds the stdout of
the case of the same name; exit_codes.json maps every case to its exit code.
The verify cases set every VerifyBounds field to a value that changes a
check count, and all exit 0.  So does the S1 count at T = (4, 1, 4), whose
norms 8 x 8 run the packed pair kernel (three cross products per float32
product, K = 17); its files were written by the unpacked kernel.  The
level 30 coeff case with --all-classes was written while coefficients were
memoized by matrix; most of its T share a (delta, content) key with another.
"""

import json
from pathlib import Path

import pytest

from siegelrep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_COMMANDS = {
    "coeff_k4_p2-3-1_d20": ["coeff", "-k", "4", "-p", "2,3,1", "--delta-max", "20"],
    "coeff_k6_p1-1-1_d30": ["coeff", "-k", "6", "-p", "1,1,1", "--delta-max", "30"],
    "coeff_k4_p2-3-5_d60_all": ["coeff", "-k", "4", "-p", "2,3,5", "--delta-max", "60",
                                "--all-classes"],
    **{f"rep_{name}_T{m}-{r}-{n}": ["rep", "--lattice", name, "-T", f"{m},{r},{n}",
                                    "--mode", "both"]
       for name in ("S1", "S2", "S3", "S4", "S5")
       for m, r, n in ((1, 0, 0), (1, 1, 1), (1, 0, 1), (2, 1, 2))},
    "basis_N30": ["basis", "-N", "30"],
}

CASES = {f"{stem}.{fmt}": argv + ["--format", fmt]
         for stem, argv in _COMMANDS.items() for fmt in ("json", "csv")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


VERIFY_CASES = {
    "verify_identities_reduced.txt": ["verify", "identities", "--level-max", "6",
                                      "--prime-max", "3", "--delta-max", "20",
                                      "--sing-max", "4", "--m-max", "120"],
    "verify_hecke_t5.txt": ["verify", "hecke", "--t-count", "5"],
    "verify_lattices_reduced.txt": ["verify", "lattices", "--lattice-delta-max", "6",
                                    "--lattice-sing-max", "2"],
}


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_golden_verify_output(name, capsys):
    code = main(VERIFY_CASES[name])
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
    assert code == 0


PACKED_CASES = {f"rep_S1_T4-1-4.{fmt}": ["rep", "--lattice", "S1", "-T", "4,1,4",
                                        "--mode", "both", "--format", fmt]
                for fmt in ("json", "csv")}


@pytest.mark.parametrize("name", sorted(PACKED_CASES))
def test_golden_packed_output(name, capsys):
    code = main(PACKED_CASES[name])
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
    assert code == 0
