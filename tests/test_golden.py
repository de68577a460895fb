"""Byte-for-byte golden snapshots of the canonical verification reports.

Each file under ``golden/`` is the stdout of

    leibnizalg verify all --n <N> --seed 0 --format machine

``verify-all-n5-6-seed0.json`` was taken before the product table, the
bracket, the Leibniz defect and the derivation equation were unified;
``verify-all-n7-seed0.json`` was taken before polynomials moved from dense
exponent tuples to sparse monomials; ``verify-all-n8-seed0.json`` was taken
before the exact tensor checks moved to integer-scaled tables;
``verify-all-n9-10-seed0.json`` was taken before the scenario runners moved
onto one registry pipeline (``run_scenario`` stamping id, seed stream and
wall time). n = 8 is the size at which the verdict benchmark runs the
derivation shapes; n = 9..10 pins every scenario above it (about 10 s). Any
change to a verdict, a witness, an assignment log or a finding shows up here
as a byte difference.
"""

from pathlib import Path

from leibnizalg.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _verify_all(capsys, n: str) -> bytes:
    code = main(["verify", "all", "--n", n, "--seed", "0", "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    return out.encode("utf-8")


def test_verify_all_n5_6_matches_golden(capsys):
    assert _verify_all(capsys, "5..6") == (GOLDEN / "verify-all-n5-6-seed0.json").read_bytes()


def test_verify_all_n7_matches_golden(capsys):
    assert _verify_all(capsys, "7") == (GOLDEN / "verify-all-n7-seed0.json").read_bytes()


def test_verify_all_n8_matches_golden(capsys):
    assert _verify_all(capsys, "8") == (GOLDEN / "verify-all-n8-seed0.json").read_bytes()


def test_verify_all_n9_10_matches_golden(capsys):
    assert _verify_all(capsys, "9..10") == (GOLDEN / "verify-all-n9-10-seed0.json").read_bytes()
