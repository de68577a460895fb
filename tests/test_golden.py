"""Byte-for-byte golden snapshot of the canonical verification reports.

``golden/verify-all-n5-6-seed0.json`` is the stdout of

    leibnizalg verify all --n 5..6 --seed 0 --format machine

taken before the product table, the bracket, the Leibniz defect and the
derivation equation were unified. Any change to a verdict, a witness, an
assignment log or a finding shows up here as a byte difference.
"""

from pathlib import Path

from leibnizalg.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify-all-n5-6-seed0.json"


def test_verify_all_n5_6_matches_golden(capsys):
    code = main(["verify", "all", "--n", "5..6", "--seed", "0", "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == GOLDEN.read_bytes()
