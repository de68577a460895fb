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

``verify-conj-i-n5-12-seed<S>.json`` and ``verify-conj-ii-n5-10-seed<S>.json``
(seeds 0 and 1) are the stdout of ``leibnizalg verify conj-i --n 5..12`` and
``verify conj-ii --n 5..10`` with ``--seed S --format machine``, taken before
the conjecture trials stopped inverting the star change and building the
restored table; they pin the trial path past seed 0 and n = 10.
"""

from pathlib import Path

import pytest

from leibnizalg.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _verify(capsys, n: str, scenario: str = "all", seed: int = 0) -> bytes:
    code = main(["verify", scenario, "--n", n, "--seed", str(seed), "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    return out.encode("utf-8")


def test_verify_all_n5_6_matches_golden(capsys):
    assert _verify(capsys, "5..6") == (GOLDEN / "verify-all-n5-6-seed0.json").read_bytes()


def test_verify_all_n7_matches_golden(capsys):
    assert _verify(capsys, "7") == (GOLDEN / "verify-all-n7-seed0.json").read_bytes()


def test_verify_all_n8_matches_golden(capsys):
    assert _verify(capsys, "8") == (GOLDEN / "verify-all-n8-seed0.json").read_bytes()


def test_verify_all_n9_10_matches_golden(capsys):
    assert _verify(capsys, "9..10") == (GOLDEN / "verify-all-n9-10-seed0.json").read_bytes()


@pytest.mark.parametrize("scenario, n", [("conj-i", "5..12"), ("conj-ii", "5..10")])
@pytest.mark.parametrize("seed", [0, 1])
def test_verify_conjectures_match_golden(capsys, scenario, n, seed):
    golden = GOLDEN / f"verify-{scenario}-n{n.replace('..', '-')}-seed{seed}.json"
    assert _verify(capsys, n, scenario, seed) == golden.read_bytes()
