import argparse
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from leibnizalg import io as algio
from leibnizalg.cli import build_parser, main
from leibnizalg.families import FamilySpec, make_F1, make_L2, make_family
from leibnizalg.verify import SCENARIOS

from dense_algebra import dense


def test_round_trip_identity():
    alg = make_L2(6, Fraction(7, 3))
    again = algio.loads(algio.dumps(alg))
    assert dense(again) == dense(alg)
    assert again.labels == alg.labels
    assert again.metadata["params"]["beta"] == Fraction(7, 3)


def test_zero_entries_omitted_and_exact_strings():
    data = algio.algebra_to_dict(make_F1(5, {}, 1))
    assert all(Fraction(e[3]) != 0 for e in data["entries"])
    text = algio.dumps(make_L2(6, Fraction(1, 3)))
    assert "0.333" not in text and "1/3" in text


def test_duplicate_entry_rejected():
    data = algio.algebra_to_dict(make_F1(5, {}, 1))
    data["entries"].append(data["entries"][0])
    with pytest.raises(algio.AlgebraFileError) as exc:
        algio.algebra_from_dict(data)
    assert "duplicate" in str(exc.value)


def test_out_of_range_index_rejected():
    data = algio.algebra_to_dict(make_F1(5, {}, 1))
    data["entries"][0] = [9, 0, 0, "1"]
    with pytest.raises(algio.AlgebraFileError) as exc:
        algio.algebra_from_dict(data)
    assert "out of range" in str(exc.value)


def test_inexact_coefficient_rejected():
    data = algio.algebra_to_dict(make_F1(5, {}, 1))
    data["entries"][0][3] = "0.5x"
    with pytest.raises(algio.AlgebraFileError):
        algio.algebra_from_dict(data)


def test_bad_json_reports_location():
    with pytest.raises(algio.AlgebraFileError) as exc:
        algio.loads("{not json")
    assert "line" in str(exc.value)


def test_cli_family_check_pipe(tmp_path, capsys):
    out = tmp_path / "alg.json"
    assert main(["family", "F1", "--n", "5", "--params", "theta=1", "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_check_fails_on_broken_algebra(tmp_path, capsys):
    alg = make_F1(5, {}, 1)
    data = algio.algebra_to_dict(alg)
    data["entries"].append([2, 1, 4, "1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["check", str(bad)]) == 1
    assert "fail" in capsys.readouterr().out


def test_cli_series(tmp_path, capsys):
    out = tmp_path / "alg.json"
    main(["family", "Ln", "--n", "4", "--out", str(out)])
    assert main(["series", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[5, 3, 2, 1, 0]" in text and "filiform:  True" in text


def test_cli_unknown_family_exits_2_with_catalog(capsys):
    assert main(["family", "XX", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert "unknown family" in err and "SolvB" in err


def test_cli_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", str(bad)]) == 2


MALFORMED_FIELDS = {
    "labels-number": {"labels": 5},
    "entries-number": {"entries": 5},
    "metadata-list": {"metadata": ["family"]},
    "metadata-n-text": {"metadata": {"n": "x"}},
    "metadata-n-infinite": {"metadata": {"n": float("inf")}},
    "params-zero-denominator": {"metadata": {"params": {"a": "1/0"}}},
    "params-list": {"metadata": {"params": {"a": [1]}}},
    "dim-infinite": {"dim": float("inf")},
}


@pytest.mark.parametrize("field", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS)
def test_cli_check_malformed_field_exits_2_with_one_line(tmp_path, capsys, field):
    data = algio.algebra_to_dict(make_F1(5, {}, 1))
    data.update(field)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def test_cli_unknown_scenario_exits_2(capsys):
    assert main(["verify", "nope", "--n", "5"]) == 2
    assert "known scenarios" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["13", "8..5", "1..3"])
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_cli_verify_all_without_admissible_n_exits_2(capsys, n, fmt):
    assert main(["verify", "all", "--n", n, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no admissible n" in captured.err


def test_cli_verify_machine_format_deterministic(capsys):
    assert main(["verify", "prop32-nonexist", "--n", "5", "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "prop32-nonexist", "--n", "5", "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload[0]["verdict"] == "pass"
    assert "wall_time" not in payload[0]


def test_cli_derive(tmp_path, capsys):
    out = tmp_path / "alg.json"
    main(["family", "F2", "--n", "5", "--params", "gamma=1", "--out", str(out)])
    assert main(["derive", str(out), "--nil-independent"]) == 0
    text = capsys.readouterr().out
    assert "dimension: 6" in text and "max nil-independent: 1" in text


def test_cli_extend_contradiction(tmp_path, capsys):
    out = tmp_path / "alg.json"
    main(["family", "F1", "--n", "5", "--params", "theta=1", "--out", str(out)])
    assert main(["extend", str(out)]) == 0
    assert "contradiction" in capsys.readouterr().out


def test_cli_extend_with_explicit_hypothesis(tmp_path, capsys):
    out = tmp_path / "alg.json"
    main(["family", "F2", "--n", "5", "--params", "gamma=1", "--out", str(out)])
    assert main(["extend", str(out), "--hypotheses", "a0=1", "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["outcome"] == "family"


@pytest.mark.parametrize("hypothesis", ["a99=1", "d99_0=1", "d-1_0=1", "d5_-1=1"])
def test_cli_extend_hypothesis_outside_the_template_exits_2(tmp_path, capsys, hypothesis):
    """Out-of-range and negative indices are rejected, not wrapped around to
    another template entry."""
    out = tmp_path / "alg.json"
    main(["family", "F1", "--n", "5", "--params", "theta=1", "--out", str(out)])
    capsys.readouterr()
    assert main(["extend", str(out), "--hypotheses", hypothesis]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(hypothesis.split("=")[0]) in captured.err


def test_cli_verify_conj_i(capsys):
    assert main(["verify", "conj-i", "--n", "5"]) == 0
    assert "50 random tuples eliminated" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_cli_verify_error_loses_one_point_and_exits_3(monkeypatch, capsys, fmt):
    """A scenario that raises at one n is named on stderr; the other reports
    of the range still print, unchanged, and the exit code is 3."""
    assert main(["verify", "conj-i", "--n", "5..7", "--format", fmt]) == 0
    want = capsys.readouterr().out
    sc = SCENARIOS["conj-i"]

    def runner(n, rng):
        if n == 6:
            raise RuntimeError("no valid alpha tuple found for A n=6 r=1")
        return sc.runner(n, rng)

    monkeypatch.setitem(SCENARIOS, "conj-i", replace(sc, runner=runner))
    assert main(["verify", "conj-i", "--n", "5..7", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: conj-i n=6: no valid alpha tuple found for A n=6 r=1\n"
    if fmt == "machine":
        assert [r["n"] for r in json.loads(captured.out)] == [5, 7]
        assert json.loads(captured.out) == [r for r in json.loads(want) if r["n"] != 6]
    else:
        def blocks(text):  # one list of lines per report, wall time dropped
            out = []
            for line in re.sub(r"  \[[0-9.]+s\]", "", text).splitlines():
                if line.startswith(" "):
                    out[-1].append(line)
                else:
                    out.append([line])
            return out

        assert blocks(captured.out) == [b for b in blocks(want) if " n=6 " not in b[0]]


def test_cli_conjecture_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "--variant", "A", "--n", "5"])
    assert exc.value.code == 2


def test_cli_family_list(capsys):
    assert main(["family", "--list"]) == 0
    assert "SolvA" in capsys.readouterr().out


def test_cli_family_construction_error_exits_2(capsys):
    assert main(["family", "Qn", "--n", "6"]) == 2
    assert "odd" in capsys.readouterr().err


def test_cli_family_non_integral_parameter_exits_2(capsys):
    assert main(["family", "F1s", "--n", "6", "--params", "s=7/2"]) == 2
    captured = capsys.readouterr()
    assert "parameter s must be an integer, got 7/2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("family, n, params, message", [
    ("SolvA", "6", "r=0", "SolvA needs n >= 4 and 1 <= r <= n - 3"),
    ("SolvB", "6", "r=1", "SolvB needs odd n >= 5"),
    ("SolvB", "7", "r=1", "SolvB: at least one alpha must be nonzero"),
])
def test_cli_solvable_graded_errors_name_the_family(family, n, params, message, capsys):
    assert main(["family", family, "--n", n, "--params", params]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_metadata_survives_family_dispatch():
    alg = make_family(FamilySpec("L3", 5, {"j0": 3}))
    data = algio.algebra_to_dict(alg)
    assert data["metadata"]["family"] == "L3"
    assert data["metadata"]["params"]["j0"] == "3"


def test_readme_command_line_block_names_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"(?:^|\|)\s*leibnizalg\s+([a-z][\w-]*)", block, re.MULTILINE))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)
