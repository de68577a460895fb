import argparse
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from leibnizalg import io as algio
from leibnizalg.algebra import leibniz_check
from leibnizalg.cli import build_parser, main
from leibnizalg.families import FamilySpec, make_F1, make_L2, make_family
from leibnizalg.verify import SCENARIOS

from dense_algebra import dense

GOLDEN_CLI = Path(__file__).parent / "golden_cli"
SRC = Path(__file__).parent.parent / "src"


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


def test_cli_check_limit_must_be_nonnegative(tmp_path, capsys):
    """A negative --limit is a usage error (exit 2); it used to slice the
    failures from the end and print a count larger than the rest."""
    alg = make_F1(5, {}, 1)
    data = algio.algebra_to_dict(alg)
    data["entries"].append([2, 1, 4, "1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["check", str(bad)]) == 1
    total = int(capsys.readouterr().out.split()[1])
    assert total > 2
    for limit in ("-1", "-5", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(bad), "--limit", limit])
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err
    assert main(["check", str(bad), "--limit", "0"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [f"  ... {total} more"]
    assert main(["check", str(bad), "--limit", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[-1] == f"  ... {total - 2} more"


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


# a field of another JSON type than dumps writes; all but the 3- and 5-item
# entries used to load without an error, read off the wrong type
WRONGLY_TYPED_FIELDS = {
    "entries-object": {"entries": {"0001": 1}},
    "entry-text": {"entries": ["0001"]},
    "entry-three-items": {"entries": [[0, 1, "1"]]},
    "entry-five-items": {"entries": [[0, 1, 2, "1", "1"]]},
    "entry-fractional-index": {"entries": [[0.5, 1, 2, "1"]]},
    "entry-text-index": {"entries": [["0", 1, 2, "1"]]},
    "labels-text": {"labels": "abcdef"},
    "labels-numbers": {"labels": [0, 1, 2, 3, 4, 5]},
    "metadata-n-fractional": {"metadata": {"n": 2.7}},
    "metadata-n-bool": {"metadata": {"n": True}},
    "metadata-family-number": {"metadata": {"family": 1}},
    "metadata-list-of-text": {"metadata": ["x"]},
    "dim-fractional": {"dim": 6.5},
    "dim-text": {"dim": "6"},
    "entry-zero-float-coefficient": {"entries": [[0, 0, 2, 0.0]]},  # what json reads for 1e-400
    "entry-float-coefficient": {"entries": [[0, 0, 2, 0.5]]},
    "entry-integer-coefficient": {"entries": [[0, 0, 2, 1]]},
    "metadata-param-float": {"metadata": {"family": "F1", "n": 5, "params": {"theta": 0.5}}},
    "metadata-param-integer": {"metadata": {"family": "F1", "n": 5, "params": {"theta": 1}}},
}


@pytest.mark.parametrize("field", WRONGLY_TYPED_FIELDS.values(), ids=WRONGLY_TYPED_FIELDS)
@pytest.mark.parametrize("command", ["check", "series", "derive"])
def test_wrongly_typed_field_is_rejected_by_loads_and_the_cli(tmp_path, capsys, field, command):
    data = algio.algebra_to_dict(make_F1(5, {}, 1))
    data.update(field)
    text = json.dumps(data)
    with pytest.raises(algio.AlgebraFileError):
        algio.loads(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def test_an_underflowing_coefficient_is_rejected_not_read_as_zero():
    """json reads the number 1e-400 as 0.0, so that product used to vanish
    without a word."""
    text = algio.dumps(make_F1(5, {}, 1)).replace('"1"', "1e-400", 1)
    assert "1e-400" in text
    with pytest.raises(algio.AlgebraFileError, match="not an exact rational string"):
        algio.loads(text)


@pytest.mark.parametrize("spec", [
    FamilySpec("F1", 5, {"theta": 1}), FamilySpec("F3", 6, {"theta1": Fraction(-2, 3)}),
    FamilySpec("L2", 6, {"beta": Fraction(7, 3)}), FamilySpec("L3", 7, {"j0": 4}),
    FamilySpec("SolvA", 6, {"r": 1, "alpha1": 1, "alpha2": Fraction(6, 5), "b2": Fraction(1, 2)}),
], ids=lambda s: s.family)
def test_every_written_file_loads_unchanged(spec):
    alg = make_family(spec)
    text = algio.dumps(alg)
    again = algio.loads(text)
    assert again.table == alg.table and again.labels == alg.labels
    assert algio.dumps(again) == text
    data = json.loads(text)
    del data["metadata"], data["labels"]
    assert algio.algebra_from_dict(data).table == alg.table


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


def test_cli_verify_range_is_clipped_at_max_n(capsys):
    """No n above MAX_N is admissible, so the upper end of a range costs
    nothing: the range stops at MAX_N before any scenario is consulted."""
    started = time.perf_counter()
    assert main(["verify", "all", "--n", f"13..{10**12}"]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "no admissible n" in captured.err
    assert main(["verify", "prop34-shape", "--n", f"11..{10**12}", "--format", "machine"]) == 0
    clipped = capsys.readouterr().out
    assert main(["verify", "prop34-shape", "--n", "11..12", "--format", "machine"]) == 0
    assert clipped == capsys.readouterr().out


@pytest.mark.parametrize("family, params, command, golden", [
    ("F2", "gamma=1", ["derive", "--nil-independent"], "derive-F2-n5-gamma1-nil-independent.txt"),
    ("F1", "theta=1", ["extend", "--format", "machine"], "extend-F1-n5-theta1-machine.txt"),
    ("F2", "gamma=1", ["extend", "--hypotheses", "a0=1", "--format", "machine"],
     "extend-F2-n5-gamma1-a0-machine.txt"),
])
def test_cli_stdout_matches_the_pinned_output(tmp_path, capsys, family, params, command, golden):
    """The exact stdout of ``derive`` (the basis maps printed in full) and
    ``extend`` on a family member at n = 5, as recorded in ``golden_cli/``
    while the derivation basis and the template were still dense matrices."""
    out = tmp_path / "alg.json"
    assert main(["family", family, "--n", "5", "--params", params, "--out", str(out)]) == 0
    assert main([command[0], str(out), *command[1:]]) == 0
    assert capsys.readouterr().out == (GOLDEN_CLI / golden).read_text(encoding="utf-8")


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


# labels and [i, j, k, c] entries (c the coefficient of b_k in [b_i, b_j]):
# the Heisenberg algebra and sl2, whose derivation bases are not upper
# triangular, the abelian algebra, and a table that fails the Leibniz
# identity on 4 triples
SMALL_ALGEBRAS = {
    "heisenberg": (["x", "y", "z"], [[0, 1, 2, "1"], [1, 0, 2, "-1"]]),
    "sl2": (["h", "e", "f"], [[0, 1, 1, "2"], [1, 0, 1, "-2"], [0, 2, 2, "-2"], [2, 0, 2, "2"],
                              [1, 2, 0, "1"], [2, 1, 0, "-1"]]),
    "abelian": (["a", "b", "c"], []),
    "non-leibniz": (["a", "b", "c"], [[0, 0, 1, "1"], [1, 0, 2, "1"], [0, 1, 2, "1"], [1, 1, 2, "1"]]),
}


def small_algebra_file(tmp_path, name: str) -> Path:
    labels, entries = SMALL_ALGEBRAS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"format": algio.FORMAT, "dim": len(labels), "labels": labels, "entries": entries}))
    return path


@pytest.mark.parametrize("name", ["heisenberg", "sl2"])
def test_cli_derive_nil_independent_on_a_non_triangular_basis_exits_2(tmp_path, capsys, name):
    """The count reads nilpotency off the diagonal, which needs an upper
    triangular basis; it used to end in a traceback and exit 1."""
    path = small_algebra_file(tmp_path, name)
    assert main(["derive", str(path), "--nil-independent"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "not upper triangular" in captured.err


def test_cli_extend_rejects_a_table_that_fails_the_leibniz_identity(tmp_path, capsys):
    """The constraint system trusts the nilradical's own triples, so a file
    that fails ``check`` used to get a verdict; it gets exit 2 and its first
    failing triple."""
    path = small_algebra_file(tmp_path, "non-leibniz")
    assert main(["check", str(path)]) == 1
    assert "fail: 4 defective triples" in capsys.readouterr().out
    assert main(["extend", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not a Leibniz algebra: (a,a,a): defect ['0', '0', '-1']\n"


def test_cli_series_rejects_a_table_that_fails_the_leibniz_identity(tmp_path, capsys):
    """Nilpotency, solvability and the filiform flag are facts about a
    Leibniz algebra: on a file that fails ``check``, ``series`` used to
    print ``nilpotent: True (index 4)`` and exit 0; it prints nothing on
    stdout and exits 2 with the line ``extend`` gives."""
    path = small_algebra_file(tmp_path, "non-leibniz")
    assert main(["series", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not a Leibniz algebra: (a,a,a): defect ['0', '0', '-1']\n"


@pytest.mark.parametrize("name", sorted(SMALL_ALGEBRAS))
@pytest.mark.parametrize("command", [["check"], ["series"], ["derive"], ["derive", "--nil-independent"],
                                     ["extend"]], ids=" ".join)
def test_cli_returns_a_documented_exit_code_on_small_algebras(tmp_path, capsys, name, command):
    """Every file subcommand answers 0, 1 or 2 on each small algebra, with
    an ``error:`` line for 2, and never raises; ``series`` and ``extend``
    give no answer on a table that fails the Leibniz identity."""
    path = small_algebra_file(tmp_path, name)
    code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2)
    if command in (["series"], ["extend"]) and not leibniz_check(algio.loads(path.read_text())).ok:
        assert code == 2
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")


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

    def runner(n, run):
        if n == 6:
            raise RuntimeError("no valid alpha tuple found for A n=6 r=1")
        return sc.runner(n, run)

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


@pytest.mark.parametrize("command, message", [
    (["family", "F1", "--n", "5", "--params", "alpha3=1/0"], "parameter 'alpha3=1/0' has a zero denominator"),
    (["extend", "{alg}", "--hypotheses", "a0=1/0"], "parameter 'a0=1/0' has a zero denominator"),
    (["extend", "{alg}", "--hypotheses", "a0"], "parameter 'a0' is not of the form name=value"),
], ids=["family-zero-denominator", "extend-zero-denominator", "extend-no-equals"])
def test_cli_malformed_values_exit_2_with_one_line(tmp_path, capsys, command, message):
    """A zero denominator in --params or --hypotheses, or a hypothesis with
    no '=', is a usage error: one line on stderr, exit 2, no traceback."""
    out = tmp_path / "alg.json"
    main(["family", "F2", "--n", "5", "--params", "gamma=1", "--out", str(out)])
    capsys.readouterr()
    assert main([str(out) if arg == "{alg}" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_cli_family_identity_failure_names_the_defect_as_check_does(capsys):
    """A member that fails the Leibniz identity names its first failing
    triple and defect in the form ``check`` and ``extend`` print, each
    coordinate as its str, not as a tuple of Fraction reprs."""
    assert main(["family", "SolvB", "--n", "7", "--params", "r=1,alpha1=1,b2=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Fraction(" not in captured.err
    assert captured.err == ("error: SolvB: Leibniz identity fails on (e1,e2,e3): "
                            "defect ['0', '0', '0', '0', '0', '0', '0', '2', '0']\n")


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


def test_readme_python_api_block_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    want = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert len(want) == 2
    assert capsys.readouterr().out.splitlines() == want


def test_reports_are_byte_identical_under_two_hash_seeds():
    """No canonical report depends on the order of a set or dict of strings,
    which the hash seed changes: ``verify all`` prints the same bytes under
    PYTHONHASHSEED 1 and 2."""
    argv = [sys.executable, "-m", "leibnizalg", "verify", "all", "--n", "5..7", "--seed", "3", "--format", "machine"]
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_python_dash_m_runs_the_command_line(capsys):
    """``python -m leibnizalg`` (the package's ``__main__``) is the command
    line of a plain checkout: same exit code, same output as cli.main."""
    argv = ["verify", "conj-i", "--n", "5", "--seed", "0", "--format", "machine"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "leibnizalg", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == want
