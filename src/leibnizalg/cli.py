"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 a check or scenario failed,
2 usage, file, or construction error, 3 a ``verify`` scenario raised an
error at some n (named on stderr; the finished reports still print).
'-' stands for stdin/stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import io as algio
from .algebra import (
    derived_series,
    is_filiform,
    is_nilpotent,
    is_solvable,
    leibniz_check,
    lower_central_series,
    nilpotency_index,
    series_dims,
)
from .derivations import derivation_space, max_nil_independent
from .extensions import build_extension_problem, diagonal_branches, eliminate, generate_constraints
from .families import ConstructionError, FAMILY_IDS, FamilySpec, family_catalog, make_family
from .linalg import dense_row
from .verify import MAX_N, SCENARIOS, run_scenario


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _load_algebra(path: str):
    try:
        return algio.loads(_read_text(path))
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except algio.AlgebraFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _parse_pairs(text: str) -> list:
    """The comma-separated name=value pairs, in order, as exact rationals."""
    pairs = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        if "=" not in chunk:
            raise ValueError(f"parameter {chunk!r} is not of the form name=value")
        name, _, value = chunk.partition("=")
        try:
            pairs.append((name.strip(), Fraction(value.strip())))
        except ZeroDivisionError:
            raise ValueError(f"parameter {chunk!r} has a zero denominator") from None
    return pairs


def _cmd_check(args) -> int:
    alg = _load_algebra(args.file)
    report = leibniz_check(alg)
    if report.ok:
        print(f"pass: identity holds on all {alg.dim}^3 basis triples")
        return 0
    print(f"fail: {len(report.failures)} defective triples")
    for i, j, k, defect in report.failures[: args.limit]:
        print(f"  ({alg.labels[i]},{alg.labels[j]},{alg.labels[k]}): defect {[str(c) for c in defect]}")
    if len(report.failures) > args.limit:
        print(f"  ... {len(report.failures) - args.limit} more")
    return 1


def _cmd_series(args) -> int:
    alg = _load_algebra(args.file)
    lcs = series_dims(lower_central_series(alg))
    ds = series_dims(derived_series(alg))
    nilpotent = is_nilpotent(alg)
    print(f"lower central dims: {list(lcs)}")
    print(f"derived dims:       {list(ds)}")
    print(f"nilpotent: {nilpotent}" + (f" (index {nilpotency_index(alg)})" if nilpotent else ""))
    print(f"solvable:  {is_solvable(alg)}")
    print(f"filiform:  {is_filiform(alg)}")
    return 0


def _cmd_derive(args) -> int:
    alg = _load_algebra(args.file)
    space = derivation_space(alg)
    print(f"derivation space dimension: {space.dimension}")
    if args.nil_independent:
        print(f"max nil-independent: {max_nil_independent(space)}")
    if not args.no_basis:
        for name, mat in zip(space.param_names, space.basis):
            print(f"basis derivation {name}:")
            for row in mat:
                print("  [" + ", ".join(str(c) for c in dense_row(row, alg.dim)) + "]")
    return 0


def _catalog_text() -> str:
    lines = []
    for info in family_catalog():
        parity = f", {info.parity} n" if info.parity else ""
        params = f" params: {info.params}" if info.params else ""
        lines.append(f"  {info.family:6s} {info.description} ({info.constraints}{parity}){params}")
    return "\n".join(lines)


def _cmd_family(args) -> int:
    if args.list:
        print("families:")
        print(_catalog_text())
        return 0
    if not args.family or args.n is None:
        print("error: family id and --n are required (or use --list)", file=sys.stderr)
        return 2
    if args.family not in FAMILY_IDS:
        print(f"error: unknown family {args.family!r}; known families:\n{_catalog_text()}",
              file=sys.stderr)
        return 2
    try:
        alg = make_family(FamilySpec(args.family, args.n, dict(_parse_pairs(args.params))))
    except (ValueError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_text(args.out, algio.dumps(alg))
    return 0


def _parse_hypotheses(text: str, problem):
    """name=value pairs on template entries: a<k> is entry (0,k), b<k> is
    entry (1,k), d<i>_<j> is entry (i,j)."""
    hyps = []
    for name, val in _parse_pairs(text):
        if name.startswith("a") and name[1:].isdigit():
            i, j = 0, int(name[1:])
        elif name.startswith("b") and name[1:].isdigit():
            i, j = 1, int(name[1:])
        elif name.startswith("d") and "_" in name:
            si, sj = name[1:].split("_", 1)
            i, j = int(si), int(sj)
        else:
            raise ValueError(f"cannot parse hypothesis name {name!r} (use a<k>, b<k>, or d<i>_<j>)")
        d = problem.nilradical.dim
        if not (0 <= i < d and 0 <= j < d):
            raise ValueError(f"hypothesis {name!r} names entry ({i},{j}), outside the {d} x {d} template")
        hyps.append(dict(problem.template[i]).get(j, problem.ring.zero) - val)
    return hyps


def _outcome_payload(hyp, outcome) -> dict:
    payload = {
        "hypotheses": [f"{h} = 0" for h in hyp],
        "outcome": outcome.kind,
        "substitutions": [{"variable": name, "value": str(value), "from": str(src)}
                          for name, value, src in outcome.assignments],
    }
    if outcome.kind == "contradiction":
        payload["witness"] = f"{outcome.witness} = 0"
    else:
        payload["residual"] = [str(e) for e in outcome.residual]
        payload["free"] = list(outcome.free)
    return payload


def _cmd_extend(args) -> int:
    alg = _load_algebra(args.file)
    try:
        problem = build_extension_problem(alg)
        branches = [_parse_hypotheses(args.hypotheses, problem)] if args.hypotheses else diagonal_branches(problem)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not branches:
        print("every derivation of the algebra is nilpotent: no non-nilpotent extension exists")
        return 0
    payloads = []
    for hyp in branches:
        outcome = eliminate(generate_constraints(problem, hypotheses=hyp))
        payloads.append(_outcome_payload(hyp, outcome))
    if args.format == "machine":
        print(json.dumps(payloads, indent=1, sort_keys=True))
    else:
        for payload in payloads:
            print(f"branch [{'; '.join(payload['hypotheses'])}] -> {payload['outcome']}")
            for step in payload["substitutions"]:
                print(f"  {step['variable']} := {step['value']}   (from {step['from']} = 0)")
            if "witness" in payload:
                print(f"  witness: {payload['witness']}")
            else:
                print(f"  free: {', '.join(payload['free']) or '(none)'}")
                for res in payload["residual"]:
                    print(f"  residual: {res} = 0")
    return 0


def _parse_range(text: str):
    """The n of ``N`` or ``A..B``, clipped at MAX_N: no larger n is
    admissible, so a huge B costs nothing."""
    lo, dots, hi = text.partition("..")
    return range(int(lo), min(int(hi if dots else lo), MAX_N) + 1)


def _cmd_verify(args) -> int:
    try:
        n_values = _parse_range(args.n)
    except ValueError:
        print(f"error: cannot parse --n {args.n!r} (use N or A..B)", file=sys.stderr)
        return 2
    if args.scenario == "all":
        ids, target = sorted(SCENARIOS), "any scenario"
        rule = f"{min(sc.min_n for sc in SCENARIOS.values())} <= n <= {MAX_N}"
    elif args.scenario in SCENARIOS:
        ids, target, rule = [args.scenario], args.scenario, SCENARIOS[args.scenario].rule()
    else:
        known = "\n  ".join(f"{s.id}: {s.description}" for s in
                            sorted(SCENARIOS.values(), key=lambda s: s.id))
        print(f"error: unknown scenario {args.scenario!r}; known scenarios:\n  {known}",
              file=sys.stderr)
        return 2
    calls = [(scenario_id, n) for scenario_id in ids for n in n_values if SCENARIOS[scenario_id].admissible(n)]
    if not calls:
        print(f"error: no admissible n in {args.n} for {target} (requires {rule})", file=sys.stderr)
        return 2
    reports, errors = [], 0
    for scenario_id, n in calls:
        try:
            reports.append(run_scenario(scenario_id, n, args.seed))
        except (RuntimeError, ValueError) as exc:  # one (scenario, n) is lost, not the range
            print(f"error: {scenario_id} n={n}: {exc}", file=sys.stderr)
            errors += 1
    if args.format == "machine":
        print(json.dumps([r.canonical() for r in reports], indent=1, sort_keys=True))
    else:
        for r in reports:
            print(f"{r.scenario} n={r.n} seed={r.seed}: {r.verdict}  [{r.wall_time:.2f}s]")
            for line in r.details:
                print(f"    {line}")
            for line in r.findings:
                print(f"    finding: {line}")
    if errors:
        return 3
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def _count(text: str) -> int:
    """A nonnegative integer option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact-arithmetic toolkit for Leibniz algebras given by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the Leibniz identity on an algebra file")
    p.add_argument("file", help="algebra file ('-' for stdin)")
    p.add_argument("--limit", type=_count, default=10, help="max failing triples to print")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("series", help="lower central and derived series, structural flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("derive", help="derivation space of an algebra")
    p.add_argument("file")
    p.add_argument("--nil-independent", action="store_true", help="also print the nil-independence count")
    p.add_argument("--no-basis", action="store_true", help="suppress the basis matrices")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("family", help="construct a named family member")
    p.add_argument("family", nargs="?", help=f"one of: {', '.join(FAMILY_IDS)}")
    p.add_argument("--n", type=int, help="family index n (algebra dimension n+1 or n+2)")
    p.add_argument("--params", default="", help="comma-separated name=value (exact rationals)")
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")
    p.add_argument("--list", action="store_true", help="list the family catalog")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("extend", help="solve the codimension-one solvable extension problem")
    p.add_argument("file", help="nilradical algebra file")
    p.add_argument("--hypotheses", default="",
                   help="comma-separated normalizations on the derivation template, "
                        "e.g. a0=1 (entry (0,0)); default: all non-nilpotency branches")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("verify", help="run verification scenarios")
    p.add_argument("scenario", help="scenario id or 'all'")
    p.add_argument("--n", required=True, help="N or A..B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
