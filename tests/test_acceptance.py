"""Acceptance suite: every criterion at its stated range and tolerance.

All checks are exact (structure constants over the rationals; zero defects).
Each test prints one pass/fail line; run with -s or -v to see them.
"""

import random
from fractions import Fraction

from leibnizalg.algebra import (
    is_filiform,
    is_lie,
    is_nilpotent,
    is_solvable,
    leibniz_check,
    lower_central_series,
    nilradical_equals,
    right_annihilator,
    series_dims,
    subalgebra_on_indices,
)
from leibnizalg.derivations import derivation_space, max_nil_independent
from leibnizalg.families import (
    make_A_algebra,
    make_B_algebra,
    make_F1,
    make_F1s,
    make_F2,
    make_F2j,
    make_F2j1,
    make_F3,
    make_L1,
    make_L2,
    make_L3,
    make_Ln,
    make_Qn,
    make_SolvA,
    make_SolvB,
)
from leibnizalg.verify import (
    run_scenario,
    sample_graded_alphas,
    sample_solv_bs,
    scenario_rng,
    small_rational,
)

from dense_algebra import from_dense, table_bracket


def _line(criterion: str, ok: bool, summary: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, summary


def _family_instances(n: int, rng: random.Random):
    """Every constructor at an admissible instance; (algebra, lie?, non-lie?)"""
    out = []
    out.append(("F1(0,..,0,1)", make_F1(n, {}, 1), False, True))
    out.append(("F1 random", make_F1(n, {3: small_rational(rng, 3)}, small_rational(rng, 3)), False, True))
    for s in (3, 4, 5):
        if s <= n:
            out.append((f"F1^{s}", make_F1s(n, s), False, True))
    out.append(("F2(0,..,0,1)", make_F2(n, {}, 1), False, True))
    out.append(("F2 random", make_F2(n, {4: small_rational(rng, 3)} if n >= 4 else {},
                                     small_rational(rng, 3)), False, True))
    if n >= 4:
        out.append((f"F2^3", make_F2j(n, 3), False, True))
        out.append((f"F2^{n}", make_F2j(n, n), False, True))
    if n % 2 == 0 and n >= 4:
        out.append(("F2^1(beta,1)", make_F2j1(n, small_rational(rng, 3)), False, True))
    for theta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        out.append((f"F3{theta}", make_F3(n, *theta, 0), False, True))
        if n % 2 == 1:
            out.append((f"F3{theta} alt", make_F3(n, *theta, 1), False, True))
    out.append(("Ln", make_Ln(n), True, False))
    if n % 2 == 1:
        out.append(("Qn", make_Qn(n), True, False))
    if n >= 4:
        alphas = sample_graded_alphas("A", n, 1, rng)
        out.append(("A r=1", make_A_algebra(n, 1, alphas), True, False))
    if n % 2 == 1 and n >= 5:
        alphas_b = sample_graded_alphas("B", n, 1, rng)
        out.append(("B r=1", make_B_algebra(n, 1, alphas_b), True, False))
    return out


def _solvable_instances(n: int, rng: random.Random):
    out = []
    if n % 2 == 1:
        out.append(("L1", make_L1(n)))
    if n % 2 == 0 and n >= 4:
        out.append(("L2", make_L2(n, small_rational(rng, 4))))
    if n >= 4:
        out.append(("L3 j0=3", make_L3(n, 3)))
        out.append((f"L3 j0={n}", make_L3(n, n)))
        alphas = sample_graded_alphas("A", n, 1, rng)
        b = sample_solv_bs("A", n, 1, alphas, rng)
        out.append(("SolvA", make_SolvA(n, 1, alphas, 0, b)))
    if n % 2 == 1 and n >= 5:
        alphas_b = sample_graded_alphas("B", n, 1, rng)
        bs = sample_solv_bs("B", n, 1, alphas_b, rng)
        out.append(("SolvB", make_SolvB(n, 1, alphas_b, bs)))
    return out


def test_criterion_1_identity_suite():
    rng = scenario_rng("acceptance-1", 0, 0)
    count = 0
    for n in range(4, 10):
        for label, alg, lie, nonlie in _family_instances(n, rng):
            report = leibniz_check(alg)
            assert report.ok, (n, label, report.failures[:1])
            if lie:
                assert is_lie(alg), (n, label)
            if nonlie:
                assert not is_lie(alg), (n, label)
            count += 1
        for label, alg in _solvable_instances(n, rng):
            assert leibniz_check(alg).ok, (n, label)
            count += 1
    _line("1 (identity suite)", True, f"{count} constructor instances at n=4..9, zero defects")


def test_criterion_2_filiform_suite():
    rng = scenario_rng("acceptance-2", 0, 0)
    count = 0
    for n in range(4, 10):
        for label, alg, _, _ in _family_instances(n, rng):
            d = alg.dim
            assert is_filiform(alg), (n, label)
            dims = series_dims(lower_central_series(alg))
            assert dims == (d,) + tuple(d - i for i in range(2, d + 1)), (n, label)
            count += 1
    _line("2 (filiform suite)", True, f"{count} nilpotent instances, dim L^i = dim - i exactly")


def test_criterion_3_derivation_shape_suite():
    lines = []
    for scenario in ("prop31-shape", "prop34-shape", "prop38-shape", "prop41-shape", "prop44-shape"):
        for n in range(5, 9):
            if scenario == "prop44-shape" and n % 2 == 0:
                continue
            rep = run_scenario(scenario, n, 0)
            assert rep.verdict == "pass", (scenario, n, rep.details)
            lines.append(f"{scenario}@{n}")
    _line("3 (derivation shapes)", True, f"{len(lines)} shape checks, forms and relations exact")


def test_criterion_4_nil_independence_suite():
    for n in range(5, 9):
        assert max_nil_independent(derivation_space(make_F1(n, {}, 1))) == 1
        assert max_nil_independent(derivation_space(make_F2(n, {}, 1))) == 1
        rep = run_scenario("thm26-bound", n, 0)
        assert rep.verdict == "pass", (n, rep.details)
    _line("4 (nil-independence)", True,
          "count = 1 for both unit-top nilradicals at n=5..8; bound holds on every solvable")


def test_criterion_5_non_existence_suite():
    runs = []
    for scenario in ("prop32-nonexist", "prop33-nonexist", "thm39-nonexist",
                     "prop43-nolie", "prop46-nolie"):
        for n in range(5, 9):
            if scenario == "prop46-nolie" and n % 2 == 0:
                continue
            rep = run_scenario(scenario, n, 0)
            assert rep.verdict == "pass", (scenario, n, rep.details)
            runs.append(f"{scenario}@{n}")
    _line("5 (non-existence)", True,
          f"{len(runs)} scenario runs, every branch a Contradiction with replayable witness")


def test_criterion_6_classification_suite():
    runs = []
    for scenario, ns in (("thm35-class", (5, 7)), ("thm36-class", (6, 8)),
                         ("thm37-class", (5, 6, 7, 8)), ("thm42-class", (5, 6, 7, 8)),
                         ("thm45-class", (5, 7))):
        for n in ns:
            rep = run_scenario(scenario, n, 0)
            assert rep.verdict == "pass", (scenario, n, rep.details)
            runs.append(f"{scenario}@{n}")
    _line("6 (classification)", True,
          f"{len(runs)} scenario runs, tensors equal the classified tables entry for entry")


def test_criterion_7_solvable_structure_suite():
    rng = scenario_rng("acceptance-7", 0, 0)
    count = 0
    for n in range(5, 9):
        for label, alg in _solvable_instances(n, rng):
            assert alg.dim == n + 2, (n, label)
            assert is_solvable(alg) and not is_nilpotent(alg), (n, label)
            assert nilradical_equals(alg, n + 1), (n, label)
            count += 1
    _line("7 (solvable structure)", True,
          f"{count} classified algebras: dim n+2, solvable non-nilpotent, nilradical confirmed")


def test_criterion_8_conjecture_suite():
    for n in (5, 6, 7, 8, 9):
        rep = run_scenario("conj-i", n, 0)
        if rep.verdict != "pass":
            _line("8 (conjecture)", False,
                  f"counterexample at variant A n={n}: {rep.details} transcript={rep.transcript}")
    for n in (5, 7, 9):
        rep = run_scenario("conj-ii", n, 0)
        if rep.verdict != "pass":
            _line("8 (conjecture)", False,
                  f"counterexample at variant B n={n}: {rep.details} transcript={rep.transcript}")
    _line("8 (conjecture)", True,
          "50 random tuples per n: variant A at n=5..9 and variant B at n=5,7,9 all eliminated")


def _oracle_rref(rows, ncols):
    rows = [list(r) for r in rows if any(r)]
    basis = []
    for vec in rows:
        for bvec in basis:
            lead = next(i for i, c in enumerate(bvec) if c)
            if vec[lead]:
                f = vec[lead] / bvec[lead]
                vec = [a - f * b for a, b in zip(vec, bvec)]
        if any(vec):
            basis.append(vec)
    return basis


def test_criterion_9_oracle_equivalence_suite():
    rng = random.Random(99)
    checked = 0
    for _ in range(14):
        d = rng.randint(1, 4)
        tensor = tuple(tuple(tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.4 else Fraction(0)
                                   for _ in range(d)) for _ in range(d)) for _ in range(d))
        alg = from_dense(tuple(f"e{i}" for i in range(d)), tensor)

        # derivation space vs naive assembly over all d^2 unknowns
        rows = []
        for i in range(d):
            for j in range(d):
                for m in range(d):
                    row = [Fraction(0)] * (d * d)
                    for k in range(d):
                        row[k * d + m] += tensor[i][j][k]
                    for p in range(d):
                        row[i * d + p] -= tensor[p][j][m]
                    for q in range(d):
                        row[j * d + q] -= tensor[i][q][m]
                    rows.append(row)
        naive_rank = len(_oracle_rref(rows, d * d))
        space = derivation_space(alg)
        assert space.dimension == d * d - naive_rank
        from leibnizalg.derivations import is_derivation

        assert all(is_derivation(alg, m) for m in space.basis)

        # right annihilator vs brute-force kernel over all coordinate probes
        ann = right_annihilator(alg)
        kern_rows = []
        for i in range(d):
            for k in range(d):
                kern_rows.append([tensor[i][j][k] for j in range(d)])
        kern_rank = len(_oracle_rref(kern_rows, d))
        assert ann.dim == d - kern_rank

        # lower central series vs brute-force span closure
        units = [[Fraction(int(j == i)) for j in range(d)] for i in range(d)]
        current = units
        dims = [d]
        while True:
            gens = [table_bracket(alg.table, u, e, Fraction(0)) for u in current for e in units]
            basis = _oracle_rref(gens, d)
            rank = len(basis)
            dims.append(rank)
            if rank == dims[-2] or rank == 0:
                break
            current = basis
        want = tuple(dims if dims[-1] == 0 else dims[:-1])
        got = series_dims(lower_central_series(alg))
        if want[-1] == want[-2] if len(want) > 1 else False:
            want = want[:-1]
        assert got == want, (tensor, got, want)
        checked += 1
    _line("9 (oracle equivalence)", True,
          f"{checked} random algebras of dim <= 4: derivations, annihilator, series all agree")
