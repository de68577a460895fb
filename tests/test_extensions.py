import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from leibnizalg import algebra
from leibnizalg.algebra import (
    Algebra,
    algebra_from_products,
    is_lie,
    is_nilpotent,
    is_solvable,
    leibniz_check,
    lower_central_series,
    nilradical_equals,
    series_dims,
)
from leibnizalg.extensions import (
    ConstraintSystem,
    Memo,
    apply_basis_change,
    build_extension_problem,
    chain_rows,
    conjecture_check,
    diagonal_branches,
    eliminate,
    forced_annihilator_span,
    generate_constraints,
    instantiate,
    int_star_change,
    replay,
    resolved_assignments,
)
from leibnizalg.families import (
    ConstructionError,
    make_A_algebra,
    make_B_algebra,
    make_F1,
    make_F1s,
    make_F2,
    make_F3,
    make_SolvA,
    make_SolvB,
)
from leibnizalg.poly import Poly, PolyRing
from leibnizalg.verify import sample_graded_alphas, sample_solv_bs

from dense_algebra import (dense, dense_matrix, from_dense, mat_identity, mat_mul, rational_rows, scaled_rows,
                           sparse_inverse, sparse_rows)


def abelian(d):
    zero = tuple(tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d)) for _ in range(d))
    return from_dense(tuple(f"e{i}" for i in range(d)), zero)


def test_build_creates_expected_unknowns():
    prob = build_extension_problem(make_F1(5, {}, 1))
    assert {f"beta{j:02d}" for j in range(6)} <= set(prob.unknown_names)
    assert {f"gamma{j:02d}" for j in range(6)} <= set(prob.unknown_names)
    assert {f"delta{j:02d}" for j in range(6)} <= set(prob.unknown_names)
    assert "w02c00" in prob.unknown_names


def test_build_rejects_non_derivation_template():
    ring = PolyRing(("p",))
    one = ring.const(1)
    bad = tuple(((i, one),) for i in range(6))
    with pytest.raises(ValueError):
        build_extension_problem(make_F1(5, {}, 1), template=bad)


def test_annihilator_span_f1():
    from leibnizalg.algebra import Subspace

    rows = forced_annihilator_span(make_F1(5, {}, 1))
    span = Subspace(6, rows)
    assert span.dim == 4
    for i in (2, 3, 4, 5):
        assert span.contains(((i, Fraction(1)),))
        assert ((i, 1),) in rows


def test_generate_constraints_derives_the_textbook_deductions():
    prob = build_extension_problem(make_F1(5, {}, 1))
    hyp = diagonal_branches(prob)[0]
    out = eliminate(generate_constraints(prob, hypotheses=hyp))
    assert out.kind == "contradiction"
    assert out.witness.as_rational() != 0
    assigned = {name: value for name, value, _ in out.assignments}
    assert "beta00" in assigned and assigned["beta00"].is_zero()


def test_abelian_zero_template_leaves_only_quadratics():
    N = abelian(3)
    ring = PolyRing(())
    zero_template = ((), (), ())
    prob = build_extension_problem(N, template=zero_template)
    system = generate_constraints(prob)
    assert all(eq.degree() >= 2 for eq in system.equations)
    out = eliminate(system)
    assert out.kind == "family"
    assert not out.assignments  # nothing linear to solve
    assert all(eq.degree() >= 2 for eq in out.residual)


def test_contradiction_replay_reproduces_witness():
    prob = build_extension_problem(make_F1s(6, 3))
    hyp = diagonal_branches(prob)[0]
    system = generate_constraints(prob, hypotheses=hyp)
    out = eliminate(system)
    assert out.kind == "contradiction"
    reduced = replay(system, out)
    assert out.witness in reduced


def test_family_replay_matches_residual():
    prob = build_extension_problem(make_F2(5, {}, 1))
    hyp = diagonal_branches(prob)[0]
    system = generate_constraints(prob, hypotheses=hyp)
    out = eliminate(system)
    assert out.kind == "family" and out.residual == ()
    assert replay(system, out) == ()


def test_replay_substitutes_without_scanning_variables(monkeypatch):
    # Poly.substitute returns an equation without the name as it is, so
    # replay needs no per-equation variable scan
    prob = build_extension_problem(make_F2(9, {}, 1))
    system = generate_constraints(prob, hypotheses=diagonal_branches(prob)[0])
    out = eliminate(system)
    assert out.kind == "family" and out.residual == ()
    calls = []
    variables = Poly.variables
    monkeypatch.setattr(Poly, "variables", lambda self: calls.append(1) or variables(self))
    assert replay(system, out) == ()
    assert not calls


def test_resolved_assignments_contain_only_free_names():
    prob = build_extension_problem(make_F2(5, {}, 1))
    out = eliminate(generate_constraints(prob, hypotheses=diagonal_branches(prob)[0]))
    free = set(out.free)
    for value in resolved_assignments(out).values():
        assert set(value.variables()) <= free


def test_instantiated_family_is_a_leibniz_algebra():
    prob = build_extension_problem(make_F2(5, {}, 1))
    out = eliminate(generate_constraints(prob, hypotheses=diagonal_branches(prob)[0]))
    rng = random.Random(1)
    vals = {name: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for name in out.free}
    alg = instantiate(prob, out, vals)
    assert leibniz_check(alg).ok
    assert is_solvable(alg) and not is_nilpotent(alg)
    assert nilradical_equals(alg, 6)


def test_diagonal_branches_cover_non_nilpotency():
    # one branch for the rank-one families, none for a characteristically
    # nilpotent nilradical
    prob = build_extension_problem(make_F2(5, {}, 1))
    assert len(diagonal_branches(prob)) == 1
    prob2 = build_extension_problem(make_F1(5, {3: 1, 4: 1}, 0))
    assert diagonal_branches(prob2) == []


def test_diagonal_branches_reject_a_nonlinear_diagonal():
    prob = build_extension_problem(make_F2(5, {}, 1))
    rows = [dict(row) for row in prob.template]
    a = prob.ring.var(prob.template_params[0])
    rows[2][2] = rows[2][2] + a * a
    bent = replace(prob, template=tuple(tuple(sorted(row.items())) for row in rows))
    with pytest.raises(ValueError):
        diagonal_branches(bent)


def test_diagonal_branches_reject_a_non_triangular_template():
    """The Heisenberg algebra [x, y] = z = -[y, x] has the swap x <-> y
    among its derivations: zero diagonal, not nilpotent. Branches read off
    the diagonal alone would miss it, so the case split raises instead."""
    heisenberg = algebra_from_products(("x", "y", "z"), {(0, 1): [(2, 1)], (1, 0): [(2, -1)]})
    with pytest.raises(ValueError, match="not upper triangular"):
        diagonal_branches(build_extension_problem(heisenberg))


def test_f3_contradictions_all_branches():
    for theta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        prob = build_extension_problem(make_F3(5, *theta, 0))
        for hyp in diagonal_branches(prob):
            out = eliminate(generate_constraints(prob, hypotheses=hyp))
            assert out.kind == "contradiction", theta


def test_identity_change_is_noop():
    a = make_F1(5, {}, 1)
    out = apply_basis_change(a, sparse_rows(mat_identity(6)))
    assert dense(out) == dense(a)


def test_scaling_top_basis_vector():
    a = make_F1(5, {}, 1)
    rows = [[Fraction(1 if i == j else 0) for j in range(6)] for i in range(6)]
    rows[5][5] = Fraction(2)
    out = apply_basis_change(a, sparse_rows(rows))
    # coefficients into e_5 halve, products of e_5 double (none here)
    assert dense(out)[4][0][5] == Fraction(1, 2)
    assert dense(out)[0][1][5] == Fraction(1, 2)


def test_change_of_a_non_leibniz_table_raises():
    a = make_F1(5, {}, 1)
    t = [[list(cell) for cell in plane] for plane in dense(a)]
    t[2][1][4] = Fraction(1)
    with pytest.raises(RuntimeError, match="Leibniz identity"):
        apply_basis_change(from_dense(a.labels, t), sparse_rows(mat_identity(6)))


def test_singular_change_rejected():
    zero = ((),) * 6
    proportional = (((0, 1),), ((1, 1),), ((2, 1), (3, 1)), ((2, Fraction(-1, 2)), (3, Fraction(-1, 2))),
                    ((4, 1),), ((5, 1),))
    for rows in (zero, proportional):
        with pytest.raises(ValueError, match="singular"):
            sparse_inverse(rows)
        with pytest.raises(ValueError, match="singular"):
            apply_basis_change(make_F1(5, {}, 1), rows)


def test_change_of_wrong_size_rejected():
    with pytest.raises(ValueError, match="wrong dimension"):
        apply_basis_change(make_F1(5, {}, 1), sparse_rows(mat_identity(5)))
    with pytest.raises(ValueError, match="out of range"):
        apply_basis_change(make_F1(5, {}, 1), sparse_rows(mat_identity(6))[:5] + (((6, 1),),))


def test_change_preserves_isomorphism_invariants():
    rng = random.Random(5)
    a = make_SolvA(5, 2, {1: 1}, Fraction(1, 3), {2: 1, 5: Fraction(-2, 7)})
    rows = [[Fraction(1 if i == j else 0) for j in range(7)] for i in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            rows[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    moved = apply_basis_change(a, sparse_rows(rows))
    assert leibniz_check(moved).ok
    assert is_lie(moved) == is_lie(a)
    assert series_dims(lower_central_series(moved)) == series_dims(lower_central_series(a))
    assert is_solvable(moved) and not is_nilpotent(moved)


def star_matrix(n: int, variant: str, b) -> tuple:
    """The star change as sparse Fraction rows: ``int_star_change`` over its den."""
    return rational_rows(int_star_change(n, variant, b))


def test_star_change_trivial_for_zero_b():
    assert int_star_change(6, "A", {}) == (tuple(((i, 1),) for i in range(8)), 1)
    assert dense_matrix(star_matrix(6, "A", {}), 8).rows == mat_identity(8).rows


def test_star_change_recursion_values_variant_a():
    ch = dense_matrix(star_matrix(5, "A", {2: Fraction(3)}), 7)
    # A_2 = -3, A_3 = (1/(1-3))(0 + A_2 b_2) = 9/2
    assert ch.rows[2][3] == Fraction(-3)
    assert ch.rows[2][4] == Fraction(9, 2)


def test_star_change_recursion_values_variant_b():
    ch = dense_matrix(star_matrix(7, "B", {2: Fraction(1)}), 9)
    assert ch.rows[2][3] == Fraction(-1)   # A_2
    assert ch.rows[2][4] == Fraction(1, 2)  # A_3 = b_2^2/2


def test_star_change_unitriangular_invertible():
    rows, den = int_star_change(7, "B", {2: Fraction(2), 4: Fraction(-1, 3)})
    assert all(rows[i][0] == (i, den) for i in range(9))
    ch = rational_rows((rows, den))
    assert mat_mul(dense_matrix(ch, 9), dense_matrix(sparse_inverse(ch), 9)).rows == mat_identity(9).rows


def test_conjecture_trivial_and_hand_case():
    assert conjecture_check(6, "A", 1, {1: 1}, 0, {}).eliminated
    assert conjecture_check(5, "A", 1, {1: 1}, 0, {2: Fraction(1)}).eliminated


def test_conjecture_random_samples():
    rng = random.Random(17)

    def rnd():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    res = conjecture_check(6, "A", 1, {1: 1}, 0, {k: rnd() for k in range(2, 7)})
    assert res.eliminated
    res = conjecture_check(7, "B", 1, {1: 1, 2: -2}, 0, {2: rnd(), 4: rnd(), 6: rnd()})
    assert res.eliminated


@pytest.mark.parametrize("variant,n,alphas,b", [
    ("A", 7, {1: 1}, {2: Fraction(1, 3), 5: Fraction(-2), 7: Fraction(5, 7)}),
    ("B", 7, {1: 1, 2: -2}, {2: Fraction(1, 3), 4: Fraction(-2), 6: Fraction(5, 7)}),
])
def test_conjecture_check_scales_each_algebra_once(monkeypatch, variant, n, alphas, b):
    """A trial that eliminates runs on integers: it builds no Fraction member
    and scales no table, wherever the package binds int_table. On a frame
    new to the memo the frame builds N and scales it once (its x rows and
    the member's integer table are built over N's integer table), and
    builds the b = 0 target, which is handed its integer table, so its
    validation scales nothing; on a frame the memo holds, the trial builds
    no algebra and scales nothing. No transformed algebra is built, and the
    star change, the chain rows and the member's table are integers from
    the start."""
    scale = algebra.int_table
    calls, built = [], []

    def counted(table):
        calls.append(table)
        return scale(table)

    init = Algebra.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "leibnizalg" and getattr(mod, "int_table", None) is scale:
            monkeypatch.setattr(mod, "int_table", counted)
    monkeypatch.setattr(Algebra, "__init__", counted_init)
    memo = Memo()
    for dims in ([n + 1, n + 2], []):  # cold, then warm
        calls.clear()
        built.clear()
        assert conjecture_check(n, variant, 1, alphas, 0, b, memo).eliminated
        assert [alg.dim for alg in built] == dims
        assert calls == [alg.table for alg in built[:1]]  # N alone


def counted_checks(monkeypatch) -> dict:
    """Count leibniz_check and is_lie calls wherever the package binds them."""
    counts = {}
    for fname in ("leibniz_check", "is_lie"):
        fn = getattr(algebra, fname)
        counts[fname] = 0

        def counted(alg, fn=fn, fname=fname):
            counts[fname] += 1
            return fn(alg)

        for name, mod in list(sys.modules.items()):
            if name.partition(".")[0] == "leibnizalg" and getattr(mod, fname, None) is fn:
                monkeypatch.setattr(mod, fname, counted)
    return counts


@pytest.mark.parametrize("variant,n,alphas,b", [
    ("A", 7, {1: 1}, {2: Fraction(1, 3), 5: Fraction(-2), 7: Fraction(5, 7)}),
    ("B", 7, {1: 1, 2: -2}, {2: Fraction(1, 3), 4: Fraction(-2), 6: Fraction(5, 7)}),
])
def test_eliminating_trials_are_certified_by_the_image_check(monkeypatch, variant, n, alphas, b):
    """An eliminating trial makes no identity check of its own: its member
    is isomorphic to the b = 0 member, which a frame new to the memo
    validates once (one leibniz_check, one is_lie) and a frame the memo
    holds does not validate again."""
    counts = counted_checks(monkeypatch)
    memo = Memo()
    for want in (1, 0):  # cold, then warm
        counts.update(dict.fromkeys(counts, 0))
        assert conjecture_check(n, variant, 1, alphas, 0, b, memo).eliminated
        assert counts == {"leibniz_check": want, "is_lie": want}


def test_a_trial_that_does_not_eliminate_validates_its_member(monkeypatch):
    """With a_1 != 0 the trial leaves a residual tail: the member is
    validated once, before the result is returned, on a cold frame (with
    the target) and on a warm one (alone)."""
    counts = counted_checks(monkeypatch)
    memo = Memo()
    for want in (2, 1):  # cold, then warm
        counts.update(dict.fromkeys(counts, 0))
        res = conjecture_check(6, "A", 3, {1: 1}, 1, {2: Fraction(1)}, memo)
        assert not res.eliminated and res.residual_b == {6: Fraction(1, 2)}
        assert counts == {"leibniz_check": want, "is_lie": want}


@pytest.mark.parametrize("variant,n", [("A", 7), ("A", 8), ("B", 7), ("B", 9)])
def test_conjecture_check_raises_the_members_error_off_the_admitted_bs(variant, n):
    """A b_k off the admitted coordinates breaks the Leibniz identity of the
    member. conjecture_check raises the ConstructionError that make_SolvA /
    make_SolvB raise on the same arguments (family, first failing triple,
    defect), on a frame new to the memo and on one it holds, for one such
    b_k and for two together."""
    memo = Memo()
    rng = random.Random(f"off-admitted:{variant}:{n}")
    checked = 0
    for r in range(1, (n - 3 if variant == "A" else n - 4) + 1):
        alphas = sample_graded_alphas(variant, n, r, rng, memo)
        admitted = sample_solv_bs(variant, n, r, alphas, rng, memo)
        off = [k for k in range(2, n + 1 if variant == "A" else n) if k not in admitted][:2]
        for b in [{k: Fraction(1, 3)} for k in off] + [dict.fromkeys(off, Fraction(1, 3))] * (len(off) == 2):
            with pytest.raises(ConstructionError) as want:
                make_SolvA(n, r, alphas, 0, b) if variant == "A" else make_SolvB(n, r, alphas, b)
            with pytest.raises(ConstructionError) as got:
                conjecture_check(n, variant, r, alphas, 0, b, memo)
            assert str(got.value) == str(want.value)
            assert "Leibniz identity fails" in str(got.value)
            checked += len(b)
    assert checked >= 4


def test_conjecture_check_raises_the_members_error_when_the_frame_fails_too():
    """With a_1 = 1 off what the frame admits, the b = 0 member fails too,
    on the same triple with another defect. conjecture_check still raises
    the member's own error, as make_SolvA does, not the frame's."""
    n, r, alphas, a1, b = 6, 1, {1: -2, 2: 1}, 1, {3: Fraction(1, 3)}
    with pytest.raises(ConstructionError) as want:
        make_SolvA(n, r, alphas, a1, b)
    with pytest.raises(ConstructionError) as frame:
        make_SolvA(n, r, alphas, a1, {})
    assert str(frame.value) != str(want.value)
    with pytest.raises(ConstructionError) as got:
        conjecture_check(n, "A", r, alphas, a1, b)
    assert str(got.value) == str(want.value)


def test_conjecture_reports_residual_when_transformation_cannot_work():
    # with a nonzero a_1 the transformation does not account for the
    # correction terms: treated as data, not an error
    res = conjecture_check(6, "A", 3, {1: 1}, 1, {2: Fraction(1)})
    assert not res.eliminated


def test_chain_restore_fixes_adapted_basis():
    b = {2: Fraction(1, 2), 4: Fraction(-2, 3)}
    alg = make_SolvB(5, 1, {1: 1}, b)
    moved = apply_basis_change(alg, star_matrix(5, "B", b))
    target = make_SolvB(5, 1, {1: 1}, {})
    assert dense(moved) != dense(target)
    restore = rational_rows(chain_rows(moved.scaled, 5, "B", scaled_rows(sparse_rows(mat_identity(7)))))
    assert dense(apply_basis_change(moved, restore)) == dense(target)
    rows = rational_rows(chain_rows(alg.scaled, 5, "B", int_star_change(5, "B", b)))
    assert dense(apply_basis_change(alg, rows)) == dense(target)


@pytest.mark.parametrize("nilradical", [make_F1s(6, 3), make_F2(5, {}, 1)], ids=["contradiction", "family"])
def test_elimination_keeps_integer_coefficients(nilradical):
    prob = build_extension_problem(nilradical)
    system = generate_constraints(prob, hypotheses=diagonal_branches(prob)[0])
    out = eliminate(system)

    def all_int(p):
        return all(type(c) is int for c in p._terms.values())

    assert all(map(all_int, system.equations))
    outputs = (out.witness,) if out.kind == "contradiction" else out.residual
    assert all(map(all_int, outputs))
    for var, value, source in out.assignments:
        coeff, rest = source.linear_coefficient(var)
        assert value == rest * (Fraction(-1) / coeff)
        if coeff in (1, -1):
            assert all_int(value)


@pytest.mark.parametrize("nilradical", [make_F1s(6, 3), make_F2(5, {}, 1)], ids=["contradiction", "family"])
def test_elimination_reads_one_pivot_per_step_and_no_variable_names(nilradical, monkeypatch):
    prob = build_extension_problem(nilradical)
    system = generate_constraints(prob, hypotheses=diagonal_branches(prob)[0])
    calls = {"linear_coefficient": 0, "variables": 0}

    def counted(name):
        method = getattr(Poly, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Poly, name, counted(name))
    out = eliminate(system)
    assert out.assignments
    assert calls == {"linear_coefficient": len(out.assignments), "variables": 0}


@pytest.mark.parametrize("value", [0.1, 0.5, "3/4", PolyRing(("p",)).var("p")],
                         ids=["float", "float-exact", "str", "Poly"])
def test_non_rational_values_raise_type_error(value):
    prob = build_extension_problem(make_F2(5, {}, 1))
    out = eliminate(generate_constraints(prob, hypotheses=diagonal_branches(prob)[0]))
    name = out.free[0]
    message = f"expected int or Fraction entries, got {type(value).__name__}"
    with pytest.raises(TypeError, match=message):
        instantiate(prob, out, {name: value})
    with pytest.raises(TypeError, match=message):
        int_star_change(5, "A", {2: value})
    assert dense(instantiate(prob, out, {name: 2})) == dense(instantiate(prob, out, {name: Fraction(2)}))


def test_non_unit_pivots_substitute_without_fractions(monkeypatch):
    """Pivots 2a + b - 1 and -2d + ... are substituted in integers: eliminate
    makes no Fraction beyond the ones that building its two logged values,
    a := -(b - 1)/2 and d := (b^2 c - b c - 2)/2, makes alone, and replaying
    the logged Fraction values gives the same residual."""
    ring = PolyRing(("a", "b", "c", "d"))
    a, b, c, d = (ring.var(n) for n in ring.names)
    system = ConstraintSystem(ring, (2 * a + b - 1, a * a * c + 3 * b - d, a * b * c + d + 1))
    made = {"fractions": 0}
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made["fractions"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    out = eliminate(system)
    during, made["fractions"] = made["fractions"], 0
    _ = (1 - b) * Fraction(1, 2), (b * b * c - b * c - 2) * Fraction(1, 2)  # the logged values alone
    monkeypatch.undo()
    assert during == made["fractions"] > 0
    assert [(name, value) for name, value, _ in out.assignments] == [
        ("a", (1 - b) * Fraction(1, 2)), ("d", (b * b * c - b * c - 2) * Fraction(1, 2))]
    assert out.kind == "family" and out.free == ("b", "c")
    assert out.residual == (b * b * c - 12 * b - c - 4,) == replay(system, out)
