"""Independent oracles for the product-table routines and the elimination.

The bracket, the Leibniz defect and the derivation equation are each written
once in the library. These tests check them against test-local dense loops
over the structure tensor (``dense_algebra.dense``), the bracket also against
the dense ``table_bracket`` on random sparse tables with ``Fraction`` and
``Poly`` scalars, and the derivation equation against a brute-force
derivation check built from ``table_bracket`` and ``mat_apply``; the non-existence
verdicts are checked against reduced Groebner bases computed by sympy
(Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 and 4: a
system has no solution over the algebraic closure iff its reduced Groebner
basis is [1]); the classification
families are instantiated at random rational points and each point is checked
with the dense triple loop, which covers elimination and back-substitution
without the library's own Leibniz check.

The library evaluates ``leibniz_check``, ``is_lie`` and
``apply_basis_change`` on integers scaled to a common denominator;
Hypothesis checks each against a test-local ``Fraction`` reference on random
rational inputs with mixed denominators. The library reads nilpotency off
the diagonal of an upper-triangular map; the dense ``Fraction`` powering of
``mat_is_nilpotent`` checks that reading on random rational combinations of
every upper-triangular derivation space of the families at n = 5..9, and
the nil-independence count against the number of non-nilpotency branches
for every nilradical the extension scenarios build at n = 5..8.
``apply_basis_change`` walks only nonzero entries, so it is also checked on
mostly-zero matrices and on the star and chain-restore changes of the
conjectures; the integer table it hands its result must be ``int_table`` of
the result's Fraction table. A conjecture trial inverts nothing: its
residual tail (a forward substitution over the star change) and its image
check (``carries_products``: the re-adapted rows carry the b = 0 member's
products) are checked against the two-step Fraction path (the star change,
then the chain restore of its image) on random admissible SolvA/SolvB
members at n = 5..9, a_1 != 0 included, and the image check against
``apply_basis_change`` on random unitriangular changes, with one target
entry perturbed as well. The trial runs on integers (the member's integer
table, the star change as integer rows, an integer tail test and the image
check on integer tables); at every r of A at n = 5..12 and of B at odd
n = 5..11 it must give the dense Fraction route's verdict and residual, and
fail on a perturbed target and on a star change stopped one entry early,
and the integer tail test must match Fraction forward substitution on
random unitriangular changes. ``int_inverse``, which inverts each change, and
its ``Fraction`` form ``sparse_inverse`` are checked by multiplying T T^-1
out in Fractions on the same matrices (T inv = den I for the integer form),
and must raise on singular ones. ``derivation_space`` is
checked against sympy's ``Matrix.nullspace`` of the derivation equation
written out from the structure tensor, for every family. Its sparse integer
rows, the annihilator span and the constraint equations of the extension
problem are checked against dense references in ``dense_algebra``: for every
family at n = 5..12, on random tables, and for every system that the
non-existence and classification scenarios generate at n = 5..8. The
constraint equations are built from integer terms scaled to one common
denominator, so the random tables also draw non-integral templates and
``Fraction`` hypotheses; the graded alpha relations, built the same way, are
checked against the ``Poly`` walk of ``leibniz_defects`` for every admissible
(n, r) up to 12.
"""

import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from leibnizalg import extensions, verify
from leibnizalg.algebra import (Algebra, algebra_from_products, bracket, int_table, is_lie, leibniz_check,
                                leibniz_defects, product_table)
from leibnizalg.derivations import derivation_space, diagonal_functionals, is_derivation, max_nil_independent
from leibnizalg.extensions import (apply_basis_change, build_extension_problem, carries_products, chain_rows,
                                   conjecture_check, diagonal_branches, eliminate, forced_annihilator_span,
                                   generate_constraints, instantiate, int_star_change, star_change, _tail_vanishes)
from leibnizalg.families import (ConstructionError, FamilySpec, check_graded_range, graded_alpha_count,
                                 graded_products, make_A_algebra, make_B_algebra, make_F1, make_F1s, make_F2, make_F2j,
                                 make_F3, make_family, make_L1, make_Ln, make_Qn, make_SolvA, make_SolvB,
                                 SolvableFrame)
from leibnizalg.linalg import int_inverse, is_upper_triangular, nullspace, unitriangular_solve
from leibnizalg.poly import PolyRing
from leibnizalg.verify import sample_graded_alphas, sample_solv_bs

from dense_algebra import (Matrix, dense, dense_annihilator_coordinates, dense_annihilator_span, dense_constraints,
                           dense_derivation_space, dense_matrix, from_dense, in_linear_span, mat_add, mat_apply,
                           mat_identity, mat_is_nilpotent, mat_mul, mat_scaled, mat_zeros, rational_rows,
                           reference_solvable_algebra, scaled_rows, solvable_products, sparse, sparse_inverse,
                           sparse_rows, table_bracket)


def random_algebra(rng: random.Random, dim: int, density: float = 0.3) -> Algebra:
    """Arbitrary bilinear product with small rational structure constants."""
    tensor = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
                for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return from_dense(tuple(f"e{i}" for i in range(dim)), tensor)


def sample_algebras():
    rng = random.Random(20240607)
    algs = [random_algebra(rng, rng.randint(1, 4), rng.choice((0.15, 0.3, 0.6))) for _ in range(30)]
    algs += [make_F1(5, {}, 1), make_F1(6, {4: Fraction(2)}, 0), make_F2(5, {}, 1), make_F3(5, 1, 0, 0, 1),
             make_L1(5), make_Ln(5), make_Qn(5)]
    return algs


# -- the Leibniz defect -------------------------------------------------------------


def dense_leibniz_failures(alg: Algebra):
    t = dense(alg)
    d = alg.dim
    failures = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                defect = tuple(
                    sum((t[i][j][m] * t[m][k][s] - t[i][k][m] * t[m][j][s] - t[j][k][m] * t[i][m][s]
                         for m in range(d)), Fraction(0))
                    for s in range(d)
                )
                if any(defect):
                    failures.append((i, j, k, defect))
    return tuple(failures)


def test_leibniz_check_matches_dense_triple_loop():
    saw_fail = saw_pass = False
    for alg in sample_algebras():
        want = dense_leibniz_failures(alg)
        report = leibniz_check(alg)
        assert report.failures == want
        assert report.ok == (not want)
        saw_fail |= not report.ok
        saw_pass |= report.ok
    assert saw_fail and saw_pass


# -- the bracket ------------------------------------------------------------------------


def test_bracket_matches_dense_bilinear_sum():
    rng = random.Random(3)
    for alg in sample_algebras():
        d = alg.dim
        t = dense(alg)
        for _ in range(5):
            u = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d)]
            v = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d)]
            want = tuple(sum((u[i] * v[j] * t[i][j][k] for i in range(d) for j in range(d)),
                             Fraction(0)) for k in range(d))
            assert bracket(alg.table, sparse(u), sparse(v)) == sparse(want)


def poly_scalars(ring):
    """s, t-linear Polys with int and Fraction coefficients, zero included."""
    return st.builds(lambda a, b, c: ring.var("s") * a + ring.var("t") * b + c,
                     small_entries, small_entries, small_entries)


@pytest.mark.parametrize("kind", ["Fraction", "Poly"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_bracket_matches_table_bracket_on_random_sparse_tables(kind, data):
    """The sparse bracket against the dense loop, on random sparse tables and
    dense vectors whose entries are rationals or Polys."""
    ring = PolyRing(("s", "t"))
    scalars, zero = (small_entries, Fraction(0)) if kind == "Fraction" else (poly_scalars(ring), ring.zero)
    d = data.draw(st.integers(1, 5))
    products = {(i, j): data.draw(st.lists(st.tuples(st.integers(0, d - 1), scalars), max_size=3))
                for i in range(d) for j in range(d)}
    table = product_table(products, d)
    u, v = (data.draw(st.lists(scalars, min_size=d, max_size=d)) for _ in range(2))
    assert bracket(table, sparse(u), sparse(v)) == sparse(table_bracket(table, u, v, zero))


# -- the derivation equation -------------------------------------------------------------


def brute_force_is_derivation(alg: Algebra, mat: Matrix) -> bool:
    """d([e_i,e_j]) == [d(e_i),e_j] + [e_i,d(e_j)] for every basis pair."""
    d, zero = alg.dim, Fraction(0)
    units = [tuple(Fraction(int(j == i)) for j in range(d)) for i in range(d)]
    for ei in units:
        for ej in units:
            lhs = mat_apply(mat, table_bracket(alg.table, ei, ej, zero))
            left = table_bracket(alg.table, mat_apply(mat, ei), ej, zero)
            right = table_bracket(alg.table, ei, mat_apply(mat, ej), zero)
            if any(a - b - c for a, b, c in zip(lhs, left, right)):
                return False
    return True


def perturbed(mat: Matrix, rng: random.Random) -> Matrix:
    rows = [list(r) for r in mat.rows]
    i, j = rng.randrange(mat.nrows), rng.randrange(mat.ncols)
    rows[i][j] = rows[i][j] + Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
    return Matrix(tuple(tuple(r) for r in rows))


def test_is_derivation_matches_brute_force():
    rng = random.Random(11)
    verdicts = set()
    for alg in sample_algebras():
        space = derivation_space(alg)
        candidates = [dense_matrix(m, alg.dim) for m in space.basis]
        candidates += [perturbed(m, rng) for m in candidates]
        candidates += [perturbed(mat_zeros(alg.dim, alg.dim), rng) for _ in range(3)]
        candidates.append(mat_identity(alg.dim))
        for mat in candidates:
            got = is_derivation(alg, sparse_rows(mat))
            assert got == brute_force_is_derivation(alg, mat)
            verdicts.add(got)
        for mat in space.basis:
            assert is_derivation(alg, mat)
    assert verdicts == {True, False}


def test_symbolic_is_derivation_matches_brute_force():
    rng = random.Random(5)
    verdicts = set()
    for alg in sample_algebras():
        space = derivation_space(alg)
        if not space.basis:
            continue
        ring = space.ring()
        generic = space.generic_matrix(ring)
        assert is_derivation(alg, generic)
        dense_generic = dense_matrix(generic, alg.dim, ring.zero)
        assert brute_force_is_derivation(alg, dense_generic)
        rows = [list(r) for r in dense_generic.rows]
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        rows[i][j] = rows[i][j] + ring.var(space.param_names[0]) * Fraction(1, 2) + 1
        off = Matrix(tuple(tuple(r) for r in rows))
        got = is_derivation(alg, sparse_rows(off))
        assert got == brute_force_is_derivation(alg, off)
        verdicts.add(got)
    assert False in verdicts


small_entries = st.one_of(st.just(0), st.integers(-3, 3), st.builds(Fraction, st.integers(-7, 7), st.integers(1, 12)))


@st.composite
def sparse_tables(draw, max_dim=6):
    """Sparse random products over d <= 6 basis vectors, with int and
    Fraction coefficients: arbitrary (most fail the Leibniz identity) or
    two-step nilpotent (products of e_0..e_{s-1} land in span(e_s..e_{d-1}),
    every other product is zero; always Leibniz, with many derivations)."""
    d = draw(st.integers(1, max_dim))
    s = draw(st.one_of(st.none(), st.integers(0, d)))
    products = {}
    for i in range(d if s is None else s):
        for j in range(d if s is None else s):
            for k in range(0 if s is None else s, d):
                if draw(st.integers(0, 3)) == 0:
                    products.setdefault((i, j), []).append((k, draw(nonzero_rationals)))
    return algebra_from_products(tuple(f"e{i}" for i in range(d)), products)


@st.composite
def candidate_matrices(draw, alg: Algebra) -> Matrix:
    """A d x d matrix to test as a derivation of ``alg``: sparse with int and
    Fraction entries and zero rows, a random element of the derivation space
    with int and Fraction weights, or the generic derivation with Poly
    entries; the last two optionally perturbed in one entry."""
    d = alg.dim
    kind = draw(st.sampled_from(("sparse", "derivation", "symbolic")))
    if kind == "sparse":
        return Matrix(tuple(tuple(draw(small_entries) for _ in range(d)) if draw(st.booleans()) else (0,) * d
                            for _ in range(d)))
    space = derivation_space(alg)
    if kind == "derivation":
        rows = [[0] * d for _ in range(d)]
        for mat in space.basis:
            w = draw(small_entries)
            for i, row in enumerate(mat):
                for j, c in row:
                    rows[i][j] += w * c
        bump = draw(nonzero_rationals)
    else:
        ring = PolyRing(space.param_names + ("s",))
        rows = [list(r) for r in dense_matrix(space.generic_matrix(ring), d, ring.zero).rows]
        bump = ring.var("s") * draw(small_entries) + draw(nonzero_rationals)
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if draw(st.booleans()):
        rows[i][j] = rows[i][j] + bump
    return Matrix(tuple(tuple(r) for r in rows))


@given(sparse_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_is_derivation_matches_brute_force(alg, data):
    mat = data.draw(candidate_matrices(alg))
    assert is_derivation(alg, sparse_rows(mat)) == brute_force_is_derivation(alg, mat)
    d = alg.dim
    # a wrong row count; a column past the end or negative in the last row
    for rows in (((),) * (d + 1), ((),) * (d - 1), ((),) * (d - 1) + (((d, 1),),),
                 ((),) * (d - 1) + (((-1, 1),),)):
        with pytest.raises(ValueError):
            is_derivation(alg, rows)


# -- the elimination ------------------------------------------------------------------------


def groebner_basis(sympy, system):
    syms = sympy.symbols(system.ring.names)

    def expr(p):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[syms[i] for i in mono])
            for mono, c in p._terms.items()
        ])

    return list(sympy.groebner([expr(e) for e in system.equations], *syms, order="grevlex").exprs)


# n = 5 unless the case says otherwise; thm39 with alpha = 1 needs odd n, so
# at n = 6 only prop32 and prop33 (s = 3, 4, 5) run
NONEXIST = {
    "prop32 F1(0,...,0,1)": lambda: make_F1(5, {}, 1),
    "prop33 F1^3": lambda: make_F1s(5, 3),
    "prop33 F1^4": lambda: make_F1s(5, 4),
    "thm39 theta=(1,0,0) alpha=1": lambda: make_F3(5, 1, 0, 0, 1),
    "thm39 theta=(0,1,0) alpha=1": lambda: make_F3(5, 0, 1, 0, 1),
    "thm39 theta=(0,0,1) alpha=1": lambda: make_F3(5, 0, 0, 1, 1),
    "n=6 prop32 F1(0,...,0,1)": lambda: make_F1(6, {}, 1),
    "n=6 prop33 F1^3": lambda: make_F1s(6, 3),
    "n=6 prop33 F1^4": lambda: make_F1s(6, 4),
    "n=6 prop33 F1^5": lambda: make_F1s(6, 5),
}


@pytest.mark.parametrize("case", sorted(NONEXIST))
def test_contradiction_branches_have_groebner_basis_one(case):
    sympy = pytest.importorskip("sympy")
    nilradical = NONEXIST[case]()
    problem = build_extension_problem(nilradical)
    branches = diagonal_branches(problem)
    if not branches:  # no non-nilpotent action, so nothing to contradict
        assert max_nil_independent(derivation_space(nilradical)) == 0
    for hyp in branches:
        system = generate_constraints(problem, hypotheses=hyp)
        assert eliminate(system).kind == "contradiction"
        assert groebner_basis(sympy, system) == [1]


# -- the classification families ---------------------------------------------------------


FAMILY_N5 = {
    "thm35 F2(0,...,0,1)": lambda: make_F2(5, {}, 1),
    "thm37 F2^3": lambda: make_F2j(5, 3),
    "thm37 F2^4": lambda: make_F2j(5, 4),
    "thm37 F2^5": lambda: make_F2j(5, 5),
    "thm42 A r=1": lambda: make_A_algebra(5, 1, sample_graded_alphas("A", 5, 1, random.Random(42))),
    "thm45 B r=1": lambda: make_B_algebra(5, 1, sample_graded_alphas("B", 5, 1, random.Random(45))),
}


@pytest.mark.parametrize("case", sorted(FAMILY_N5))
def test_family_points_satisfy_dense_leibniz_identity(case):
    rng = random.Random(case)
    problem = build_extension_problem(FAMILY_N5[case]())
    families = 0
    for hyp in diagonal_branches(problem):
        outcome = eliminate(generate_constraints(problem, hypotheses=hyp))
        if outcome.kind != "family" or outcome.residual:
            continue
        families += 1
        for _ in range(3):
            point = {name: Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for name in outcome.free}
            alg = instantiate(problem, outcome, point)
            assert alg.dim == problem.dim
            assert dense_leibniz_failures(alg) == ()
    assert families >= 1


# -- the integer-scaled checks against Fraction references --------------------------------


nonzero_rationals = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 12))


@st.composite
def rational_algebras(draw, max_dim=4):
    """Sparse random products with mixed denominators: arbitrary (most fail
    the Leibniz identity), antisymmetrized, or graded ([e_i, e_j] only
    reaches e_k with k > max(i, j))."""
    d = draw(st.integers(1, max_dim))
    shape = draw(st.sampled_from(("arbitrary", "antisymmetric", "graded")))
    tensor = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if shape == "graded" and k <= max(i, j):
                    continue
                if shape == "antisymmetric" and j <= i:
                    continue
                if draw(st.integers(0, 2)) == 0:
                    c = draw(nonzero_rationals)
                    tensor[i][j][k] = c
                    if shape == "antisymmetric":
                        tensor[j][i][k] = -c
    return from_dense(tuple(f"e{i}" for i in range(d)), tensor)


LEIBNIZ_FAMILIES = (
    make_F1(5, {4: Fraction(2, 3)}, Fraction(-1, 2)), make_F2(5, {}, Fraction(3, 4)), make_F3(5, 1, 0, 0, 1),
    make_L1(5), make_Ln(5), make_Qn(5),
    make_family(FamilySpec("SolvA", 5, {"r": 1, "alpha1": 1, "b2": Fraction(2, 3)})),
)


@st.composite
def invertible_matrices(draw, d: int) -> Matrix:
    rows = draw(st.lists(st.lists(st.one_of(st.just(Fraction(0)), nonzero_rationals), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    mat = Matrix(tuple(tuple(r) for r in rows))
    try:
        sparse_inverse(sparse_rows(mat))
    except ValueError:
        assume(False)
    return mat


def inverse(mat: Matrix) -> Matrix:
    return dense_matrix(sparse_inverse(sparse_rows(mat)), mat.nrows)


def fraction_basis_change(alg: Algebra, mat: Matrix) -> tuple:
    """The transformed tensor with Fractions throughout: [u, v] @ T^-1 for
    rows u, v of T."""
    inv = inverse(mat)
    return tuple(tuple(mat_apply(inv, table_bracket(alg.table, u, v, Fraction(0))) for v in mat.rows)
                 for u in mat.rows)


@given(rational_algebras())
@settings(max_examples=150, deadline=None)
def test_leibniz_check_matches_fraction_reference(alg):
    want = dense_leibniz_failures(alg)
    report = leibniz_check(alg)
    assert report.failures == want
    assert report.ok == (not want)


@given(st.sampled_from(LEIBNIZ_FAMILIES), st.data())
@settings(max_examples=10, deadline=None)
def test_leibniz_check_on_transformed_families(alg, data):
    mat = data.draw(invertible_matrices(alg.dim))
    moved = from_dense(alg.labels, fraction_basis_change(alg, mat))
    assert leibniz_check(moved).ok and dense_leibniz_failures(moved) == ()
    # one perturbed structure constant, with its own denominator
    i, j, k = (data.draw(st.integers(0, alg.dim - 1)) for _ in range(3))
    tensor = [[list(cell) for cell in plane] for plane in dense(moved)]
    tensor[i][j][k] += data.draw(nonzero_rationals)
    off = from_dense(alg.labels, tensor)
    assert leibniz_check(off).failures == dense_leibniz_failures(off)


@given(rational_algebras())
@settings(max_examples=150, deadline=None)
def test_is_lie_matches_fraction_reference(alg):
    t, d = dense(alg), alg.dim
    assert is_lie(alg) == all(t[i][j][k] == -t[j][i][k] for i in range(d) for j in range(d) for k in range(d))


@st.composite
def sparse_invertible_matrices(draw, d: int) -> Matrix:
    """Mostly zeros: an upper-triangular matrix with a nonzero diagonal and
    at most d other nonzero entries, its rows permuted; invertible by
    construction."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = draw(nonzero_rationals)
    for _ in range(draw(st.integers(0, d if d > 1 else 0))):  # a 1 x 1 matrix has no off-diagonal entry
        i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
        rows[i][j] = draw(nonzero_rationals)
    return Matrix(tuple(tuple(rows[p]) for p in draw(st.permutations(range(d)))))


def assert_inverse_by_fraction_product(rows) -> None:
    """T times T^-1 is the identity, multiplied out in Fractions, for the
    sparse rows of T; T^-1 comes back in the same canonical row form. The
    integer inverse (inv, den) gives T inv = den I, with den the least
    common denominator of T^-1, so it is T^-1's integer-scaled table."""
    d = len(rows)
    inv = sparse_inverse(rows)
    assert mat_mul(dense_matrix(rows, d), dense_matrix(inv, d)).rows == mat_identity(d).rows
    assert inv == sparse_rows(dense_matrix(inv, d))
    assert all(type(c) is Fraction for row in inv for _, c in row)
    int_inv, den = int_inverse(rows)
    assert mat_mul(dense_matrix(rows, d), dense_matrix(int_inv, d)).rows == mat_scaled(mat_identity(d), den).rows
    assert all(type(c) is int for row in int_inv for _, c in row)
    assert ((int_inv,), den) == int_table((inv,))


@given(st.integers(1, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_inverse_of_permuted_triangular_matrices(d, data):
    """T T^-1 = I on mostly-zero invertible matrices; replacing one row by a
    rational combination of two others (for d = 1, by zero) makes T
    singular, which raises."""
    mat = data.draw(sparse_invertible_matrices(d))
    assert_inverse_by_fraction_product(sparse_rows(mat))
    rows = [list(r) for r in mat.rows]
    if d == 1:
        rows[0] = [Fraction(0)]
    else:
        i, j, k = data.draw(st.lists(st.integers(0, d - 1), min_size=3, max_size=3))
        assume(j != i and k != i)
        a, b = data.draw(nonzero_rationals), data.draw(nonzero_rationals)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    with pytest.raises(ValueError, match="singular"):
        sparse_inverse(sparse_rows(rows))
    with pytest.raises(ValueError, match="singular"):
        int_inverse(sparse_rows(rows))


SOLVABLE_MEMBERS = (
    make_SolvA(7, 2, {1: 1}, 0, {2: Fraction(2, 3)}),
    make_SolvB(7, 1, {1: 1, 2: -2}, {2: Fraction(-1, 2), 6: Fraction(3)}),
)


@given(st.sampled_from(LEIBNIZ_FAMILIES + SOLVABLE_MEMBERS), st.booleans(), st.data())
@settings(max_examples=70, deadline=None)
def test_apply_basis_change_matches_fraction_reference(alg, sparse, data):
    """Dense random matrices, and mostly-zero ones (the sparse walk skips
    every zero entry of T and T^-1)."""
    mat = data.draw((sparse_invertible_matrices if sparse else invertible_matrices)(alg.dim))
    rows = sparse_rows(mat)
    assert_inverse_by_fraction_product(rows)
    assert dense(apply_basis_change(alg, rows)) == fraction_basis_change(alg, mat)


@given(st.sampled_from(LEIBNIZ_FAMILIES + SOLVABLE_MEMBERS), st.data())
@settings(max_examples=40, deadline=None)
def test_apply_basis_change_hands_over_its_integer_table(alg, data):
    """The integer table apply_basis_change stores on its result (N / g over
    D / g) is int_table of the result's Fraction table, on dense random
    changes, which are not triangular."""
    mat = data.draw(invertible_matrices(alg.dim))
    assume(any(mat.rows[i][j] for i in range(alg.dim) for j in range(i)))
    out = apply_basis_change(alg, sparse_rows(mat))
    assert "scaled" in vars(out)
    assert out.scaled == int_table(out.table)


def dense_chain_restore_matrix(alg: Algebra, n: int, variant: str) -> Matrix:
    """The rows chain_restore builds, from the structure tensor: e_0, e_1,
    the e_0-chain [e_0, u_i], for B -[e_1, u_{n-1}] on top, and x."""
    t, d = dense(alg), alg.dim

    def left(i, vec):  # [e_i, vec]
        return tuple(sum((vec[m] * t[i][m][k] for m in range(d)), Fraction(0)) for k in range(d))

    unit = [tuple(Fraction(int(j == i)) for j in range(d)) for i in range(d)]
    rows = [unit[0], unit[1], t[0][1]]
    while len(rows) < (n + 1 if variant == "A" else n):
        rows.append(left(0, rows[-1]))
    if variant == "B":
        rows.append(tuple(-c for c in left(1, rows[-1])))
    return Matrix(tuple(rows) + (unit[n + 1],))


STAR_CASES = [("A", n) for n in range(5, 12)] + [("B", n) for n in (5, 7, 9)]


@pytest.mark.parametrize("variant,n", STAR_CASES, ids=[f"{v}{n}" for v, n in STAR_CASES])
def test_star_change_and_chain_restore_match_fraction_reference(variant, n):
    """The sparse basis change on the conjectures' own inputs: the star change
    of an admissible SolvA/SolvB member, then the chain restore of its image,
    each against the dense Fraction transform, with T T^-1 = I multiplied out
    in Fractions."""
    rng = random.Random(f"star:{variant}:{n}")
    r = rng.randint(1, n - 3 if variant == "A" else n - 4)
    alphas = sample_graded_alphas(variant, n, r, rng)
    b = sample_solv_bs(variant, n, r, alphas, rng)
    alg = make_SolvA(n, r, alphas, 0, b) if variant == "A" else make_SolvB(n, r, alphas, b)
    change = star_change(n, variant, b)
    assert_inverse_by_fraction_product(change)
    moved = apply_basis_change(alg, change)
    assert dense(moved) == fraction_basis_change(alg, dense_matrix(change, alg.dim))
    restore = dense_chain_restore_matrix(moved, n, variant)
    assert_inverse_by_fraction_product(sparse_rows(restore))
    rows = rational_rows(chain_rows(moved.scaled, n, variant, scaled_rows(sparse_rows(mat_identity(moved.dim)))))
    assert dense(apply_basis_change(moved, rows)) == fraction_basis_change(moved, restore)


def a1_admitted(variant: str, n: int, r: int, alphas) -> bool:
    """Whether a_1 may be nonzero: the x action is linear in (a_1, b), so a_1
    is admissible exactly when the SolvA member with a_1 = 1 and b = 0
    constructs."""
    try:
        return variant == "A" and bool(make_SolvA(n, r, alphas, 1, {}))
    except ConstructionError:
        return False


@functools.lru_cache(maxsize=None)
def conjecture_frame(variant: str, n: int, r: int, seed: int) -> tuple:
    """(alphas, admitted b_k, whether a_1 may be nonzero) of a sampled frame."""
    rng = random.Random(f"two-step:{variant}:{n}:{r}:{seed}")
    alphas = sample_graded_alphas(variant, n, r, rng)
    admitted = tuple(sorted(sample_solv_bs(variant, n, r, alphas, rng)))
    return alphas, admitted, a1_admitted(variant, n, r, alphas)


@st.composite
def conjecture_members(draw) -> tuple:
    """(variant, n, r, alphas, a1, b): A at n = 5..9 or B at n = 5, 7, 9, a
    sampled frame, random rationals on the admitted b_k (each may be zero),
    and a nonzero a_1 where the frame admits one."""
    variant, n = draw(st.sampled_from([("A", n) for n in range(5, 10)] + [("B", n) for n in (5, 7, 9)]))
    r = draw(st.integers(1, n - 3 if variant == "A" else n - 4))
    alphas, admitted, a1_free = conjecture_frame(variant, n, r, draw(st.integers(0, 3)))
    b = {k: v for k in admitted if (v := draw(st.one_of(st.just(Fraction(0)), nonzero_rationals)))}
    a1 = draw(st.one_of(st.just(Fraction(0)), nonzero_rationals)) if a1_free else Fraction(0)
    return variant, n, r, alphas, a1, b


def two_step_conjecture(alg: Algebra, n: int, variant: str, b) -> tuple:
    """(residual tail, restored tensor) the two-step way: the star change
    made in Fractions, the tail read off the image's [e_1, x], then the
    chain products of the image made in Fractions."""
    moved = from_dense(alg.labels, fraction_basis_change(alg, dense_matrix(star_change(n, variant, b), alg.dim)))
    tensor = dense(moved)
    residual = {k: c for k, c in enumerate(tensor[1][n + 1]) if c and 2 <= k <= n}
    return residual, fraction_basis_change(moved, dense_chain_restore_matrix(moved, n, variant))


@given(conjecture_members())
@settings(max_examples=60, deadline=None)
def test_one_change_per_trial_matches_the_two_step_path(member):
    """conjecture_check re-adapts the member in one step, chain_rows started
    from the star change T, and reads the tail as the y with y T = [u_1, u_x];
    the two-step path changes to T, then re-adapts the image. Both must give
    the same residual tail and the same restored table, also for a_1 != 0,
    which leaves a residual once some b_k is nonzero."""
    variant, n, r, alphas, a1, b = member
    alg = make_SolvA(n, r, alphas, a1, b) if variant == "A" else make_SolvB(n, r, alphas, b)
    residual, restored = two_step_conjecture(alg, n, variant, b)
    res = conjecture_check(n, variant, r, alphas, a1, b)
    assert res.residual_b == residual
    rows = rational_rows(chain_rows(alg.scaled, n, variant, int_star_change(n, variant, b)))
    assert dense(apply_basis_change(alg, rows)) == restored
    target = make_SolvA(n, r, alphas, a1, {}) if variant == "A" else make_SolvB(n, r, alphas, {})
    assert res.eliminated == (not residual and restored == dense(target))
    assert res.eliminated == (a1 == 0 or not b)


@given(conjecture_members())
@settings(max_examples=40, deadline=None)
def test_an_eliminating_trial_has_a_valid_member(member):
    """conjecture_check validates no member of a trial that eliminates: the
    image check certifies it. The validating constructors, whose Leibniz
    and antisymmetry checks share no code with that image check, must
    then build the same member without error, and it is Lie."""
    variant, n, r, alphas, a1, b = member
    if conjecture_check(n, variant, r, alphas, a1, b).eliminated:
        alg = make_SolvA(n, r, alphas, a1, b) if variant == "A" else make_SolvB(n, r, alphas, b)
        assert is_lie(alg) and leibniz_check(alg).ok


def test_one_change_per_trial_pins_the_a1_residual():
    """With a_1 != 0 the transformation leaves a residual tail, and the
    re-adapted basis does not reach the b = 0 member: the image check says
    so, as the two-step Fraction path does."""
    alg = make_SolvA(6, 3, {1: 1}, 1, {2: 1})
    residual, restored = two_step_conjecture(alg, 6, "A", {2: 1})
    assert residual == {6: Fraction(1, 2)}
    res = conjecture_check(6, "A", 3, {1: 1}, 1, {2: 1})
    assert res.residual_b == {6: Fraction(1, 2)} and not res.eliminated
    target = make_SolvA(6, 3, {1: 1}, 1, {})
    rows = chain_rows(alg.scaled, 6, "A", int_star_change(6, "A", {2: 1}))
    assert restored != dense(target) and not carries_products(alg.scaled, rows, target.scaled)


def member_and_target(variant: str, n: int, r: int, alphas, a1, b) -> tuple:
    if variant == "A":
        return make_SolvA(n, r, alphas, a1, b), make_SolvA(n, r, alphas, a1, {})
    return make_SolvB(n, r, alphas, b), make_SolvB(n, r, alphas, {})


def perturbed_table(alg: Algebra, rng: random.Random) -> Algebra:
    """``alg`` with one structure constant moved by a nonzero rational."""
    d = alg.dim
    tensor = [[list(cell) for cell in plane] for plane in dense(alg)]
    i, j, k = (rng.randrange(d) for _ in range(3))
    tensor[i][j][k] += Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
    return from_dense(alg.labels, tensor)


@pytest.mark.parametrize("variant,n", STAR_CASES, ids=[f"{v}{n}" for v, n in STAR_CASES])
def test_conjecture_trial_matches_the_dense_inverse_route(variant, n):
    """The two steps of a trial against the dense Fraction route, which
    inverts T: the forward-solved tail is [u_1, u_x] T^-1, and the image
    check of the re-adapted rows answers whether the restored table (the
    star change, then the chain restore of its image, in Fractions) is the
    b = 0 member's, and answers False on a target with one entry
    perturbed."""
    rng = random.Random(f"image:{variant}:{n}")
    r = rng.randint(1, n - 3 if variant == "A" else n - 4)
    alphas = sample_graded_alphas(variant, n, r, rng)
    b = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in sample_solv_bs(variant, n, r, alphas, rng)}
    alg, target = member_and_target(variant, n, r, alphas, 0, b)
    change = star_change(n, variant, b)
    x, d = n + 1, alg.dim
    tail = unitriangular_solve(bracket(alg.table, change[1], change[x]), change)
    inverse = dense_matrix(sparse_inverse(change), d)
    u1, ux = (dense_matrix(change, d).rows[a] for a in (1, x))
    want = mat_apply(inverse, table_bracket(alg.table, u1, ux, Fraction(0)))
    assert dense_matrix((tail,), d).rows[0] == want
    rows = chain_rows(alg.scaled, n, variant, int_star_change(n, variant, b))
    restored = two_step_conjecture(alg, n, variant, b)[1]
    assert restored == dense(target) and carries_products(alg.scaled, rows, target.scaled)
    off = perturbed_table(target, rng)
    assert restored != dense(off) and not carries_products(alg.scaled, rows, off.scaled)


# (variant, n, r) of every SolvA r at n = 5..12 and every SolvB r at odd n = 5..11, less
# B (11, 1), where the alpha sampler finds no rational point (ROADMAP item 1)
TRIAL_POINTS = ([("A", n, r) for n in range(5, 13) for r in range(1, n - 2)]
                + [("B", n, r) for n in (5, 7, 9, 11) for r in range(1, n - 3) if (n, r) != (11, 1)])


def dense_conjecture_verdict(variant: str, n: int, r: int, alphas, a1, b) -> tuple:
    """(eliminated, residual tail) of a trial the dense Fraction way: the
    residual is [u_1, u_x] T^-1 on e_2..e_n with T^-1 from ``sparse_inverse``
    and must match the two-step route's, and the trial eliminates when the
    residual is empty and the star change followed by the chain restore
    (``two_step_conjecture``) gives the b = 0 member's tensor."""
    alg, target = member_and_target(variant, n, r, alphas, a1, b)
    change = star_change(n, variant, b)
    d = alg.dim
    u1, ux = (dense_matrix(change, d).rows[a] for a in (1, n + 1))
    tail = mat_apply(dense_matrix(sparse_inverse(change), d), table_bracket(alg.table, u1, ux, Fraction(0)))
    residual, restored = two_step_conjecture(alg, n, variant, b)
    assert residual == {k: c for k, c in enumerate(tail) if c and 2 <= k <= n}
    return not residual and restored == dense(target), residual


@pytest.mark.parametrize("variant,n,r", TRIAL_POINTS, ids=[f"{v}{n}-r{r}" for v, n, r in TRIAL_POINTS])
def test_integer_trial_matches_the_dense_fraction_route(monkeypatch, variant, n, r):
    """The integer trial (the member's integer table, the integer star
    change, the forward-substituted tail and the integer image check)
    against the dense Fraction route at every r: the same verdict and the
    same residual at a random b on the admitted b_k, and for A at a_1 = 1
    where the frame admits it (a residual once b is nonzero); the image
    check refuses a target with one entry perturbed; stopping the e_1 row
    one entry early (for A at A_{n-1}, the displayed form of the
    transformation) leaves a residual tail; a non-admitted b_k raises the
    exact ConstructionError of make_SolvA / make_SolvB, and a float b_k
    raises TypeError."""
    rng = random.Random(f"int-trial:{variant}:{n}:{r}")
    alphas = sample_graded_alphas(variant, n, r, rng)
    admitted = sample_solv_bs(variant, n, r, alphas, rng)
    b = {k: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for k in admitted}
    for a1 in (0, 1) if a1_admitted(variant, n, r, alphas) else (0,):
        res = conjecture_check(n, variant, r, alphas, a1, b)
        assert (res.eliminated, res.residual_b) == dense_conjecture_verdict(variant, n, r, alphas, a1, b)
        assert res.eliminated == (a1 == 0)

    frame = SolvableFrame(variant, n, r, tuple(alphas.items()), 0)
    table = frame.scaled_table(b)
    rows = chain_rows(table, n, variant, int_star_change(n, variant, b))
    target = frame.member({})
    assert carries_products(table, rows, target.scaled)
    assert not carries_products(table, rows, perturbed_table(target, rng).scaled)

    change = extensions.int_star_change

    def stopped_early(n, variant, b):
        rows, den = change(n, variant, b)
        assert rows[1][-1][1], "the dropped entry must be nonzero"
        return (rows[0], rows[1][:-1]) + rows[2:], den

    with monkeypatch.context() as patched:
        patched.setattr(extensions, "int_star_change", stopped_early)
        mutated = conjecture_check(n, variant, r, alphas, 0, b)
    assert not mutated.eliminated and mutated.residual_b

    make = make_SolvA if variant == "A" else (lambda n, r, alphas, a1, b: make_SolvB(n, r, alphas, b))
    top = n + 1 if variant == "A" else n
    for k in [k for k in range(2, top) if k not in admitted][:2]:
        with pytest.raises(ConstructionError) as want:
            make(n, r, alphas, 0, {k: Fraction(1, 2)})
        with pytest.raises(ConstructionError) as got:
            conjecture_check(n, variant, r, alphas, 0, {k: Fraction(1, 2)})
        assert str(got.value) == str(want.value)
    with pytest.raises(TypeError):
        conjecture_check(n, variant, r, alphas, 0, {min(admitted): 0.5})


@st.composite
def unitriangular_matrices(draw, d: int) -> Matrix:
    """Upper unitriangular, with random rationals (zeros mixed in) above the
    diagonal."""
    return Matrix(tuple(tuple(Fraction(1) if j == i else draw(st.one_of(st.just(Fraction(0)), nonzero_rationals))
                              if j > i else Fraction(0) for j in range(d)) for i in range(d)))


@given(st.sampled_from(LEIBNIZ_FAMILIES + SOLVABLE_MEMBERS), st.data())
@settings(max_examples=40, deadline=None)
def test_image_check_matches_apply_basis_change(alg, data):
    """On random unitriangular changes the image check holds for the
    Fraction-route transform of the algebra and fails once one of its
    entries is perturbed."""
    mat = data.draw(unitriangular_matrices(alg.dim))
    rows = sparse_rows(mat)
    moved = from_dense(alg.labels, fraction_basis_change(alg, mat))
    assert carries_products(alg.scaled, scaled_rows(rows), moved.scaled)
    assert dense(apply_basis_change(alg, rows)) == dense(moved)
    off = perturbed_table(moved, random.Random(data.draw(st.integers(0, 99))))
    assert not carries_products(alg.scaled, scaled_rows(rows), off.scaled)


@given(st.integers(3, 8).flatmap(lambda d: st.tuples(unitriangular_matrices(d), st.lists(
    st.one_of(st.just(Fraction(0)), nonzero_rationals), min_size=d, max_size=d))), st.data())
@settings(max_examples=60, deadline=None)
def test_the_integer_tail_test_matches_forward_substitution(case, data):
    """The trial's tail test reads, in integers over the rows' common
    denominator, whether the y with y T = v vanishes on lo..hi: on random
    unitriangular T and v = y T, it answers exactly whether y is zero there,
    as the Fraction forward substitution finds it."""
    mat, y = case
    d = len(y)
    lo = data.draw(st.integers(0, d - 1))
    hi = data.draw(st.integers(lo, d - 1))
    v = mat_apply(mat, y)
    rows, den = scaled_rows(sparse_rows(mat))
    (ints,), _ = scaled_rows((sparse(v),))
    assert dense_matrix((unitriangular_solve(sparse(v), sparse_rows(mat)),), d).rows[0] == tuple(y)
    assert _tail_vanishes(ints, rows, den, lo, hi) == (not any(y[lo:hi + 1]))


def test_changes_that_are_not_unitriangular_raise():
    """A diagonal entry other than 1, an entry left of the diagonal, a zero
    row or a permutation raise ValueError in the image check and in the
    forward substitution; nothing falls back to an inverse."""
    alg = make_SolvA(5, 1, {1: 1}, 0, {2: Fraction(1, 2)})
    d = alg.dim
    unit = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    bad = []
    for i, j, c in ((2, 2, Fraction(2)), (3, 1, Fraction(1, 3)), (4, 4, Fraction(0))):
        rows = [list(r) for r in unit]
        rows[i][j] = c
        bad.append(sparse_rows(rows))
    bad.append(sparse_rows(unit[1:2] + unit[:1] + unit[2:]))
    for rows in bad:
        with pytest.raises(ValueError, match="unitriangular"):
            carries_products(alg.scaled, scaled_rows(rows), alg.scaled)
        with pytest.raises(ValueError, match="unitriangular"):
            unitriangular_solve(((0, Fraction(1)),), rows)
    assert carries_products(alg.scaled, scaled_rows(sparse_rows(unit)), alg.scaled)


# -- the SolvA/SolvB frames against the product-map path ---------------------------------


@pytest.mark.parametrize("variant,n", STAR_CASES, ids=[f"{v}{n}" for v, n in STAR_CASES])
def test_frame_members_match_the_product_map_path(variant, n):
    """Every member a SolvableFrame assembles (N's table plus the column
    x0 + sum_k b_k d[k]) is the member of the per-member product-map path
    (one x-row propagation at the whole b, product_table, Fraction
    conversion): the same Fraction entries, labels and metadata, at every
    SolvA/SolvB r, a_1 in {0, 1} for A, and b on admitted, non-admitted and
    out-of-range keys. With Poly b_k the frame's table is the reference's
    Poly table; a float b_k raises TypeError. The integer table the frame
    assembles for the trials is the member's int_table once the gcd of its
    denominator and entries is divided out."""
    top = n + 1 if variant == "A" else n
    for r in range(1, n - 2 if variant == "A" else n - 3):
        rng = random.Random(f"frame:{variant}:{n}:{r}")
        alphas = sample_graded_alphas(variant, n, r, rng)
        admitted = sample_solv_bs(variant, n, r, alphas, rng)
        others = [k for k in range(2, top) if k not in admitted]
        outside = {0: Fraction(3), 1: Fraction(-2), top: Fraction(5, 3)}
        for a1 in ((0, 1) if variant == "A" else (0,)):
            frame = SolvableFrame(variant, n, r, tuple(alphas.items()), a1)
            draws = [{}, dict(admitted), {k: small_fraction(rng) for k in others},
                     {**{k: small_fraction(rng) for k in range(2, top)}, **outside}]
            for b in draws:
                got, want = frame.member(b), reference_solvable_algebra(variant, n, r, alphas, a1, b)
                assert got.table == want.table, (variant, n, r, a1, b)
                table, den = frame.scaled_table(b)
                g = gcd(den, *(c for plane in table for cell in plane for _, c in cell))
                assert (tuple(tuple(tuple((k, c // g) for k, c in cell) for cell in plane) for plane in table),
                        den // g) == want.scaled
                assert all(type(c) is Fraction for plane in got.table for cell in plane for _, c in cell)
                assert (got.labels, got.metadata) == (want.labels, want.metadata)
            ring = PolyRing(tuple(f"b{k}" for k in range(2, top)))
            bs = {k: ring.var(f"b{k}") for k in range(2, top)}
            full = {k: alphas.get(k, Fraction(0)) for k in range(1, graded_alpha_count(variant, n, r) + 1)}
            assert frame.table(bs) == product_table(solvable_products(variant, n, r, full, bs, a1), n + 2)
            with pytest.raises(TypeError):
                frame.member({2: 0.5})


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


# -- the derivation space against sympy ---------------------------------------------------


# every family, at n = 5 where it exists; F2j1 and L2 need even n
EVERY_FAMILY = [
    FamilySpec("F1", 5, {"theta": 1}),
    FamilySpec("F2", 5, {"gamma": 1}),
    FamilySpec("F3", 5, {"theta1": 1}),
    FamilySpec("F1s", 5, {"s": 3}),
    FamilySpec("F2j", 5, {"j": 3}),
    FamilySpec("F2j1", 6, {"beta": Fraction(1, 2)}),
    FamilySpec("Ln", 5, {}),
    FamilySpec("Qn", 5, {}),
    FamilySpec("A", 5, {"r": 1, "alpha1": 1}),
    FamilySpec("B", 5, {"r": 1, "alpha1": 1}),
    FamilySpec("L1", 5, {}),
    FamilySpec("L2", 6, {"beta": 2}),
    FamilySpec("L3", 5, {"j0": 4}),
    FamilySpec("SolvA", 5, {"r": 1, "alpha1": 1, "b2": 1}),
    FamilySpec("SolvB", 5, {"r": 1, "alpha1": 1, "b2": 1}),
]


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=lambda s: s.family)
def test_derivation_space_matches_sympy_nullspace(spec):
    """The derivation equation written out from the dense tensor (D[r][s] is
    the e_s coordinate of D(e_r)) and solved by sympy spans the same space
    as ``derivation_space``."""
    sympy = pytest.importorskip("sympy")
    alg = make_family(spec)
    t, d = dense(alg), alg.dim

    def q(c):
        return sympy.Rational(c.numerator, c.denominator)

    rows = []
    for i in range(d):
        for j in range(d):
            for m in range(d):
                row = [0] * (d * d)
                for k in range(d):  # D([e_i, e_j]) - [D(e_i), e_j] - [e_i, D(e_j)], coordinate m
                    row[k * d + m] += t[i][j][k]
                    row[i * d + k] -= t[k][j][m]
                    row[j * d + k] -= t[i][k][m]
                rows.append([q(Fraction(c)) for c in row])
    want = sympy.Matrix(rows).nullspace()
    got = [[q(c) for row in dense_matrix(mat, d).rows for c in row] for mat in derivation_space(alg).basis]
    assert len(got) == len(want)
    if want:
        span_want = sympy.Matrix.hstack(*want).T.rref()[0]
        assert sympy.Matrix(got).rref()[0] == span_want


# -- the sparse extension path against dense references -----------------------------------


def members_for_n_5_to_12(spec: FamilySpec):
    """The family of ``spec`` at every n in 5..12 where its parameters are
    admissible. A and B (and SolvA, SolvB) take r = 1 and the alphas of
    ``sample_graded_alphas``; B exists at odd n only, and at n = 11 with
    r = 1 it has no rational alpha (the sampler raises RuntimeError)."""
    for n in range(5, 13):
        params = dict(spec.params)
        variant = spec.family[-1]
        if spec.family in ("A", "B", "SolvA", "SolvB"):
            if variant == "B" and n % 2 == 0:
                continue
            try:
                alphas = sample_graded_alphas(variant, n, 1, random.Random(n))
            except RuntimeError:
                continue
            params.update({f"alpha{k}": v for k, v in alphas.items()})
        try:
            yield make_family(FamilySpec(spec.family, n, params))
        except ConstructionError:
            continue


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=lambda s: s.family)
def test_derivation_space_and_annihilator_span_match_dense_references(spec):
    """The sparse integer rows give the basis and names of the dense
    Fraction rows, and two added table cells the annihilator span of dense
    brackets."""
    members = list(members_for_n_5_to_12(spec))
    assert len(members) >= 3
    for alg in members:
        space = derivation_space(alg)
        assert (space.basis, space.param_names) == dense_derivation_space(alg)
        assert forced_annihilator_span(alg) == dense_annihilator_span(alg)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=lambda s: s.family)
def test_triangular_derivations_are_nilpotent_iff_their_diagonal_is_zero(spec):
    """Random rational combinations of each upper-triangular derivation
    space at n = 5..9: one on which every diagonal functional vanishes,
    the same moved off by a basis map with a nonzero diagonal, and one with
    independent weights. The dense Fraction powering finds each nilpotent
    exactly when its diagonal is zero, and the functionals vanish exactly
    then. The derivation bases of the solvable families are not triangular,
    and the count refuses them."""
    rng = random.Random(0)
    seen = 0
    for alg in members_for_n_5_to_12(spec):
        if alg.metadata["n"] > 9:
            continue
        space = derivation_space(alg)
        d, p = alg.dim, space.dimension
        if not all(is_upper_triangular(m) for m in space.basis):
            with pytest.raises(ValueError, match="not upper triangular"):
                max_nil_independent(space)
            continue
        seen += 1
        funcs = diagonal_functionals(space.generic_matrix(), space.param_names)
        assert len(funcs) == max_nil_independent(space)
        nil = [0] * p
        for vec in nullspace(funcs, p):
            w = random_rational(rng)
            for k, c in vec:
                nil[k] += w * c
        moved = list(nil)
        off = [k for k, m in enumerate(space.basis) if any(row and row[0][0] == i for i, row in enumerate(m))]
        if off:
            moved[rng.choice(off)] += random_rational(rng)
        for weights in (nil, moved, [random_rational(rng) for _ in range(p)]):
            combo = mat_zeros(d, d)
            for w, m in zip(weights, space.basis):
                combo = mat_add(combo, mat_scaled(dense_matrix(m, d), w))
            diagonal_zero = not any(combo.rows[i][i] for i in range(d))
            assert mat_is_nilpotent(combo) == diagonal_zero
            assert all(sum(weights[k] * c for k, c in f) == 0 for f in funcs) == diagonal_zero
    assert (seen == 0) == (spec.family in ("L1", "L2", "L3", "SolvA", "SolvB"))


@given(sparse_tables())
@settings(max_examples=150, deadline=None)
def test_derivation_space_and_annihilator_span_match_dense_on_random_tables(alg):
    space = derivation_space(alg)
    assert (space.basis, space.param_names) == dense_derivation_space(alg)
    assert forced_annihilator_span(alg) == dense_annihilator_span(alg)


EXTENSION_SCENARIOS = ("prop32-nonexist", "prop33-nonexist", "thm39-nonexist", "thm35-class", "thm36-class",
                       "thm37-class", "thm42-class", "thm45-class", "prop43-nolie", "prop46-nolie")


@pytest.fixture(scope="module")
def scenario_runs():
    """The extension scenarios at n = 5..8 (seed 0): (records, eliminations).
    A record is (scenario, n, hypotheses, system, outcome) for every
    constraint system they generate and eliminate, in call order; an
    elimination is (scenario, n, system, outcome) for every system they
    eliminate, their own alpha-sampling systems included."""
    records, eliminations = [], []
    with pytest.MonkeyPatch.context() as mp:
        def generate(problem, hypotheses=()):
            system = generate_constraints(problem, hypotheses)
            records.append([scenario, n, tuple(hypotheses), system, None])
            return system

        def eliminated(system):
            outcome = eliminate(system)
            eliminations.append((scenario, n, system, outcome))
            for record in records:
                if record[3] is system:
                    record[4] = outcome
            return outcome

        mp.setattr(verify, "generate_constraints", generate)
        mp.setattr(verify, "eliminate", eliminated)
        for n in range(5, 9):
            for scenario in EXTENSION_SCENARIOS:
                if verify.SCENARIOS[scenario].admissible(n):
                    assert verify.run_scenario(scenario, n).verdict == "pass"
    return [tuple(record) for record in records], eliminations


@pytest.fixture(scope="module")
def scenario_systems(scenario_runs):
    """(scenario, n, hypotheses, system, outcome) for every constraint system
    that the non-existence and classification scenarios generate and
    eliminate at n = 5..8 (seed 0), in call order."""
    return scenario_runs[0]


def test_nil_independence_counts_the_non_nilpotency_branches(scenario_systems):
    """Both read the diagonal functionals of the generic derivation: for
    every nilradical the scenarios build, the count of Thm. 2.6 equals the
    number of branches of the non-nilpotency case split."""
    nilradicals = {id(s.problem.nilradical): s.problem.nilradical for _, _, _, s, _ in scenario_systems}
    assert len(nilradicals) > 10
    for nilradical in nilradicals.values():
        count = max_nil_independent(derivation_space(nilradical))
        assert count == len(diagonal_branches(build_extension_problem(nilradical)))


def test_constraints_match_the_dense_bracket_loop(scenario_systems):
    """The equations come out equal and in the same order as from dense unit
    vectors through the table_bracket loop."""
    assert len(scenario_systems) > 50
    for _, _, hypotheses, system, _ in scenario_systems:
        assert system.equations == dense_constraints(system.problem, hypotheses)


def test_annihilator_coordinates_lie_in_the_span_of_the_defect_equations(scenario_systems):
    """Every right-annihilator coordinate [e_p, [u, v] + [v, u]] with an x
    among u, v is a rational linear combination of the Leibniz defect
    equations, so leaving them out of the system keeps its ideal."""
    problems = {id(system.problem): system.problem for _, _, _, system, _ in scenario_systems}
    for problem in problems.values():
        coords = dense_annihilator_coordinates(problem)
        assert coords
        assert in_linear_span(coords, generate_constraints(problem).equations)


def test_nonexist_systems_keep_the_elimination_order(scenario_systems):
    """The exact counts the benchmark traces for the non-existence workload
    at n = 7: seven systems, 1796 equations, 393 substitutions, and a widest
    ring of 86 indeterminates."""
    systems = [(s, out) for scenario, n, _, s, out in scenario_systems if n == 7 and scenario.endswith("nonexist")]
    assert len(systems) == 7
    assert all(out.kind == "contradiction" for _, out in systems)
    assert sum(len(s.equations) for s, _ in systems) == 1796
    assert sum(len(out.assignments) for _, out in systems) == 393
    assert max(len(s.ring.names) for s, _ in systems) == 86


def test_classify_systems_keep_the_elimination_order(scenario_runs):
    """The exact counts the benchmark traces for the classification workload
    at seed 0 (n = 5, thm36-class at n = 6): 1531 generated equations, 470
    substitutions and a widest ring of 94 indeterminates, over every system
    eliminated, the alpha-sampling ones included."""
    records, eliminations = scenario_runs
    at = {scenario: (6 if scenario == "thm36-class" else 5) for scenario in EXTENSION_SCENARIOS
          if not scenario.endswith("nonexist")}
    systems = [s for scenario, n, _, s, _ in records if at.get(scenario) == n]
    runs = [(s, out) for scenario, n, s, out in eliminations if at.get(scenario) == n]
    assert {scenario for scenario, n, _, _, _ in records if at.get(scenario) == n} == set(at)
    assert sum(len(s.equations) for s in systems) == 1531
    assert sum(len(out.assignments) for _, out in runs) == 470
    assert max(len(s.ring.names) for s, _ in runs) == 94


non_integral = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 12)).filter(
    lambda q: q.denominator != 1)


@st.composite
def extension_cases(draw, case):
    """(problem, hypotheses) over a random sparse table: the default template
    (``default``); a template whose parameters, and a constant derivation
    added to it, carry non-integral weights (``template``); or the default
    template with hypotheses that have Fraction coefficients
    (``hypotheses``)."""
    alg = draw(sparse_tables())
    if case != "template":
        problem = build_extension_problem(alg)
    else:
        space = derivation_space(alg)
        ring = space.ring()
        d = alg.dim
        rows = [[ring.zero] * d for _ in range(d)]
        weights = [ring.var(name) * draw(non_integral) for name in space.param_names]
        if space.basis:
            weights[0] = weights[0] + draw(non_integral)
        for w, mat in zip(weights, space.basis):
            for i, row in enumerate(mat):
                for j, c in row:
                    rows[i][j] = rows[i][j] + w * c
        problem = build_extension_problem(alg, template=sparse_rows(rows))
    hypotheses = []
    if case == "hypotheses":
        ring = problem.ring
        names = st.sampled_from(ring.names)
        for _ in range(draw(st.integers(1, 4))):
            h = ring.const(draw(non_integral))
            for _ in range(draw(st.integers(1, 3))):
                term = ring.var(draw(names)) * draw(non_integral)
                if draw(st.booleans()):
                    term = term * ring.var(draw(names))
                h = h + term
            hypotheses.append(h)
        hypotheses.append(hypotheses[0] * draw(non_integral))  # a repeat up to scale
    return problem, hypotheses


@pytest.mark.parametrize("case", ["default", "template", "hypotheses"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_constraints_match_the_dense_bracket_loop_on_random_tables(case, data):
    """The integer-term builder against the dense Poly bracket loop, on
    tables whose Fraction structure constants, template weights and
    hypotheses exercise the scaling to integers."""
    problem, hypotheses = data.draw(extension_cases(case))
    assert generate_constraints(problem, hypotheses).equations == dense_constraints(problem, hypotheses)


@pytest.mark.parametrize("case", ["default", "template"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_annihilator_coordinates_lie_in_the_span_of_the_defects_on_random_tables(case, data):
    """The same span test on random sparse tables, with the default template
    and with one of non-integral weights."""
    problem, _ = data.draw(extension_cases(case))
    coords = dense_annihilator_coordinates(problem)
    assert in_linear_span(coords, generate_constraints(problem).equations)


def reference_jacobi_relations(variant, n, r, ring, t):
    """The graded alpha relations from the Poly walk: every nonzero
    coordinate of the Leibniz defects of the Poly product table, in
    (i, j, k, t) order, content-normalized, repeats dropped."""
    alphas = {k: ring.var(f"al{k:02d}") for k in range(1, t + 1)}
    table = product_table(graded_products(variant, n, r, alphas), n + 1)
    return tuple(dict.fromkeys(c.content_normalized() for _, defect in leibniz_defects(table)
                               for c in defect.values()))


def test_jacobi_relations_match_the_poly_walk():
    """The relations that sample_graded_alphas eliminates, for A and B at every
    admissible (n, r) up to n = 12 with alphas."""
    checked = 0
    for variant in ("A", "B"):
        for n in range(4, verify.MAX_N + 1):
            for r in range(1, n - 2):
                try:
                    check_graded_range(variant, n, r)
                except ConstructionError:
                    continue
                t = graded_alpha_count(variant, n, r)
                if t <= 0:
                    continue
                ring = PolyRing(tuple(f"al{k:02d}" for k in range(1, t + 1)))
                got = verify._symbolic_jacobi_relations(variant, n, r, ring, t)
                assert got == reference_jacobi_relations(variant, n, r, ring, t)
                checked += 1
    assert checked > 40
