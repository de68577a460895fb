"""Independent oracles for the product-table routines and the elimination.

The bracket, the Leibniz defect and the derivation equation are each written
once in the library. These tests check them against test-local dense loops
over the structure tensor (``dense_algebra.dense``) and against a brute-force
derivation check built from ``bracket`` and ``mat_apply``; the non-existence
verdicts are checked against reduced Groebner bases computed by sympy
(Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 and 4: a
system has no solution over the algebraic closure iff its reduced Groebner
basis is [1]); the classification
families are instantiated at random rational points and each point is checked
with the dense triple loop, which covers elimination and back-substitution
without the library's own Leibniz check.

The library evaluates ``leibniz_check``, ``is_lie``, ``apply_basis_change``
and ``matrix_is_nilpotent`` on integers scaled to a common denominator;
Hypothesis checks each against a test-local ``Fraction`` reference on random
rational inputs with mixed denominators. ``apply_basis_change`` walks only
nonzero entries, so it is also checked on mostly-zero matrices and on the
star and chain-restore changes of the conjectures; ``sparse_inverse``, which
it inverts each change with, is checked by multiplying T T^-1 out in
Fractions on the same matrices, and must raise on singular ones. ``derivation_space`` is
checked against sympy's ``Matrix.nullspace`` of the derivation equation
written out from the structure tensor, for every family.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from leibnizalg.algebra import Algebra, algebra_from_products, bracket, is_lie, leibniz_check
from leibnizalg.derivations import derivation_space, is_derivation, max_nil_independent
from leibnizalg.extensions import (apply_basis_change, build_extension_problem, chain_restore,
                                   diagonal_branches, eliminate, generate_constraints, instantiate, star_change)
from leibnizalg.families import (FamilySpec, make_A_algebra, make_B_algebra, make_F1, make_F1s, make_F2, make_F2j,
                                 make_F3, make_family, make_L1, make_Ln, make_Qn, make_SolvA, make_SolvB)
from leibnizalg.linalg import Matrix, matrix_is_nilpotent, sparse_inverse
from leibnizalg.poly import PolyRing
from leibnizalg.verify import sample_graded_alphas, sample_solv_bs

from dense_algebra import (dense, dense_matrix, from_dense, mat_apply, mat_identity, mat_is_zero, mat_mul, mat_zeros,
                           sparse_rows)


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
            assert bracket(alg, u, v) == want


# -- the derivation equation -------------------------------------------------------------


def brute_force_is_derivation(alg: Algebra, mat: Matrix) -> bool:
    """d([e_i,e_j]) == [d(e_i),e_j] + [e_i,d(e_j)] for every basis pair."""
    d = alg.dim
    for i in range(d):
        ei = alg.basis_vector(i)
        for j in range(d):
            ej = alg.basis_vector(j)
            lhs = mat_apply(mat, bracket(alg, ei, ej))
            left = bracket(alg, mat_apply(mat, ei), ej)
            right = bracket(alg, ei, mat_apply(mat, ej))
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
        candidates = list(space.basis)
        candidates += [perturbed(m, rng) for m in space.basis]
        candidates += [perturbed(mat_zeros(alg.dim, alg.dim), rng) for _ in range(3)]
        candidates.append(mat_identity(alg.dim))
        for mat in candidates:
            got = is_derivation(alg, mat)
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
        assert brute_force_is_derivation(alg, generic)
        rows = [list(r) for r in generic.rows]
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        rows[i][j] = rows[i][j] + ring.var(space.param_names[0]) * Fraction(1, 2) + 1
        off = Matrix(tuple(tuple(r) for r in rows))
        got = is_derivation(alg, off)
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
            for i in range(d):
                for j in range(d):
                    rows[i][j] += w * mat.rows[i][j]
        bump = draw(nonzero_rationals)
    else:
        ring = PolyRing(space.param_names + ("s",))
        rows = [list(r) for r in space.generic_matrix(ring).rows]
        bump = ring.var("s") * draw(small_entries) + draw(nonzero_rationals)
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if draw(st.booleans()):
        rows[i][j] = rows[i][j] + bump
    return Matrix(tuple(tuple(r) for r in rows))


@given(sparse_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_is_derivation_matches_brute_force(alg, data):
    mat = data.draw(candidate_matrices(alg))
    assert is_derivation(alg, mat) == brute_force_is_derivation(alg, mat)
    d = alg.dim
    for rows, cols in ((d + 1, d), (d, d + 1), (d - 1, d - 1)):
        with pytest.raises(ValueError):
            is_derivation(alg, Matrix(tuple((0,) * cols for _ in range(rows))))


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
    return tuple(tuple(mat_apply(inv, bracket(alg, u, v)) for v in mat.rows) for u in mat.rows)


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
    for _ in range(draw(st.integers(0, d))):
        i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
        rows[i][j] = draw(nonzero_rationals)
    return Matrix(tuple(tuple(rows[p]) for p in draw(st.permutations(range(d)))))


def assert_inverse_by_fraction_product(rows) -> None:
    """T times T^-1 is the identity, multiplied out in Fractions, for the
    sparse rows of T; T^-1 comes back in the same canonical row form."""
    d = len(rows)
    inv = sparse_inverse(rows)
    assert mat_mul(dense_matrix(rows, d), dense_matrix(inv, d)).rows == mat_identity(d).rows
    assert inv == sparse_rows(dense_matrix(inv, d))
    assert all(type(c) is Fraction for row in inv for _, c in row)


@given(st.integers(2, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_inverse_of_permuted_triangular_matrices(d, data):
    """T T^-1 = I on mostly-zero invertible matrices; replacing one row by a
    rational combination of two others makes T singular, which raises."""
    mat = data.draw(sparse_invertible_matrices(d))
    assert_inverse_by_fraction_product(sparse_rows(mat))
    rows = [list(r) for r in mat.rows]
    i, j, k = data.draw(st.lists(st.integers(0, d - 1), min_size=3, max_size=3))
    assume(j != i and k != i)
    a, b = data.draw(nonzero_rationals), data.draw(nonzero_rationals)
    rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    with pytest.raises(ValueError, match="singular"):
        sparse_inverse(sparse_rows(Matrix(tuple(tuple(r) for r in rows))))


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
    assert dense(chain_restore(moved, n, variant)) == fraction_basis_change(moved, restore)


def fraction_is_nilpotent(mat: Matrix) -> bool:
    power = mat_identity(mat.nrows)
    for _ in range(mat.nrows):
        power = mat_mul(power, mat)
    return mat_is_zero(power)


@given(st.integers(1, 5), st.data())
@settings(max_examples=120, deadline=None)
def test_matrix_is_nilpotent_matches_fraction_reference(d, data):
    """Strictly upper-triangular matrices conjugated by a random invertible
    P (nilpotent, dense), optionally perturbed in one entry, and arbitrary
    matrices."""
    entry = st.one_of(st.just(Fraction(0)), nonzero_rationals)
    if data.draw(st.booleans()):
        nil = Matrix(tuple(tuple(data.draw(entry) if j > i else Fraction(0) for j in range(d)) for i in range(d)))
        p = data.draw(invertible_matrices(d))
        mat = mat_mul(mat_mul(inverse(p), nil), p)
        if data.draw(st.booleans()):
            rows = [list(r) for r in mat.rows]
            rows[data.draw(st.integers(0, d - 1))][data.draw(st.integers(0, d - 1))] += data.draw(nonzero_rationals)
            mat = Matrix(tuple(tuple(r) for r in rows))
    else:
        mat = Matrix(tuple(tuple(data.draw(entry) for _ in range(d)) for _ in range(d)))
    assert matrix_is_nilpotent(mat) == fraction_is_nilpotent(mat)


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
    got = [[q(c) for c in mat.flat()] for mat in derivation_space(alg).basis]
    assert len(got) == len(want)
    if want:
        span_want = sympy.Matrix.hstack(*want).T.rref()[0]
        assert sympy.Matrix(got).rref()[0] == span_want
