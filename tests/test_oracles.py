"""Independent oracles for the product-table routines and the elimination.

The bracket, the Leibniz defect and the derivation equation are each written
once in the library. These tests check them against test-local dense loops
over ``alg.tensor`` and against a brute-force derivation check built from
``bracket`` and ``Matrix.apply``; the non-existence verdicts are checked
against reduced Groebner bases computed by sympy (Cox-Little-O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 2 and 4: a system has no solution over the
algebraic closure iff its reduced Groebner basis is [1]); the classification
families are instantiated at random rational points and each point is checked
with the dense triple loop, which covers elimination and back-substitution
without the library's own Leibniz check.
"""

import random
from fractions import Fraction

import pytest

from leibnizalg.algebra import Algebra, bracket, leibniz_check
from leibnizalg.derivations import derivation_space, is_derivation, max_nil_independent
from leibnizalg.extensions import (build_extension_problem, diagonal_branches, eliminate, generate_constraints,
                                   instantiate)
from leibnizalg.families import (make_A_algebra, make_B_algebra, make_F1, make_F1s, make_F2, make_F2j, make_F3,
                                 make_L1, make_Ln, make_Qn)
from leibnizalg.linalg import Matrix
from leibnizalg.verify import sample_graded_alphas


def random_algebra(rng: random.Random, dim: int, density: float = 0.3) -> Algebra:
    """Arbitrary bilinear product with small rational structure constants."""
    tensor = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
                for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return Algebra(tuple(f"e{i}" for i in range(dim)), tensor)


def sample_algebras():
    rng = random.Random(20240607)
    algs = [random_algebra(rng, rng.randint(1, 4), rng.choice((0.15, 0.3, 0.6))) for _ in range(30)]
    algs += [make_F1(5, {}, 1), make_F1(6, {4: Fraction(2)}, 0), make_F2(5, {}, 1), make_F3(5, 1, 0, 0, 1),
             make_L1(5), make_Ln(5), make_Qn(5)]
    return algs


# -- the Leibniz defect -------------------------------------------------------------


def dense_leibniz_failures(alg: Algebra):
    t = alg.tensor
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
        for _ in range(5):
            u = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d)]
            v = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d)]
            want = tuple(sum((u[i] * v[j] * alg.tensor[i][j][k] for i in range(d) for j in range(d)),
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
            lhs = mat.apply(bracket(alg, ei, ej))
            left = bracket(alg, mat.apply(ei), ej)
            right = bracket(alg, ei, mat.apply(ej))
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
        candidates += [perturbed(Matrix.zeros(alg.dim, alg.dim), rng) for _ in range(3)]
        candidates.append(Matrix.identity(alg.dim))
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


# -- the elimination ------------------------------------------------------------------------


def groebner_basis(sympy, system):
    syms = sympy.symbols(system.ring.names)

    def expr(p):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[syms[i] for i in mono])
            for mono, c in p._terms.items()
        ])

    return list(sympy.groebner([expr(e) for e in system.equations], *syms, order="grevlex").exprs)


NONEXIST_N5 = {
    "prop32 F1(0,...,0,1)": lambda: make_F1(5, {}, 1),
    "prop33 F1^3": lambda: make_F1s(5, 3),
    "prop33 F1^4": lambda: make_F1s(5, 4),
    "thm39 theta=(1,0,0) alpha=1": lambda: make_F3(5, 1, 0, 0, 1),
    "thm39 theta=(0,1,0) alpha=1": lambda: make_F3(5, 0, 1, 0, 1),
    "thm39 theta=(0,0,1) alpha=1": lambda: make_F3(5, 0, 0, 1, 1),
}


@pytest.mark.parametrize("case", sorted(NONEXIST_N5))
def test_contradiction_branches_have_groebner_basis_one(case):
    sympy = pytest.importorskip("sympy")
    nilradical = NONEXIST_N5[case]()
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
            alg = instantiate(problem, outcome, point, validate=False)
            assert alg.dim == problem.dim
            assert dense_leibniz_failures(alg) == ()
    assert families >= 1
