from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from leibnizalg.algebra import Subspace
from leibnizalg.linalg import (
    Matrix,
    binomial,
    matrix_is_nilpotent,
    nullspace,
    rank,
    rref,
    scale_to_integers,
    solve_linear_system,
    sparse_inverse,
)
from leibnizalg.poly import PolyRing

from dense_algebra import dense_matrix, mat_identity, mat_mul, mat_scaled, sparse_rows

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def oracle_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fractions, independent of the kernel."""
    rows = [r[:] for r in rows]
    piv = []
    t = 0
    for c in range(ncols):
        sel = next((r for r in range(t, len(rows)) if rows[r][c] != 0), None)
        if sel is None:
            continue
        rows[sel], rows[t] = rows[t], rows[sel]
        p = rows[t][c]
        rows[t] = [x / p for x in rows[t]]
        for r in range(len(rows)):
            if r != t and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[t])]
        piv.append(c)
        t += 1
    return tuple(tuple(r) for r in rows[:t]), tuple(piv)


@given(st.lists(st.lists(rationals, min_size=1, max_size=6), min_size=1, max_size=8)
       .filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=120, deadline=None)
def test_rref_matches_textbook_oracle(rows):
    rows = frac_rows(rows)
    ncols = len(rows[0])
    got_rows, got_piv = rref(rows, ncols)
    want_rows, want_piv = oracle_rref([r for r in rows if any(r)], ncols)
    assert got_piv == want_piv
    assert got_rows == want_rows


def test_solve_identity_case():
    sol = solve_linear_system(frac_rows([[1, 0], [0, 1]]), [Fraction(0), Fraction(0)])
    assert sol.particular == (0, 0)
    assert sol.nullspace == ()


def test_solve_one_equation_two_unknowns():
    sol = solve_linear_system(frac_rows([[1, 1]]), [Fraction(0)])
    assert sol.particular == (0, 0)
    assert sol.nullspace == ((Fraction(1), Fraction(-1)),)


def test_solve_inconsistent():
    sol = solve_linear_system(frac_rows([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)])
    assert sol.particular is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear_system(frac_rows([[1, 0]]), [Fraction(1), Fraction(2)])


def test_derivation_system_solution_count_matches_hand_count():
    # hand count for the unit-top first-family algebra at n=5: free parameters
    # a_1..a_5 and the (1,5) entry, with a_0 = 0 and the (1,4) entry determined
    from leibnizalg.derivations import derivation_space
    from leibnizalg.families import make_F1

    assert derivation_space(make_F1(5, {}, 1)).dimension == 6


@given(st.lists(st.lists(rationals, min_size=1, max_size=5), min_size=1, max_size=6)
       .filter(lambda rows: len({len(r) for r in rows}) == 1),
       st.lists(rationals, min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_solution_invariants(rows, b):
    rows = frac_rows(rows)
    b = [Fraction(x) for x in b[: len(rows)]]
    if len(b) != len(rows):
        b = b + [Fraction(0)] * (len(rows) - len(b))
    sol = solve_linear_system(rows, b)
    ncols = len(rows[0])
    for v in sol.nullspace:
        assert all(sum(row[j] * v[j] for j in range(ncols)) == 0 for row in rows)
    if sol.particular is not None:
        for row, rhs in zip(rows, b):
            assert sum(row[j] * sol.particular[j] for j in range(ncols)) == rhs


def test_nullspace_basis_is_linearly_independent():
    rows = frac_rows([[1, 2, 3, 4], [2, 4, 6, 8]])
    ns = nullspace(rows, 4)
    assert len(ns) == 3
    assert len(rref(list(ns), 4)[1]) == 3


def test_nilpotent_strictly_upper_triangular():
    m = Matrix(tuple(tuple(Fraction(1 if j > i else 0) for j in range(4)) for i in range(4)))
    assert matrix_is_nilpotent(m)


def test_nilpotent_identity_false():
    assert not matrix_is_nilpotent(mat_identity(3))


def test_nilpotent_nonzero_diagonal_false():
    d = [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]
    m = Matrix(tuple(tuple(d[i] if i == j else Fraction(0) for j in range(4)) for i in range(4)))
    assert not matrix_is_nilpotent(m)


def test_nilpotent_requires_square():
    with pytest.raises(ValueError):
        matrix_is_nilpotent(Matrix(((Fraction(1), Fraction(0)),)))


@given(st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_nilpotency_scale_invariance(num, den):
    c = Fraction(num, den)
    m = Matrix(((Fraction(0), Fraction(2), Fraction(-3)),
                (Fraction(0), Fraction(0), Fraction(5)),
                (Fraction(0), Fraction(0), Fraction(0))))
    assert matrix_is_nilpotent(mat_scaled(m, c))


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(4, 1) == 4
    assert binomial(7, 0) == 1
    assert binomial(-2, 0) == 0
    assert binomial(4, -1) == 0


def test_binomial_pascal():
    for n in range(1, 21):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_inverse_round_trip():
    m = Matrix(tuple(tuple(Fraction(v) for v in row)
                     for row in [[2, 1, 0], [1, 1, 1], [0, 3, 1]]))
    inv = sparse_inverse(sparse_rows(m))
    assert mat_mul(m, dense_matrix(inv, 3)).rows == mat_identity(3).rows


@st.composite
def sparse_int_matrices(draw):
    """Integer matrices, wide or tall, with at most three nonzero entries per
    row, and zero rows and repeated (plain or scaled) rows mixed in."""
    nrows = draw(st.integers(1, 9))
    ncols = draw(st.integers(1, 9))
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
            row[c] = draw(st.integers(-40, 40).filter(bool))
        rows.append(row)
    for r, scale in draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.sampled_from((1, 1, -1, 3))),
                                  max_size=3)):
        rows.append([scale * x for x in rows[r]])
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows)), ncols


@given(sparse_int_matrices())
@example(([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]], 4))  # fill-in on a later pivot column
@settings(max_examples=200, deadline=None)
def test_rref_matches_sympy_on_sparse_integer_matrices(case):
    sympy = pytest.importorskip("sympy")
    rows, ncols = case
    want, want_piv = sympy.Matrix(rows).rref()
    got_rows, got_piv = rref(frac_rows(rows), ncols)
    assert got_piv == tuple(want_piv)
    assert got_rows == tuple(tuple(Fraction(int(x.p), int(x.q)) for x in want.row(t))
                             for t in range(len(want_piv)))
    # nullspace reduces once, with the columns reversed: its basis must be
    # the RREF of sympy's kernel basis
    kernel = sympy.Matrix(rows).nullspace()
    want_ns = sympy.Matrix.hstack(*kernel).T.rref()[0] if kernel else sympy.zeros(0, ncols)
    assert nullspace(frac_rows(rows), ncols) == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in want_ns.row(t)) for t in range(want_ns.rows))


def test_inverse_singular_raises():
    m = Matrix(tuple(tuple(Fraction(v) for v in row) for row in [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        sparse_inverse(sparse_rows(m))


@pytest.mark.parametrize("bad", [0.5, 0.0, PolyRing(("t",)).var("t"), "1/2"],
                         ids=["float", "float-zero", "Poly", "str"])
def test_non_rational_entries_raise_type_error(bad):
    """Only int and Fraction entries are rational; nothing is converted
    silently."""
    name = type(bad).__name__
    rows = [[Fraction(1, 2), bad], [Fraction(1), Fraction(0)]]
    calls = [
        lambda: rref(rows, 2),
        lambda: rank(rows, 2),
        lambda: nullspace(rows, 2),
        lambda: Subspace.span(rows, 2),
        lambda: matrix_is_nilpotent(Matrix(tuple(tuple(r) for r in rows))),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=name):
            call()


@given(st.lists(st.one_of(rationals, st.integers(-20, 20)), max_size=8))
@settings(max_examples=80, deadline=None)
def test_scale_to_integers_uses_the_least_common_denominator(entries):
    ints, den = scale_to_integers(entries)
    assert den == lcm(*(Fraction(x).denominator for x in entries))
    assert len(ints) == len(entries)
    assert all(type(a) is int and Fraction(a, den) == x for a, x in zip(ints, entries))
