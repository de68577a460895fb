from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from leibnizalg.algebra import Subspace
from leibnizalg.linalg import (
    binomial,
    dense_row,
    int_inverse,
    nullspace,
    rank,
    rref,
    scale_to_integers,
    to_fraction,
    unitriangular_solve,
)
from leibnizalg.poly import PolyRing

from dense_algebra import (Matrix, dense_matrix, mat_identity, mat_mul, mat_scaled, sparse_inverse,
                           sparse_rows)

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
    got_rows, got_piv = rref(sparse_rows(rows))
    want_rows, want_piv = oracle_rref([r for r in rows if any(r)], ncols)
    assert got_piv == want_piv
    assert got_rows == sparse_rows(want_rows)


def test_solve_identity_case():
    assert nullspace(sparse_rows(frac_rows([[1, 0], [0, 1]])), 2) == ()


def test_solve_one_equation_two_unknowns():
    assert nullspace(sparse_rows(frac_rows([[1, 1]])), 2) == (((0, Fraction(1)), (1, Fraction(-1))),)


def test_derivation_system_solution_count_matches_hand_count():
    # hand count for the unit-top first-family algebra at n=5: free parameters
    # a_1..a_5 and the (1,5) entry, with a_0 = 0 and the (1,4) entry determined
    from leibnizalg.derivations import derivation_space
    from leibnizalg.families import make_F1

    assert derivation_space(make_F1(5, {}, 1)).dimension == 6


@given(st.lists(st.lists(rationals, min_size=1, max_size=5), min_size=1, max_size=6)
       .filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=80, deadline=None)
def test_solution_invariants(rows):
    """Every nullspace vector solves the homogeneous system, and there are
    ncols - rank of them."""
    rows = frac_rows(rows)
    ncols = len(rows[0])
    ns = nullspace(sparse_rows(rows), ncols)
    for v in ns:
        assert all(sum(row[j] * c for j, c in v) == 0 for row in rows)
    assert len(ns) == ncols - rank(sparse_rows(rows))


def test_nullspace_basis_is_linearly_independent():
    rows = frac_rows([[1, 2, 3, 4], [2, 4, 6, 8]])
    ns = nullspace(sparse_rows(rows), 4)
    assert len(ns) == 3
    assert len(rref(ns)[1]) == 3


@st.composite
def sparse_rational_rows(draw):
    """Sparse rows given directly, unsorted: Fraction and int entries with
    mixed denominators, empty rows, and repeated rows."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-9, 9), rationals).filter(bool)
    rows = [tuple(draw(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=3)).items())
            for _ in range(draw(st.integers(0, 6)))]
    rows += [()] * draw(st.integers(0, 2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows)), ncols


@given(sparse_rational_rows())
@example(([], 3))
@example(([(), ()], 2))
@settings(max_examples=200, deadline=None)
def test_sparse_rows_reduce_like_their_dense_matrix(case):
    rows, ncols = case
    dense_rows = [[Fraction(x) for x in dense_row(r, ncols)] for r in rows]
    want_rows, want_piv = oracle_rref([r for r in dense_rows if any(r)], ncols)
    got_rows, got_piv = rref(rows)
    assert (got_rows, got_piv) == (sparse_rows(want_rows), want_piv)
    assert rank(rows) == len(want_piv)
    ns = nullspace(rows, ncols)
    assert len(ns) == ncols - len(want_piv)
    for v in ns:
        assert all(sum(row[j] * c for j, c in v) == 0 for row in dense_rows)
    assert rref(ns) == (ns, tuple(v[0][0] for v in ns))


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
    # the integer form: T inv = den I, den the least common denominator of T^-1
    int_inv, den = int_inverse(sparse_rows(m))
    assert mat_mul(m, dense_matrix(int_inv, 3)).rows == mat_scaled(mat_identity(3), den).rows
    assert den == lcm(*(c.denominator for row in inv for _, c in row))
    assert int_inverse(()) == ((), 1)


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
    got_rows, got_piv = rref(sparse_rows(rows))
    assert got_piv == tuple(want_piv)
    assert got_rows == sparse_rows([[Fraction(int(x.p), int(x.q)) for x in want.row(t)]
                                    for t in range(len(want_piv))])
    # nullspace reduces once, with the columns reversed: its basis must be
    # the RREF of sympy's kernel basis
    kernel = sympy.Matrix(rows).nullspace()
    want_ns = sympy.Matrix.hstack(*kernel).T.rref()[0] if kernel else sympy.zeros(0, ncols)
    assert nullspace(sparse_rows(rows), ncols) == sparse_rows(
        [[Fraction(int(x.p), int(x.q)) for x in want_ns.row(t)] for t in range(want_ns.rows)])


@given(st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_unitriangular_solve_inverts_by_forward_substitution(d, data):
    """y T = v for a random upper unitriangular T (zeros mixed in above the
    diagonal) and a random sparse v, multiplied out in Fractions: the same
    y as v T^-1."""
    entry = st.one_of(st.just(Fraction(0)), rationals)
    mat = Matrix(tuple(tuple(Fraction(int(i == j)) if j <= i else data.draw(entry) for j in range(d))
                       for i in range(d)))
    v = data.draw(st.lists(entry, min_size=d, max_size=d))
    y, scale = unitriangular_solve(sparse_rows([v])[0], (sparse_rows(mat), 1))
    assert scale == 1
    assert mat_mul(dense_matrix((y,), d), mat).rows[0] == tuple(v)
    assert y == sparse_rows(mat_mul(Matrix((tuple(v),)), dense_matrix(sparse_inverse(sparse_rows(mat)), d)))[0]


def test_unitriangular_solve_is_generic_in_the_scalar():
    """Only +, - and * are used, so at den = 1 Poly entries work: with
    T = [[1, t], [0, 1]] and v = (1, 0), y = (1, -t) over scale 1."""
    ring = PolyRing(("t",))
    t = ring.var("t")
    assert unitriangular_solve(((0, ring.one),), ((((0, 1), (1, t)), ((1, 1),)), 1)) == (((0, ring.one), (1, -t)), 1)
    with pytest.raises(ValueError, match="unitriangular"):
        unitriangular_solve(((0, 1),), ((((0, 1),), ((0, t), (1, 1))), 1))


def test_inverse_singular_raises():
    m = Matrix(tuple(tuple(Fraction(v) for v in row) for row in [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        sparse_inverse(sparse_rows(m))
    with pytest.raises(ValueError, match="singular"):
        int_inverse(sparse_rows(m))


@pytest.mark.parametrize("bad", [0.5, 0.0, PolyRing(("t",)).var("t"), "1/2"],
                         ids=["float", "float-zero", "Poly", "str"])
def test_non_rational_entries_raise_type_error(bad):
    """Only int and Fraction entries are rational; nothing is converted
    silently."""
    name = type(bad).__name__
    rows = [[Fraction(1, 2), bad], [Fraction(1), Fraction(0)]]
    entries = [tuple(enumerate(r)) for r in rows]  # a zero entry is checked too
    calls = [
        lambda: rref(entries),
        lambda: rank(entries),
        lambda: nullspace(entries, 2),
        lambda: sparse_inverse(entries),
        lambda: int_inverse(entries),
        lambda: Subspace.span(entries, 2),
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


def test_to_fraction_keeps_exact_types_and_refuses_the_rest():
    """int (bool and int subclasses included) and Fraction convert exactly;
    anything else raises TypeError naming its type."""

    class Count(int):
        pass

    for x, want in ((7, Fraction(7)), (-3, Fraction(-3)), (True, Fraction(1)), (False, Fraction(0)),
                    (Count(5), Fraction(5)), (Fraction(2, 3), Fraction(2, 3))):
        got = to_fraction(x)
        assert type(got) is Fraction and got == want
    half = Fraction(1, 2)
    assert to_fraction(half) is half
    for bad in (0.5, "1", None, PolyRing(("t",)).var("t")):
        with pytest.raises(TypeError, match=type(bad).__name__):
            to_fraction(bad)
