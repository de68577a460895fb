import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg.algebra import (
    Subspace,
    algebra_from_products,
    bracket,
    derived_series,
    int_table,
    is_filiform,
    is_lie,
    is_nilpotent,
    is_solvable,
    leibniz_check,
    leibniz_defects,
    lower_central_series,
    nilpotency_index,
    nilradical_equals,
    nilradical_report,
    product_table,
    right_annihilator,
    series_dims,
)
from leibnizalg import io as algio
from leibnizalg.families import (
    make_F1,
    make_F2,
    make_F3,
    make_L1,
    make_L3,
    make_Ln,
    make_Qn,
)
from leibnizalg.poly import PolyRing

from dense_algebra import dense, dense_leibniz_defects, from_dense, sparse, subspace_contains, table_bracket


def abelian(d):
    zero = tuple(tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d)) for _ in range(d))
    return from_dense(tuple(f"e{i}" for i in range(d)), zero)


def unit(alg, i):
    """e_i as a sparse row."""
    return sparse(Fraction(int(j == i)) for j in range(alg.dim))


def test_bracket_f1_table():
    a = make_F1(5, {}, 1)
    assert bracket(a.table, unit(a, 1), unit(a, 0)) == unit(a, 2)
    assert bracket(a.table, unit(a, 0), unit(a, 1)) == unit(a, 5)


def test_bracket_bilinear_zero():
    a = make_F1(5, {}, 1)
    zero = sparse(Fraction(0) for _ in range(6))
    assert zero == ()
    assert bracket(a.table, zero, unit(a, 0)) == zero
    assert bracket(a.table, unit(a, 0), zero) == zero


def test_bracket_ln_table():
    a = make_Ln(4)
    assert bracket(a.table, unit(a, 0), unit(a, 3)) == unit(a, 4)


@pytest.mark.parametrize("bad", [5, 6, -1, -5])
def test_bracket_coordinate_out_of_range(bad):
    """Ln(4) has coordinates 0..4; a column past the end or a negative one
    raises, in either argument and at either end of a longer row (a negative
    one would otherwise index from the end of the table)."""
    a = make_Ln(4)
    wide = tuple(sorted({1: Fraction(1), bad: Fraction(2), 3: Fraction(-1)}.items()))
    for u, v in ((((bad, Fraction(1)),), unit(a, 0)), (unit(a, 0), wide), (wide, ()), ((), wide)):
        with pytest.raises(ValueError):
            bracket(a.table, u, v)


def test_leibniz_f2_passes():
    assert leibniz_check(make_F2(5, {}, 1)).ok


def test_leibniz_abelian_passes():
    assert leibniz_check(abelian(4)).ok


def test_leibniz_sign_flip_is_an_isomorphic_table():
    # flipping c_{1,0}^2 to -1 lands on the theta=-1 member under e_1 -> -e_1,
    # so the identity still holds
    a = make_F1(5, {}, 1)
    t = [[[c for c in row] for row in plane] for plane in dense(a)]
    t[1][0][2] = Fraction(-1)
    flipped = from_dense(a.labels, tuple(tuple(tuple(r) for r in p) for p in t))
    assert leibniz_check(flipped).ok


def test_leibniz_genuine_break_detected_on_concrete_triple():
    # adding [e_2,e_1] = e_4 breaks the identity on (e_0, e_0, e_1):
    # [[e_0,e_0],e_1] = [e_2,e_1] = e_4 while both right-hand terms vanish
    a = make_F1(5, {}, 1)
    t = [[[c for c in row] for row in plane] for plane in dense(a)]
    t[2][1][4] = Fraction(1)
    broken = from_dense(a.labels, tuple(tuple(tuple(r) for r in p) for p in t))
    report = leibniz_check(broken)
    assert not report.ok
    assert (0, 0, 1) in {(i, j, k) for i, j, k, _ in report.failures}


def test_scaled_table_is_the_int_table_and_not_compared():
    a = make_F1(6, {4: Fraction(2, 3)}, Fraction(-1, 2))
    twin = algebra_from_products(a.labels, {(i, j): list(cell) for i, plane in enumerate(a.table)
                                            for j, cell in enumerate(plane)}, a.metadata)
    assert a.scaled == int_table(a.table)
    assert a.scaled is a.scaled
    assert "scaled" in vars(a) and "scaled" not in vars(twin)
    assert a == twin and hash(a) == hash(twin) and repr(a) == repr(twin)


def test_leibniz_collects_all_failures_in_lex_order():
    a = make_F1(5, {}, 1)
    t = [[[c for c in row] for row in plane] for plane in dense(a)]
    t[2][1][4] = Fraction(1)
    broken = from_dense(a.labels, tuple(tuple(tuple(r) for r in p) for p in t))
    triples = [(i, j, k) for i, j, k, _ in leibniz_check(broken).failures]
    assert triples == sorted(triples)
    assert len(triples) > 1


def test_is_lie():
    assert is_lie(make_Qn(5))
    assert not is_lie(make_F1(5, {}, 1))
    assert not is_lie(make_F2(5, {}, 1))
    assert is_lie(make_F3(5, 0, 0, 0, 1))
    assert not is_lie(make_F3(5, 1, 0, 0, 0))


def test_lower_central_series_ln():
    assert series_dims(lower_central_series(make_Ln(4))) == (5, 3, 2, 1, 0)


def test_lower_central_series_abelian():
    assert series_dims(lower_central_series(abelian(4))) == (4, 0)


def test_lower_central_series_f1():
    assert series_dims(lower_central_series(make_F1(5, {}, 1))) == (6, 4, 3, 2, 1, 0)


def test_derived_series():
    a = make_L1(5)
    dims = series_dims(derived_series(a))
    assert dims[-1] == 0 and len(dims) >= 3
    assert series_dims(derived_series(abelian(3))) == (3, 0)


def test_derived_series_lands_in_nilradical():
    a = make_L1(5)
    second = derived_series(a)[1]
    for v in second.basis:
        assert all(k != a.dim - 1 for k, _ in v)  # no x component


def test_predicates_f1():
    a = make_F1(5, {}, 1)
    assert is_nilpotent(a) and is_filiform(a)
    assert nilpotency_index(a) == 6 == a.dim


def test_predicates_l1():
    a = make_L1(5)
    assert is_solvable(a) and not is_nilpotent(a)
    with pytest.raises(ValueError):
        nilpotency_index(a)


def test_predicates_abelian():
    a = abelian(3)
    assert is_nilpotent(a) and nilpotency_index(a) == 2


def test_filiform_implies_index_equals_dim():
    for alg in (make_F1(6, {}, 1), make_F2(7, {}, 1), make_Qn(7)):
        assert is_filiform(alg)
        assert nilpotency_index(alg) == alg.dim


def test_right_annihilator_f1():
    ann = right_annihilator(make_F1(5, {}, 1))
    assert ann.dim == 4
    a = make_F1(5, {}, 1)
    for i in (2, 3, 4, 5):
        assert ann.contains(unit(a, i))
    assert not ann.contains(unit(a, 0)) and not ann.contains(unit(a, 1))


def test_right_annihilator_abelian_is_everything():
    assert right_annihilator(abelian(4)).dim == 4


def test_right_annihilator_qn_is_center():
    ann = right_annihilator(make_Qn(5))
    assert ann.dim == 1
    assert ann.contains(unit(make_Qn(5), 5))


def test_squares_and_symmetrized_products_annihilate_on_the_right():
    for alg in (make_F1(5, {3: Fraction(1, 2)}, 1), make_F2(6, {4: 2}, 1), make_L3(5, 3)):
        ann = right_annihilator(alg)
        d = alg.dim
        for i in range(d):
            for j in range(d):
                u, v = unit(alg, i), unit(alg, j)
                uv = dict(bracket(alg.table, u, v))
                for k, c in bracket(alg.table, v, u):
                    uv[k] = uv.get(k, 0) + c
                assert ann.contains(tuple(sorted(uv.items())))
                assert ann.contains(bracket(alg.table, u, u))


def test_series_monotone_and_derived_dominated():
    for alg in (make_F1(6, {}, 1), make_L1(5), make_Qn(7)):
        lcs = lower_central_series(alg)
        ds = derived_series(alg)
        for a, b in zip(lcs, lcs[1:]):
            assert subspace_contains(a, b)
        for a, b in zip(ds, ds[1:]):
            assert subspace_contains(a, b)
        # derived term s sits inside lower-central term 2^(s-1)
        for s in range(1, min(len(ds), 3) + 1):
            idx = 2 ** (s - 1)
            if idx <= len(lcs):
                assert subspace_contains(lcs[idx - 1], ds[s - 1])


def test_antisymmetric_leibniz_iff_jacobi():
    # for antisymmetric tensors the identity is Jacobi; an antisymmetric
    # perturbation that is not a cocycle must break the check
    a = make_Qn(5)
    assert leibniz_check(a).ok and is_lie(a)
    t = [[[c for c in row] for row in plane] for plane in dense(a)]
    t[1][2][3] += Fraction(1)
    t[2][1][3] -= Fraction(1)
    perturbed = from_dense(a.labels, tuple(tuple(tuple(r) for r in p) for p in t))
    assert is_lie(perturbed)
    report = leibniz_check(perturbed)
    assert not report.ok
    assert (0, 1, 2) in {(i, j, k) for i, j, k, _ in report.failures}


def test_nilradical_equals_l1():
    assert nilradical_equals(make_L1(5), 6)


def test_nilradical_fails_for_nilpotent_ambient():
    a = make_F1(5, {}, 1)
    rep = nilradical_report(a, a.dim)
    assert not rep.ok and "ambient algebra is nilpotent" in rep.reason
    assert not nilradical_equals(a, 5)  # chain products leave the candidate span


def test_nilradical_l3():
    assert nilradical_equals(make_L3(5, 3), 6)


def test_nilradical_not_an_ideal_reported():
    rep = nilradical_report(make_L1(5), 3)
    assert not rep.ok and "not an ideal" in rep.reason


def test_subspace_membership():
    s = Subspace.span([sparse((Fraction(1), Fraction(1), Fraction(0)))], 3)
    assert s.basis == (((0, 1), (1, 1)),)
    assert s.contains(sparse((Fraction(2), Fraction(2), Fraction(0))))
    assert not s.contains(sparse((Fraction(1), Fraction(0), Fraction(0))))
    assert s.contains(())


@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.lists(st.tuples(st.integers(0, d - 1), st.integers(-3, 3)), max_size=d), max_size=5))))
@settings(max_examples=200, deadline=None)
def test_unit_vector_in_span_iff_it_is_a_basis_row(case):
    """In the canonical RREF basis of a span, e_i lies in the span exactly
    when ``((i, 1),)`` is one of the rows: the lookup of
    ``verify.annihilator_zeroing_emerged``, checked against ``contains``."""
    d, raw = case
    span = Subspace.span([tuple(sorted(dict(row).items())) for row in raw], d)
    rows = set(span.basis)
    for i in range(d):
        assert (((i, 1),) in rows) == span.contains(((i, Fraction(1)),))


def test_brute_force_oracles_on_random_small_algebras():
    """Series and right annihilator agree with naive span-closure / kernel
    computations written independently here."""
    rng = random.Random(9)

    def small(d):
        t = tuple(tuple(tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0)
                              for _ in range(d)) for _ in range(d)) for _ in range(d))
        return from_dense(tuple(f"e{i}" for i in range(d)), t)

    def oracle_span(vectors, d):
        rows = [list(v) for v in vectors if any(v)]
        basis = []
        for vec in rows:
            vec = vec[:]
            for bvec in basis:
                lead = next(i for i, c in enumerate(bvec) if c)
                if vec[lead]:
                    f = vec[lead] / bvec[lead]
                    vec = [a - f * b for a, b in zip(vec, bvec)]
            if any(vec):
                basis.append(vec)
        return len(basis)

    for _ in range(12):
        d = rng.randint(1, 4)
        alg = small(d)
        # lower central by naive closure
        units = [[Fraction(int(j == i)) for j in range(d)] for i in range(d)]
        current = units
        dims = [d]
        while True:
            nxt = []
            for u in current:
                for j in range(d):
                    nxt.append(table_bracket(alg.table, u, units[j], Fraction(0)))
            rank = oracle_span(nxt, d)
            if rank == dims[-1] or rank == 0:
                dims.append(rank)
                break
            dims.append(rank)
            keep = []
            for v in nxt:
                if oracle_span(keep + [v], d) > len(keep):
                    keep.append(v)
            current = keep
        got = series_dims(lower_central_series(alg))
        want = tuple(dims if dims[-1] == 0 else dims[:-1])
        assert got == want
        # right annihilator by naive kernel test over a spanning probe set
        ann = right_annihilator(alg)
        for i in range(d):
            v = units[i]
            in_kernel = all(not any(table_bracket(alg.table, units[u], v, Fraction(0))) for u in range(d))
            assert ann.contains(sparse(v)) == in_kernel


# -- the product-table builder against a dense reference ---------------------------------


scalars = st.one_of(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)), st.integers(-3, 3))


@st.composite
def product_maps(draw):
    """(d, products, entries): a {(i, j): [(k, c), ...]} map over d basis
    vectors with repeated coordinates, explicit zeros (c = 0 or Fraction(0))
    and pairs c, -c at one coordinate that cancel, plus its flat entry list."""
    d = draw(st.integers(1, 4))
    index = st.integers(0, d - 1)
    entries = draw(st.lists(st.tuples(index, index, index, scalars), max_size=24))
    for i, j, k, c in draw(st.lists(st.tuples(index, index, index, scalars), max_size=4)):
        entries += [(i, j, k, c), (i, j, k, -c)]
    entries = draw(st.permutations(entries))
    products: dict = {}
    for i, j, k, c in entries:
        products.setdefault((i, j), []).append((k, c))
    return d, products, entries


@given(product_maps())
@settings(max_examples=200, deadline=None)
def test_product_table_matches_dense_expansion(case):
    d, products, entries = case
    labels = tuple(f"e{i}" for i in range(d))
    alg = algebra_from_products(labels, products)
    tensor = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, c in entries:
        tensor[i][j][k] += c
    assert dense(alg) == tuple(tuple(tuple(cell) for cell in plane) for plane in tensor)
    for plane in alg.table:
        for cell in plane:
            assert [k for k, _ in cell] == sorted({k for k, _ in cell})
            assert all(type(c) is Fraction and c for _, c in cell)
    # an explicit zero gives the same algebra as an omitted entry
    omitted = {ij: [(k, c) for k, c in cell if c] for ij, cell in products.items()}
    assert algebra_from_products(labels, omitted).table == alg.table
    assert from_dense(labels, tensor).table == alg.table
    assert algio.loads(algio.dumps(alg)).table == alg.table


@given(product_maps(), st.integers(0, 2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_product_table_rejects_out_of_range_index(case, position, negative):
    d, products, _ = case
    bad = [0, 0, 0]
    bad[position] = -1 if negative else d
    i, j, k = bad
    products = dict(products)
    products[i, j] = list(products.get((i, j), [])) + [(k, Fraction(1))]
    with pytest.raises(ValueError, match="out of range"):
        algebra_from_products(tuple(f"e{i}" for i in range(d)), products)


@pytest.mark.parametrize("value", [0.1, 0.5, "3/4", PolyRing(("p",)).var("p")],
                         ids=["float", "float-exact", "str", "Poly"])
def test_non_rational_coefficients_raise_type_error(value):
    with pytest.raises(TypeError, match=f"expected int or Fraction entries, got {type(value).__name__}"):
        algebra_from_products(("e0", "e1"), {(0, 0): [(1, value)]})


def test_product_table_sums_polynomial_scalars():
    ring = PolyRing(("p", "q"))
    p, q = ring.var("p"), ring.var("q")
    table = product_table({(0, 1): [(1, p), (0, q), (1, -p)], (1, 0): [(0, p), (0, p)]}, 2)
    assert table == (((), ((0, q),)), (((0, p * 2),), ()))


# -- the sparse Leibniz walk against the per-triple loop ------------------------

_RING = PolyRing(("p", "q", "r"))
poly_scalars = st.builds(
    lambda a, b, c, sq: _RING.var("p") * a + _RING.var("q") * b + _RING.const(c) + (_RING.var("r") ** 2 if sq else 0),
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3), st.booleans())


@st.composite
def sparse_tables(draw, coefficients):
    """A product table over d <= 6 basis vectors with at most 3d entries."""
    d = draw(st.integers(1, 6))
    index = st.integers(0, d - 1)
    entries = draw(st.lists(st.tuples(index, index, index, coefficients), max_size=3 * d))
    products: dict = {}
    for i, j, k, c in entries:
        products.setdefault((i, j), []).append((k, c))
    return product_table(products, d)


def check_walk_matches_loop(table, zero):
    got = list(leibniz_defects(table))
    want = dense_leibniz_defects(table, zero)
    assert got == want
    assert [ijk for ijk, _ in got] == sorted(ijk for ijk, _ in got)
    for _, defect in got:
        assert list(defect) == sorted(defect)
        assert all(defect.values())


@given(sparse_tables(scalars))
@settings(max_examples=200, deadline=None)
def test_leibniz_defects_match_per_triple_loop_over_fractions(table):
    check_walk_matches_loop(table, Fraction(0))


@given(sparse_tables(poly_scalars))
@settings(max_examples=100, deadline=None)
def test_leibniz_defects_match_per_triple_loop_over_polys(table):
    check_walk_matches_loop(table, _RING.zero)


@pytest.mark.parametrize("alg", [make_F1(6, {3: 1}, 2), make_L1(5), make_L3(6, 4), make_Qn(7)],
                         ids=["F1", "L1", "L3", "Qn"])
def test_leibniz_defects_vanish_on_leibniz_algebras(alg):
    """Every product there cancels, so the walk yields no triple."""
    assert list(leibniz_defects(alg.table)) == []
    assert dense_leibniz_defects(alg.table, Fraction(0)) == []
