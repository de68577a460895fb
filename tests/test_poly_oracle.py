"""The sparse-monomial ``Poly`` against the dense-exponent oracle.

``dense_poly`` keeps the former implementation, with one exponent slot per
ring indeterminate. Every polynomial here is built twice from the same term
list, through each implementation's public ``var``/``*``/``+``, and every
operation must give the same terms, the same display and the same order:
over a 3-variable ring at degree up to 3, and over a 90-variable ring with
the sparse supports the constraint systems have (a few variables per term).

The sparse ``Poly`` also keeps integral coefficients as ``int``: polynomials
built from ``int`` inputs keep ``int`` coefficients through every operation,
and ``content_normalized`` always returns ``int`` coefficients.

The shortcuts of ``substitute`` (a zero, constant, one-term or multi-term
value, into terms linear and quadratic in the name) and of
``content_normalized`` (``int``, ``Fraction`` and integral ``Fraction``
coefficients) are checked against the oracle too; floats and strings raise
``TypeError`` through ``const``, ``*`` and ``substitute``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_poly
from dense_poly import dense_exp, dense_sort_key
from leibnizalg.extensions import _poly_sort_key
from leibnizalg.poly import Poly, PolyRing

SMALL = ("x", "y", "z")
WIDE = tuple(f"v{i:02d}" for i in range(90))

RINGS = {names: (PolyRing(names), dense_poly.PolyRing(names)) for names in (SMALL, WIDE)}

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def term_lists(names, max_degree, max_terms, coefficients=coeffs):
    mono = st.lists(st.integers(0, len(names) - 1), max_size=max_degree)
    return st.lists(st.tuples(mono, coefficients), max_size=max_terms)


def build(ring, names, spec):
    """sum of coeff * prod(var) over the spec's (indices, coeff) terms"""
    p = ring.zero
    for indices, c in spec:
        t = ring.one * c
        for i in indices:
            t = t * ring.var(names[i])
        p = p + t
    return p


def pair(names, spec):
    sparse, dense = RINGS[names]
    return build(sparse, names, spec), build(dense, names, spec)


def agree(sp, dp):
    width = len(sp.ring.names)
    assert {dense_exp(m, width): c for m, c in sp._terms.items()} == dp._terms
    assert [(dense_exp(m, width), c) for m, c in sp.terms()] == dp.terms()
    assert str(sp) == str(dp)
    assert sp.variables() == dp.variables()
    assert sp.degree() == dp.degree()
    assert sp.is_constant() == dp.is_constant()
    assert sp.num_terms == dp.num_terms


def sign(a, b):
    return (a > b) - (a < b)


SMALL_POLYS = term_lists(SMALL, 3, 5)
WIDE_POLYS = term_lists(WIDE, 3, 9)
CASES = st.one_of(st.tuples(st.just(SMALL), SMALL_POLYS, SMALL_POLYS),
                  st.tuples(st.just(WIDE), WIDE_POLYS, WIDE_POLYS))


@given(CASES, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_arithmetic_agrees(case, k):
    names, a, b = case
    sa, da = pair(names, a)
    sb, db = pair(names, b)
    agree(sa, da)
    agree(sa + sb, da + db)
    agree(sa - sb, da - db)
    agree(sa * sb, da * db)
    agree(sa**k, da**k)
    assert (sa == sb) == (da == db)


@given(CASES, st.data())
@settings(max_examples=150, deadline=None)
def test_substitute_agrees(case, data):
    names, a, b = case
    sa, da = pair(names, a)
    sb, db = pair(names, b)
    live = sa.variables()
    name = data.draw(st.sampled_from(live) if live else st.sampled_from(names))
    scalar = data.draw(coeffs)
    agree(sa.substitute(name, scalar), da.substitute(name, scalar))
    # the value must not contain the substituted name for elimination, but
    # substitution itself is defined for any value
    agree(sa.substitute(name, sb), da.substitute(name, db))


@given(CASES, st.data())
@settings(max_examples=150, deadline=None)
def test_linear_coefficient_and_content_agree(case, data):
    names, a, b = case
    sa, da = pair(names, a)
    sb, db = pair(names, b)
    agree(sa.content_normalized(), da.content_normalized())
    # c*v + rest with v absent from rest, so the linear case is reached often
    name = data.draw(st.sampled_from(names))
    c = data.draw(coeffs)
    rest_s, rest_d = sb.substitute(name, 0), db.substitute(name, 0)
    for sp, dp in ((sa, da), (sa + rest_s, da + rest_d),
                   (sa.ring.var(name) * c + rest_s, da.ring.var(name) * c + rest_d)):
        got, want = sp.linear_coefficient(name), dp.linear_coefficient(name)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            agree(got[1], want[1])


@given(st.one_of(st.tuples(st.just(SMALL), st.lists(SMALL_POLYS, min_size=2, max_size=6)),
                 st.tuples(st.just(WIDE), st.lists(WIDE_POLYS, min_size=2, max_size=6))))
@settings(max_examples=150, deadline=None)
def test_sort_key_order_agrees(case):
    names, specs = case
    polys = [pair(names, spec) for spec in specs]
    for sa, da in polys:
        for sb, db in polys:
            assert sign(_poly_sort_key(sa), _poly_sort_key(sb)) == \
                sign(dense_sort_key(da), dense_sort_key(db))
    sparse_sorted = sorted((sp for sp, _ in polys), key=_poly_sort_key)
    dense_sorted = sorted((dp for _, dp in polys), key=dense_sort_key)
    assert [str(p) for p in sparse_sorted] == [str(p) for p in dense_sorted]


# -- the coefficient representation ------------------------------------------------------

int_coeffs = st.integers(-6, 6)
INT_POLYS = {SMALL: term_lists(SMALL, 3, 5, int_coeffs), WIDE: term_lists(WIDE, 3, 9, int_coeffs)}


def all_int(p):
    return all(type(c) is int for c in p._terms.values())


@given(st.sampled_from((SMALL, WIDE)), int_coeffs, st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_integral_coefficients_stay_int(names, c, k, data):
    ring = RINGS[names][0]
    pa = build(ring, names, data.draw(INT_POLYS[names]))
    pb = build(ring, names, data.draw(INT_POLYS[names]))
    name = data.draw(st.sampled_from(names))
    assert all_int(ring.var(name)) and all_int(ring.const(c)) and all_int(ring.const(Fraction(c)))
    for p in (pa, pa * c, pa * Fraction(c), pa + pb, pa - pb, pa * pb, pa**k, -pa,
              pa.substitute(name, c), pa.substitute(name, Fraction(c)), pa.substitute(name, pb),
              pa.content_normalized()):
        assert all_int(p), p._terms


@given(CASES, st.data())
@settings(max_examples=150, deadline=None)
def test_content_normalized_is_int_and_as_rational_is_fraction(case, data):
    names, a, b = case
    sa, _ = pair(names, a)
    sb, _ = pair(names, b)
    name = data.draw(st.sampled_from(names))
    for p in (sa, sa * sb, sa.substitute(name, sb), sa.substitute(name, data.draw(coeffs))):
        assert all_int(p.content_normalized())
    value = data.draw(coeffs)
    const = sa.ring.const(value)
    assert all(type(c.as_rational()) is Fraction for c in (const, const.content_normalized(), sa.ring.zero))
    assert const.as_rational() == value


@given(CASES)
@settings(max_examples=100, deadline=None)
def test_integral_fraction_and_int_coefficients_are_one_poly(case):
    names, a, _ = case
    ring = RINGS[names][0]
    sa, _ = pair(names, a)
    as_int = {m: c.numerator if c.denominator == 1 else c for m, c in sa._terms.items()}
    as_fraction = {m: Fraction(c) for m, c in sa._terms.items()}
    p, q = Poly(ring, as_int), Poly(ring, as_fraction)
    assert p == q and hash(p) == hash(q)
    assert str(p) == str(q) and p.terms() == q.terms()
    assert _poly_sort_key(p) == _poly_sort_key(q)
    assert len({p, q}) == 1


# -- the substitution and normalization fast paths ---------------------------------------

VALUE_KINDS = ("zero", "zero-poly", "constant", "constant-poly", "one-term", "multi-term")


def draw_value(data, kind, names, sparse, dense):
    """A substitution value of the given kind, for both implementations."""
    if kind == "zero":
        return (data.draw(st.sampled_from((0, Fraction(0)))),) * 2
    if kind == "zero-poly":
        return sparse.zero, dense.zero
    c = data.draw(coeffs.filter(bool))
    if kind == "constant":
        return c, c
    if kind == "constant-poly":
        return sparse.const(c), dense.const(c)
    if kind == "one-term":
        mono = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=2))
        return pair(names, [(mono, c)])
    spec = data.draw(term_lists(names, 2, 4).filter(lambda spec: len(build(sparse, names, spec)._terms) >= 2))
    return pair(names, spec)


@given(CASES, st.sampled_from(VALUE_KINDS), st.data())
@settings(max_examples=100, deadline=None)
def test_substitute_fast_paths_agree(case, kind, data):
    """Every kind of value, into terms linear and quadratic in the name."""
    names, a, _ = case
    sparse, dense = RINGS[names]
    name = data.draw(st.sampled_from(names))
    i = names.index(name)
    # a*(1 + name + name^2): every term of a hit with k = 0, 1 and 2 (more
    # where a holds the name already)
    spec = [(m + extra, c) for m, c in a for extra in ([], [i], [i, i])]
    sp, dp = pair(names, spec)
    sv, dv = draw_value(data, kind, names, sparse, dense)
    agree(sp.substitute(name, sv), dp.substitute(name, dv))


COEFF_KINDS = {"int": int_coeffs, "fraction": coeffs, "integral-fraction": int_coeffs.map(Fraction)}


@given(st.sampled_from((SMALL, WIDE)), st.sampled_from(sorted(COEFF_KINDS)), st.data())
@settings(max_examples=100, deadline=None)
def test_content_normalized_on_each_coefficient_type(names, kind, data):
    """The terms are stored with the drawn coefficient type as they are."""
    sparse, dense = RINGS[names]
    spec = data.draw(term_lists(names, 3, 6, COEFF_KINDS[kind]))
    terms = {}
    for m, c in spec:
        mono = tuple(sorted(m))
        terms[mono] = terms.get(mono, 0) + c
    sp = Poly(sparse, terms)
    dp = dense_poly.Poly(dense, {dense_exp(m, len(names)): Fraction(c) for m, c in sp._terms.items()})
    normal = sp.content_normalized()
    agree(normal, dp.content_normalized())
    assert all_int(normal)
    assert normal.content_normalized() is normal


@pytest.mark.parametrize("value", [0.1, 0.5, "3/4"], ids=["float", "float-exact", "str"])
def test_floats_and_strings_raise_type_error(value):
    ring = RINGS[SMALL][0]
    p = ring.var("x") * ring.var("y") + ring.var("x") + 1
    message = f"expected int or Fraction entries, got {type(value).__name__}"
    with pytest.raises(TypeError, match=message):
        ring.const(value)
    with pytest.raises(TypeError):
        p * value
    with pytest.raises(TypeError):
        value * p
    with pytest.raises(TypeError, match=message):
        p.substitute("x", value)
    with pytest.raises(TypeError, match=message):
        p.substitute("z", value)
