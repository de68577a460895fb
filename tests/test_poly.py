from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg.poly import PolyRing, linear_form_rows

RING = PolyRing(("x", "y", "z"))


def rand_poly(draw_terms):
    x, y, z = (RING.var(name) for name in RING.names)
    p = RING.zero
    for (ex, ey, ez), c in draw_terms:
        p = p + x**ex * y**ey * z**ez * Fraction(c)
    return p


term = st.tuples(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
polys = st.lists(term, max_size=5).map(rand_poly)


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_ring_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


@given(polys)
@settings(max_examples=60, deadline=None)
def test_additive_inverse(p):
    assert (p - p).is_zero()


def test_degree_zero_round_trips_to_rational():
    c = RING.const(Fraction(-7, 3))
    assert c.as_rational() == Fraction(-7, 3)
    assert RING.zero.as_rational() == 0
    with pytest.raises(ValueError):
        (RING.var("x") + 1).as_rational()


def test_substitute_removes_the_indeterminate():
    x, y = RING.var("x"), RING.var("y")
    p = x * x * y + x * 3 - 2
    q = p.substitute("x", y + 1)
    assert "x" not in q.variables()
    assert q == (y + 1) * (y + 1) * y + (y + 1) * 3 - 2


def test_substitute_unknown_name_errors():
    with pytest.raises(KeyError):
        RING.var("x").substitute("w", 1)


def test_substitute_into_constant_unchanged():
    c = RING.const(Fraction(5, 2))
    assert c.substitute("x", 17) == c


def test_substitute_to_zero():
    x, y = RING.var("x"), RING.var("y")
    assert (x * y).substitute("x", 0).is_zero()


def test_relation_residual_vanishes_after_substitutions():
    # hand-derived: the residual -a1*theta - a_{n-1} + b_{n-1} collapses to 0
    # after b_{n-1} <- a_{n-1} + a1 and theta <- 1
    ring = PolyRing(("a1", "an1", "bn1", "theta"))
    a1, an1, bn1, theta = (ring.var(v) for v in ring.names)
    p = -(a1 * theta) - an1 + bn1
    p = p.substitute("bn1", an1 + a1)
    p = p.substitute("theta", 1)
    assert p.is_zero()


def test_linear_coefficient():
    x, y = RING.var("x"), RING.var("y")
    lc = (x * 3 + y * y - 2).linear_coefficient("x")
    assert lc is not None
    c, rest = lc
    assert c == 3 and rest == y * y - 2
    assert (x * y + 1).linear_coefficient("x") is None
    assert (x * x).linear_coefficient("x") is None


def test_content_normalized_canonical_scaling():
    x = RING.var("x")
    p = x * Fraction(2, 3) - Fraction(4, 3)
    q = p.content_normalized()
    assert q == x - 2
    assert (-p).content_normalized() == q


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        PolyRing(("x", "x"))


def test_mixed_ring_arithmetic_rejected():
    other = PolyRing(("x",))
    with pytest.raises(ValueError):
        RING.var("x") + other.var("x")


def test_evaluate():
    x, y = RING.var("x"), RING.var("y")
    p = x * x - y * Fraction(1, 2)
    assert p.evaluate({"x": Fraction(3), "y": Fraction(4)}) == 7
    with pytest.raises(KeyError):
        p.evaluate({"x": 1})


def test_str_order_is_graded_lex():
    x, y = RING.var("x"), RING.var("y")
    assert str(x * x + y + 1) == "x^2 + y + 1"


def test_substitute_constant_gives_a_rational():
    x = RING.var("x")
    assert (x + 1).substitute("x", 2).as_rational() == 3


@pytest.mark.parametrize("value", [0.1, 0.5, "3/4", RING.var("x")], ids=["float", "float-exact", "str", "Poly"])
def test_non_rational_scalars_raise_type_error(value):
    name = type(value).__name__
    with pytest.raises(TypeError, match=f"expected int or Fraction entries, got {name}"):
        RING.const(value)
    with pytest.raises(TypeError, match=f"expected int or Fraction entries, got {name}"):
        (RING.var("x") + 1).evaluate({"x": value})


def test_linear_form_rows_follow_the_given_name_order():
    x, y, z = (RING.var(name) for name in RING.names)
    rows = linear_form_rows([x * 2 - z, y * Fraction(1, 3), RING.zero], ("z", "y", "x"))
    assert rows == [((0, -1), (2, 2)), ((1, Fraction(1, 3)),), ()]


@pytest.mark.parametrize("kind", ["const", "square", "product"])
def test_linear_form_rows_reject_terms_of_degree_other_than_one(kind):
    x, y, _ = (RING.var(name) for name in RING.names)
    bad = {"const": x + 1, "square": x * x - y, "product": x * y}[kind]
    with pytest.raises(ValueError):
        linear_form_rows([x, bad], RING.names)
