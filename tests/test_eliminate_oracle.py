"""``extensions.eliminate`` against a textbook elimination on dense polynomials.

The oracle shares no code with the library: it runs on ``dense_poly`` (one
exponent slot per ring indeterminate) and keeps no index. Each step scans
every live equation for the variables it is linear in (the variable's only
occurrence is a degree-1 term), picks the lexicographically smallest such
name, solves the smallest candidate equation under ``dense_sort_key`` for it
and substitutes the solution into every live equation that contains the
name. Both must give the same outcome: kind, assignment log (name, value and
source equation, compared by display), witness, residual and free names.

Checked on every system ``generate_constraints`` builds for the non-existence
and classification scenarios at n = 5..7 (and ``thm39-nonexist`` at n = 8), on
two small systems in which a substitution cancels a term and makes two
equations equal, and on random systems of degree at most 3 with duplicates,
constants and equations that a substitution makes equal.
"""

from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

import dense_poly
from dense_poly import dense_exp, dense_sort_key
from leibnizalg import verify
from leibnizalg.extensions import ConstraintSystem, eliminate
from leibnizalg.poly import Poly, PolyRing


def dense_copy(ring: dense_poly.PolyRing, p: Poly) -> dense_poly.Poly:
    width = len(ring.names)
    return dense_poly.Poly(ring, {dense_exp(m, width): Fraction(c) for m, c in p._terms.items()})


def shape(e: dense_poly.Poly) -> tuple:
    """(indices occurring in e, indices e is linear in), read off the exponents."""
    linear, nonlinear = set(), set()
    for exp in e._terms:
        if sum(exp) == 1:
            linear.add(exp.index(1))
        else:
            nonlinear.update(compress(range(len(exp)), exp))
    return linear | nonlinear, linear - nonlinear


def textbook_eliminate(ring: dense_poly.PolyRing, equations) -> dict:
    names = ring.names
    live: dict = {}  # normalized equation -> its shape

    def add(e):
        if e:
            e = e.content_normalized()
            if e not in live:
                live[e] = shape(e)

    for e in equations:
        add(e)
    log = []
    while True:
        constants = [e for e, (occurring, _) in live.items() if not occurring]
        if constants:
            return {"kind": "contradiction", "log": log, "witness": min(constants, key=dense_sort_key)}
        linear = [names[i] for _, lin in live.values() for i in lin]
        if not linear:
            assigned = {name for name, _, _ in log}
            return {"kind": "family", "log": log, "residual": sorted(live, key=dense_sort_key),
                    "free": tuple(n for n in names if n not in assigned)}
        name = min(linear)
        i = ring.index[name]
        source = min((e for e, (_, lin) in live.items() if i in lin), key=dense_sort_key)
        coeff, rest = source.linear_coefficient(name)
        value = rest * (Fraction(-1) / coeff)
        log.append((name, value, source))
        previous, live = live, {}
        for e, info in previous.items():
            if i in info[0]:
                add(e.substitute(name, value))
            elif e not in live:
                live[e] = info


def shown(log) -> list:
    return [(name, str(value), str(source)) for name, value, source in log]


def assert_agrees(system: ConstraintSystem, got=None):
    ring = dense_poly.PolyRing(system.ring.names)
    want = textbook_eliminate(ring, [dense_copy(ring, e) for e in system.equations])
    got = eliminate(system) if got is None else got
    assert got.kind == want["kind"]
    assert shown(got.assignments) == shown(want["log"])
    if got.kind == "contradiction":
        assert str(got.witness) == str(want["witness"])
    else:
        assert [str(e) for e in got.residual] == [str(e) for e in want["residual"]]
        assert got.free == want["free"]


SCENARIOS = ("prop32-nonexist", "prop33-nonexist", "thm39-nonexist",
             "thm35-class", "thm36-class", "thm37-class", "thm42-class", "thm45-class",
             "prop43-nolie", "prop46-nolie")
CASES = [(sid, n) for sid in SCENARIOS for n in (5, 6, 7) if verify.SCENARIOS[sid].admissible(n)]
CASES.append(("thm39-nonexist", 8))


@pytest.mark.parametrize("sid,n", CASES, ids=[f"{sid}@{n}" for sid, n in CASES])
def test_scenario_systems_match_the_textbook_elimination(sid, n, monkeypatch):
    """The outcome the scenario itself got, for each system it generated."""
    generated, outcomes = [], []

    def generating(*args, **kwargs):
        generated.append(generate(*args, **kwargs))
        return generated[-1]

    def eliminating(system):
        outcomes.append((system, solve(system)))
        return outcomes[-1][1]

    generate, solve = verify.generate_constraints, verify.eliminate
    monkeypatch.setattr(verify, "generate_constraints", generating)
    monkeypatch.setattr(verify, "eliminate", eliminating)
    assert verify.run_scenario(sid, n, 0).verdict == "pass"
    checked = [(system, outcome) for system, outcome in outcomes
               if any(system is g for g in generated)]
    assert generated and len(checked) == len(generated)
    for system, outcome in checked:
        assert_agrees(system, outcome)


NAMES = ("a", "b", "c", "d", "e", "f")
SPARSE = PolyRing(NAMES)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
terms = st.lists(st.tuples(st.lists(st.integers(0, len(NAMES) - 1), min_size=1, max_size=3), coeffs),
                 min_size=1, max_size=4)


def build(spec) -> Poly:
    p = SPARSE.zero
    for indices, c in spec:
        t = SPARSE.const(c)
        for i in indices:
            t = t * SPARSE.var(NAMES[i])
        p = p + t
    return p


@st.composite
def equations(draw):
    """Up to four terms of degree 1 to 3 and a constant; half of them made
    solvable for one variable."""
    p = build(draw(terms)) + draw(st.one_of(st.just(0), coeffs))
    if draw(st.booleans()):
        name = draw(st.sampled_from(NAMES))
        p = p.substitute(name, 0) + SPARSE.var(name) * draw(coeffs)
    return p


@st.composite
def systems(draw):
    """Random equations, plus now and then a duplicate of one (up to a
    scalar), a nonzero constant, and a pair that becomes equal once ``a`` is
    solved for from ``a - b``."""
    eqs = draw(st.lists(equations(), min_size=1, max_size=8))
    if draw(st.integers(0, 2)) == 0:
        eqs.append(draw(st.sampled_from(eqs)) * draw(st.sampled_from((1, -2, Fraction(1, 3)))))
    if draw(st.integers(0, 4)) == 0:
        eqs.append(SPARSE.const(draw(coeffs)))
    if draw(st.booleans()):
        a, b, c = (SPARSE.var(name) for name in "abc")
        tail = draw(equations()).substitute("a", 0)
        eqs += [a - b, a * c + tail, b * c + tail]
    draw(st.randoms()).shuffle(eqs)
    return ConstraintSystem(SPARSE, tuple(eqs))


def made_system(name: str) -> ConstraintSystem:
    a, b, c, d, e = (SPARSE.var(x) for x in "abcde")
    if name == "cancel":  # a := b cancels a*c - b*c, so the second equation loses two terms
        return ConstraintSystem(SPARSE, (a - b, a * c - b * c + 2 * d - 1, c * d + e))
    # a := b makes the second and third equations equal; one of them then
    # gives d := -b*c*e - 1, which the last one takes squared
    return ConstraintSystem(SPARSE, (2 * a - 2 * b, a * c * e + d + 1, b * c * e + d + 1, a * a * e - 3 * d * d * c))


@pytest.mark.parametrize("name", ["cancel", "merge"])
def test_made_systems_match_the_textbook_elimination(name):
    assert_agrees(made_system(name))


@given(systems())
@settings(max_examples=100, deadline=None)
def test_random_systems_match_the_textbook_elimination(system):
    assert_agrees(system)
