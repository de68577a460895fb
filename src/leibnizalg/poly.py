"""Multivariate polynomials over exact rationals in named indeterminates.

A monomial is the sorted tuple of the indices of its indeterminates, with
repetition: ``x0*x2`` is ``(0, 2)``, ``x1^2`` is ``(1, 1)`` and ``1`` is
``()``. A polynomial maps monomials to nonzero rational coefficients, so its
cost follows its terms and their degree, not the width of its ring (the
sparse monomials of Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007). Every :class:`Poly`
is immutable and caches the set of indices it contains.

A coefficient is a Python ``int`` wherever the arithmetic that made it stays
integral (``var``, integral ``const`` values, products and sums of ``int``
coefficients, and every :meth:`Poly.content_normalized` result), and a
``Fraction`` only where a non-integral scalar entered; an integral
``Fraction`` from such arithmetic may remain. ``int`` and ``Fraction``
compare and hash alike, so equality, hashing, display and ordering do not
depend on which of the two a coefficient is. Scalars other than ``int`` and
``Fraction`` (``float``, ``str``, ...) raise ``TypeError``.

Monomials are ordered as the dense exponent vectors they stand for. The
lexicographic order of exponent vectors is the tuple order of the negated
indices (:func:`lex_key`); graded-lex puts the degree first. Display and
tie-breaking use descending graded-lex order, which within one degree is the
ascending tuple order of the indices themselves. A degree-0 polynomial
round-trips to its value, as a Fraction, via :meth:`Poly.as_rational`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import neg
from typing import Iterable, Mapping, Sequence, Union

from .linalg import scale_to_integers

Rational = Fraction

Scalar = Union[int, Fraction]


def lex_key(mono: tuple) -> tuple:
    """Sort key under which monomials compare as their dense exponent vectors do."""
    return tuple(map(neg, mono))


def _scalar(value) -> Scalar:
    """``value`` as an int when it is integral, else as a Fraction; any type
    other than int or Fraction raises the TypeError of
    :func:`~leibnizalg.linalg.scale_to_integers`."""
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value if value.denominator != 1 else value.numerator
    (coeff,), _ = scale_to_integers((value,))
    return coeff


def _term_grlex_desc(item):
    # descending graded-lex: higher degree first, then ascending indices
    mono = item[0]
    return (-len(mono), mono)


class PolyRing:
    """An ordered collection of indeterminate names.

    Every :class:`Poly` belongs to exactly one ring; mixing rings is an error.
    """

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate indeterminate names")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __repr__(self) -> str:
        return f"PolyRing({', '.join(self.names)})"

    def var(self, name: str) -> "Poly":
        if name not in self.index:
            raise KeyError(f"unknown indeterminate {name!r}")
        return Poly._raw(self, {(self.index[name],): 1})

    def const(self, value: Scalar) -> "Poly":
        coeff = _scalar(value)
        if not coeff:
            return Poly._raw(self, {})
        return Poly._raw(self, {(): coeff})

    @property
    def zero(self) -> "Poly":
        return Poly._raw(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)


class Poly:
    """Immutable multivariate polynomial over a :class:`PolyRing`.

    ``terms`` maps monomials (sorted tuples of ring indices, see the module
    docstring) to ``int`` or ``Fraction`` coefficients (see the module
    docstring for which); zero coefficients are dropped.
    """

    __slots__ = ("ring", "_terms", "_hash", "_vars")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Scalar]):
        self.ring = ring
        self._terms = {m: c for m, c in terms.items() if c != 0}
        self._hash = None
        self._vars = None

    @classmethod
    def _raw(cls, ring: PolyRing, terms: dict) -> "Poly":
        """Wrap ``terms``, which hold no zero coefficient, without copying."""
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        p._hash = None
        p._vars = None
        return p

    # -- basic structure ------------------------------------------------

    def terms(self):
        """Term items sorted in descending graded-lex order."""
        return sorted(self._terms.items(), key=_term_grlex_desc)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and () in terms)

    def as_rational(self) -> Fraction:
        """Value of a degree-0 polynomial; raises if any indeterminate occurs."""
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[()])

    def degree(self) -> int:
        return max(map(len, self._terms), default=0)

    def _indices(self) -> frozenset:
        """Indices of the occurring indeterminates, computed once."""
        if self._vars is None:
            self._vars = frozenset().union(*self._terms)
        return self._vars

    def variables(self) -> tuple[str, ...]:
        """Names occurring with positive exponent, in ring order."""
        names = self.ring.names
        return tuple(names[i] for i in sorted(self._indices()))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s += c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _scalar(other)
            if not other:
                return self.ring.zero
            return Poly._raw(self.ring, {m: c * other for m, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        get = out.get
        right = other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in right:
                # the product of two monomials merges their sorted indices
                m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
                t = c1 * c2
                s = get(m)
                if s is not None:
                    t += s
                    if not t:  # only merged terms can cancel
                        del out[m]
                        continue
                out[m] = t
        return Poly._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return self.ring.one if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly) or other.ring is not self.ring:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- substitution / evaluation ----------------------------------------

    def substitute(self, name: str, value) -> "Poly":
        """Exact substitution of ``value`` (Poly or scalar) for ``name``.

        Only the terms that contain ``name`` are rewritten: a term holding
        ``name**k`` takes the terms of ``value**k``, built once per k, so a
        zero value only deletes them. A Poly from another ring raises
        ValueError, and a value that is not a Poly, an int or a Fraction
        raises TypeError."""
        ring = self.ring
        if name not in ring.index:
            raise KeyError(f"unknown indeterminate {name!r}")
        i = ring.index[name]
        if not isinstance(value, Poly):
            value = ring.const(value)
        elif value.ring is not ring:
            raise ValueError("substitution value from a different ring")
        if i not in self._indices():
            return self
        terms = self._terms
        hits = [m for m in terms if i in m]
        out = dict(terms)
        for m in hits:
            del out[m]
        get = out.get
        powers: dict = {}
        for m in hits:
            c = terms[m]
            k = m.count(i)
            rest = tuple(j for j in m if j != i) if k < len(m) else ()
            if k not in powers:
                powers[k] = (value if k == 1 else value**k)._terms.items()
            for m2, c2 in powers[k]:
                mm = tuple(sorted(rest + m2)) if rest and m2 else rest or m2
                t = c * c2
                s = get(mm)
                if s is not None:
                    t += s
                    if not t:  # only merged terms can cancel
                        del out[mm]
                        continue
                out[mm] = t
        return Poly._raw(ring, out)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation; every occurring indeterminate must be assigned an
        int or Fraction value."""
        names = self.ring.names
        total = Fraction(0)
        for m, c in self._terms.items():
            v = c
            for i in m:
                name = names[i]
                if name not in assignment:
                    raise KeyError(f"no value for indeterminate {name!r}")
                v *= _scalar(assignment[name])
            total += v
        return total

    # -- solver helpers ----------------------------------------------------

    def linear_coefficient(self, name: str):
        """If the poly is ``c*name + rest`` with constant c != 0 and ``name``
        absent from ``rest``, return ``(c, rest)``; otherwise ``None``."""
        i = self.ring.index[name]
        terms = self._terms
        coeff = terms.get((i,))
        if coeff is None:
            return None
        rest = dict(terms)
        del rest[(i,)]
        for m in rest:
            if i in m:
                return None
        return coeff, Poly._raw(self.ring, rest)

    def content_normalized(self) -> "Poly":
        """Canonical scalar multiple: coprime ``int`` coefficients, leading
        (graded-lex greatest) coefficient positive.

        The content is the ``gcd`` of the coefficients when they are all
        ``int``; a ``Fraction`` among them (``gcd`` raises TypeError) sends
        the coefficients through ``scale_to_integers`` first. An ``int``
        polynomial that is already canonical is returned as it is."""
        terms = self._terms
        if not terms:
            return self
        try:
            content = gcd(*terms.values())
        except TypeError:
            terms = dict(zip(terms, scale_to_integers(list(terms.values()))[0]))
            content = gcd(*terms.values())
        # the leading monomial: the smallest index tuple of the top degree
        deg = max(map(len, terms))
        lead = None
        for m in terms:
            if len(m) == deg and (lead is None or m < lead):
                lead = m
        if terms[lead] < 0:
            content = -content
        elif content == 1 and terms is self._terms:
            return self
        return Poly._raw(self.ring, {m: c // content for m, c in terms.items()})

    # -- display -----------------------------------------------------------

    def _monomial_str(self, mono) -> str:
        names = self.ring.names
        parts = []
        for i, run in groupby(mono):
            k = len(tuple(run))
            parts.append(names[i] if k == 1 else f"{names[i]}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for m, c in self.terms():
            mono = self._monomial_str(m)
            if mono:
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                else:
                    body = f"{c}*{mono}"
            else:
                body = str(c)
            if chunks and not body.startswith("-"):
                chunks.append(f"+ {body}")
            elif chunks:
                chunks.append(f"- {body[1:]}")
            else:
                chunks.append(body)
        return " ".join(chunks)

    __repr__ = __str__


def linear_form_rows(polys: Iterable[Poly], names: Sequence[str]) -> list:
    """Coefficient rows of linear forms, sparse: row k lists the ``(j, c)``
    with c the nonzero coefficient of ``names[j]`` in the k-th polynomial,
    sorted by j. A term whose degree is not 1 (a constant, a product) raises
    ValueError."""
    pos = {name: j for j, name in enumerate(names)}
    rows = []
    for poly in polys:
        ring_names = poly.ring.names
        row = []
        for mono, c in poly._terms.items():
            if len(mono) != 1:
                raise ValueError(f"not a linear form: {poly}")
            row.append((pos[ring_names[mono[0]]], c))
        rows.append(tuple(sorted(row)))
    return rows
