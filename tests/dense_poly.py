"""Dense-exponent polynomials: a test-only oracle for ``leibnizalg.poly``.

This is the polynomial implementation the library used before monomials
became sparse: terms are kept as a map from dense exponent tuples (one slot
per ring indeterminate) to nonzero Fraction coefficients; display and
tie-breaking use graded-lexicographic term order. ``tests/test_poly_oracle.py``
checks that the sparse library version agrees with it operation by operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class PolyRing:
    """An ordered collection of indeterminate names.

    Every :class:`Poly` belongs to exactly one ring; mixing rings is an error.
    """

    __slots__ = ("names", "index", "_zero_exp")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate indeterminate names")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self._zero_exp = (0,) * len(names)

    def __repr__(self) -> str:
        return f"PolyRing({', '.join(self.names)})"

    def var(self, name: str) -> "Poly":
        if name not in self.index:
            raise KeyError(f"unknown indeterminate {name!r}")
        exp = [0] * len(self.names)
        exp[self.index[name]] = 1
        return Poly(self, {tuple(exp): Fraction(1)})

    def const(self, value: Scalar) -> "Poly":
        coeff = Fraction(value)
        if coeff == 0:
            return Poly(self, {})
        return Poly(self, {self._zero_exp: coeff})

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)


def _grlex_key(item):
    exp, _ = item
    return (sum(exp), exp)


class Poly:
    """Immutable multivariate polynomial over a :class:`PolyRing`."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Fraction]):
        self.ring = ring
        self._terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None

    # -- basic structure ------------------------------------------------

    def terms(self):
        """Term items sorted in descending graded-lex order."""
        return sorted(self._terms.items(), key=_grlex_key, reverse=True)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._terms)

    def as_rational(self) -> Fraction:
        """Value of a degree-0 polynomial; raises if any indeterminate occurs."""
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self._terms.values()))

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def variables(self) -> tuple[str, ...]:
        """Names occurring with positive exponent, in ring order."""
        seen = set()
        for e in self._terms:
            for i, k in enumerate(e):
                if k:
                    seen.add(i)
        return tuple(self.ring.names[i] for i in sorted(seen))

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
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring.zero
            return Poly(self.ring, {e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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
        """Exact substitution of ``value`` (Poly or scalar) for ``name``."""
        if name not in self.ring.index:
            raise KeyError(f"unknown indeterminate {name!r}")
        i = self.ring.index[name]
        if isinstance(value, (int, Fraction)):
            value = self.ring.const(value)
        elif value.ring is not self.ring:
            raise ValueError("substitution value from a different ring")
        out: dict = {}
        powers: dict = {}
        for e, c in self._terms.items():
            k = e[i]
            if k == 0:
                out[e] = out.get(e, 0) + c
                continue
            if k not in powers:
                powers[k] = (value if k == 1 else value**k)._terms.items()
            reste = list(e)
            reste[i] = 0
            for e2, c2 in powers[k]:
                ee = tuple(a + b for a, b in zip(reste, e2))
                out[ee] = out.get(ee, 0) + c * c2
        return Poly(self.ring, out)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation; every occurring indeterminate must be assigned."""
        total = Fraction(0)
        for e, c in self._terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    name = self.ring.names[i]
                    if name not in assignment:
                        raise KeyError(f"no value for indeterminate {name!r}")
                    v *= Fraction(assignment[name]) ** k
            total += v
        return total

    # -- solver helpers ----------------------------------------------------

    def linear_coefficient(self, name: str):
        """If the poly is ``c*name + rest`` with constant c != 0 and ``name``
        absent from ``rest``, return ``(c, rest)``; otherwise ``None``."""
        i = self.ring.index[name]
        coeff = Fraction(0)
        rest: dict = {}
        for e, c in self._terms.items():
            k = e[i]
            if k == 0:
                rest[e] = c
            elif k == 1 and not any(e[j] for j in range(len(e)) if j != i):
                coeff += c
            else:
                return None
        if coeff == 0:
            return None
        return coeff, Poly(self.ring, rest)

    def content_normalized(self) -> "Poly":
        """Canonical scalar multiple: integer coprime coefficients, leading
        (graded-lex greatest) coefficient positive."""
        if not self._terms:
            return self
        denoms = lcm(*(c.denominator for c in self._terms.values()))
        numers = gcd(*(c.numerator for c in self._terms.values()))
        scale = Fraction(denoms, numers)
        lead = max(self._terms.items(), key=_grlex_key)
        if lead[1] * scale < 0:
            scale = -scale
        if scale == 1:
            return self
        return Poly(self.ring, {e: c * scale for e, c in self._terms.items()})

    # -- display -----------------------------------------------------------

    def _monomial_str(self, exp) -> str:
        parts = []
        for i, k in enumerate(exp):
            if k == 1:
                parts.append(self.ring.names[i])
            elif k > 1:
                parts.append(f"{self.ring.names[i]}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for e, c in self.terms():
            mono = self._monomial_str(e)
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


def dense_exp(mono, width):
    """The dense exponent tuple a sparse monomial (sorted indices) stands for."""
    exp = [0] * width
    for i in mono:
        exp[i] += 1
    return tuple(exp)


def dense_sort_key(p):
    """Fewest terms first, then the terms in descending graded-lex order: the
    tie-break of the library's elimination, on dense exponent vectors."""
    return (p.num_terms, tuple(p.terms()))
