"""Exact linear algebra over the rationals, on sparse rows.

A row has one form throughout the package: its nonzero ``(col, c)`` pairs,
sorted by col, the form of a product-table cell. A d x d linear map is the
tuple of its d rows (row i lists the nonzero coordinates of the image of
b_i), whatever the scalar: a basis change, a derivation, the symbolic
extension template. :func:`rref`, :func:`rank` and :func:`nullspace` take
``int``/``Fraction`` rows in that form (a zero entry is allowed and
dropped) and return them with ``Fraction`` entries; :func:`dense_row`
expands a row for code that indexes entries by position.

The exact checks run on integers: :func:`scale_to_integers` multiplies
``int``/``Fraction`` entries by the least common multiple of their
denominators, and the caller builds at most one ``Fraction`` per output
entry. Row reduction keeps each row's nonzero entries as a ``{col: int}``
dict scaled to coprime integers and runs the sparse fraction-free kernel in
``_rref_py``; :func:`kernel_basis` solves rows already in the kernel's form,
:func:`int_inverse` returns an inverse as integer rows over one common
denominator, and :func:`unitriangular_solve` solves y T = v without one.
Everything returned by the reductions is in canonical reduced row echelon
form with leading coefficient 1, so subspace bases and solution sets are
reproducible across runs."""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from . import _rref_py

_ZERO = Fraction(0)

# every reduction calls the kernel through this module attribute; the verdict
# benchmark's tracer wraps linalg._kernel.rref_int by that name.
_kernel = _rref_py


def binomial(n: int, k: int) -> Fraction:
    """Combinatorial binomial coefficient; 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


# -- integer scaling ---------------------------------------------------------


def scale_to_integers(entries: Sequence) -> tuple[list[int], int]:
    """(ints, den): den is the least common multiple of the denominators of
    the ``int``/``Fraction`` entries and ints[i] = entries[i] * den. Any other
    entry type raises TypeError."""
    den = 1
    for x in entries:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"expected int or Fraction entries, got {type(x).__name__}")
        q = x.denominator
        if den % q:
            den = lcm(den, q)
    return [x.numerator * (den // x.denominator) for x in entries], den


def to_fraction(x) -> Fraction:
    """``x`` as a Fraction; like :func:`scale_to_integers`, any type other
    than int or Fraction raises TypeError."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    (num,), den = scale_to_integers((x,))
    return Fraction(num, den)


# -- rows --------------------------------------------------------------------


def dense_row(row: Sequence, width: int, zero=_ZERO) -> tuple:
    """The ``width`` entries of a sparse row, ``zero`` in the gaps."""
    vec = [zero] * width
    for c, x in row:
        vec[c] = x
    return tuple(vec)


def is_upper_triangular(rows: Sequence) -> bool:
    """True iff no row i of a map lists a column left of i."""
    return all(c >= i for i, row in enumerate(rows) for c, _ in row)


def is_unitriangular(rows: Sequence, one=1) -> bool:
    """True iff a map is upper triangular with every diagonal entry ``one``
    (integer rows of a unitriangular map over the denominator ``one``)."""
    return is_upper_triangular(rows) and all(row and row[0] == (i, one) for i, row in enumerate(rows))


def lowest_terms(row: Sequence, den: int) -> tuple:
    """(row, den) for the integer row over ``den``, both divided by the gcd
    of den and the row's entries."""
    g = gcd(den, *(c for _, c in row))
    return (row, den) if g == 1 else (tuple((k, c // g) for k, c in row), den // g)


def common_denominator(pairs: Sequence) -> tuple:
    """(rows, den): the integer rows of the ``(row, den_i)`` pairs, each
    over its own den_i, brought over den = lcm(den_i)."""
    den = lcm(*(d for _, d in pairs))
    return tuple(row if d == den else tuple((k, c * (den // d)) for k, c in row) for row, d in pairs), den


def unitriangular_solve(v: Sequence, rows: Sequence) -> tuple:
    """The sparse row y with y . T = v for an upper unitriangular T (else
    ValueError), by forward substitution with +, - and * only."""
    if not is_unitriangular(rows):
        raise ValueError("map is not upper unitriangular")
    acc, y = dict(v), []
    for k, row in enumerate(rows):
        if c := acc.pop(k, 0):
            y.append((k, c))
            for j, t in row[1:]:
                acc[j] = acc.get(j, 0) - c * t
    return tuple(y)


# -- row reduction -----------------------------------------------------------


def _primitive(entries) -> dict:
    """The nonzero ``(col, x)`` pairs, x an int or Fraction, as ``{col: int}``
    scaled to coprime integers."""
    ints, _ = scale_to_integers([x for _, x in entries])
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return {c: x for (c, _), x in zip(entries, ints) if x}


def rref(rows: Sequence[Sequence]) -> tuple:
    """Canonical RREF of the span of sparse rows. Returns (rows, pivots);
    each row has leading entry 1 at its pivot."""
    work = {frozenset(row.items()): row for row in map(_primitive, rows) if row}
    if not work:
        return (), ()
    reduced = _kernel.rref_int(list(work.values()))
    pivots = tuple(min(row) for row in reduced)
    return tuple(tuple((c, Fraction(row[c], row[lead])) for c in sorted(row))
                 for row, lead in zip(reduced, pivots)), pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> tuple:
    """Canonical basis (RREF, sparse rows) of the right kernel of the rows
    over ``ncols`` columns."""
    last = ncols - 1
    work = {frozenset(row.items()): row for row in map(_primitive, rows) if row}
    reversed_rows = [{last - c: x for c, x in row.items()} for row in work.values()]
    return tuple(kernel_basis(reversed_rows, ncols).values())


def kernel_basis(work: list, ncols: int) -> dict:
    """``{f: row}`` over the free columns f, ascending: the canonical kernel
    basis of the distinct primitive ``{col: int}`` rows ``work``, column c
    stored as ``ncols - 1 - c``; each basis row is sparse with leading 1 at f.

    One reduction in the reversed order: each pivot row R_t has its pivot
    p_t rightmost and zeros in the other pivot columns, so the kernel vector
    e_f - sum_t (R_t[f] / R_t[p_t]) e_{p_t} of f is zero in every other free
    column, and the basis is already in RREF.
    """
    last = ncols - 1
    reduced = _kernel.rref_int(work) if work else []
    pivots = {last - min(row) for row in reduced}
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots}
    for row in reduced:
        lead = min(row)
        den = row[lead]
        for c, x in row.items():
            if c != lead:
                basis[last - c][last - lead] = Fraction(-x, den)
    return {f: tuple(sorted(vec.items())) for f, vec in basis.items()}


# -- maps --------------------------------------------------------------------


def int_inverse(rows: Sequence) -> tuple:
    """(inv, den) for an invertible d x d rational map T, given as its d
    sparse rows: ``inv`` holds the sparse integer rows of den * T^-1, and den
    is the least common multiple of the denominators of T^-1's entries, so
    T . inv = den * I. Raises ValueError on singular input.

    Each row of [T | I] is scaled to integers on its own, and one reduction
    of their span gives [I | T^-1] when T is invertible, since the pivots
    then all fall in T's columns. The kernel returns each row primitive with
    a positive leading entry, its lead times e_i followed by lead times row i
    of T^-1, so den is the lcm of the leads."""
    d = len(rows)
    if any(row and not (0 <= row[0][0] and row[-1][0] < d) for row in rows):
        raise ValueError(f"column index out of range for a {d} x {d} matrix")
    reduced = _kernel.rref_int([_primitive([*row, (d + a, 1)]) for a, row in enumerate(rows)])
    if reduced and min(reduced[-1]) >= d:
        raise ValueError("singular matrix")
    leads = [row[min(row)] for row in reduced]
    den = lcm(*leads)
    inverse = tuple(tuple((c - d, x * (den // lead)) for c, x in sorted(row.items()) if c >= d)
                    for row, lead in zip(reduced, leads))
    return inverse, den
