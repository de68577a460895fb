"""Exact linear algebra over the rationals.

The exact checks run on integers: :func:`scale_to_integers` multiplies
``int``/``Fraction`` entries by the least common multiple of their
denominators, and the caller builds at most one ``Fraction`` per output
entry. Row reduction keeps each row's nonzero entries as a ``{col: int}``
dict scaled to coprime integers and runs the sparse fraction-free kernel in
``_rref_py``; the nilpotency test powers an integer-scaled copy. Everything
returned to callers is in canonical reduced row echelon form with leading
coefficient 1, so subspace bases and solution sets are reproducible across
runs. :func:`sparse_inverse` inverts a matrix given as sparse rows, the form
of a basis change, with one call of the same kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from . import _rref_py

_ZERO = Fraction(0)
_RATIONAL_TYPES = frozenset((int, Fraction))

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
    (num,), den = scale_to_integers((x,))
    return Fraction(num, den)


# -- row reduction -----------------------------------------------------------


def _primitive(entries) -> dict:
    """The nonzero ``(col, x)`` pairs, x an int or Fraction, as ``{col: int}``
    scaled to coprime integers."""
    ints, _ = scale_to_integers([x for _, x in entries])
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return {c: x for (c, _), x in zip(entries, ints) if x}


def _sparse_int_row(row: Sequence) -> dict:
    """The nonzero entries of a rational row as ``{col: int}``, scaled to
    coprime integers."""
    if not _RATIONAL_TYPES.issuperset(map(type, row)):
        scale_to_integers(row)  # raises TypeError, for a zero entry too
    return _primitive([(c, x) for c, x in enumerate(row) if x])


def _int_rows(rows: Sequence[Sequence], last: Optional[int] = None) -> list:
    """The distinct nonzero rows as primitive ``{col: int}`` dicts; with
    ``last``, column c is stored as ``last - c`` (columns reversed)."""
    work = {}
    for row in rows:
        sparse = _sparse_int_row(row)
        if sparse:
            if last is not None:
                sparse = {last - c: x for c, x in sparse.items()}
            work[tuple(sparse.items())] = sparse
    return list(work.values())


def rref(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None):
    """Canonical RREF. Returns (rows, pivots); rows have leading entry 1."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = _int_rows(rows)
    if not work:
        return (), ()
    out = []
    pivots = []
    for row in _kernel.rref_int(work):
        lead = min(row)
        den = row[lead]
        vec = [_ZERO] * ncols
        for c, x in row.items():
            vec[c] = Fraction(x, den)
        out.append(tuple(vec))
        pivots.append(lead)
    return tuple(out), tuple(pivots)


def rank(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Canonical basis (RREF form) of the right kernel of the row matrix.

    One reduction with the column order reversed. Each of its pivot rows R_t
    has its pivot p_t rightmost and zeros in the other pivot columns, so the
    kernel vector of a free column f, e_f - sum_t (R_t[f] / R_t[p_t]) e_{p_t},
    has its leading 1 at f and zeros in every other free column: the basis
    is already in RREF.
    """
    last = ncols - 1
    work = _int_rows(rows, last)
    reduced = _kernel.rref_int(work) if work else []
    pivots = {last - min(row) for row in reduced}
    basis = {f: [_ZERO] * ncols for f in range(ncols) if f not in pivots}
    for row in reduced:
        lead = min(row)
        den = row[lead]
        for c, x in row.items():
            if c != lead:
                basis[last - c][last - lead] = Fraction(-x, den)
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    return tuple(tuple(vec) for vec in basis.values())


@dataclass(frozen=True)
class LinearSolution:
    """Exact solution set of A x = b: a particular solution (or None when the
    system is inconsistent) plus a canonical nullspace basis."""

    particular: Optional[tuple]
    nullspace: tuple

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    @property
    def dimension(self) -> int:
        return len(self.nullspace)


def solve_linear_system(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> LinearSolution:
    a_rows = [list(r) for r in a_rows]
    if len(a_rows) != len(b):
        raise ValueError(f"matrix has {len(a_rows)} rows but rhs has {len(b)} entries")
    widths = {len(r) for r in a_rows}
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    ncols = widths.pop() if widths else 0
    aug = [row + [Fraction(rhs)] for row, rhs in zip(a_rows, b)]
    rrows, pivots = rref(aug, ncols + 1)
    ns = nullspace(a_rows, ncols)
    if ncols in pivots:
        return LinearSolution(None, ns)
    particular = [Fraction(0)] * ncols
    for t, p in enumerate(pivots):
        particular[p] = rrows[t][ncols]
    return LinearSolution(tuple(particular), ns)


# -- vectors -----------------------------------------------------------------


def vec_is_zero(u) -> bool:
    return all(not a for a in u)


# -- matrices ----------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix; entries are Fractions or Polys."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if rows and len({len(r) for r in rows}) != 1:
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_upper_triangular(self) -> bool:
        return all(not self.rows[i][j] for i in range(self.nrows) for j in range(min(i, self.ncols)))

    def diagonal(self) -> tuple:
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def flat(self) -> tuple:
        return tuple(e for row in self.rows for e in row)


def matrix_is_nilpotent(mat: Matrix) -> bool:
    """True iff M^d = 0 for a d x d rational matrix (exact powering of the
    integer-scaled matrix, which is nilpotent iff M is)."""
    if not mat.is_square():
        raise ValueError("nilpotency is defined for square matrices only")
    if mat.nrows == 0:
        return True
    flat, _ = scale_to_integers(mat.flat())
    d = mat.nrows
    return int_is_nilpotent([flat[i * d:(i + 1) * d] for i in range(d)])


def int_is_nilpotent(rows: list[list[int]]) -> bool:
    """True iff M^d = 0 for a nonempty d x d integer matrix, by repeated squaring."""
    d = len(rows)
    power = rows
    e = 1
    while True:
        if not any(map(any, power)):
            return True
        if e >= d:
            return False
        cols = list(zip(*power))
        power = [[sum(a * b for a, b in zip(row, col) if a) for col in cols] for row in power]
        e *= 2


def sparse_inverse(rows: Sequence) -> tuple:
    """The inverse of an invertible d x d rational matrix, given and returned
    as its d sparse rows: row a lists the nonzero ``(i, c)`` of row a, sorted
    by i, c an int or Fraction (a Fraction on return). Raises ValueError on
    singular input.

    Each row of [T | I] is scaled to integers on its own, and one reduction
    of their span gives [I | T^-1] when T is invertible, since the pivots
    then all fall in T's columns."""
    d = len(rows)
    if any(row and not (0 <= row[0][0] and row[-1][0] < d) for row in rows):
        raise ValueError(f"column index out of range for a {d} x {d} matrix")
    reduced = _kernel.rref_int([_primitive([*row, (d + a, 1)]) for a, row in enumerate(rows)])
    if reduced and min(reduced[-1]) >= d:
        raise ValueError("singular matrix")
    inverse = []
    for row in reduced:
        lead = min(row)
        inverse.append(tuple((c - d, Fraction(x, row[lead])) for c, x in sorted(row.items()) if c >= d))
    return tuple(inverse)
