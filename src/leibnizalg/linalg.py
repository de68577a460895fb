"""Exact linear algebra over the rationals.

Row reduction clears denominators and runs the integer fraction-free kernel
in ``_rref_py``; everything returned to callers is in canonical reduced row
echelon form with leading coefficient 1, so subspace bases and solution sets
are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from . import _rref_py

# rref calls the kernel through this module attribute; the verdict benchmark's
# tracer wraps linalg._kernel.rref_int by that name.
_kernel = _rref_py


def binomial(n: int, k: int) -> Fraction:
    """Combinatorial binomial coefficient; 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


# -- row reduction -----------------------------------------------------------


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        ints = [int(Fraction(x) * den) for x in row]
        g = gcd(*ints) if any(ints) else 0
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


def rref(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None):
    """Canonical RREF. Returns (rows, pivots); rows have leading entry 1."""
    rows = [list(r) for r in rows if any(r)]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return (), ()
    seen = set()
    unique = []
    for r in rows:
        key = tuple(r)
        if key not in seen:
            seen.add(key)
            unique.append(r)
    work = _int_rows(unique)
    pivots, den = _kernel.rref_int(work, ncols)
    out = []
    for t in range(len(pivots)):
        out.append(tuple(Fraction(x, den) for x in work[t]))
    return tuple(out), tuple(pivots)


def rank(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Canonical basis (RREF form) of the right kernel of the row matrix."""
    rrows, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for t, p in enumerate(pivots):
            vec[p] = -rrows[t][f]
        basis.append(vec)
    if not basis:
        return ()
    canon, _ = rref(basis, ncols)
    return canon


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

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int, m: int) -> "Matrix":
        return cls(tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def is_upper_triangular(self) -> bool:
        return all(not self.rows[i][j] for i in range(self.nrows) for j in range(min(i, self.ncols)))

    def diagonal(self) -> tuple:
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def scaled(self, c) -> "Matrix":
        return Matrix(tuple(tuple(c * e for e in r) for r in self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = other.ncols
        out = []
        for r in self.rows:
            row = []
            for j in range(cols):
                acc = Fraction(0)
                for k, a in enumerate(r):
                    if a:
                        acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(tuple(row))
        return Matrix(tuple(out))

    def apply(self, vec):
        """Row-vector action: vec (length nrows) -> vec @ self."""
        if len(vec) != self.nrows:
            raise ValueError("vector length does not match matrix rows")
        return tuple(
            sum((vec[i] * self.rows[i][j] for i in range(self.nrows) if vec[i]), Fraction(0))
            for j in range(self.ncols)
        )

    def flat(self) -> tuple:
        return tuple(e for row in self.rows for e in row)


def matrix_is_nilpotent(mat: Matrix) -> bool:
    """True iff M^d = 0 for a d x d rational matrix (exact powering)."""
    if not mat.is_square():
        raise ValueError("nilpotency is defined for square matrices only")
    d = mat.nrows
    if d == 0:
        return True
    power = mat
    e = 1
    while True:
        if power.is_zero():
            return True
        if e >= d:
            return False
        power = power @ power
        e *= 2


def mat_inverse(mat: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix; raises on singular input."""
    if not mat.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = mat.nrows
    aug = [list(mat.rows[i]) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    rrows, pivots = rref(aug, 2 * n)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix(tuple(tuple(rrows[i][n:]) for i in range(n)))
