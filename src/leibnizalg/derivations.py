"""Derivation algebras of structure-constant algebras.

A derivation, like every linear map in the package, is the tuple of its
sparse rows: row r lists the nonzero ``(s, c)`` of d(b_r), the form of a
product-table cell (:mod:`~leibnizalg.linalg`). The derivation equation
d([u,v]) = [d(u),v] + [u,d(v)] over all basis pairs is a linear system in
the dim^2 matrix entries, built as sparse integer rows from the
integer-scaled product table; its canonical nullspace basis is the
derivation space. :func:`is_derivation` checks one map (rational or Poly
entries) by a walk over the nonzero cells of the same table and the nonzero
entries of the map. Nil-independence is computed from the diagonal rank,
which is exact for spaces of upper-triangular maps (every family handled
here), with a randomized cross-check guarding the triangularity assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .algebra import Algebra
from .linalg import int_is_nilpotent, is_upper_triangular, kernel_basis, rank, rref, scale_to_integers
from .poly import Poly, PolyRing

# the randomized nil-independence cross-check: combinations drawn, fixed seed
NIL_CHECK_TRIALS = 32
NIL_CHECK_SEED = 7


@dataclass(frozen=True)
class DerivationSpace:
    algebra: Algebra
    basis: tuple  # canonical RREF basis of the solution space, each map a tuple of d sparse Fraction rows
    param_names: tuple  # one indeterminate name per basis map

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def ring(self) -> PolyRing:
        return PolyRing(self.param_names)

    def generic_matrix(self, ring: Optional[PolyRing] = None) -> tuple:
        """The general element, sum of param_name * basis map, as d sparse
        rows of Poly entries."""
        if ring is None:
            ring = self.ring()
        rows = [{} for _ in range(self.algebra.dim)]
        for name, mat in zip(self.param_names, self.basis):
            var = ring.var(name)
            for row, image in zip(rows, mat):
                for m, c in image:
                    row[m] = row[m] + var * c if m in row else var * c
        return tuple(tuple((m, e) for m, e in sorted(row.items()) if e) for row in rows)


def _param_name(flat: int, d: int) -> str:
    """``tRRcCC``: the name of the basis map led by entry (RR, CC)."""
    return f"t{flat // d:02d}c{flat % d:02d}"


def _map_rows(vec: Sequence, d: int) -> tuple:
    """The d sparse rows of a map given as a sparse row over its flat
    entries r*d + s, sorted."""
    rows = [[] for _ in range(d)]
    for idx, c in vec:
        r, s = divmod(idx, d)
        rows[r].append((s, c))
    return tuple(map(tuple, rows))


def derivation_space(alg: Algebra) -> DerivationSpace:
    """Full derivation algebra as a canonical matrix-space basis.

    Flat entry r*d + s of the unknown matrix is the b_s coordinate of d(b_r).
    The equation of coordinate m at (b_i, b_j) is a sparse ``{col: int}``
    row read off the nonzero cells of the integer-scaled table, with flat
    entry t stored as column d^2 - 1 - t (the reversed order of
    :func:`~leibnizalg.linalg.kernel_basis`), divided by its content and
    kept once. Each basis map is named after its free (leading) entry.
    """
    d = alg.dim
    last = d * d - 1
    prods = alg.scaled[0]
    cells = [[(j, cell) for j, cell in enumerate(plane) if cell] for plane in prods]
    column = [[] for _ in range(d)]  # column[j]: the (p, cell) of the nonzero [b_p, b_j]
    for p, plane in enumerate(cells):
        for j, cell in plane:
            column[j].append((p, cell))
    work = {}
    for i in range(d):
        for j in range(d):
            eqs = [{} for _ in range(d)]  # eqs[m]: the equation of coordinate m
            for k, c in prods[i][j]:  # d([bi,bj])
                base = last - k * d
                for m, eq in enumerate(eqs):
                    eq[base - m] = eq.get(base - m, 0) + c
            for p, cell in column[j]:  # -[d(bi),bj]
                col = last - i * d - p
                for m, c in cell:
                    eqs[m][col] = eqs[m].get(col, 0) - c
            for p, cell in cells[i]:  # -[bi,d(bj)]
                col = last - j * d - p
                for m, c in cell:
                    eqs[m][col] = eqs[m].get(col, 0) - c
            for eq in eqs:
                eq = {col: c for col, c in eq.items() if c}
                if eq:
                    g = gcd(*eq.values())
                    if g > 1:
                        eq = {col: c // g for col, c in eq.items()}
                    work[frozenset(eq.items())] = eq
    basis = kernel_basis(list(work.values()), d * d)
    return DerivationSpace(alg, tuple(_map_rows(vec, d) for vec in basis.values()),
                           tuple(_param_name(f, d) for f in basis))


def is_derivation(alg: Algebra, rows: Sequence) -> bool:
    """Check d([b_i,b_j]) = [d(b_i),b_j] + [b_i,d(b_j)] on all basis pairs,
    where the sparse row r of ``rows`` lists the nonzero ``(s, c)`` of
    d(b_r). A wrong number of rows, or a column outside range(d), raises
    ValueError.

    One walk over the nonzero cells of the integer-scaled table
    (:attr:`~leibnizalg.algebra.Algebra.scaled`, computed once per algebra,
    so many checks on one algebra scale its table once) and the nonzero
    entries of the map, one i-slab at a time, as in
    :func:`~leibnizalg.algebra.leibniz_defects`: ``cells`` lists the nonzero
    products of each b_i, ``images`` the nonzero entries of each d(b_i),
    ``preimages`` the (j, v) with v b_p in d(b_j). Every term is one table
    coefficient times one map entry, so scaling the table or the map scales
    every defect and keeps the verdict. A rational map is scaled to integers
    too; Poly entries, as in the symbolic template of
    :func:`~leibnizalg.extensions.build_extension_problem`, are used as they
    are. Returns False at the first slab with a nonzero defect.
    """
    d = alg.dim
    if len(rows) != d:
        raise ValueError(f"map must have {d} rows, got {len(rows)}")
    if any(not 0 <= m < d for row in rows for m, _ in row):
        raise ValueError(f"column index out of range for a {d} x {d} map")
    prods = alg.scaled[0]
    values = [e for row in rows for _, e in row]
    if not any(isinstance(e, Poly) for e in values):
        ints = iter(scale_to_integers(values)[0])
        rows = [[(m, next(ints)) for m, _ in row] for row in rows]
    cells = [[(j, cell) for j, cell in enumerate(plane) if cell] for plane in prods]
    images = [[(m, v) for m, v in row if v] for row in rows]
    preimages = [[] for _ in range(d)]
    for j, image in enumerate(images):
        for p, v in image:
            preimages[p].append((j, v))
    for i in range(d):
        acc = {}  # acc[j * d + m]: coordinate m of the defect at (b_i, b_j)
        for j, cell in cells[i]:  # d([bi,bj])
            base = j * d
            for k, c in cell:
                for m, v in images[k]:
                    key = base + m
                    w = c * v
                    acc[key] = acc[key] + w if key in acc else w
        for p, v in images[i]:  # -[d(bi),bj]
            nv = -v
            for j, cell in cells[p]:
                base = j * d
                for m, c in cell:
                    key = base + m
                    w = nv * c
                    acc[key] = acc[key] + w if key in acc else w
        for p, cell in cells[i]:  # -[bi,d(bj)]
            for j, v in preimages[p]:
                nv = -v
                base = j * d
                for m, c in cell:
                    key = base + m
                    w = nv * c
                    acc[key] = acc[key] + w if key in acc else w
        if any(acc.values()):
            return False
    return True


def right_multiplication(alg: Algebra, j: int) -> tuple:
    """The map u -> [u, e_j] as its sparse rows: column j of the table."""
    return tuple(plane[j] for plane in alg.table)


def inner_derivations(alg: Algebra) -> DerivationSpace:
    """Span of the right multiplications."""
    d = alg.dim
    flat = [[(i * d + k, c) for i, row in enumerate(right_multiplication(alg, j)) for k, c in row]
            for j in range(d)]
    vecs, pivots = rref(flat)
    return DerivationSpace(alg, tuple(_map_rows(vec, d) for vec in vecs),
                           tuple(_param_name(p, d) for p in pivots))


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-100, 100), rng.randint(1, 100))


def max_nil_independent(space: DerivationSpace) -> int:
    """Maximal number of nil-independent derivations.

    Primary method: rank of the map sending a derivation to its diagonal,
    exact when the space consists of upper-triangular matrices (nilpotent
    there means zero diagonal). A fixed-seed randomized cross-check compares
    nilpotency of sampled combinations against their diagonals and raises on
    any disagreement. The zero algebra is special-cased: the diagonal matrices
    realize dim many nil-independent derivations and no more exist.
    """
    alg = space.algebra
    if not space.basis:
        return 0
    if not any(cell for plane in alg.table for cell in plane):
        return alg.dim
    if not all(is_upper_triangular(m) for m in space.basis):
        raise ValueError("nil-independence count requires an upper-triangular derivation basis")
    r = rank([(i, c) for i, row in enumerate(m) for k, c in row if k == i] for m in space.basis)
    # a nonzero multiple of a combination has the same nilpotency and the same
    # zero pattern on its diagonal, so each combination is built in integers:
    # the basis over its common denominator, times the coefficients' lcm
    d = alg.dim
    ints = iter(scale_to_integers([c for m in space.basis for row in m for _, c in row])[0])
    basis = [[(i * d + k, next(ints)) for i, row in enumerate(m) for k, _ in row] for m in space.basis]
    rng = random.Random(NIL_CHECK_SEED)
    for _ in range(NIL_CHECK_TRIALS):
        coeffs = [_random_rational(rng) for _ in space.basis]
        den = lcm(*(c.denominator for c in coeffs))
        combo = [0] * (d * d)
        for c, m in zip(coeffs, basis):
            w = c.numerator * (den // c.denominator)
            for idx, v in m:
                combo[idx] += w * v
        rows = [combo[i * d:(i + 1) * d] for i in range(d)]
        diag_zero = not any(rows[i][i] for i in range(d))
        if int_is_nilpotent(rows) != diag_zero:
            raise RuntimeError("triangularity assumption failed: nilpotency disagrees with diagonal")
    return r
