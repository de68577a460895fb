"""Derivation algebras of structure-constant algebras.

The derivation equation d([u,v]) = [d(u),v] + [u,d(v)] over all basis pairs is
a linear system in the dim^2 matrix entries, built as sparse integer rows
from the integer-scaled product table; its canonical nullspace basis is the
derivation space. :func:`is_derivation` checks one matrix (rational or Poly
entries) by a walk over the nonzero cells of the same table and the nonzero
entries of the matrix. Nil-independence is computed from the diagonal rank,
which is exact for spaces of upper-triangular matrices (every family handled
here), with a randomized cross-check guarding the triangularity assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .algebra import Algebra
from .linalg import Matrix, int_is_nilpotent, kernel_basis, rank, rref, scale_to_integers
from .poly import Poly, PolyRing

# the randomized nil-independence cross-check: combinations drawn, fixed seed
NIL_CHECK_TRIALS = 32
NIL_CHECK_SEED = 7


@dataclass(frozen=True)
class DerivationSpace:
    algebra: Algebra
    basis: tuple  # Matrix instances, canonical RREF basis of the solution space
    param_names: tuple  # one indeterminate name per basis matrix

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def ring(self) -> PolyRing:
        return PolyRing(self.param_names)

    def generic_matrix(self, ring: Optional[PolyRing] = None) -> Matrix:
        """The general element: sum of param_name * basis matrix, entries Poly."""
        if ring is None:
            ring = self.ring()
        flat = [ring.zero] * (self.algebra.dim ** 2)
        for name, mat in zip(self.param_names, self.basis):
            var = ring.var(name)
            for idx, c in enumerate(mat.flat()):
                if c:
                    flat[idx] = flat[idx] + var * c
        return _matrix(flat, self.algebra.dim)


def _param_name(flat: int, d: int) -> str:
    """``tRRcCC``: the name of the basis matrix led by entry (RR, CC)."""
    return f"t{flat // d:02d}c{flat % d:02d}"


def _matrix(vec, d: int) -> Matrix:
    return Matrix(tuple(tuple(vec[i * d:(i + 1) * d]) for i in range(d)))


def derivation_space(alg: Algebra) -> DerivationSpace:
    """Full derivation algebra as a canonical matrix-space basis.

    Flat entry r*d + s of the unknown matrix is the b_s coordinate of d(b_r).
    The equation of coordinate m at (b_i, b_j) is a sparse ``{col: int}``
    row read off the nonzero cells of the integer-scaled table, with flat
    entry t stored as column d^2 - 1 - t (the reversed order of
    :func:`~leibnizalg.linalg.kernel_basis`), divided by its content and
    kept once. Each basis matrix is named after its free (leading) entry.
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
    return DerivationSpace(alg, tuple(_matrix(vec, d) for vec in basis.values()),
                           tuple(_param_name(f, d) for f in basis))


def is_derivation(alg: Algebra, mat: Matrix) -> bool:
    """Check d([b_i,b_j]) = [d(b_i),b_j] + [b_i,d(b_j)] on all basis pairs,
    where row r of ``mat`` is d(b_r).

    One walk over the nonzero cells of the integer-scaled table
    (:attr:`~leibnizalg.algebra.Algebra.scaled`, computed once per algebra,
    so many checks on one algebra scale its table once) and the nonzero
    entries of ``mat``, one i-slab at a time, as in
    :func:`~leibnizalg.algebra.leibniz_defects`: ``cells`` lists the nonzero
    products of each b_i, ``images`` the nonzero entries of each d(b_i),
    ``preimages`` the (j, v) with v b_p in d(b_j). Every term is one table
    coefficient times one matrix entry, so scaling the table or the matrix
    scales every defect and keeps the verdict. A rational ``mat`` is scaled
    to integers too; Poly entries, as in the symbolic template of
    :func:`~leibnizalg.extensions.build_extension_problem`, are used as they
    are. Returns False at the first slab with a nonzero defect.
    """
    d = alg.dim
    if mat.nrows != d or mat.ncols != d:
        raise ValueError(f"matrix must be {d}x{d}")
    prods = alg.scaled[0]
    entries = [(idx, e) for idx, e in enumerate(mat.flat()) if e]
    values = [e for _, e in entries]
    if not any(isinstance(e, Poly) for e in values):
        values, _ = scale_to_integers(values)
    cells = [[(j, cell) for j, cell in enumerate(plane) if cell] for plane in prods]
    images = [[] for _ in range(d)]
    for (idx, _), v in zip(entries, values):
        i, m = divmod(idx, d)
        images[i].append((m, v))
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


def right_multiplication(alg: Algebra, j: int) -> Matrix:
    """The operator u -> [u, e_j] as a matrix of image rows."""
    d = alg.dim
    return Matrix(tuple(tuple(alg.coefficient(i, j, k) for k in range(d)) for i in range(d)))


def inner_derivations(alg: Algebra) -> DerivationSpace:
    """Span of the right multiplications."""
    d = alg.dim
    vecs, pivots = rref([right_multiplication(alg, j).flat() for j in range(d)], d * d)
    return DerivationSpace(alg, tuple(_matrix(vec, d) for vec in vecs),
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
    if not all(m.is_upper_triangular() for m in space.basis):
        raise ValueError("nil-independence count requires an upper-triangular derivation basis")
    diag_rows = [list(m.diagonal()) for m in space.basis]
    r = rank(diag_rows, alg.dim)
    # a nonzero multiple of a combination has the same nilpotency and the same
    # zero pattern on its diagonal, so each combination is built in integers:
    # the basis over its common denominator, times the coefficients' lcm
    d = alg.dim
    size = d * d
    flat, _ = scale_to_integers([e for m in space.basis for e in m.flat()])
    basis = [flat[k * size:(k + 1) * size] for k in range(len(space.basis))]
    rng = random.Random(NIL_CHECK_SEED)
    for _ in range(NIL_CHECK_TRIALS):
        coeffs = [_random_rational(rng) for _ in space.basis]
        den = lcm(*(c.denominator for c in coeffs))
        combo = [0] * size
        for c, m in zip(coeffs, basis):
            w = c.numerator * (den // c.denominator)
            combo = [a + w * b for a, b in zip(combo, m)]
        rows = [combo[i * d:(i + 1) * d] for i in range(d)]
        diag_zero = not any(rows[i][i] for i in range(d))
        if int_is_nilpotent(rows) != diag_zero:
            raise RuntimeError("triangularity assumption failed: nilpotency disagrees with diagonal")
    return r


def outer_dimension(alg: Algebra) -> int:
    """dim Der - dim Inner."""
    return derivation_space(alg).dimension - inner_derivations(alg).dimension
