"""Derivation algebras of structure-constant algebras.

The derivation equation d([u,v]) = [d(u),v] + [u,d(v)] over all basis pairs is
a linear system in the dim^2 matrix entries; its canonical nullspace basis is
the derivation space. :func:`is_derivation` checks one matrix (rational or
Poly entries) by a walk over the nonzero cells of the integer-scaled product
table and the nonzero entries of the matrix. Nil-independence is computed
from the diagonal rank, which is exact for spaces of upper-triangular
matrices (every family handled here), with a randomized cross-check guarding
the triangularity assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .algebra import Algebra
from .linalg import Matrix, int_is_nilpotent, nullspace, rank, rref, scale_to_integers
from .poly import Poly, PolyRing

# the randomized nil-independence cross-check: combinations drawn, fixed seed
NIL_CHECK_TRIALS = 32
NIL_CHECK_SEED = 7


def derivation_equations(alg: Algebra):
    """The derivation equation d([e_i,e_j]) = [d(e_i),e_j] + [e_i,d(e_j)], one
    coordinate m at a time, in the order of (i, j, m). Each equation is a pair
    (lhs, rhs) of sparse linear terms ((r*dim + s, c), ...) over the flat
    entries of d, whose row r is the image of e_r; a side may repeat an index
    or be empty."""
    d = alg.dim
    prods = alg.table
    for i in range(d):
        for j in range(d):
            lhs = [[] for _ in range(d)]
            rhs = [[] for _ in range(d)]
            for k, c in prods[i][j]:  # d([ei,ej])
                for m in range(d):
                    lhs[m].append((k * d + m, c))
            for p in range(d):
                for m, c in prods[p][j]:  # [d(ei),ej]
                    rhs[m].append((i * d + p, c))
                for m, c in prods[i][p]:  # [ei,d(ej)]
                    rhs[m].append((j * d + p, c))
            yield from zip(lhs, rhs)


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
        d = self.algebra.dim
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = ring.zero
                for name, mat in zip(self.param_names, self.basis):
                    c = mat.rows[i][j]
                    if c:
                        acc = acc + ring.var(name) * c
                row.append(acc)
            rows.append(tuple(row))
        return Matrix(tuple(rows))


def _names_for(vectors, d: int) -> tuple:
    names = []
    for vec in vectors:
        lead = next(i for i, c in enumerate(vec) if c)
        names.append(f"t{lead // d:02d}c{lead % d:02d}")
    return tuple(names)


def derivation_space(alg: Algebra) -> DerivationSpace:
    """Full derivation algebra as a canonical matrix-space basis."""
    d = alg.dim
    rows = []
    for lhs, rhs in derivation_equations(alg):
        row = [0] * (d * d)
        for idx, c in lhs:
            row[idx] += c
        for idx, c in rhs:
            row[idx] -= c
        if any(row):
            rows.append(row)
    vecs = nullspace(rows, d * d)
    mats = tuple(Matrix(tuple(tuple(v[i * d + j] for j in range(d)) for i in range(d))) for v in vecs)
    return DerivationSpace(alg, mats, _names_for(vecs, d))


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
    flats = [right_multiplication(alg, j).flat() for j in range(d)]
    flats = [f for f in flats if any(f)]
    if not flats:
        return DerivationSpace(alg, (), ())
    vecs, _ = rref(flats, d * d)
    mats = tuple(Matrix(tuple(tuple(v[i * d + j] for j in range(d)) for i in range(d))) for v in vecs)
    return DerivationSpace(alg, mats, _names_for(vecs, d))


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
