"""Derivation algebras of structure-constant algebras.

The derivation equation d([u,v]) = [d(u),v] + [u,d(v)] over all basis pairs is
a linear system in the dim^2 matrix entries; its canonical nullspace basis is
the derivation space. Nil-independence is computed from the diagonal rank,
which is exact for spaces of upper-triangular matrices (every family handled
here), with a randomized cross-check guarding the triangularity assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Algebra
from .linalg import Matrix, matrix_is_nilpotent, nullspace, rank, rref
from .poly import PolyRing


def derivation_equations(alg: Algebra):
    """The derivation equation d([e_i,e_j]) = [d(e_i),e_j] + [e_i,d(e_j)], one
    coordinate m at a time, in the order of (i, j, m). Each equation is a pair
    (lhs, rhs) of sparse linear terms ((r*dim + s, c), ...) over the flat
    entries of d, whose row r is the image of e_r; a side may repeat an index
    or be empty."""
    d = alg.dim
    prods = alg._products
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
    """Check d([u,v]) = [d(u),v] + [u,d(v)] on all basis pairs.

    Works for rational and for polynomial entries alike.
    """
    d = alg.dim
    if mat.nrows != d or mat.ncols != d:
        raise ValueError(f"matrix must be {d}x{d}")
    flat = mat.flat()
    for lhs, rhs in derivation_equations(alg):
        acc = 0
        for idx, c in lhs:
            if flat[idx]:
                acc = acc + c * flat[idx]
        for idx, c in rhs:
            if flat[idx]:
                acc = acc - c * flat[idx]
        if acc:
            return False
    return True


def right_multiplication(alg: Algebra, j: int) -> Matrix:
    """The operator u -> [u, e_j] as a matrix of image rows."""
    d = alg.dim
    return Matrix(tuple(tuple(alg.tensor[i][j][k] for k in range(d)) for i in range(d)))


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


def max_nil_independent(space: DerivationSpace, trials: int = 32, seed: int = 7) -> int:
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
    if all(not c for plane in alg.tensor for row in plane for c in row):
        return alg.dim
    if not all(m.is_upper_triangular() for m in space.basis):
        raise ValueError("nil-independence count requires an upper-triangular derivation basis")
    diag_rows = [list(m.diagonal()) for m in space.basis]
    r = rank(diag_rows, alg.dim)
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [_random_rational(rng) for _ in space.basis]
        combo = space.basis[0].scaled(coeffs[0])
        for c, m in zip(coeffs[1:], space.basis[1:]):
            combo = combo + m.scaled(c)
        diag_zero = all(not e for e in combo.diagonal())
        if matrix_is_nilpotent(combo) != diag_zero:
            raise RuntimeError("triangularity assumption failed: nilpotency disagrees with diagonal")
    return r


def outer_dimension(alg: Algebra) -> int:
    """dim Der - dim Inner."""
    return derivation_space(alg).dimension - inner_derivations(alg).dimension
