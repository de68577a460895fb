"""Structure-constant algebras: bracket, identity checking, series, predicates.

An :class:`Algebra` is a dense tensor c_{ij}^k over exact rationals on a fixed
ordered basis. All operations are pure; algebras are immutable once built.

Products are evaluated on the sparse product table ``prods[i][j] = ((k, c),
...)`` that lists the nonzero coordinates of [b_i, b_j]. Its scalars may be
Fractions or Polys: the bracket and the Leibniz defect below use only ``+``,
``-``, ``*`` and a caller-supplied zero, so the symbolic extension problem and
the graded alpha relations evaluate the same identity as the exact check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .linalg import nullspace, rref, vec_is_zero

Vector = tuple

_ZERO = Fraction(0)


# -- the product table --------------------------------------------------------


def product_table(tensor: Sequence) -> tuple:
    """Sparse table of a dense tensor: prods[i][j] lists the nonzero (k, c)."""
    return tuple(
        tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in plane) for plane in tensor
    )


def table_bracket(prods: Sequence, u: Sequence, v: Sequence, zero=_ZERO) -> list:
    """Coordinates of [u, v] for coordinate vectors over the table's basis."""
    out = [zero] * len(prods)
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = prods[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            uv = ui * vj
            for k, c in row[j]:
                out[k] = out[k] + uv * c
    return out


def leibniz_defect(prods: Sequence, i: int, j: int, k: int, zero=_ZERO) -> list:
    """Coordinates of [[b_i,b_j],b_k] - [[b_i,b_k],b_j] - [b_i,[b_j,b_k]]."""
    out = [zero] * len(prods)
    for m, c in prods[i][j]:  # [[bi,bj],bk]
        for t, c2 in prods[m][k]:
            out[t] = out[t] + c * c2
    for m, c in prods[i][k]:  # -[[bi,bk],bj]
        for t, c2 in prods[m][j]:
            out[t] = out[t] - c * c2
    for m, c in prods[j][k]:  # -[bi,[bj,bk]]
        for t, c2 in prods[i][m]:
            out[t] = out[t] - c * c2
    return out


# -- algebras -------------------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    labels: tuple
    tensor: tuple  # tensor[i][j][k]: coefficient of e_k in [e_i, e_j]
    metadata: Optional[dict] = field(default=None, compare=False, repr=False)
    _products: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        d = len(labels)
        tensor = tuple(
            tuple(tuple(Fraction(c) for c in self.tensor[i][j]) for j in range(d)) for i in range(d)
        )
        if any(len(tensor[i]) != d or any(len(tensor[i][j]) != d for j in range(d)) for i in range(d)):
            raise ValueError("tensor shape must be dim x dim x dim")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "_products", product_table(tensor))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def __repr__(self) -> str:
        name = (self.metadata or {}).get("family", "Algebra")
        return f"<{name} dim={self.dim}>"


def dense_tensor(products: Mapping, d: int) -> list:
    """Dense d x d x d tensor of a sparse {(i, j): [(k, coeff), ...]} table;
    omitted products are zero and repeated coordinates add up."""
    tensor = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), entries in products.items():
        for k, c in entries:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise ValueError(f"index out of range in product ({i},{j})->{k}")
            tensor[i][j][k] += Fraction(c)
    return tensor


def algebra_from_products(
    labels: Sequence[str],
    products: Mapping,
    metadata: Optional[dict] = None,
) -> Algebra:
    """Build an algebra from a sparse {(i, j): [(k, coeff), ...]} table;
    omitted products are zero."""
    return Algebra(tuple(labels), dense_tensor(products, len(labels)), metadata)


def bracket(alg: Algebra, u: Sequence, v: Sequence) -> Vector:
    """Bilinear product of coordinate vectors."""
    d = alg.dim
    if len(u) != d or len(v) != d:
        raise ValueError(f"vectors must have length {d}")
    return tuple(table_bracket(alg._products, u, v))


@dataclass(frozen=True)
class LeibnizReport:
    ok: bool
    failures: tuple  # ((i, j, k, defect vector), ...) in lex order

    def __bool__(self) -> bool:
        return self.ok


def leibniz_check(alg: Algebra) -> LeibnizReport:
    """Evaluate [[x,y],z] - [[x,z],y] - [x,[y,z]] on all basis triples.

    All failing triples are collected (lex order), not just the first.
    """
    d = alg.dim
    prods = alg._products
    failures = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                defect = leibniz_defect(prods, i, j, k)
                if any(defect):
                    failures.append((i, j, k, tuple(defect)))
    return LeibnizReport(not failures, tuple(failures))


def is_lie(alg: Algebra) -> bool:
    """Entry-wise antisymmetry; together with the Leibniz identity this is
    equivalent to the Jacobi identity."""
    d = alg.dim
    t = alg.tensor
    return all(t[i][j][k] == -t[j][i][k] for i in range(d) for j in range(d) for k in range(d))


# -- subspaces ----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Subspace of the coordinate space, stored with a canonical RREF basis."""

    ambient: int
    basis: tuple  # rows in RREF, leading coefficient 1

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient: int) -> "Subspace":
        vecs = [v for v in vectors if not vec_is_zero(v)]
        if not vecs:
            return cls(ambient, ())
        rows, _ = rref(vecs, ambient)
        return cls(ambient, rows)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        rows = tuple(
            tuple(Fraction(1 if j == i else 0) for j in range(ambient)) for i in range(ambient)
        )
        return cls(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, vec: Sequence) -> bool:
        if vec_is_zero(vec):
            return True
        rows, _ = rref(list(self.basis) + [list(vec)], self.ambient)
        return len(rows) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)


# -- series and predicates -----------------------------------------------------


def lower_central_series(alg: Algebra) -> list[Subspace]:
    """L^1 = L, L^{k+1} = [L^k, L]; stops at zero or at stabilization."""
    d = alg.dim
    series = [Subspace.full(d)]
    while True:
        prev = series[-1]
        if prev.is_zero():
            return series
        gens = []
        for u in prev.basis:
            for j in range(d):
                gens.append(bracket(alg, u, alg.basis_vector(j)))
        nxt = Subspace.span(gens, d)
        if nxt.dim == prev.dim:
            return series
        series.append(nxt)


def derived_series(alg: Algebra) -> list[Subspace]:
    """D^1 = L, D^{s+1} = [D^s, D^s]; stops at zero or at stabilization."""
    d = alg.dim
    series = [Subspace.full(d)]
    while True:
        prev = series[-1]
        if prev.is_zero():
            return series
        gens = []
        for u in prev.basis:
            for v in prev.basis:
                gens.append(bracket(alg, u, v))
        nxt = Subspace.span(gens, d)
        if nxt.dim == prev.dim:
            return series
        series.append(nxt)


def series_dims(series: Sequence[Subspace]) -> tuple:
    return tuple(s.dim for s in series)


def is_nilpotent(alg: Algebra) -> bool:
    return lower_central_series(alg)[-1].is_zero()


def nilpotency_index(alg: Algebra) -> int:
    """Minimal m with L^m = 0; raises for non-nilpotent algebras."""
    series = lower_central_series(alg)
    if not series[-1].is_zero():
        raise ValueError("algebra is not nilpotent")
    return len(series)


def is_solvable(alg: Algebra) -> bool:
    return derived_series(alg)[-1].is_zero()


def is_filiform(alg: Algebra) -> bool:
    """Slowest nilpotent decay: dim L^i = dim - i for 2 <= i <= dim."""
    d = alg.dim
    dims = series_dims(lower_central_series(alg))
    expected = (d,) + tuple(d - i for i in range(2, d + 1))
    return dims == expected


def right_annihilator(alg: Algebra) -> Subspace:
    """All v with [u, v] = 0 for every u (exact kernel computation)."""
    d = alg.dim
    rows = []
    for i in range(d):
        for k in range(d):
            rows.append([alg.tensor[i][j][k] for j in range(d)])
    return Subspace(d, nullspace(rows, d))


def subalgebra_on_indices(alg: Algebra, count: int) -> Algebra:
    """Restriction to the first ``count`` basis vectors (caller must know the
    span is closed under the bracket)."""
    t = tuple(tuple(tuple(alg.tensor[i][j][k] for k in range(count)) for j in range(count)) for i in range(count))
    return Algebra(alg.labels[:count], t)


@dataclass(frozen=True)
class NilradicalReport:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def nilradical_report(alg: Algebra, count: int) -> NilradicalReport:
    """Check that the span of the first ``count`` basis vectors is the
    nilradical of a codimension-one solvable extension: a two-sided ideal,
    nilpotent, with the ambient algebra non-nilpotent. Any nilpotent ideal
    strictly containing it would be the whole algebra, which is excluded."""
    d = alg.dim
    t = alg.tensor
    for i in range(d):
        for j in range(d):
            if i < count or j < count:
                for k in range(count, d):
                    if t[i][j][k]:
                        return NilradicalReport(False, f"not an ideal: [{alg.labels[i]},{alg.labels[j]}] leaves the span")
    if not is_nilpotent(subalgebra_on_indices(alg, count)):
        return NilradicalReport(False, "candidate is not nilpotent")
    if is_nilpotent(alg):
        return NilradicalReport(False, "ambient algebra is nilpotent")
    return NilradicalReport(True, "")


def nilradical_equals(alg: Algebra, count: int) -> bool:
    return nilradical_report(alg, count).ok
