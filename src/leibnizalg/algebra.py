"""Structure-constant algebras: bracket, identity checking, series, predicates.

An :class:`Algebra` over exact rationals on a fixed ordered basis is stored
as its sparse product table ``table[i][j] = ((k, c), ...)``: the nonzero
coordinates of [b_i, b_j], sorted by k, each c a Fraction. A vector has the
same sparse-row form as a table cell, its nonzero ``(k, c)`` sorted by k:
:func:`bracket` takes and returns it for any scalar, and a :class:`Subspace`
holds the canonical RREF rows of :func:`~leibnizalg.linalg.rref`. All
operations are pure; algebras are immutable once built.

:func:`product_table` builds such a table from a ``{(i, j): [(k, c), ...]}``
map for any scalar type. :func:`leibniz_defects` is one walk over the
nonzero products that yields every nonzero Leibniz defect; the exact checks
(:func:`leibniz_check`) run it on the integer-scaled table
(:func:`int_table`: every coefficient times the common denominator of the
table), which each :class:`Algebra` computes once, on first use, and keeps as
:attr:`Algebra.scaled`; a check turns only a failing defect back into
Fractions. The polynomial systems of the symbolic extension problem and of
the graded alpha relations evaluate the same identity through
``extensions.leibniz_equations``, the same walk on integer terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .linalg import nullspace, rref, scale_to_integers, to_fraction

_ZERO = Fraction(0)


# -- the product table --------------------------------------------------------


def product_table(products: Mapping, d: int) -> tuple:
    """Canonical sparse table of a {(i, j): [(k, c), ...]} map over d basis
    vectors: table[i][j] lists the nonzero (k, c) of [b_i, b_j] sorted by k.
    Omitted products are zero, repeated coordinates add up, zero sums and
    zero entries are dropped, and an index outside range(d) raises
    ValueError. Scalars need only ``+`` and a truth value."""
    cells = {}
    for (i, j), entries in products.items():
        cell = {}
        for k, c in entries:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise ValueError(f"index out of range in product ({i},{j})->{k}")
            cell[k] = cell[k] + c if k in cell else c
        cells[i, j] = tuple((k, c) for k, c in sorted(cell.items()) if c)
    return tuple(tuple(cells.get((i, j), ()) for j in range(d)) for i in range(d))


def int_table(prods: Sequence) -> tuple:
    """(table, den): the rational product table with every coefficient
    multiplied by den, the least common multiple of their denominators."""
    ints, den = scale_to_integers([c for plane in prods for cell in plane for _, c in cell])
    it = iter(ints)
    return tuple(tuple(tuple((k, next(it)) for k, _ in cell) for cell in plane) for plane in prods), den


def leibniz_defects(prods: Sequence):
    """The nonzero defects [[b_i,b_j],b_k] - [[b_i,b_k],b_j] - [b_i,[b_j,b_k]].

    Yields ``((i, j, k), {t: c})`` in lex order of (i, j, k), each dict
    holding the nonzero coordinates of the defect in ascending t; a triple
    whose defect vanishes is skipped. Only nonzero cells are walked: ``rows``
    lists the cells (m, k) of each b_m, ``by_coord`` the cells (j, k) whose
    product has a b_m component. The terms of one i-slab are summed in a dict
    keyed by (j * d + k) * d + t, so sorting its keys gives the output order,
    before the next slab starts. Scalars need only ``+``, ``*``, unary ``-``
    and a truth value; :func:`leibniz_check` runs it on integers. A table
    with Poly entries is better served by ``extensions.leibniz_equations``,
    which sums integer terms instead of multiplying Polys.
    """
    d = len(prods)
    rows = [[(k, cell) for k, cell in enumerate(plane) if cell] for plane in prods]
    by_coord = [[] for _ in range(d)]  # by_coord[m]: (j * d + k, c) with c b_m in [b_j, b_k]
    for j, plane in enumerate(rows):
        for k, cell in plane:
            for m, c in cell:
                by_coord[m].append((j * d + k, c))
    for i in range(d):
        acc = {}
        for j, cell in rows[i]:
            for m, c in cell:
                nc = -c
                for k, cell2 in rows[m]:
                    # c [b_m, b_k] is [[bi,bj],bk] in (i, j, k) and -[[bi,bj],bk] in (i, k, j)
                    plus = (j * d + k) * d
                    minus = (k * d + j) * d
                    for t, c2 in cell2:
                        key = plus + t
                        v = c * c2
                        acc[key] = acc[key] + v if key in acc else v
                        key = minus + t
                        v = nc * c2
                        acc[key] = acc[key] + v if key in acc else v
        for m, cell in rows[i]:  # -[bi,[bj,bk]]
            for jk, c in by_coord[m]:
                nc = -c
                base = jk * d
                for t, c2 in cell:
                    key = base + t
                    v = nc * c2
                    acc[key] = acc[key] + v if key in acc else v
        current, defect = None, {}
        for key in sorted(acc):
            v = acc[key]
            if not v:
                continue
            jk, t = divmod(key, d)
            if jk != current:
                if defect:
                    yield (i, *divmod(current, d)), defect
                current, defect = jk, {}
            defect[t] = v
        if defect:
            yield (i, *divmod(current, d)), defect


# -- algebras -------------------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    """Build one with :func:`algebra_from_products`."""

    labels: tuple
    table: tuple  # table[i][j]: the nonzero (k, c) of [b_i, b_j], sorted by k
    metadata: Optional[dict] = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def scaled(self) -> tuple:
        """``int_table(self.table)``, computed on first use and kept: the
        integer-scaled table that the exact checks (``leibniz_check``,
        ``is_lie``, ``derivation_space``) read. ``extensions.apply_basis_change``
        seeds it, since its transform already yields the integer table; every
        other algebra computes it here. It is not a field, so equality,
        hashing and ``repr`` ignore it."""
        return int_table(self.table)

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        """Coefficient of b_k in [b_i, b_j]."""
        for m, c in self.table[i][j]:
            if m == k:
                return c
        return _ZERO

    def __repr__(self) -> str:
        name = (self.metadata or {}).get("family", "Algebra")
        return f"<{name} dim={self.dim}>"


def algebra_from_products(
    labels: Sequence[str],
    products: Mapping,
    metadata: Optional[dict] = None,
) -> Algebra:
    """Build an algebra from a sparse {(i, j): [(k, coeff), ...]} table;
    omitted products are zero. Coefficients must be int or Fraction (any
    other type raises TypeError) and are stored as Fractions."""
    rational = {ij: [(k, to_fraction(c)) for k, c in entries] for ij, entries in products.items()}
    return Algebra(tuple(labels), product_table(rational, len(labels)), metadata)


def bracket(prods: Sequence, u: Sequence, v: Sequence) -> tuple:
    """The sparse row of [u, v] for sparse rows u and v (sorted by
    coordinate) over the product table ``prods``: an :attr:`Algebra.table`,
    or a :func:`product_table` of any scalar with ``+``, ``*`` and a truth
    value. A coordinate outside range(d) raises ValueError."""
    d = len(prods)
    if u and not (0 <= u[0][0] and u[-1][0] < d) or v and not (0 <= v[0][0] and v[-1][0] < d):
        raise ValueError(f"coordinate outside range({d})")
    out = {}
    for i, ui in u:
        plane = prods[i]
        for j, vj in v:
            cell = plane[j]
            if cell:
                uv = ui * vj
                for k, c in cell:
                    t = uv * c
                    out[k] = out[k] + t if k in out else t
    return tuple((k, c) for k, c in sorted(out.items()) if c)


@dataclass(frozen=True)
class LeibnizReport:
    ok: bool
    failures: tuple  # ((i, j, k, defect vector), ...) in lex order

    def __bool__(self) -> bool:
        return self.ok


def leibniz_check(alg: Algebra) -> LeibnizReport:
    """Evaluate [[x,y],z] - [[x,z],y] - [x,[y,z]] on all basis triples.

    All failing triples are collected (lex order), not just the first. The
    defects are evaluated on the integer-scaled table, so they come out
    multiplied by den^2.
    """
    d = alg.dim
    prods, den = alg.scaled
    den2 = den * den
    failures = []
    for (i, j, k), defect in leibniz_defects(prods):
        vec = [_ZERO] * d
        for t, c in defect.items():
            vec[t] = Fraction(c, den2)
        failures.append((i, j, k, tuple(vec)))
    return LeibnizReport(not failures, tuple(failures))


def is_lie(alg: Algebra) -> bool:
    """Antisymmetry, [b_i, b_j] = -[b_j, b_i], compared on the integer-scaled
    table (``alg.scaled``); together with the Leibniz identity this is
    equivalent to the Jacobi identity."""
    d = alg.dim
    prods = alg.scaled[0]
    return all(prods[i][j] == tuple((k, -c) for k, c in prods[j][i]) for i in range(d) for j in range(i, d))


# -- subspaces ----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Subspace of the coordinate space, stored with a canonical RREF basis:
    sparse rows, each with leading coefficient 1, as :func:`~leibnizalg.linalg.rref`
    returns them."""

    ambient: int
    basis: tuple  # sparse rows in RREF, leading coefficient 1

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient: int) -> "Subspace":
        return cls(ambient, rref(vectors)[0])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple(((i, Fraction(1)),) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, vec: Sequence) -> bool:
        return len(rref((*self.basis, vec))[0]) == self.dim


# -- series and predicates -----------------------------------------------------


def _series(alg: Algebra, right_factors) -> list[Subspace]:
    """S^1 = L, S^{k+1} = [S^k, F_k] with F_k = ``right_factors(S^k)``;
    stops at zero or at stabilization."""
    d = alg.dim
    series = [Subspace.full(d)]
    while not series[-1].is_zero():
        prev = series[-1]
        factors = right_factors(prev)
        nxt = Subspace.span([bracket(alg.table, u, v) for u in prev.basis for v in factors], d)
        if nxt.dim == prev.dim:
            break
        series.append(nxt)
    return series


def lower_central_series(alg: Algebra) -> list[Subspace]:
    """L^1 = L, L^{k+1} = [L^k, L]; stops at zero or at stabilization."""
    basis = Subspace.full(alg.dim).basis
    return _series(alg, lambda prev: basis)


def derived_series(alg: Algebra) -> list[Subspace]:
    """D^1 = L, D^{s+1} = [D^s, D^s]; stops at zero or at stabilization."""
    return _series(alg, lambda prev: prev.basis)


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
    rows = [[] for _ in range(d * d)]  # row i*d + k: coordinate k of [b_i, v]
    for i, plane in enumerate(alg.table):
        for j, cell in enumerate(plane):
            for k, c in cell:
                rows[i * d + k].append((j, c))
    return Subspace(d, nullspace(rows, d))


def subalgebra_on_indices(alg: Algebra, count: int) -> Algebra:
    """Restriction to the first ``count`` basis vectors (caller must know the
    span is closed under the bracket)."""
    products = {(i, j): [(k, c) for k, c in alg.table[i][j] if k < count]
                for i in range(count) for j in range(count)}
    return algebra_from_products(alg.labels[:count], products)


@dataclass(frozen=True)
class NilradicalReport:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def nilradical_report(alg: Algebra, count: int, nilpotent: Optional[bool] = None) -> NilradicalReport:
    """Check that the span of the first ``count`` basis vectors is the
    nilradical of a codimension-one solvable extension: a two-sided ideal,
    nilpotent, with the ambient algebra non-nilpotent. Any nilpotent ideal
    strictly containing it would be the whole algebra, which is excluded.
    ``nilpotent`` is ``is_nilpotent(alg)`` when the caller has it already
    (None when not), so the ambient lower central series is computed once."""
    d = alg.dim
    for i in range(d):
        for j in range(d):
            if i < count or j < count:
                if any(k >= count for k, _ in alg.table[i][j]):
                    return NilradicalReport(False, f"not an ideal: [{alg.labels[i]},{alg.labels[j]}] leaves the span")
    if not is_nilpotent(subalgebra_on_indices(alg, count)):
        return NilradicalReport(False, "candidate is not nilpotent")
    if is_nilpotent(alg) if nilpotent is None else nilpotent:
        return NilradicalReport(False, "ambient algebra is nilpotent")
    return NilradicalReport(True, "")


def nilradical_equals(alg: Algebra, count: int) -> bool:
    return nilradical_report(alg, count).ok
