"""Constructors for every named algebra family, validated on construction.

Family ids:

* nilpotent filiform Leibniz: ``F1``, ``F2``, ``F3`` (three concrete
  theta-instances plus the alternating top product), ``F1s``, ``F2j``,
  ``F2j1``
* filiform Lie: ``Ln``, ``Qn``, ``A``, ``B``
* solvable extensions (one extra generator ``x``): ``L1``, ``L2``, ``L3``,
  ``SolvA``, ``SolvB``

Omitted products are zero. Parameters must be int or Fraction; any other
type raises TypeError. Every ``make_*`` constructor validates the Leibniz
identity (:func:`validate`), failing loudly on the first offending basis
triple, and the antisymmetry of a family declared Lie; :func:`solvable_algebra`
builds a SolvA/SolvB member unchecked.

The graded tables A and B have one product-map builder,
:func:`graded_products`, generic in the scalar type of the alphas: the
constructors call it with Fractions, the alpha Jacobi relations in
``verify`` with Poly indeterminates. Every SolvA/SolvB member is assembled
by a :class:`SolvableFrame`, which builds what the members of one exact
(variant, n, r, alphas, a1) share once and assembles a member as a Fraction
table or as an integer table over one denominator; x is propagated along
the chain in one place, :func:`solvable_x_rows`, in integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Optional

from .algebra import Algebra, algebra_from_products, bracket, is_lie, leibniz_check
from .derivations import is_derivation
from .linalg import binomial, common_denominator, lowest_terms, scale_to_integers, to_fraction

FAMILY_IDS = (
    "F1", "F2", "F3", "F1s", "F2j", "F2j1", "Ln", "Qn", "A", "B",
    "L1", "L2", "L3", "SolvA", "SolvB",
)


class ConstructionError(ValueError):
    """Raised for arity/range violations and identity failures."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    params: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", {k: to_fraction(v) for k, v in dict(self.params).items()})


def _e_labels(n: int, with_x: bool = False) -> tuple:
    labels = tuple(f"e{i}" for i in range(n + 1))
    return labels + ("x",) if with_x else labels


def _take_params(spec: FamilySpec, allowed: set[str]) -> dict:
    unknown = set(spec.params) - allowed
    if unknown:
        raise ConstructionError(
            f"{spec.family}: unknown parameter(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return dict(spec.params)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConstructionError(msg)


def validate(alg: Algebra) -> Algebra:
    """``alg`` if the Leibniz identity holds (and antisymmetry, if declared Lie);
    else ConstructionError naming the family, first failing triple and defect."""
    report = leibniz_check(alg)
    labels, family = alg.labels, alg.metadata.get("family")
    if not report.ok:
        i, j, k, defect = report.failures[0]
        raise ConstructionError(
            f"{family}: Leibniz identity fails on ({labels[i]},{labels[j]},{labels[k]}), defect {defect}"
        )
    if alg.metadata.get("lie") and not is_lie(alg):
        raise ConstructionError(f"{family}: antisymmetry fails")
    return alg


# -- nilpotent filiform Leibniz families --------------------------------------


def _f1_products(n: int, alphas: dict, theta: Fraction) -> dict:
    prods = {(0, 0): [(2, Fraction(1))]}
    for i in range(1, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    row01 = [(k, alphas[k]) for k in range(3, n) if alphas[k]]
    if theta:
        row01.append((n, theta))
    prods[(0, 1)] = row01
    for i in range(1, n - 1):
        prods[(i, 1)] = [(k, alphas[k + 1 - i]) for k in range(i + 2, n + 1) if alphas[k + 1 - i]]
    return prods


def make_F1(n: int, alphas: Mapping[int, Fraction], theta: Fraction, family="F1", extra=None) -> Algebra:
    _require(n >= 3, "F1 needs n >= 3")
    full = {k: to_fraction(alphas.get(k, 0)) for k in range(3, n + 1)}
    theta = to_fraction(theta)
    meta = {"family": family, "n": n,
            "params": {**{f"alpha{k}": v for k, v in full.items()}, "theta": theta}}
    if extra:
        meta["params"].update(extra)
    return validate(algebra_from_products(_e_labels(n), _f1_products(n, full, theta), meta))


def _f2_products(n: int, betas: dict, gamma: Fraction) -> dict:
    prods = {(0, 0): [(2, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    prods[(0, 1)] = [(k, betas[k]) for k in range(3, n + 1) if betas[k]]
    for i in range(2, n - 1):
        prods[(i, 1)] = [(k, betas[k + 1 - i]) for k in range(i + 2, n + 1) if betas[k + 1 - i]]
    if gamma:
        prods[(1, 1)] = [(n, gamma)]
    return prods


def make_F2(n: int, betas: Mapping[int, Fraction], gamma: Fraction, family="F2", extra=None) -> Algebra:
    _require(n >= 3, "F2 needs n >= 3")
    full = {k: to_fraction(betas.get(k, 0)) for k in range(3, n + 1)}
    gamma = to_fraction(gamma)
    meta = {"family": family, "n": n,
            "params": {**{f"beta{k}": v for k, v in full.items()}, "gamma": gamma}}
    if extra:
        meta["params"].update(extra)
    return validate(algebra_from_products(_e_labels(n), _f2_products(n, full, gamma), meta))


def make_F3(n: int, theta1, theta2, theta3, alpha=0) -> Algebra:
    """Concrete representatives of the third filiform family: the generic
    antisymmetric products are taken to be zero, the alternating top product
    [e_i, e_{n-i}] = alpha*(-1)^i e_n is kept (alpha in {0,1}, odd n only)."""
    _require(n >= 3, "F3 needs n >= 3")
    alpha = to_fraction(alpha)
    _require(alpha in (0, 1), "F3: alpha must be 0 or 1")
    _require(alpha == 0 or n % 2 == 1, "F3: alpha=1 requires odd n")
    t1, t2, t3 = to_fraction(theta1), to_fraction(theta2), to_fraction(theta3)
    prods: dict = {}
    for i in range(1, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    for i in range(2, n):
        prods[(0, i)] = [(i + 1, Fraction(-1))]
    prods[(0, 0)] = [(n, t1)] if t1 else []
    prods[(0, 1)] = [(2, Fraction(-1))] + ([(n, t2)] if t2 else [])
    if t3:
        prods[(1, 1)] = [(n, t3)]
    if alpha:
        for i in range(1, n):
            j = n - i
            prods.setdefault((i, j), []).append((n, alpha * (-1) ** i))
    meta = {"family": "F3", "n": n,
            "params": {"theta1": t1, "theta2": t2, "theta3": t3, "alpha": alpha}}
    return validate(algebra_from_products(_e_labels(n), prods, meta))


def f1s_alphas(n: int, s: int) -> dict:
    """Coefficients of F1^s from the derivation-compatibility recursion at
    a_0=1, a_1=s-2: alpha_k*(s-k) = (k/2)(s-2) * sum_{a+b=k+2} alpha_a alpha_b,
    alpha_s normalized to 1, alpha_k = 0 off the residue class of s mod s-2."""
    _require(3 <= s <= n, "F1s needs 3 <= s <= n")
    alphas = {k: Fraction(0) for k in range(3, n + 1)}
    alphas[s] = Fraction(1)
    for k in range(s + 1, n + 1):
        if (k - s) % (s - 2) != 0:
            continue
        conv = sum((alphas[j - 1] * alphas[k - j + 3] for j in range(4, k + 1)), Fraction(0))
        alphas[k] = Fraction(k * (s - 2), 2 * (s - k)) * conv
    return alphas


def catalan_number(m: int) -> int:
    return int(binomial(2 * m, m)) // (m + 1)


def make_F1s(n: int, s: int) -> Algebra:
    alphas = f1s_alphas(n, s)
    return make_F1(n, alphas, theta=alphas[n], family="F1s", extra={"s": Fraction(s)})


def make_F2j(n: int, j: int) -> Algebra:
    _require(n >= 4 and 3 <= j <= n, "F2j needs n >= 4 and 3 <= j <= n")
    return make_F2(n, {j: Fraction(1)}, gamma=Fraction(0), family="F2j", extra={"j": Fraction(j)})


def make_F2j1(n: int, beta) -> Algebra:
    _require(n >= 4 and n % 2 == 0, "F2j1 needs even n >= 4")
    beta = to_fraction(beta)
    return make_F2(n, {(n + 2) // 2: beta}, gamma=Fraction(1), family="F2j1", extra={"beta": beta})


# -- filiform Lie families -----------------------------------------------------


def make_Ln(n: int) -> Algebra:
    _require(n >= 2, "Ln needs n >= 2")
    prods: dict = {}
    for i in range(1, n):
        prods[(0, i)] = [(i + 1, Fraction(1))]
        prods[(i, 0)] = [(i + 1, Fraction(-1))]
    meta = {"family": "Ln", "n": n, "params": {}, "lie": True}
    return validate(algebra_from_products(_e_labels(n), prods, meta))


def make_Qn(n: int) -> Algebra:
    _require(n >= 3 and n % 2 == 1, "Qn needs odd n >= 3")
    prods: dict = {}
    for i in range(1, n - 1):
        prods[(0, i)] = [(i + 1, Fraction(1))]
        prods[(i, 0)] = [(i + 1, Fraction(-1))]
    for i in range(1, n):
        prods.setdefault((i, n - i), []).append((n, Fraction((-1) ** i)))
    meta = {"family": "Qn", "n": n, "params": {}, "lie": True}
    return validate(algebra_from_products(_e_labels(n), prods, meta))


def graded_alpha_count(variant: str, n: int, r: int) -> int:
    """t: the graded family ``variant`` ("A" or "B") has alpha_1..alpha_t."""
    return (n - r - 1) // 2 if variant == "A" else (n - r - 2) // 2


def graded_products(variant: str, n: int, r: int, alphas: Mapping) -> dict:
    """{(i, j): [(k, c)]} product map of the graded filiform Lie family A or
    B over e_0..e_n: the chain [e_0, e_i] = e_{i+1} (B adds the alternating
    [e_i, e_{n-i}] = (-1)^i e_n) and [e_i, e_j] = c_ij e_{i+j+r}, where
    c_ij = sum_k (-1)^(k-i) binom(j-k-1, k-i) alpha_k.

    ``alphas[k]`` (k = 1..t) may be any scalar with ``+``, ``*`` and a truth
    value: Fractions for an algebra, Polys for the Jacobi relations in the
    alphas. Each cell of the map holds one (k, c) with c nonzero, so it is
    already a cell of the product table. No range or identity check is made
    here.
    """
    t = graded_alpha_count(variant, n, r)
    top = n if variant == "A" else n - 1  # the chain and the graded products end at e_top
    prods: dict = {}
    for i in range(1, top):
        prods[(0, i)] = [(i + 1, 1)]
        prods[(i, 0)] = [(i + 1, -1)]
    if variant == "B":
        for i in range(1, n):
            prods[(i, n - i)] = [(n, (-1) ** i)]
    for i in range(1, t + 1):
        for j in range(i + 1, top - i - r + 1):
            c = sum(alphas[k] * ((-1) ** (k - i) * binomial(j - k - 1, k - i))
                    for k in range(i, min(t, (i + j - 1) // 2) + 1))
            if c:
                prods[(i, j)] = [(i + j + r, c)]
                prods[(j, i)] = [(i + j + r, -c)]
    return prods


def check_graded_range(family: str, n: int, r: int) -> None:
    """The range checks of ``family`` (A, B, SolvA or SolvB, named in the
    error)."""
    if family.endswith("A"):
        _require(n >= 4 and 1 <= r <= n - 3, f"{family} needs n >= 4 and 1 <= r <= n - 3")
    else:
        _require(n >= 5 and n % 2 == 1, f"{family} needs odd n >= 5")
        _require(1 <= r <= n - 3, f"{family} needs 1 <= r <= n - 3")


def _graded_nilradical(variant: str, n: int, r: int, full: Mapping) -> Algebra:
    """The graded algebra of the alpha map ``full`` (every k = 1..t, as
    Fractions) with the labels and metadata of :func:`make_A_algebra` /
    :func:`make_B_algebra`, unchecked."""
    meta = {"family": variant, "n": n, "lie": True,
            "params": {"r": Fraction(r), **{f"alpha{k}": v for k, v in full.items()}}}
    return algebra_from_products(_e_labels(n), graded_products(variant, n, r, full), meta)


def _graded_algebra(variant: str, n: int, r: int, alphas: Mapping) -> Algebra:
    check_graded_range(variant, n, r)
    t = graded_alpha_count(variant, n, r)
    full = {k: to_fraction(alphas.get(k, 0)) for k in range(1, t + 1)}
    _require(t == 0 or any(full.values()), f"{variant}: at least one alpha must be nonzero")
    return validate(_graded_nilradical(variant, n, r, full))


def make_A_algebra(n: int, r: int, alphas: Mapping[int, Fraction]) -> Algebra:
    """The first graded filiform Lie family."""
    return _graded_algebra("A", n, r, alphas)


def make_B_algebra(n: int, r: int, alphas: Mapping[int, Fraction]) -> Algebra:
    """The second graded filiform Lie family. The wide range 1 <= r <= n-3 is
    accepted; at r = n-3 the alpha arity is zero and the table degenerates to
    the Qn table."""
    return _graded_algebra("B", n, r, alphas)


# -- classified solvable algebras ----------------------------------------------


def make_L1(n: int) -> Algebra:
    """Solvable extension of F2(0,...,0,1), odd n. The displayed classification
    omits [e_i,x]=i*e_i and [x,e_0]=-e_0, both derived in its own construction;
    without them the Leibniz identity fails, so they are included here."""
    _require(n >= 3 and n % 2 == 1, "L1 needs odd n >= 3")
    x = n + 1
    half = Fraction(n, 2)
    prods = {(0, 0): [(2, Fraction(1))], (1, 1): [(n, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    prods[(0, x)] = [(0, Fraction(1))]
    prods[(1, x)] = [(1, half)]
    for i in range(2, n + 1):
        prods[(i, x)] = [(i, Fraction(i))]
    prods[(x, 0)] = [(0, Fraction(-1))]
    prods[(x, 1)] = [(1, -half)]
    meta = {"family": "L1", "n": n, "params": {}}
    return validate(algebra_from_products(_e_labels(n, with_x=True), prods, meta))


def make_L2(n: int, beta) -> Algebra:
    """Solvable extension of F2^1(beta_{(n+2)/2}, gamma=1), even n."""
    _require(n >= 4 and n % 2 == 0, "L2 needs even n >= 4")
    beta = to_fraction(beta)
    x = n + 1
    half = Fraction(n, 2)
    mid = (n + 2) // 2
    prods = {(0, 0): [(2, Fraction(1))], (1, 1): [(n, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    if beta:
        prods[(0, 1)] = [(mid, beta)]
        for i in range(2, n // 2 + 1):
            prods[(i, 1)] = [((n + 2 * i) // 2, beta)]
    prods[(0, x)] = [(0, Fraction(1))]
    prods[(1, x)] = [(1, half)]
    for i in range(2, n + 1):
        prods[(i, x)] = [(i, Fraction(i))]
    prods[(x, 0)] = [(0, Fraction(-1))]
    prods[(x, 1)] = [(1, -half)] + ([(n // 2, -beta)] if beta else [])
    meta = {"family": "L2", "n": n, "params": {"beta": beta}}
    return validate(algebra_from_products(_e_labels(n, with_x=True), prods, meta))


def make_L3(n: int, j0: int) -> Algebra:
    """Solvable extension of F2^{j0}. The nilradical products [e_i,e_1] run to
    i = n+1-j0 (forced by the Leibniz identity; the displayed range n-1-j0 is
    inconsistent with the nilradical)."""
    _require(n >= 4 and 3 <= j0 <= n, "L3 needs n >= 4 and 3 <= j0 <= n")
    x = n + 1
    prods = {(0, 0): [(2, Fraction(1))], (0, 1): [(j0, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    for i in range(2, n + 2 - j0):
        prods[(i, 1)] = [(j0 + i - 1, Fraction(1))]
    prods[(0, x)] = [(0, Fraction(1))]
    prods[(1, x)] = [(1, Fraction(j0 - 1))]
    for i in range(2, n + 1):
        prods[(i, x)] = [(i, Fraction(i))]
    prods[(x, 0)] = [(0, Fraction(-1))]
    prods[(x, 1)] = [(1, Fraction(1 - j0)), (j0 - 1, Fraction(-1))]
    meta = {"family": "L3", "n": n, "params": {"j0": Fraction(j0)}}
    return validate(algebra_from_products(_e_labels(n, with_x=True), prods, meta))


def solvable_x_rows(variant: str, n: int, table: tuple, row0: tuple, row1: tuple) -> tuple:
    """(rows, den): the rows [e_0, x], ..., [e_n, x] of x acting on the
    graded nilradical N of SolvA (``variant`` "A") or SolvB, as integer rows
    over one denominator, from the integer rows [e_0, x] = ``row0`` and
    [e_1, x] = ``row1`` along the chain, [e_{i+1}, x] = [[e_0, x], e_i] +
    [e_0, [e_i, x]]; in B, e_n is reached through [e_1, e_{n-1}] = -e_n.
    ``table`` is N's integer-scaled table ``(prods, den)``
    (:attr:`~leibnizalg.algebra.Algebra.scaled`). Each chain step is two
    integer :func:`~leibnizalg.algebra.bracket` calls on sparse rows, over the
    product of the denominators, and the new row is kept in lowest terms;
    the rows are linear in (row0, row1)."""
    prods, den_n = table

    def chain(u, j, i, v):
        """[u, e_j] + [e_i, v] for rows ``(row, den)``, in lowest terms."""
        (u, du), (v, dv) = u, v
        out = {k: c * dv for k, c in bracket(prods, u, ((j, 1),))}
        for k, c in bracket(prods, ((i, 1),), v):
            out[k] = out[k] + c * du if k in out else c * du
        return lowest_terms(tuple((k, c) for k, c in sorted(out.items()) if c), den_n * du * dv)

    rows = [(row0, 1), (row1, 1)]
    for i in range(1, n if variant == "A" else n - 1):
        rows.append(chain(rows[0], i, 0, rows[i]))
    if variant == "B":
        top, den = chain(rows[1], n - 1, 1, rows[n - 1])
        rows.append((tuple((k, -c) for k, c in top), den))
    return common_denominator(rows)


class SolvableFrame:
    """The one builder of SolvA (``variant`` "A") and SolvB members, holding
    what the members of one exact (n, r, alphas, a1) share. ``nil`` is N, the
    graded algebra of the alphas with the labels and metadata of
    :func:`make_A_algebra` / :func:`make_B_algebra`, unvalidated (``verify``
    validates it, and so scales it, once per run for the alpha sampler).
    ``x_rows`` holds the x rows, linear in b, in integers: [e_i, x] =
    (x0[i] + sum_k b_k d[k][i]) / den, ``x0`` from [e_0, x] = e_0 + a1 e_1
    and [e_1, x] = (1 + r) e_1, ``d[k]`` from 0 and e_k, propagated once over
    N's integer table (:func:`solvable_x_rows`) on first use, so a frame
    that only serves N builds none. ``alphas`` is a tuple of
    ``(k, alpha_k)``, so the arguments key a memo. SolvB's r <= n - 4 and a
    nonzero alpha are checked per member."""

    def __init__(self, variant: str, n: int, r: int, alphas: tuple, a1=0):
        _require(variant == "A" or 1 <= r <= n - 3, "SolvB needs 1 <= r <= n - 4")  # r = n - 3 fails per member
        check_graded_range(f"Solv{variant}", n, r)
        self.variant, self.n, self.r, given = variant, n, r, dict(alphas)
        self.alphas = {k: to_fraction(given.get(k, 0)) for k in range(1, graded_alpha_count(variant, n, r) + 1)}
        self.a1 = to_fraction(a1) if variant == "A" else Fraction(0)
        self.nil = _graded_nilradical(variant, n, r, self.alphas)

    @cached_property
    def x_rows(self) -> tuple:
        """(x0, d, den): the integer x rows of b = 0 and of each b_k
        (k = 2..n for A, 2..n-1 for B) over one common denominator."""
        variant, n, table = self.variant, self.n, self.nil.scaled
        (a1,), s = scale_to_integers((self.a1,))
        row0 = ((0, s), (1, a1)) if a1 else ((0, s),)
        x0, den = solvable_x_rows(variant, n, table, row0, ((1, s * (1 + self.r)),))
        keys = range(2, n + 1 if variant == "A" else n)
        maps = [(x0, den * s)] + [solvable_x_rows(variant, n, table, (), ((k, 1),)) for k in keys]
        rows, den = common_denominator([(row, dm) for rows, dm in maps for row in rows])
        x0, *d = (rows[i:i + n + 1] for i in range(0, len(rows), n + 1))
        return x0, dict(zip(keys, d)), den

    def _check_member(self):
        """SolvB's r <= n - 4 and a nonzero alpha, the range and alpha
        checks of :func:`make_SolvA` / :func:`make_SolvB`."""
        variant, n, r = self.variant, self.n, self.r
        _require(variant == "A" or r <= n - 4, "SolvB needs 1 <= r <= n - 4")
        _require(not self.alphas or any(self.alphas.values()), f"Solv{variant}: at least one alpha must be nonzero")

    def _columns(self, bs: Mapping, one) -> list:
        """``one`` x0 + sum_k b_k d[k], the x column times den, as
        ``{m: c}`` dicts; the b_k (keys among ``d``) and ``one`` may be any
        scalar with ``+``, ``*`` and a truth value."""
        x0, d, _ = self.x_rows
        cols = [{m: one * c for m, c in row} for row in x0]
        for k, bk in bs.items():
            if bk:
                for col, row in zip(cols, d[k]):
                    for m, c in row:
                        col[m] = col[m] + bk * c if m in col else bk * c
        return cols

    @staticmethod
    def _assemble(planes: tuple, cols: list) -> tuple:
        """N's rows ``planes`` with the column [e_i, x] = ``cols[i]`` appended
        and the row [x, e_i] = -[e_i, x]: the member's canonical table."""
        cols = [tuple((m, c) for m, c in sorted(col.items()) if c) for col in cols]
        x_row = tuple(tuple((m, -c) for m, c in col) for col in cols) + ((),)
        return tuple(plane + (col,) for plane, col in zip(planes, cols)) + (x_row,)

    def table(self, bs: Mapping) -> tuple:
        """The member's canonical table at ``bs`` (keys among the frame's
        b_k), N's Fraction rows and the column divided by den. Any scalar with ``+``,
        ``*``, unary ``-`` and a truth value: Poly b_k serve."""
        scale = Fraction(1, self.x_rows[2])
        cols = [{m: c * scale for m, c in col.items()} for col in self._columns(bs, 1)]
        return self._assemble(self.nil.table, cols)

    def scaled_table(self, bs: Mapping) -> tuple:
        """(table, den): the member's table at ``bs`` in integers over one
        denominator, assembled from N's integer table and the integer x rows
        with the b_k over their common denominator (so it is the member's
        ``int_table`` once gcd(den, every entry) is divided out). The
        member's range and alpha checks come first, and a b_k that is not
        an int or Fraction raises TypeError, as in :meth:`member`."""
        self._check_member()
        _, d, den_x = self.x_rows
        ints, den_b = scale_to_integers([bs.get(k, 0) for k in d])
        prods, den_n = self.nil.scaled
        den = lcm(den_n, den_x * den_b)
        f = den // (den_x * den_b)
        cols = self._columns({k: c * f for k, c in zip(d, ints)}, den_b * f)
        if (f := den // den_n) != 1:
            prods = tuple(tuple(cell and tuple((m, c * f) for m, c in cell) for cell in plane) for plane in prods)
        return self._assemble(prods, cols), den

    def member(self, bs: Mapping[int, Fraction]) -> Algebra:
        """The member at the b_k of ``bs`` (k = 2..n for A, 2..n-1 for B;
        other keys are ignored), with the labels and metadata of
        :func:`make_SolvA` / :func:`make_SolvB` and no identity check."""
        self._check_member()
        variant, n, r = self.variant, self.n, self.r
        b = {k: to_fraction(bs.get(k, 0)) for k in self.x_rows[1]}
        params = {"r": Fraction(r), **{f"alpha{k}": v for k, v in self.alphas.items()},
                  **({"a1": self.a1} if variant == "A" else {}), **{f"b{k}": v for k, v in b.items()}}
        meta = {"family": f"Solv{variant}", "n": n, "lie": True, "params": params}
        return Algebra(_e_labels(n, with_x=True), self.table(b), meta)

    @cached_property
    def admitted(self) -> tuple:
        """The k whose d[k] is a derivation of N: the b_k that may be nonzero."""
        return tuple(k for k, rows in self.x_rows[1].items() if is_derivation(self.nil, rows))

    @cached_property
    def target(self) -> tuple:
        """The integer-scaled table of the validated b = 0 member; a
        ConstructionError propagates and keeps nothing."""
        return validate(self.member({})).scaled


def solvable_algebra(variant: str, n: int, r: int, alphas: Mapping[int, Fraction], a1,
                     bs: Mapping[int, Fraction]) -> Algebra:
    """The member of a new :class:`SolvableFrame`: :func:`make_SolvA` /
    :func:`make_SolvB` without the identity check. SolvB ignores a1."""
    return SolvableFrame(variant, n, r, tuple(alphas.items()), a1).member(bs)


def make_SolvA(n: int, r: int, alphas: Mapping[int, Fraction], a1, bs: Mapping[int, Fraction]) -> Algebra:
    """Solvable Lie extension over an A-family nilradical, free parameters
    a1 and b_2..b_n kept explicit."""
    return validate(solvable_algebra("A", n, r, alphas, a1, bs))


def make_SolvB(n: int, r: int, alphas: Mapping[int, Fraction], bs: Mapping[int, Fraction]) -> Algebra:
    """Solvable Lie extension over a B-family nilradical, free parameters
    b_2..b_{n-1} kept explicit."""
    return validate(solvable_algebra("B", n, r, alphas, 0, bs))


# -- dispatch -------------------------------------------------------------------


def _int_param(params: Mapping, name: str, default: int = 1) -> int:
    """The integer parameter ``name`` (``default`` when absent); a value that
    is not an integer raises ConstructionError instead of being truncated."""
    value = to_fraction(params.get(name, default))
    _require(value.denominator == 1, f"parameter {name} must be an integer, got {value}")
    return value.numerator


def _alpha_map(params: Mapping, prefix: str, lo: int, hi: int) -> dict:
    return {k: to_fraction(params.get(f"{prefix}{k}", 0)) for k in range(lo, hi + 1)}


def make_family(spec: FamilySpec) -> Algebra:
    fam, n, p = spec.family, spec.n, spec.params
    if fam == "F1":
        _take_params(spec, {f"alpha{k}" for k in range(3, n + 1)} | {"theta"})
        return make_F1(n, _alpha_map(p, "alpha", 3, n), p.get("theta", Fraction(0)))
    if fam == "F2":
        _take_params(spec, {f"beta{k}" for k in range(3, n + 1)} | {"gamma"})
        return make_F2(n, _alpha_map(p, "beta", 3, n), p.get("gamma", Fraction(0)))
    if fam == "F3":
        _take_params(spec, {"theta1", "theta2", "theta3", "alpha"})
        return make_F3(n, p.get("theta1", 0), p.get("theta2", 0), p.get("theta3", 0), p.get("alpha", 0))
    if fam == "F1s":
        _take_params(spec, {"s"})
        _require("s" in p, "F1s requires parameter s")
        return make_F1s(n, _int_param(p, "s"))
    if fam == "F2j":
        _take_params(spec, {"j"})
        _require("j" in p, "F2j requires parameter j")
        return make_F2j(n, _int_param(p, "j"))
    if fam == "F2j1":
        _take_params(spec, {"beta"})
        return make_F2j1(n, p.get("beta", Fraction(0)))
    if fam == "Ln":
        _take_params(spec, set())
        return make_Ln(n)
    if fam == "Qn":
        _take_params(spec, set())
        return make_Qn(n)
    if fam == "A":
        r = _int_param(p, "r")
        t = graded_alpha_count("A", n, max(1, r))
        _take_params(spec, {"r"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)})
        _require("r" in p, "A requires parameter r")
        return make_A_algebra(n, r, _alpha_map(p, "alpha", 1, max(t, 0)))
    if fam == "B":
        r = _int_param(p, "r")
        t = graded_alpha_count("B", n, max(1, r))
        _take_params(spec, {"r"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)})
        _require("r" in p, "B requires parameter r")
        return make_B_algebra(n, r, _alpha_map(p, "alpha", 1, max(t, 0)))
    if fam == "L1":
        _take_params(spec, set())
        return make_L1(n)
    if fam == "L2":
        _take_params(spec, {"beta"})
        return make_L2(n, p.get("beta", Fraction(0)))
    if fam == "L3":
        _take_params(spec, {"j0"})
        _require("j0" in p, "L3 requires parameter j0")
        return make_L3(n, _int_param(p, "j0"))
    if fam == "SolvA":
        r = _int_param(p, "r")
        t = graded_alpha_count("A", n, r)
        allowed = {"r", "a1"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)} | {f"b{k}" for k in range(2, n + 1)}
        _take_params(spec, allowed)
        _require("r" in p, "SolvA requires parameter r")
        return make_SolvA(n, r, _alpha_map(p, "alpha", 1, max(t, 0)), p.get("a1", Fraction(0)),
                          _alpha_map(p, "b", 2, n))
    if fam == "SolvB":
        r = _int_param(p, "r")
        t = graded_alpha_count("B", n, r)
        allowed = {"r"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)} | {f"b{k}" for k in range(2, n)}
        _take_params(spec, allowed)
        _require("r" in p, "SolvB requires parameter r")
        return make_SolvB(n, r, _alpha_map(p, "alpha", 1, max(t, 0)), _alpha_map(p, "b", 2, n - 1))
    raise ConstructionError(f"unknown family {fam!r}; known: {', '.join(FAMILY_IDS)}")


@dataclass(frozen=True)
class FamilyInfo:
    family: str
    description: str
    params: str
    constraints: str
    parity: Optional[str]


def family_catalog() -> tuple:
    """Template catalog for CLI discovery."""
    return (
        FamilyInfo("F1", "first filiform Leibniz family", "alpha3..alpha<n>, theta", "n >= 3", None),
        FamilyInfo("F2", "second filiform Leibniz family", "beta3..beta<n>, gamma", "n >= 3", None),
        FamilyInfo("F3", "third filiform family, concrete representatives",
                   "theta1, theta2, theta3, alpha", "alpha in {0,1}; alpha=1 needs odd n", None),
        FamilyInfo("F1s", "first family with non-nilpotent derivation, recursion coefficients",
                   "s", "3 <= s <= n", None),
        FamilyInfo("F2j", "second family, single unit parameter", "j", "3 <= j <= n and n >= 4", None),
        FamilyInfo("F2j1", "second family, middle parameter and unit top square",
                   "beta", "n even", "even"),
        FamilyInfo("Ln", "model filiform Lie algebra", "", "n >= 2", None),
        FamilyInfo("Qn", "filiform Lie algebra with alternating top product", "", "n odd", "odd"),
        FamilyInfo("A", "graded filiform Lie family", "r, alpha1..alpha<t>",
                   "1 <= r <= n-3; t = floor((n-r-1)/2); some alpha nonzero", None),
        FamilyInfo("B", "graded filiform Lie family with alternating top product",
                   "r, alpha1..alpha<t>", "1 <= r <= n-3; t = floor((n-r-2)/2); n odd", "odd"),
        FamilyInfo("L1", "solvable extension of F2(0,...,0,1)", "", "n odd", "odd"),
        FamilyInfo("L2", "solvable extensions of F2j1", "beta", "n even", "even"),
        FamilyInfo("L3", "solvable extensions of F2j", "j0", "3 <= j0 <= n", None),
        FamilyInfo("SolvA", "solvable Lie extensions over A nilradicals",
                   "r, alpha1..alpha<t>, a1, b2..b<n>", "1 <= r <= n-3", None),
        FamilyInfo("SolvB", "solvable Lie extensions over B nilradicals",
                   "r, alpha1..alpha<t>, b2..b<n-1>", "1 <= r <= n-4; n odd", "odd"),
    )
