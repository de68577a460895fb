"""Symbolic codimension-one solvable extensions N + <x>.

The action of x on the nilradical is a symbolic derivation template: the
general element of the computed derivation space, as d sparse rows of Poly
entries, so row i lists the nonzero coordinates of [e_i, x] in the cell form
of the product table, the form of every vector and every linear map in the
package. The products [x, e_i] and [x, x] get fresh unknowns, in sparse rows
too. The Leibniz defects of the extended basis (the triples with an x) yield
a polynomial constraint system that a deterministic linear-substitution
elimination reduces to either a Contradiction (with a replayable witness) or
a residual parametric Family. The right-annihilator equations
[b_p, [b_q, b_r] + [b_r, b_q]] = 0 are not added: each equals
-(D(p, q, r) + D(p, r, q)), D the Leibniz defect, and both triples hold an x
when q or r is x, so the defects already imply them.
:meth:`ExtensionProblem.products` is the one product map of N + <x>:
:func:`generate_constraints` reads the system off it, and
:func:`instantiate` evaluates its x cells at a solution.
:func:`leibniz_equations` reads the system as integer terms off the nonzero
cells: every cell scaled by one common denominator, each equation summed
term by term in a dict and turned into a :class:`~leibnizalg.poly.Poly`
once, content-normalized. The graded alpha relations of ``verify`` come from
the same function. The elimination divides by no pivot coefficient, and
keeps each live equation as its terms alone, a ``{monomial: int}`` dict; its
indexes from a variable to the equations that hold it, or can be solved for
it, may hold stale entries, which are checked when popped. A basis
change is a map too: the sparse rows of the new basis vectors in old
coordinates. A conjecture trial inverts nothing and transforms no table, and
a trial that eliminates runs on integers alone: the member's integer table,
the star change as integer rows over one denominator, the tail by forward
substitution in integers and the image check of the chain rows on integer
tables; only a trial that does not eliminate builds its ``Fraction`` member.
What does not depend on its b is a ``families.SolvableFrame``, built once
per :class:`Memo`, which ``verify.run_scenario`` makes one of per run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence

from .algebra import (
    Algebra,
    algebra_from_products,
    bracket,
    int_table,
    leibniz_check,
)
from .derivations import derivation_space, diagonal_functionals, is_derivation
from .families import ConstructionError, SolvableFrame, validate
from .linalg import (common_denominator, int_inverse, is_unitriangular, lowest_terms, rref, scale_to_integers,
                     to_fraction, unitriangular_solve)
from .poly import Poly, PolyRing, lex_key


def _lift(poly: Poly, ring: PolyRing) -> Poly:
    """Re-express a polynomial in a ring containing all of its names."""
    src = poly.ring.names
    return Poly(ring, {tuple(sorted(ring.index[src[i]] for i in mono)): c
                       for mono, c in poly._terms.items()})


@dataclass(frozen=True)
class ExtensionProblem:
    nilradical: Algebra
    ring: PolyRing
    template: tuple           # [e_i, x] as d sparse rows of Poly entries, linear in the template params
    unknown_rows: tuple       # unknown_rows[i]: [x, e_i] as a sparse row, one unknown per coordinate
    square_row: tuple         # [x, x] as a sparse row, one unknown per coordinate
    template_params: tuple
    unknown_names: tuple

    @property
    def dim(self) -> int:
        return self.nilradical.dim + 1

    def products(self) -> dict:
        """{(i, j): [(k, c), ...]}: the product map of N + <x>, x the last
        basis vector. The template rows [e_i, x], the unknown rows [x, e_i]
        and the square row [x, x] join N's products; all lie in N."""
        N = self.nilradical
        d = N.dim
        products = {(i, j): N.table[i][j] for i in range(d) for j in range(d)}
        for i in range(d):
            products[i, d] = self.template[i]
            products[d, i] = self.unknown_rows[i]
        products[d, d] = self.square_row
        return products

    def symmetric_coordinates(self) -> tuple:
        """Coordinates of [x,x] and of [x,e_i]+[e_i,x]: all must vanish for a
        Lie (antisymmetric) extension."""
        coords = [c for _, c in self.square_row]
        for unknown, row in zip(self.unknown_rows, self.template):
            cell = dict(row)
            coords.extend(u + cell[j] if j in cell else u for j, u in unknown)
        return tuple(c for c in coords if c)


def forced_annihilator_span(alg: Algebra) -> tuple:
    """Sparse RREF rows of the span of the [b_i, b_j] + [b_j, b_i], two
    cells added (the [b_i, b_i] among them): a subspace of the right
    annihilator of a Leibniz algebra."""
    d = alg.dim
    prods = alg.scaled[0]
    rows = []
    for i in range(d):
        for j in range(i, d):
            row = {}
            for k, c in prods[i][j] + prods[j][i]:
                row[k] = row.get(k, 0) + c
            rows.append(tuple(row.items()))
    return rref(rows)[0]


def build_extension_problem(
    nilradical: Algebra,
    template: Optional[Sequence] = None,
    extra_names: Sequence[str] = (),
) -> ExtensionProblem:
    """Set up the symbolic extension. ``template`` defaults to the generic
    derivation of the nilradical; it must satisfy the derivation equation
    symbolically, otherwise an error is raised."""
    d = nilradical.dim
    if template is None:
        template = derivation_space(nilradical).generic_matrix()
    params = _template_param_names(template)
    beta = tuple(f"beta{j:02d}" for j in range(d))
    gamma = tuple(f"gamma{j:02d}" for j in range(d))
    delta = tuple(f"delta{j:02d}" for j in range(d))
    w = tuple(tuple(f"w{i:02d}c{j:02d}" for j in range(d)) for i in range(2, d))
    unknown_names = beta + gamma + delta + tuple(n for row in w for n in row)
    ring = PolyRing(tuple(params) + unknown_names + tuple(extra_names))
    lifted = tuple(tuple((j, _lift(e, ring) if isinstance(e, Poly) else ring.const(e)) for j, e in row if e)
                   for row in template)
    if not is_derivation(nilradical, lifted):
        raise ValueError("template is not symbolically a derivation of the nilradical")
    rows = [tuple((j, ring.var(n)) for j, n in enumerate(names)) for names in (beta, gamma, *w, delta)]
    return ExtensionProblem(
        nilradical=nilradical,
        ring=ring,
        template=lifted,
        unknown_rows=tuple(rows[:-1]),
        square_row=rows[-1],
        template_params=tuple(params),
        unknown_names=unknown_names,
    )


def _template_param_names(template: Sequence) -> tuple:
    """The sorted names that occur in the Poly entries of the template."""
    names = set()
    for row in template:
        for _, e in row:
            if isinstance(e, Poly):
                names.update(e.variables())
    return tuple(sorted(names))


@dataclass(frozen=True)
class ConstraintSystem:
    ring: PolyRing
    # Polys of ``ring`` that must vanish. ``generate_constraints`` gives them
    # content-normalized, nonzero and without repeats, but a caller may pass
    # any: ``eliminate`` normalizes its input, drops zeros and repeats.
    equations: tuple
    problem: Optional[ExtensionProblem] = field(default=None, compare=False, repr=False)


def _int_cells(products: Mapping, m: int) -> list:
    """cells[i][j]: the ``(k, monomial, c)`` terms of [b_i, b_j] for a
    ``{(i, j): [(k, scalar), ...]}`` map over m basis vectors, a scalar a Poly
    or a rational (monomial ``()``); each c is a coefficient times the common
    denominator of all of them."""
    cells = [[[] for _ in range(m)] for _ in range(m)]
    for (i, j), entries in products.items():
        cell = cells[i][j]
        for k, c in entries:
            if isinstance(c, Poly):
                cell.extend((k, mono, v) for mono, v in c._terms.items())
            elif c:
                cell.append((k, (), c))
    it = iter(scale_to_integers([c for row in cells for cell in row for _, _, c in cell])[0])
    return [[[(k, mono, next(it)) for k, mono, _ in cell] for cell in row] for row in cells]


def leibniz_equations(ring: PolyRing, products: Mapping, m: int, known: int = 0,
                      hypotheses: Sequence[Poly] = ()) -> tuple:
    """The polynomial system that the Leibniz identity puts on a product
    table with Poly entries: ``products`` maps (i, j) to the ``(k, c)`` of
    [b_i, b_j] over m basis vectors, each c a Poly of ``ring`` or a rational.

    The equations are the nonzero coordinates of the Leibniz defects in
    (i, j, k, t) order, skipping the triples inside the first ``known`` basis
    vectors (an algebra, validated elsewhere); then the ``hypotheses``. Each
    is content-normalized, and a repeat is dropped.

    The cells are expanded into ``(k, monomial, int)`` terms, all scaled by
    one common denominator L. The defects are walked over the nonzero cells
    one i-slab at a time, as :func:`~leibnizalg.algebra.leibniz_defects`
    walks them, and each coordinate sums its terms in a ``{monomial: int}``
    dict. Every term is the product of two cells, so an equation comes out
    times L^2, which the content normalization removes; the hypotheses are
    taken as they are.
    """
    cells = _int_cells(products, m)
    equations: dict = {}

    def add(acc):
        for key in sorted(acc):
            terms = {mono: v for mono, v in acc[key].items() if v}
            if terms:
                equations.setdefault(Poly._raw(ring, terms).content_normalized())

    rows = [[(j, cell) for j, cell in enumerate(row) if cell] for row in cells]
    # by_coord[s]: (j * m + k, whether j and k are inside, mono, c) for each term c b_s of [b_j, b_k]
    by_coord = [[] for _ in range(m)]
    for j, row in enumerate(rows):
        for k, cell in row:
            inside = j < known and k < known
            for s, mono, c in cell:
                by_coord[s].append((j * m + k, inside, mono, c))
    for i in range(m):
        acc = defaultdict(dict)  # coordinate key -> {monomial: int}
        for j, cell in rows[i]:
            inside = i < known and j < known
            for s, mono1, c in cell:
                for k, cell2 in rows[s]:
                    if inside and k < known:
                        continue
                    # c [b_s, b_k] is [[bi,bj],bk] in (i, j, k) and -[[bi,bj],bk] in (i, k, j)
                    plus = (j * m + k) * m
                    minus = (k * m + j) * m
                    for t, mono2, c2 in cell2:
                        mono = tuple(sorted(mono1 + mono2)) if mono1 and mono2 else mono1 or mono2
                        v = c * c2
                        e = acc[plus + t]
                        e[mono] = e.get(mono, 0) + v
                        e = acc[minus + t]
                        e[mono] = e.get(mono, 0) - v
        for s, cell in rows[i]:  # -[bi,[bj,bk]]
            inside = i < known and s < known
            for jk, inner, mono1, c in by_coord[s]:
                if inside and inner:
                    continue
                base = jk * m
                for t, mono2, c2 in cell:
                    mono = tuple(sorted(mono1 + mono2)) if mono1 and mono2 else mono1 or mono2
                    e = acc[base + t]
                    e[mono] = e.get(mono, 0) - c * c2
        add(acc)
    for h in hypotheses:
        if h:
            equations.setdefault(h.content_normalized())
    return tuple(equations)


def generate_constraints(problem: ExtensionProblem, hypotheses: Sequence[Poly] = ()) -> ConstraintSystem:
    """Leibniz identity over every extended-basis triple involving x, plus
    the hypotheses (:func:`leibniz_equations` on the product table of
    N + <x>).

    Triples lying entirely inside the nilradical are skipped: the nilradical
    is validated at construction, so those equations hold identically. The
    right-annihilator equations [u, [v,w]+[w,v]] = 0 for pairs involving x
    are left out: each is minus the sum of the defects of (u, v, w) and
    (u, w, v), which the system holds, so the ideal is the same.
    """
    d = problem.nilradical.dim
    ring = problem.ring
    hypotheses = [h if h.ring is ring else _lift(h, ring) for h in hypotheses]
    equations = leibniz_equations(ring, problem.products(), d + 1, known=d, hypotheses=hypotheses)
    return ConstraintSystem(ring=ring, equations=equations, problem=problem)


# -- elimination ----------------------------------------------------------------


@dataclass(frozen=True)
class Contradiction:
    """The system forces a nonzero constant to vanish."""

    witness: Poly
    assignments: tuple  # ordered ((name, value Poly, source equation), ...)

    kind = "contradiction"


@dataclass(frozen=True)
class Family:
    """Residual parametric solution set after all linear deductions."""

    residual: tuple
    assignments: tuple
    free: tuple

    kind = "family"


def _poly_sort_key(p: Poly):
    """Fewest terms first, then the terms in descending graded-lex order,
    each compared by its monomial as a dense exponent vector, then by its
    coefficient."""
    return (p.num_terms, tuple((lex_key(mono), c) for mono, c in p.terms()))


def eliminate(system: ConstraintSystem):
    """Fixpoint loop: stop on a nonzero constant (Contradiction), otherwise
    solve one equation that is linear in a single indeterminate with a
    constant nonzero coefficient and substitute everywhere.

    Tie-break: lexicographically smallest variable name, then fewest terms,
    then canonical term order. Each substitution removes an indeterminate, so
    termination is immediate; the outcome is deterministic.

    Each live equation keeps a slot, and a slot is nothing but its working
    ``{monomial: int}`` terms: the equation up to a nonzero integer factor.
    A slot is constant when its only monomial is ``()``. Two indexes, keyed
    by ring index, are supersets checked when popped: ``index[u]`` holds
    every slot with a term that holds u, ``solvable[u]`` every slot that can
    be solved for u. A slot joins ``index[u]`` when a term holding u appears
    or vanishes in it (u not the pivot, which no slot holds afterwards), and
    ``solvable[u]`` when that happens and ``(u,)`` is one of its terms; a
    popped candidate stays only if ``(u,)`` is its sole term holding u.
    ``rank`` orders the ring indices as their names sort. A step rewrites
    only the terms that hold the pivot v, in the slots of ``index[v]`` that
    hold it: the pivot c*v + rest (``linear_coefficient``, once per step) is
    logged as v := -rest/c, and a slot e becomes c^K e(v := -rest/c) in
    ints, K the degree of v in e. Scale and duplicates change neither
    solvability nor constancy, so a slot is content-normalized only where it
    is read (the candidates with the fewest terms, the witness, the residual,
    each on a copy) and, in place, after a non-unit pivot.
    Slots that a step makes equal are not merged: finding them takes a
    normalization and a hash per rewrite, which costs more than the repeated
    rewrites (about 7% of them) do.
    """
    ring = system.ring
    names = ring.names
    rank = [0] * len(names)
    for r, i in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        rank[i] = r
    slots: dict = {}      # slot -> working terms
    index = defaultdict(set)
    solvable = defaultdict(set)
    constants: list = []
    log: list = []

    def read(s) -> Poly:
        return Poly._raw(ring, dict(slots[s])).content_normalized()

    for s, e in enumerate(dict.fromkeys(e.content_normalized() for e in system.equations if e)):
        terms = slots[s] = dict(e._terms)
        for mono in terms:
            for u in mono:
                index[u].add(s)
            if len(mono) == 1:
                solvable[mono[0]].add(s)
        if () in terms and len(terms) == 1:
            constants.append(s)
    while True:
        if constants:
            witness = min(map(read, constants), key=_poly_sort_key)
            return Contradiction(witness=witness, assignments=tuple(log))
        best = None
        while best is None and solvable:
            var = min(solvable, key=rank.__getitem__)
            cands = [s for s in solvable.pop(var)  # (var,) is the sole term that holds var
                     if (var,) in slots.get(s, ()) and sum(var in mono for mono in slots[s]) == 1]
            if cands:  # the sort key starts with the term count: read only the fewest
                fewest = min(len(slots[s]) for s in cands)
                best = min((read(s) for s in cands if len(slots[s]) == fewest), key=_poly_sort_key)
        if best is None:
            assigned = {name for name, _, _ in log}
            free = tuple(n for n in names if n not in assigned)
            residual = tuple(sorted(set(map(read, slots)), key=_poly_sort_key))
            return Family(residual=residual, assignments=tuple(log), free=free)
        name = names[var]
        coeff, rest = best.linear_coefficient(name)
        num, den = (-rest, coeff) if coeff > 0 else (rest, -coeff)  # name = num / den
        log.append((name, num if den == 1 else num * Fraction(1, den), best))
        powers = {1: num._terms.items()}
        for s in index.pop(var):
            hits = [mono for mono in slots.get(s, ()) if var in mono]
            if not hits:  # a deleted slot, or one that no longer holds var
                continue
            terms = slots[s]
            if den != 1:
                scale = den ** max(mono.count(var) for mono in hits)
                for mono in terms:
                    terms[mono] *= scale
            touched = set()
            for mono in hits:
                c = terms.pop(mono)
                touched.update(mono)
                k = mono.count(var)
                if k not in powers:
                    powers[k] = (num**k)._terms.items()
                p = mono.index(var)
                left = mono[:p] + mono[p + k:]
                c //= den**k  # exact: the scale holds den**k
                for m2, c2 in powers[k]:
                    mm = tuple(sorted(left + m2)) if left and m2 else left or m2
                    old = terms.pop(mm, 0)
                    t = old + c * c2
                    if t:
                        terms[mm] = t
                    if not (old and t):  # the term appeared or vanished
                        touched.update(mm)
            if not terms:
                del slots[s]
                continue
            if den != 1:
                terms = slots[s] = Poly._raw(ring, terms).content_normalized()._terms
            touched.discard(var)
            for u in touched:
                index[u].add(s)
                if (u,) in terms:
                    solvable[u].add(s)
            if () in terms and len(terms) == 1:
                constants.append(s)


def resolved_assignments(outcome) -> dict:
    """Assignment values rewritten to contain free indeterminates only."""
    resolved: dict = {}
    for name, value, _ in reversed(outcome.assignments):
        for inner in value.variables():
            if inner in resolved:
                value = value.substitute(inner, resolved[inner])
        resolved[name] = value
    return resolved


def replay(system: ConstraintSystem, outcome) -> tuple:
    """Apply the assignment log, in order, to the original equations; returns
    the reduced nonzero polynomials (Family: exactly the residual set;
    Contradiction: contains the witness)."""
    eqs = list(system.equations)
    for name, value, _ in outcome.assignments:
        eqs = [e.substitute(name, value) for e in eqs]
    out = set()
    for e in eqs:
        if e:
            out.add(e.content_normalized())
    return tuple(sorted(out, key=_poly_sort_key))


def instantiate(problem: ExtensionProblem, outcome, free_values: Mapping[str, Fraction]) -> Algebra:
    """Concrete extension algebra from a Family outcome at rational values of
    the free indeterminates (unlisted free names default to 0)."""
    if outcome.kind != "family":
        raise ValueError("only Family outcomes can be instantiated")
    env = {n: Fraction(0) for n in outcome.free}
    env.update({k: to_fraction(v) for k, v in free_values.items()})
    for name, value in resolved_assignments(outcome).items():
        env[name] = value.evaluate(env)
    for res in outcome.residual:
        if res.evaluate(env) != 0:
            raise ValueError(f"instantiation violates residual constraint {res}")
    N = problem.nilradical
    d = N.dim
    products = problem.products()
    for key, row in products.items():
        if d in key:  # an x cell: Poly entries
            products[key] = [(k, c.evaluate(env)) for k, c in row]
    alg = algebra_from_products(N.labels + ("x",), products,
                                {"family": "extension", "n": d - 1, "params": dict(free_values)})
    rep = leibniz_check(alg)
    if not rep.ok:
        raise ValueError(f"instantiated extension violates the Leibniz identity: {rep.failures[0]}")
    return alg


def diagonal_branches(problem: ExtensionProblem) -> list:
    """Complete case split over non-nilpotent template normalizations.

    The template is non-nilpotent exactly when some functional f_1..f_r of
    :func:`~leibnizalg.derivations.diagonal_functionals` is nonzero; scaling
    x normalizes the first nonzero one to 1, giving the exhaustive branches
    {f_1=1}, {f_1=0, f_2=1}, ..., returned as hypothesis lists. A template
    that is not upper triangular, whose diagonal would give an incomplete
    split, or whose diagonal is not linear in the template parameters,
    raises ValueError.
    """
    params = problem.template_params
    ring = problem.ring
    funcs = []
    for row in diagonal_functionals(problem.template, params):
        f = ring.zero
        for k, c in row:
            f = f + ring.var(params[k]) * c
        funcs.append(f)
    return [[funcs[s] for s in range(t)] + [funcs[t] - 1] for t in range(len(funcs))]


# -- basis changes ----------------------------------------------------------------


def shear_change(m: int, entries, one=1) -> Optional[tuple]:
    """The identity on m basis vectors plus the listed off-diagonal entries
    ``(row, col, value)``: new basis vector e_row + value*e_col. Entries at
    one position add up; None when no value is nonzero. With ``one`` = den
    and integer values it is the integer rows of the change over den."""
    entries = [(r, c, v) for r, c, v in entries if v]
    if not entries:
        return None
    rows = [{r: one} for r in range(m)]
    for r, c, v in entries:
        rows[r][c] = rows[r].get(c, 0) + v
    return tuple(tuple((c, v) for c, v in sorted(row.items()) if v) for row in rows)


def _star_recursion(n: int, variant: str, b: Mapping[int, Fraction]) -> tuple:
    """(A, den): the A-coefficients A_k = A[k] / den that kill the tail
    coefficients b_2.. of a head row, by the stated recursion of each
    variant, in integers. For A (k = 2..n): A_2 = -b_2,
    A_i = (b_i + sum_{j=2}^{i-1} A_j b_{i-j+1}) / (1 - i). For B
    (k = 2..n-1): A_2 = -b_2, A_3 = b_2^2 / 2, and the even and odd
    recursions feed each other in index order. The b_k are read over their
    common denominator beta and every A_k over one running denominator, which
    each step multiplies by the beta and the integer it divides by; the
    result is in lowest terms."""
    if variant not in ("A", "B"):
        raise ValueError("variant must be 'A' or 'B'")
    ints, beta = scale_to_integers(list(b.values()))
    B = {k: c for k, c in zip(b, ints) if c}
    b2 = B.get(2, 0)
    if variant == "A":
        A, den, start, stop = {2: -b2}, beta, 3, n + 1
    else:
        A, den, start, stop = {2: -2 * beta * b2, 3: b2 * b2}, 2 * beta * beta, 4, n
    for m in range(start, stop):
        if variant == "A":  # s = (b_m + sum A_j b_{m-j+1}) * den * beta
            s, f = B.get(m, 0) * den + sum(A[j] * B.get(m - j + 1, 0) for j in range(2, m)), beta * (m - 1)
        elif m % 2 == 0:
            k = m // 2
            s = B.get(m, 0) * den + sum(A[2 * j - 1] * B.get(2 * k - 2 * j + 2, 0) for j in range(2, k + 1))
            f = beta * (m - 1)
        else:
            k = (m - 1) // 2
            s, f = sum(A[2 * j] * B.get(2 * k - 2 * j + 2, 0) for j in range(1, k + 1)), 2 * k * beta
        for j in A:  # A_m = -s / (den * f)
            A[j] *= f
        den *= f
        A[m] = -s
    g = gcd(den, *A.values())
    return {k: c // g for k, c in A.items()}, den // g


def tail_coefficients(b: Mapping[int, Fraction], n: int) -> dict:
    """The cascade that kills tail coefficients b_2..b_n of a head row:
    A_2 = -b_2, A_i = (b_i + sum_{j=2}^{i-1} A_j b_{i-j+1}) / (1 - i), as
    Fractions (the A recursion of :func:`_star_recursion`)."""
    A, den = _star_recursion(n, "A", b)
    return {k: Fraction(c, den) for k, c in A.items()}


def chain_shift(n: int, head: int, top: int, A: Mapping[int, Fraction], one=1) -> Optional[tuple]:
    """On (e_0..e_n, x): e_head -> e_head + sum_{i=2}^{top} A_i e_i and
    e_i -> e_i + sum_{j>i} A_{j-i+1} e_j for i >= 2 (``one`` as in
    :func:`shear_change`)."""
    entries = [(head, i, A.get(i, 0)) for i in range(2, top + 1)]
    entries += [(i, j, A.get(j - i + 1, 0)) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    return shear_change(n + 2, entries, one)


def _old_brackets(prods: Sequence, rows: Sequence, left: Optional[Sequence] = None):
    """Per a, [u_a, u_b] in old coordinates as ``{m: int}``, for every b;
    u_a is ``left[a]`` when given, u_b always ``rows[b]``."""
    cells = [[(j, cell) for j, cell in enumerate(plane) if cell] for plane in prods]
    for u in rows if left is None else left:
        half = {}  # half[j]: the {m: c} of [u_a, b_j], for the j it reaches
        for i, ti in u:
            for j, cell in cells[i]:
                acc = half.get(j)
                if acc is None:
                    half[j] = {m: ti * c for m, c in cell}
                else:
                    for m, c in cell:
                        acc[m] = acc.get(m, 0) + ti * c
        plane = []
        for v in rows:
            w = {}
            for j, vj in v:
                if j in half:
                    for m, c in half[j].items():
                        w[m] = w.get(m, 0) + vj * c
            plane.append(w)
        yield plane


def apply_basis_change(alg: Algebra, rows: Sequence) -> Algebra:
    """Transform the product table to the basis whose vector u_a has the
    sparse old coordinates ``rows[a]`` (the nonzero ``(i, c)``, sorted by i);
    the Leibniz verdict is preserved and asserted. A singular change raises
    ValueError.

    The entry of [u_a, u_b] on new basis vector k is
    (bracket(u_a, u_b) @ T^-1)[k], T the matrix of the rows. It is built over
    nonzero entries only: each nonzero old coordinate m of [u_a, u_b]
    (:func:`_old_brackets`) is pushed through row m of T^-1. T, T^-1 (from
    ``int_inverse``) and the product table (``alg.scaled``) are integers, so
    each entry is one integer sum N over D, the product of the three common
    denominators (twice T's, for the two rows). The lcm of the reduced
    denominators of the N / D is D / g, g = gcd(D, all N), so the result's
    integer-scaled table is the N / g over D / g: it is stored as
    ``out.scaled`` with no second scaling, and the Leibniz check reads it."""
    if len(rows) != alg.dim:
        raise ValueError("basis change has wrong dimension")
    inv_rows, den_inv = int_inverse(rows)  # raises on singular input
    (t_rows,), den_t = int_table((rows,))
    prods, den_p = alg.scaled
    den = den_t * den_t * den_p * den_inv
    nums = []
    for old in _old_brackets(prods, t_rows):
        plane = []
        for w in old:
            new = {}  # [u_a, u_b] in new coordinates
            for m, c in w.items():
                if c:
                    for k, e in inv_rows[m]:
                        new[k] = new.get(k, 0) + c * e
            plane.append(tuple((k, new[k]) for k in sorted(new) if new[k]))
        nums.append(tuple(plane))
    g = gcd(den, *(c for plane in nums for cell in plane for _, c in cell))
    den //= g
    if g > 1:
        nums = [tuple(tuple((k, c // g) for k, c in cell) for cell in plane) for plane in nums]
    nums = tuple(nums)
    table = tuple(tuple(tuple((k, Fraction(c, den)) for k, c in cell) for cell in plane) for plane in nums)
    out = Algebra(alg.labels, table, alg.metadata)
    vars(out)["scaled"] = nums, den  # int_table(out.table), exactly
    if not leibniz_check(out).ok:
        raise RuntimeError("basis change broke the Leibniz identity (change not invertible?)")
    return out


def carries_products(table: tuple, rows: tuple, target: tuple) -> bool:
    """True iff the basis u_a = R_a / den_r, ``rows`` = (R, den_r), of the
    algebra whose integer-scaled table is ``table`` = (P, den_p) has the
    structure constants c = W / den_t of ``target`` = (W, den_t): [u_a, u_b]
    = sum_k c[a][b][k] u_k for every pair (the image check of an
    isomorphism). The rows must be upper unitriangular (integer rows with
    den_r on the diagonal, else ValueError), hence a basis, so this is
    ``apply_basis_change`` followed by a comparison of integer tables, with
    no inverse and no new table. In integers, both sides times den_p * den_t
    * den_r^2: den_t enters through the left factor of each bracket, den_p *
    den_r through the rows that combine the target's constants."""
    (prods, den_p), (t_rows, den_r), (want_prods, den_t) = table, rows, target
    if len(t_rows) != len(prods) or len(want_prods) != len(prods) or not is_unitriangular(t_rows, den_r):
        raise ValueError("need an upper unitriangular change and a target of the algebra's dimension")
    left = None if den_t == 1 else [[(i, c * den_t) for i, c in row] for row in t_rows]
    s = den_p * den_r
    scaled_rows = [[(m, e * s) for m, e in row] for row in t_rows]
    for a, old in enumerate(_old_brackets(prods, t_rows, left)):
        for b, w in enumerate(old):
            for k, c in want_prods[a][b]:
                for m, e in scaled_rows[k]:
                    w[m] = w.get(m, 0) - c * e
            if any(w.values()):
                return False
    return True


def int_star_change(n: int, variant: str, b: Mapping[int, Fraction]) -> tuple:
    """(rows, den): the star transformation on the extended basis
    (e_0..e_n, x) as integer rows over the common denominator of its
    A-coefficients: e_0 and x fixed, e_1 -> e_1 + sum_{i=2}^{top} A_i e_i
    and e_i -> e_i + sum_{j>i} A_{j-i+1} e_j for i >= 2, top = n for A and
    n - 1 for B; unitriangular, hence invertible.

    For variant A the e_1 row runs through A_n: the displayed transformation
    stops it at A_{n-1}, which leaves a residual e_n tail on [e_1, x] (checked
    by hand and by the exact basis change); the recursion defines A_n and
    including it is what makes the elimination work.
    """
    A, den = _star_recursion(n, variant, b)
    rows = chain_shift(n, 1, n if variant == "A" else n - 1, A, den)
    return rows or tuple(((i, den),) for i in range(n + 2)), den


def star_change(n: int, variant: str, b: Mapping[int, Fraction]) -> tuple:
    """The star transformation of :func:`int_star_change` as sparse
    Fraction rows."""
    rows, den = int_star_change(n, variant, b)
    return tuple(tuple((k, Fraction(c, den)) for k, c in row) for row in rows)


def _tail_vanishes(v: Sequence, rows: Sequence, den: int, lo: int, hi: int) -> bool:
    """Whether the y with y . T = v is zero at every coordinate lo..hi, for
    the integer row v and T = ``rows`` / den upper unitriangular: forward
    substitution in integers (each nonzero y_k before lo scales what is
    left by den), stopped at the first nonzero coordinate in lo..hi."""
    acc = dict(v)
    for k, row in enumerate(rows[:hi + 1]):
        if c := acc.pop(k, 0):
            if k >= lo:
                return False
            acc = {j: a * den for j, a in acc.items()}
            for j, t in row[1:]:
                acc[j] = acc.get(j, 0) - c * t
    return True


def chain_rows(table: tuple, n: int, variant: str, start: tuple) -> tuple:
    """(rows, den): rows 0, 1 and x = n + 1 of the change ``start`` = (S,
    den_s) (u_0, u_1, u_x) with the rest rebuilt as w_{i+1} = [u_0, w_i]
    from w_1 = u_1 (for B the top row is -[u_1, w_{n-1}]), in the
    integer-scaled table ``table`` = (P, den_p): ``start`` followed by the
    chain re-adaptation of the image, as integer rows over one denominator;
    unitriangular when ``start`` is. Each bracket is over the product of
    den_p and its two rows' denominators, and each row is kept in lowest
    terms, so the integers stay small."""
    prods, den_p = table
    rows, den_s = start
    out = [lowest_terms(rows[0], den_s), lowest_terms(rows[1], den_s)]
    (u0, d0), (u1, d1) = out
    for i in range(1, n if variant == "A" else n - 1):
        w, dw = out[i]
        out.append(lowest_terms(bracket(prods, u0, w), den_p * d0 * dw))
    if variant == "B":
        w, dw = out[n - 1]
        top, dt = lowest_terms(bracket(prods, u1, w), den_p * d1 * dw)
        out.append((tuple((k, -c) for k, c in top), dt))
    out.append(lowest_terms(rows[n + 1], den_s))
    return common_denominator(out)


# -- conjecture frames ----------------------------------------------------------------


class Memo:
    """``memo(fn, *args)`` is ``fn(*args)``, called once per distinct
    ``(fn, args)``: for pure functions of hashable arguments. A raise
    propagates and is not kept, so a failed construction is never stored."""

    def __init__(self):
        self._values: dict = {}

    def __call__(self, fn, *args):
        key = fn, args
        if key not in self._values:
            self._values[key] = fn(*args)
        return self._values[key]


def alpha_items(alphas: Mapping) -> tuple:
    """The alphas as a hashable, sorted tuple of ``(k, alpha_k)``: the key of
    a frame's facts in a :class:`Memo`."""
    return tuple(sorted(alphas.items()))


@dataclass(frozen=True)
class ConjectureResult:
    eliminated: bool
    residual_b: dict
    variant: str
    n: int

    def __bool__(self) -> bool:
        return self.eliminated


def conjecture_check(n: int, variant: str, r: int, alphas: Mapping[int, Fraction],
                     a1, b: Mapping[int, Fraction], memo: Optional[Memo] = None) -> ConjectureResult:
    """Whether the star transformation T eliminates the tail of the solvable
    family member at ``b``, all from the frame's ``families.SolvableFrame``,
    built once in ``memo`` (a fresh one when none is given), in integers:
    the member's integer table (``SolvableFrame.scaled_table``), T as integer
    rows (``int_star_change``), the residual tail as the coordinates 2..n of
    the y with y . T = [u_1, u_x] (forward substitution, stopped at the
    first nonzero one), and the check that the basis re-adapted through the
    chain products (``chain_rows`` from T) carries the products of the
    validated b = 0 member (``carries_products``). Nothing is inverted and
    no transformed table is built. A trial that eliminates builds no
    Fraction member: the image check, on rows that form a basis, has shown
    it isomorphic to the validated b = 0 member. Only a trial that does not
    eliminate builds its member, validates it, and reads the exact residual
    tail in Fractions."""
    if variant not in ("A", "B"):
        raise ValueError("variant must be 'A' or 'B'")
    frame = (memo or Memo())(SolvableFrame, variant, n, r, alpha_items(alphas), a1)
    table = frame.scaled_table(b)
    try:
        target = frame.target
    except ConstructionError:
        validate(frame.member(b))  # the member's failure, if any, comes first
        raise
    change = int_star_change(n, variant, b)
    rows, den = change
    if (_tail_vanishes(bracket(table[0], rows[1], rows[n + 1]), rows, den, 2, n)
            and carries_products(table, chain_rows(table, n, variant, change), target)):
        return ConjectureResult(True, {}, variant, n)
    alg = validate(frame.member(b))
    change = star_change(n, variant, b)
    tail = unitriangular_solve(bracket(alg.table, change[1], change[n + 1]), change)
    return ConjectureResult(False, {k: c for k, c in tail if 2 <= k <= n}, variant, n)
