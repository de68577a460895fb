"""Symbolic codimension-one solvable extensions N + <x>.

The action of x on the nilradical is a symbolic derivation template (the
general element of the computed derivation space); the products [x, e_i] and
[x, x] get fresh unknowns. The Leibniz identity over the extended basis plus
the right-annihilator equations yield a polynomial constraint system that a
deterministic linear-substitution elimination reduces to either a
Contradiction (with a replayable witness) or a residual parametric Family.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import Mapping, Optional, Sequence

from .algebra import (
    Algebra,
    algebra_from_products,
    bracket,
    int_table,
    leibniz_check,
    leibniz_defects,
    product_table,
    table_bracket,
)
from .derivations import derivation_space, is_derivation
from .families import make_SolvA, make_SolvB
from .linalg import Matrix, rref, sparse_inverse, to_fraction
from .poly import Poly, PolyRing, lex_key, linear_form_rows


def _lift(poly: Poly, ring: PolyRing) -> Poly:
    """Re-express a polynomial in a ring containing all of its names."""
    src = poly.ring.names
    return Poly(ring, {tuple(sorted(ring.index[src[i]] for i in mono)): c
                       for mono, c in poly._terms.items()})


@dataclass(frozen=True)
class ExtensionProblem:
    nilradical: Algebra
    ring: PolyRing
    template: Matrix          # [e_i, x] rows, Poly entries, linear in the template params
    unknown_rows: tuple       # unknown_rows[i] = vector of [x, e_i], Poly entries
    square_row: tuple         # vector of [x, x]
    template_params: tuple
    unknown_names: tuple
    annihilator_span: tuple   # RREF basis of span{[u,v]+[v,u], [u,u]} inside N

    @property
    def dim(self) -> int:
        return self.nilradical.dim + 1

    def symmetric_coordinates(self) -> tuple:
        """Coordinates of [x,x] and of [x,e_i]+[e_i,x]: all must vanish for a
        Lie (antisymmetric) extension."""
        coords = list(self.square_row)
        for i in range(self.nilradical.dim):
            for j in range(self.nilradical.dim):
                coords.append(self.unknown_rows[i][j] + self.template.rows[i][j])
        return tuple(c for c in coords if c)


def _forced_annihilator_span(alg: Algebra):
    vecs = []
    d = alg.dim
    for i in range(d):
        for j in range(i, d):
            u = bracket(alg, alg.basis_vector(i), alg.basis_vector(j))
            v = bracket(alg, alg.basis_vector(j), alg.basis_vector(i))
            vecs.append(tuple(a + b for a, b in zip(u, v)))
    vecs = [v for v in vecs if any(v)]
    if not vecs:
        return ()
    rows, _ = rref(vecs, d)
    return rows


def build_extension_problem(
    nilradical: Algebra,
    template: Optional[Matrix] = None,
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
    lifted = Matrix(tuple(tuple(_lift(e, ring) if isinstance(e, Poly) else ring.const(e) for e in row)
                          for row in template.rows))
    if not is_derivation(nilradical, lifted):
        raise ValueError("template is not symbolically a derivation of the nilradical")
    rows = [tuple(ring.var(n) for n in beta), tuple(ring.var(n) for n in gamma)]
    for i in range(2, d):
        rows.append(tuple(ring.var(n) for n in w[i - 2]))
    return ExtensionProblem(
        nilradical=nilradical,
        ring=ring,
        template=lifted,
        unknown_rows=tuple(rows),
        square_row=tuple(ring.var(n) for n in delta),
        template_params=tuple(params),
        unknown_names=unknown_names,
        annihilator_span=_forced_annihilator_span(nilradical),
    )


def _template_param_names(template: Matrix) -> tuple:
    names = []
    seen = set()
    for row in template.rows:
        for e in row:
            if isinstance(e, Poly):
                for n in e.variables():
                    if n not in seen:
                        seen.add(n)
                        names.append(n)
    if not names and template.rows and isinstance(template.rows[0][0], Poly):
        names = list(template.rows[0][0].ring.names)
    return tuple(sorted(names))


@dataclass(frozen=True)
class ConstraintSystem:
    ring: PolyRing
    equations: tuple  # normalized nonzero Polys, deduplicated
    problem: Optional[ExtensionProblem] = field(default=None, compare=False, repr=False)


def generate_constraints(problem: ExtensionProblem, hypotheses: Sequence[Poly] = ()) -> ConstraintSystem:
    """Leibniz identity over every extended-basis triple involving x, plus the
    right-annihilator equations [u, [v,w]+[w,v]] = 0 for pairs involving x.

    Triples lying entirely inside the nilradical are skipped: the nilradical
    is validated at construction, so those equations hold identically.
    """
    N = problem.nilradical
    d = N.dim
    m = d + 1
    ring = problem.ring
    zero = ring.zero
    # product table of N + <x>: the template rows [e_i, x], the unknown rows
    # [x, e_j] and the square row [x, x] join N's products; all lie in N
    products = {(i, j): N.table[i][j] for i in range(d) for j in range(d)}
    for i in range(d):
        products[i, d] = enumerate(problem.template.rows[i])
        products[d, i] = enumerate(problem.unknown_rows[i])
    products[d, d] = enumerate(problem.square_row)
    table = product_table(products, m)
    seen = set()
    equations = []

    def add(polyvec):
        for pv in polyvec:
            if pv:
                pv = pv.content_normalized()
                if pv not in seen:
                    seen.add(pv)
                    equations.append(pv)

    for (p, q, r), defect in leibniz_defects(table):
        if p < d and q < d and r < d:
            continue
        add(defect.values())
    for q in range(m):
        for r in range(q, m):
            if q < d and r < d:
                continue
            sym = [zero] * m
            for k, c in table[q][r] + table[r][q]:
                sym[k] = sym[k] + c
            if not any(sym):
                continue
            for p in range(m):
                unit = [0] * m
                unit[p] = 1
                add(table_bracket(table, unit, sym, zero))
    for h in hypotheses:
        if h.ring is not ring:
            h = _lift(h, ring)
        add((h,))
    return ConstraintSystem(ring=ring, equations=tuple(equations), problem=problem)


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
    """Fixpoint loop: drop zeros, stop on a nonzero constant (Contradiction),
    otherwise solve one equation that is linear in a single indeterminate with
    a constant nonzero coefficient and substitute everywhere.

    Tie-break: lexicographically smallest variable name, then fewest terms,
    then canonical term order. Each substitution removes an indeterminate, so
    termination is immediate; the outcome is deterministic.

    Live equations are numbered, and a number is never reused. Two indexes
    over the numbers keep a step local, both keyed by ring index: ``index``
    maps each variable to the equations that contain it, so a substitution
    touches only those; ``solvable`` maps each variable to the equations in
    which its only occurrence is a degree-1 term, so the candidates are found
    without a scan. ``rank`` orders the ring indices as their names sort, so
    the smallest rank is the lexicographically smallest name. A rewritten
    equation retires lazily: its number stays in the indexes and is skipped
    when popped, because it is no longer ``live``. The pivot's coefficient
    (``linear_coefficient``) is computed once per step, on the chosen
    equation only.
    """
    ring = system.ring
    names = ring.names
    rank = [0] * len(names)
    for r, i in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        rank[i] = r
    numbers: dict = {}    # live equation -> its number
    live: dict = {}       # number -> live equation
    index = defaultdict(list)
    solvable = defaultdict(list)
    constants: list = []
    log: list = []
    counter = count()

    def add(e: Poly):
        if e in numbers:
            return
        k = numbers[e] = next(counter)
        live[k] = e
        indices = e._indices()
        if not indices:
            constants.append(e)
            return
        for i in indices:
            index[i].append(k)
        linear = [mono[0] for mono in e._terms if len(mono) == 1]
        if linear:
            nonlinear = {i for mono in e._terms if len(mono) > 1 for i in mono}
            for i in linear:
                if i not in nonlinear:
                    solvable[i].append(k)

    for e in system.equations:
        if e:
            add(e.content_normalized())
    while True:
        if constants:
            witness = min(constants, key=_poly_sort_key)
            return Contradiction(witness=witness, assignments=tuple(log))
        best = None
        while best is None and solvable:
            var = min(solvable, key=rank.__getitem__)
            cands = [live[k] for k in solvable.pop(var) if k in live]
            if cands:
                best = min(cands, key=_poly_sort_key)
        if best is None:
            assigned = {name for name, _, _ in log}
            free = tuple(n for n in names if n not in assigned)
            residual = tuple(sorted(numbers, key=_poly_sort_key))
            return Family(residual=residual, assignments=tuple(log), free=free)
        name = names[var]
        coeff, rest = best.linear_coefficient(name)
        value = rest * (Fraction(-1) / coeff)
        log.append((name, value, best))
        for k in index.pop(var):
            e = live.pop(k, None)
            if e is not None:
                del numbers[e]
                e = e.substitute(name, value)
                if e:
                    add(e.content_normalized())


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

    def values(row):
        return [(k, c.evaluate(env)) for k, c in enumerate(row)]

    products = {(i, j): N.table[i][j] for i in range(d) for j in range(d)}
    for i in range(d):
        products[i, d] = values(problem.template.rows[i])
        products[d, i] = values(problem.unknown_rows[i])
    products[d, d] = values(problem.square_row)
    alg = algebra_from_products(N.labels + ("x",), products,
                                {"family": "extension", "n": d - 1, "params": dict(free_values)})
    rep = leibniz_check(alg)
    if not rep.ok:
        raise ValueError(f"instantiated extension violates the Leibniz identity: {rep.failures[0]}")
    return alg


def diagonal_branches(problem: ExtensionProblem) -> list:
    """Complete case split over non-nilpotent template normalizations.

    The template is upper-triangular for every family treated here, so it is
    non-nilpotent exactly when some diagonal functional of the parameters is
    nonzero. RREF the span of the diagonal functionals f_1..f_r; scaling x
    normalizes the first nonzero one to 1, giving the exhaustive branches
    {f_1=1}, {f_1=0, f_2=1}, ..., returned as hypothesis lists.
    """
    d = problem.nilradical.dim
    params = problem.template_params
    ring = problem.ring
    if not params:
        return []
    rows = linear_form_rows((problem.template.rows[i][i] for i in range(d)), params)
    rr, _ = rref(rows, len(params))
    funcs = []
    for row in rr:
        f = ring.zero
        for k, c in enumerate(row):
            if c:
                f = f + ring.var(params[k]) * c
        funcs.append(f)
    return [[funcs[s] for s in range(t)] + [funcs[t] - 1] for t in range(len(funcs))]


# -- basis changes ----------------------------------------------------------------


def shear_change(m: int, entries) -> Optional[tuple]:
    """The identity on m basis vectors plus the listed off-diagonal entries
    ``(row, col, value)``: new basis vector e_row + value*e_col. Entries at
    one position add up; None when no value is nonzero."""
    entries = [(r, c, v) for r, c, v in entries if v]
    if not entries:
        return None
    rows = [{r: 1} for r in range(m)]
    for r, c, v in entries:
        rows[r][c] = rows[r].get(c, 0) + v
    return tuple(tuple((c, v) for c, v in sorted(row.items()) if v) for row in rows)


def tail_coefficients(b: Mapping[int, Fraction], n: int) -> dict:
    """The cascade that kills tail coefficients b_2..b_n of a head row:
    A_2 = -b_2, A_i = (b_i + sum_{j=2}^{i-1} A_j b_{i-j+1}) / (1 - i)."""
    A = {2: -b.get(2, Fraction(0))}
    for i in range(3, n + 1):
        acc = b.get(i, Fraction(0))
        for j in range(2, i):
            acc += A[j] * b.get(i - j + 1, Fraction(0))
        A[i] = Fraction(1, 1 - i) * acc
    return A


def chain_shift(n: int, head: int, top: int, A: Mapping[int, Fraction]) -> Optional[tuple]:
    """On (e_0..e_n, x): e_head -> e_head + sum_{i=2}^{top} A_i e_i and
    e_i -> e_i + sum_{j>i} A_{j-i+1} e_j for i >= 2."""
    entries = [(head, i, A.get(i, 0)) for i in range(2, top + 1)]
    entries += [(i, j, A.get(j - i + 1, 0)) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    return shear_change(n + 2, entries)


def apply_basis_change(alg: Algebra, rows: Sequence) -> Algebra:
    """Transform the product table to the basis whose vector u_a has the
    sparse old coordinates ``rows[a]`` (the nonzero ``(i, c)``, sorted by i);
    the Leibniz verdict is preserved and asserted. A singular change raises
    ValueError.

    The entry of [u_a, u_b] on new basis vector k is
    (bracket(u_a, u_b) @ T^-1)[k], T the matrix of the rows. It is built over
    nonzero entries only: for each u_a the half-transform [u_a, b_j] sums
    T[a,i] [b_i, b_j] over the nonzero T[a,i] and the nonzero cells of row i;
    [u_a, u_b] combines those with the nonzero entries of u_b; each nonzero
    coordinate m is then pushed through row m of T^-1. T, T^-1 and the
    product table (``alg.scaled``) are integers, so each entry is one integer
    sum divided once by the product of the three common denominators (twice
    T's, for the two rows)."""
    d = alg.dim
    if len(rows) != d:
        raise ValueError("basis change has wrong dimension")
    (inv_rows,), den_inv = int_table((sparse_inverse(rows),))  # raises on singular input
    (t_rows,), den_t = int_table((rows,))
    prods, den_p = alg.scaled
    den = den_t * den_t * den_p * den_inv
    cells = [[(j, cell) for j, cell in enumerate(plane) if cell] for plane in prods]
    table = []
    for u in t_rows:
        half = [{} for _ in range(d)]  # half[j]: the nonzero {m: c} of [u_a, b_j]
        for i, ti in u:
            for j, cell in cells[i]:
                acc = half[j]
                for m, c in cell:
                    acc[m] = acc.get(m, 0) + ti * c
        half = [[(m, c) for m, c in acc.items() if c] for acc in half]
        plane = []
        for v in t_rows:
            w = {}  # [u_a, u_b] in old coordinates
            for j, vj in v:
                for m, c in half[j]:
                    w[m] = w.get(m, 0) + vj * c
            new = {}  # [u_a, u_b] in new coordinates
            for m, c in w.items():
                if c:
                    for k, e in inv_rows[m]:
                        new[k] = new.get(k, 0) + c * e
            plane.append(tuple((k, Fraction(new[k], den)) for k in sorted(new) if new[k]))
        table.append(tuple(plane))
    out = Algebra(alg.labels, tuple(table), alg.metadata)
    if not leibniz_check(out).ok:
        raise RuntimeError("basis change broke the Leibniz identity (change not invertible?)")
    return out


def star_change(n: int, variant: str, b: Mapping[int, Fraction]) -> tuple:
    """The conjectured tail-killing transformation on the extended basis
    (e_0..e_n, x): e_0 and x fixed, e_1 and each e_i (i >= 2) shifted by
    A_{j-i+1} e_j. The A-coefficients follow the stated recursions for each
    variant; the change is unitriangular, hence invertible.

    For variant A the e_1 row runs through A_n: the displayed transformation
    stops it at A_{n-1}, which leaves a residual e_n tail on [e_1, x] (checked
    by hand and by the exact basis change); the recursion defines A_n and
    including it is what makes the elimination work.
    """
    b = {k: to_fraction(v) for k, v in b.items()}
    if variant == "A":
        A = tail_coefficients(b, n)
    elif variant == "B":
        A = {2: -b.get(2, Fraction(0)), 3: b.get(2, Fraction(0)) ** 2 / 2}
        for m in range(4, n):  # even and odd recursions feed each other in index order
            if m % 2 == 0:
                k = m // 2
                acc = b.get(m, Fraction(0))
                for j in range(2, k + 1):
                    acc += A[2 * j - 1] * b.get(2 * k - 2 * j + 2, Fraction(0))
                A[m] = Fraction(1, 1 - m) * acc
            else:
                k = (m - 1) // 2
                acc = Fraction(0)
                for j in range(1, k + 1):
                    acc += A[2 * j] * b.get(2 * k - 2 * j + 2, Fraction(0))
                A[m] = Fraction(-1, 2 * k) * acc
    else:
        raise ValueError("variant must be 'A' or 'B'")
    e1_top = n if variant == "A" else n - 1
    return chain_shift(n, 1, e1_top, A) or tuple(((i, 1),) for i in range(n + 2))


def chain_restore(alg: Algebra, n: int, variant: str) -> Algebra:
    """Re-adapt the basis of a transformed solvable extension: keep e_0, e_1
    and x, rebuild e_2..e_n from the chain products (and the alternating top
    product for the second variant). Unitriangular, hence invertible."""
    rows = [alg.basis_vector(0), alg.basis_vector(1)]
    for i in range(1, n if variant == "A" else n - 1):
        rows.append(bracket(alg, rows[0], rows[i]))
    if variant == "B":
        rows.append(tuple(-c for c in bracket(alg, rows[1], rows[n - 1])))
    rows.append(alg.basis_vector(n + 1))
    return apply_basis_change(alg, [tuple((i, c) for i, c in enumerate(u) if c) for u in rows])


@dataclass(frozen=True)
class ConjectureResult:
    eliminated: bool
    residual_b: dict
    variant: str
    n: int

    def __bool__(self) -> bool:
        return self.eliminated


def conjecture_check(n: int, variant: str, r: int, alphas: Mapping[int, Fraction],
                     a1, b: Mapping[int, Fraction]) -> ConjectureResult:
    """Build the solvable family member, apply the star transformation, read
    the residual tail coefficients off the transformed [e_1, x] row, then
    re-adapt the basis through the chain products and compare the whole
    product table against the member with all b = 0.

    Everything is re-derived through apply_basis_change, so a single
    mismatched entry is caught exactly.
    """
    if variant == "A":
        alg = make_SolvA(n, r, alphas, a1, b)
        target = make_SolvA(n, r, alphas, a1, {})
    elif variant == "B":
        alg = make_SolvB(n, r, alphas, b)
        target = make_SolvB(n, r, alphas, {})
    else:
        raise ValueError("variant must be 'A' or 'B'")
    moved = apply_basis_change(alg, star_change(n, variant, b))
    x = n + 1
    residual = {k: c for k, c in moved.table[1][x] if 2 <= k <= n}
    restored = chain_restore(moved, n, variant)
    return ConjectureResult(eliminated=(not residual and restored.table == target.table),
                            residual_b=residual, variant=variant, n=n)
