"""Symbolic codimension-one solvable extensions N + <x>.

The action of x on the nilradical is a symbolic derivation template (the
general element of the computed derivation space); the products [x, e_i] and
[x, x] get fresh unknowns. The Leibniz identity over the extended basis plus
the right-annihilator equations yield a polynomial constraint system that a
deterministic linear-substitution elimination reduces to either a
Contradiction (with a replayable witness) or a residual parametric Family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .algebra import Algebra, bracket, leibniz_check, leibniz_defect, product_table, table_bracket
from .derivations import derivation_space, is_derivation
from .linalg import Matrix, mat_inverse, rref
from .poly import Poly, PolyRing


def _lift(poly: Poly, ring: PolyRing) -> Poly:
    """Re-express a polynomial in a ring containing all of its names."""
    terms = {}
    src = poly.ring.names
    for exp, c in poly._terms.items():
        out = [0] * len(ring.names)
        for i, k in enumerate(exp):
            if k:
                out[ring.index[src[i]]] = k
        terms[tuple(out)] = c
    return Poly(ring, terms)


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

    @property
    def size(self) -> int:
        return len(self.equations)


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
    dense = [N.tensor[i] + (problem.template.rows[i],) for i in range(d)]
    dense.append(problem.unknown_rows + (problem.square_row,))
    table = product_table(dense)
    seen = set()
    equations = []

    def add(polyvec):
        for pv in polyvec:
            if pv:
                pv = pv.content_normalized()
                if pv not in seen:
                    seen.add(pv)
                    equations.append(pv)

    for p in range(m):
        for q in range(m):
            for r in range(m):
                if p < d and q < d and r < d:
                    continue
                add(leibniz_defect(table, p, q, r, zero))
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
    return (p.num_terms, tuple(p.terms()))


def eliminate(system: ConstraintSystem):
    """Fixpoint loop: drop zeros, stop on a nonzero constant (Contradiction),
    otherwise solve one equation that is linear in a single indeterminate with
    a constant nonzero coefficient and substitute everywhere.

    Tie-break: lexicographically smallest variable name, then fewest terms,
    then canonical term order. Each substitution removes an indeterminate, so
    termination is immediate; the outcome is deterministic.
    """
    ring = system.ring
    eqs = set()
    for e in system.equations:
        if e:
            eqs.add(e.content_normalized())
    log: list = []
    candidates_cache: dict = {}

    def candidates(e: Poly):
        if e not in candidates_cache:
            out = []
            for v in e.variables():
                lc = e.linear_coefficient(v)
                if lc is not None:
                    out.append((v, lc[0], lc[1]))
            candidates_cache[e] = tuple(out)
        return candidates_cache[e]

    while True:
        constants = [e for e in eqs if e.is_constant()]
        if constants:
            witness = min(constants, key=_poly_sort_key)
            return Contradiction(witness=witness, assignments=tuple(log))
        best = None
        for e in eqs:
            for v, c, rest in candidates(e):
                key = (v, e.num_terms, _poly_sort_key(e))
                if best is None or key < best[0]:
                    best = (key, e, v, c, rest)
        if best is None:
            assigned = {name for name, _, _ in log}
            free = tuple(n for n in ring.names if n not in assigned)
            residual = tuple(sorted(eqs, key=_poly_sort_key))
            return Family(residual=residual, assignments=tuple(log), free=free)
        _, src, var, coeff, rest = best
        value = rest * (Fraction(-1) / coeff)
        log.append((var, value, src))
        nxt = set()
        for e in eqs:
            if var in e.variables():
                e2 = e.substitute(var, value)
                if e2:
                    nxt.add(e2.content_normalized())
            else:
                nxt.add(e)
        eqs = nxt


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
    eqs = [e for e in system.equations]
    for name, value, _ in outcome.assignments:
        eqs = [e.substitute(name, value) if name in e.variables() else e for e in eqs]
    out = set()
    for e in eqs:
        if e:
            out.add(e.content_normalized())
    return tuple(sorted(out, key=_poly_sort_key))


def instantiate(problem: ExtensionProblem, outcome, free_values: Mapping[str, Fraction],
                validate: bool = True) -> Algebra:
    """Concrete extension algebra from a Family outcome at rational values of
    the free indeterminates (unlisted free names default to 0)."""
    if outcome.kind != "family":
        raise ValueError("only Family outcomes can be instantiated")
    env = {n: Fraction(0) for n in outcome.free}
    env.update({k: Fraction(v) for k, v in free_values.items()})
    for name, value in resolved_assignments(outcome).items():
        env[name] = value.evaluate(env)
    for res in outcome.residual:
        if res.evaluate(env) != 0:
            raise ValueError(f"instantiation violates residual constraint {res}")
    N = problem.nilradical
    d = N.dim
    m = d + 1
    tensor = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                tensor[i][j][k] = N.tensor[i][j][k]
    for i in range(d):
        for k in range(d):
            tensor[i][d][k] = problem.template.rows[i][k].evaluate(env)
            tensor[d][i][k] = problem.unknown_rows[i][k].evaluate(env)
            tensor[d][d][k] = problem.square_row[k].evaluate(env)
    labels = N.labels + ("x",)
    alg = Algebra(labels, tuple(tuple(tuple(r) for r in p) for p in tensor),
                  {"family": "extension", "n": d - 1, "params": dict(free_values)})
    if validate:
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
    pos = {name: k for k, name in enumerate(params)}
    rows = []
    for i in range(d):
        poly = problem.template.rows[i][i]
        row = [Fraction(0)] * len(params)
        for exp, c in poly._terms.items():
            live = [k for k, e in enumerate(exp) if e]
            if len(live) != 1 or exp[live[0]] != 1:
                raise ValueError("template diagonal is not linear homogeneous in the parameters")
            row[pos[ring.names[live[0]]]] += c
        rows.append(row)
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


@dataclass(frozen=True)
class BasisChange:
    """Invertible change on the extended basis; rows are the new basis vectors
    expressed in the old coordinates."""

    matrix: Matrix

    def __post_init__(self):
        mat_inverse(self.matrix)  # raises on singular input

    @property
    def dim(self) -> int:
        return self.matrix.nrows


def apply_basis_change(alg: Algebra, change: BasisChange) -> Algebra:
    """Transform the structure tensor; the Leibniz verdict is preserved and
    asserted."""
    T = change.matrix
    if T.nrows != alg.dim:
        raise ValueError("basis change has wrong dimension")
    inv = mat_inverse(T)
    tensor = tuple(tuple(inv.apply(bracket(alg, u, v)) for v in T.rows) for u in T.rows)
    out = Algebra(alg.labels, tensor, alg.metadata)
    if not leibniz_check(out).ok:
        raise RuntimeError("basis change broke the Leibniz identity (change not invertible?)")
    return out


def star_change(n: int, variant: str, b: Mapping[int, Fraction]) -> BasisChange:
    """The conjectured tail-killing transformation on the extended basis
    (e_0..e_n, x): e_0 and x fixed, e_1 and each e_i (i >= 2) shifted by
    A_{j-i+1} e_j. The A-coefficients follow the stated recursions for each
    variant; the change is unitriangular, hence invertible.

    For variant A the e_1 row runs through A_n: the displayed transformation
    stops it at A_{n-1}, which leaves a residual e_n tail on [e_1, x] (checked
    by hand and by the exact tensor transform); the recursion defines A_n and
    including it is what makes the elimination work.
    """
    b = {k: Fraction(v) for k, v in b.items()}
    A: dict = {}
    if variant == "A":
        A[2] = -b.get(2, Fraction(0))
        for i in range(3, n + 1):
            acc = b.get(i, Fraction(0))
            for j in range(2, i):
                acc += A[j] * b.get(i - j + 1, Fraction(0))
            A[i] = Fraction(1, 1 - i) * acc
    elif variant == "B":
        A[2] = -b.get(2, Fraction(0))
        A[3] = b.get(2, Fraction(0)) ** 2 / 2
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
    m = n + 2
    e1_top = n if variant == "A" else n - 1
    rows = [[Fraction(1 if c == r else 0) for c in range(m)] for r in range(m)]
    for i in range(2, e1_top + 1):
        rows[1][i] += A.get(i, Fraction(0))
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            rows[i][j] += A.get(j - i + 1, Fraction(0))
    return BasisChange(Matrix(tuple(tuple(r) for r in rows)))


def chain_restore(alg: Algebra, n: int, variant: str) -> Algebra:
    """Re-adapt the basis of a transformed solvable extension: keep e_0, e_1
    and x, rebuild e_2..e_n from the chain products (and the alternating top
    product for the second variant). Unitriangular, hence invertible."""
    rows = [None] * (n + 2)
    rows[0] = alg.basis_vector(0)
    rows[1] = alg.basis_vector(1)
    rows[2] = bracket(alg, rows[0], rows[1])
    top = n if variant == "A" else n - 1
    for i in range(2, top):
        rows[i + 1] = bracket(alg, rows[0], rows[i])
    if variant == "B":
        rows[n] = tuple(-c for c in bracket(alg, rows[1], rows[n - 1]))
    rows[n + 1] = alg.basis_vector(n + 1)
    return apply_basis_change(alg, BasisChange(Matrix(tuple(rows))))


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
    re-adapt the basis through the chain products and compare the whole tensor
    against the member with all b = 0.

    Everything is re-derived through apply_basis_change, so a single
    mismatched entry is caught exactly.
    """
    from .families import make_SolvA, make_SolvB

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
    residual = {i: moved.tensor[1][x][i] for i in range(2, n + 1) if moved.tensor[1][x][i]}
    restored = chain_restore(moved, n, variant)
    return ConjectureResult(eliminated=(not residual and restored.tensor == target.tensor),
                            residual_b=residual, variant=variant, n=n)
