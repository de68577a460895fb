"""Scenario registry: every structural claim bound to an executable check.

Each scenario reproduces one result at desk scale: a derivation-matrix shape,
a non-existence deduction (Contradiction with replayable witness), a
classification (solver Family + scripted basis changes = table, entry for
entry), the nil-independence bound, or a conjecture sampling run.

Reports are deterministic for a fixed (scenario, n, seed); wall time is kept
out of the canonical serialization. Documented divergences between computed
facts and the source tables (parity labels, overstated parameter freedom,
range typos) are attached as findings on passing reports; the "finding"
verdict itself is reserved for unexpected runtime divergence, which also
fails an aggregate run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .algebra import (
    Algebra,
    Subspace,
    is_lie,
    is_nilpotent,
    is_solvable,
    leibniz_defect,
    nilradical_equals,
    product_table,
    subalgebra_on_indices,
)
from .derivations import derivation_space, max_nil_independent
from .extensions import (
    BasisChange,
    ConstraintSystem,
    apply_basis_change,
    build_extension_problem,
    conjecture_check,
    diagonal_branches,
    eliminate,
    generate_constraints,
    instantiate,
    resolved_assignments,
)
from .families import (
    ConstructionError,
    catalan_number,
    f1s_alphas,
    make_A_algebra,
    make_B_algebra,
    make_F1,
    make_F1s,
    make_F2,
    make_F2j,
    make_F2j1,
    make_F3,
    make_L1,
    make_L2,
    make_L3,
    make_SolvA,
    make_SolvB,
)
from .linalg import Matrix, binomial, nullspace
from .poly import Poly, PolyRing

MAX_N = 12


# -- deterministic sampling -----------------------------------------------------


def scenario_rng(scenario_id: str, n: int, seed: int) -> random.Random:
    return random.Random(f"{scenario_id}:{n}:{seed}")


def small_rational(rng: random.Random, hi: int = 10) -> Fraction:
    return Fraction(rng.randint(-hi, hi), rng.randint(1, hi))


def nonzero_rational(rng: random.Random, hi: int = 10) -> Fraction:
    while True:
        v = small_rational(rng, hi)
        if v:
            return v


# -- reports ----------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    scenario: str
    n: int
    seed: int
    verdict: str                      # pass | fail | finding
    details: tuple = ()               # deterministic strings
    findings: tuple = ()              # documented divergences from the source tables
    params: tuple = ()                # ((key, value-string), ...)
    transcript: tuple = ()            # witness / assignment-log strings
    wall_time: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def canonical(self) -> dict:
        """Stable serializable form; wall time excluded on purpose."""
        return {
            "scenario": self.scenario,
            "n": self.n,
            "seed": self.seed,
            "verdict": self.verdict,
            "details": list(self.details),
            "findings": list(self.findings),
            "params": [list(p) for p in self.params],
            "transcript": list(self.transcript),
        }


def _report(scenario, n, seed, verdict, t0, details=(), findings=(), params=(), transcript=()):
    return Report(scenario=scenario, n=n, seed=seed, verdict=verdict,
                  details=tuple(details), findings=tuple(findings),
                  params=tuple((str(k), str(v)) for k, v in params),
                  transcript=tuple(transcript), wall_time=time.monotonic() - t0)


# -- scripted basis changes (numeric, read from the current tensor) -----------------


def _ident_rows(m: int):
    return [[Fraction(1 if c == r else 0) for c in range(m)] for r in range(m)]


def _mk(rows) -> BasisChange:
    return BasisChange(Matrix(tuple(tuple(r) for r in rows)))


def chain_tail_change(alg: Algebra, n: int) -> Optional[BasisChange]:
    """Kill [e_0,x] tails at e_2..e_n by the cascade e_i -> e_i + A_{k-i+1} e_k
    (valid for nilradicals whose products shift indices by a constant)."""
    x = n + 1
    t = {i: alg.tensor[0][x][i] for i in range(2, n + 1)}
    if not any(t.values()):
        return None
    coeff = {2: -t[2]}
    for s in range(3, n + 1):
        acc = t[s]
        for j in range(2, s):
            acc += coeff[j] * t.get(s - j + 1, Fraction(0))
        coeff[s] = Fraction(1, 1 - s) * acc
    rows = _ident_rows(n + 2)
    for i in range(2, n + 1):
        rows[0][i] += coeff[i]
        for j in range(i + 1, n + 1):
            rows[i][j] += coeff[j - i + 1]
    return _mk(rows)


def e0_mix_change(alg: Algebra, n: int, j0: int) -> Optional[BasisChange]:
    """Kill the e_1 coefficient of [e_0,x] via e_0 -> e_0 + kappa e_1, which
    extends to a nilradical automorphism exactly when 2*j0 - 2 > n (the regime
    where that coefficient is a genuine extra derivation parameter)."""
    x = n + 1
    a1 = alg.tensor[0][x][1]
    if not a1 or 2 * j0 - 2 <= n:
        return None
    kappa = -a1 / Fraction(j0 - 2)
    rows = _ident_rows(n + 2)
    rows[0][1] += kappa
    for i in range(2, n + 1):
        j = j0 + i - 2
        if j <= n:
            rows[i][j] += (i - 1) * kappa
    return _mk(rows)


def x_mu_change(alg: Algebra, n: int) -> Optional[BasisChange]:
    """x -> x - sum mu_{i+1} e_i, killing [x,e_0] coefficients at e_3..e_n."""
    x = n + 1
    mus = {i: alg.tensor[x][0][i + 1] for i in range(2, n)}
    if not any(mus.values()):
        return None
    rows = _ident_rows(n + 2)
    for i, v in mus.items():
        rows[x][i] -= v
    return _mk(rows)


def e1_etail_change(alg: Algebra, n: int) -> Optional[BasisChange]:
    """Kill [e_1,x] tails at e_m via e_1 -> e_1 - c e_m (diagonal-gap solve)."""
    x = n + 1
    w1 = alg.tensor[1][x][1]
    rows = _ident_rows(n + 2)
    dirty = False
    for m in range(2, n + 1):
        c = alg.tensor[1][x][m]
        if not c:
            continue
        lam = alg.tensor[m][x][m]
        if lam == w1:
            continue
        rows[1][m] -= c / (lam - w1)
        dirty = True
    return _mk(rows) if dirty else None


def e1_xtail_change(alg: Algebra, n: int, keep: int) -> Optional[BasisChange]:
    """Kill [x,e_1] coefficients at e_m (m >= 2, m != keep)."""
    x = n + 1
    w1 = alg.tensor[1][x][1]
    rows = _ident_rows(n + 2)
    dirty = False
    for m in range(2, n + 1):
        g = alg.tensor[x][1][m]
        if m == keep or not g:
            continue
        rows[1][m] -= g / w1
        dirty = True
    return _mk(rows) if dirty else None


def xx_tail_change(alg: Algebra, n: int) -> Optional[BasisChange]:
    """Kill [x,x] coefficients via x -> x - (delta_m / lambda_m) e_m."""
    x = n + 1
    ds = {m: alg.tensor[x][x][m] for m in range(2, n + 1)}
    if not any(ds.values()):
        return None
    rows = _ident_rows(n + 2)
    for m, v in ds.items():
        if v:
            rows[x][m] -= v / alg.tensor[m][x][m]
    return _mk(rows)


def normalize_f2_extension(alg: Algebra, n: int, target: Algebra,
                           mix_j0: Optional[int] = None, keep_xe1: int = -1,
                           rounds: int = 14):
    """Iterate the cleanup steps until the tensor equals the target; each pass
    strictly pushes residue to higher filtration degree, so the loop settles in
    a bounded number of rounds. ``keep_xe1`` names the one [x,e_1] tail index
    the target retains (-1: none). Returns (algebra, matched, step_count)."""
    steps = 0
    for _ in range(rounds):
        if alg.tensor == target.tensor:
            return alg, True, steps
        for maker in (
            lambda a: chain_tail_change(a, n),
            (lambda a: e0_mix_change(a, n, mix_j0)) if mix_j0 else (lambda a: None),
            lambda a: x_mu_change(a, n),
            lambda a: e1_etail_change(a, n),
            lambda a: e1_xtail_change(a, n, keep_xe1),
            lambda a: xx_tail_change(a, n),
        ):
            change = maker(alg)
            if change is not None:
                alg = apply_basis_change(alg, change)
                steps += 1
    return alg, alg.tensor == target.tensor, steps


def x_left_tail_change(alg: Algebra, n: int, top: int) -> Optional[BasisChange]:
    """x -> x - sum a_{i+1} e_i for chain products [e_0,e_i]=e_{i+1}: kills
    [e_0,x] coefficients at e_2..e_{top}."""
    x = n + 1
    rows = _ident_rows(n + 2)
    dirty = False
    for i in range(1, top):
        v = alg.tensor[0][x][i + 1]
        if v:
            rows[x][i] -= v
            dirty = True
    return _mk(rows) if dirty else None


# -- solver pipeline helpers ---------------------------------------------------------


def solve_extension(nilradical: Algebra, extra_hypotheses=(), extra_names=()):
    """Build, generate, and eliminate over each non-nilpotency branch.

    Returns a list of (hypotheses, outcome) pairs; an empty list means every
    derivation is nilpotent (characteristically nilpotent nilradical)."""
    problem = build_extension_problem(nilradical, extra_names=tuple(extra_names))
    results = []
    for hyp in diagonal_branches(problem):
        system = generate_constraints(problem, hypotheses=list(hyp) + list(extra_hypotheses))
        results.append((tuple(hyp), eliminate(system)))
    return problem, results


def annihilator_zeroing_emerged(problem, outcome) -> bool:
    """The right-annihilator facts must force [x,e_i] = 0 for every basis
    vector of the structural span: the solver has to derive it, not assume."""
    d = problem.nilradical.dim
    span = Subspace(d, problem.annihilator_span)
    res = resolved_assignments(outcome)
    for i in range(2, d):
        if not span.contains(problem.nilradical.basis_vector(i)):
            continue
        for j in range(d):
            name = f"w{i:02d}c{j:02d}"
            val = res.get(name)
            if val is None or not val.is_zero():
                return False
    return True


def lie_forced(problem, outcome) -> bool:
    """All symmetric coordinates reduce to the zero polynomial under the
    assignment log (every solution is a Lie algebra)."""
    res = resolved_assignments(outcome)
    for coord in problem.symmetric_coordinates():
        p = coord
        for name in list(p.variables()):
            if name in res:
                p = p.substitute(name, res[name])
        if not p.is_zero():
            return False
    return True


def instantiate_family(problem, outcome, rng: random.Random) -> Algebra:
    vals = {name: small_rational(rng, 6) for name in outcome.free}
    return instantiate(problem, outcome, vals)


def _assignment_lines(outcome, limit: int = 400):
    lines = [f"{name} := {value}" for name, value, _ in outcome.assignments[:limit]]
    if len(outcome.assignments) > limit:
        lines.append(f"... {len(outcome.assignments) - limit} more")
    return lines


# -- graded-family parameter sampling -------------------------------------------------


def _graded_symbolic_products(variant: str, n: int, r: int, ring: PolyRing, t: int):
    """Sparse product table of the A/B nilradicals with alpha indeterminates."""
    zero = ring.zero
    one = ring.const(1)

    def coeff(i, j):
        acc = zero
        for k in range(i, t + 1):
            c = binomial(j - k - 1, k - i) * Fraction((-1) ** (k - i))
            if c:
                acc = acc + ring.var(f"al{k:02d}") * c
        return acc

    d = n + 1
    prod = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            prod[i][j] = [zero] * d
    if variant == "A":
        for i in range(1, n):
            prod[0][i][i + 1] = one
            prod[i][0][i + 1] = -one
        for i in range(1, n - 1):
            for j in range(i + 1, n - 1):
                if i + j + r <= n:
                    c = coeff(i, j)
                    prod[i][j][i + j + r] = prod[i][j][i + j + r] + c
                    prod[j][i][i + j + r] = prod[j][i][i + j + r] - c
    else:
        for i in range(1, n - 1):
            prod[0][i][i + 1] = one
            prod[i][0][i + 1] = -one
        for i in range(1, n):
            prod[i][n - i][n] = prod[i][n - i][n] + ring.const(Fraction((-1) ** i))
        for i in range(1, n):
            for j in range(i + 1, n):
                if i + j + r <= n - 1:
                    c = coeff(i, j)
                    prod[i][j][i + j + r] = prod[i][j][i + j + r] + c
                    prod[j][i][i + j + r] = prod[j][i][i + j + r] - c
    return product_table(prod)


def _symbolic_jacobi_relations(variant: str, n: int, r: int, ring: PolyRing, t: int):
    prods = _graded_symbolic_products(variant, n, r, ring, t)
    d = n + 1
    seen = set()
    rels = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for acc in leibniz_defect(prods, i, j, k, ring.zero):
                    if acc:
                        acc = acc.content_normalized()
                        if acc not in seen:
                            seen.add(acc)
                            rels.append(acc)
    return rels


_jacobi_cache: dict = {}


def _jacobi_setup(variant: str, n: int, r: int, t: int):
    key = (variant, n, r)
    if key not in _jacobi_cache:
        names = tuple(f"al{k:02d}" for k in range(1, t + 1))
        ring = PolyRing(names)
        _jacobi_cache[key] = (names, ring, _symbolic_jacobi_relations(variant, n, r, ring, t))
    return _jacobi_cache[key]


def _rational_roots(poly: Poly, name: str):
    """Exact rational roots of a univariate polynomial (rational root test)."""
    idx = poly.ring.index[name]
    coeffs: dict = {}
    for exp, c in poly._terms.items():
        if any(e for i, e in enumerate(exp) if i != idx):
            return ()
        coeffs[exp[idx]] = coeffs.get(exp[idx], Fraction(0)) + c
    if not coeffs:
        return ()
    scale = 1
    for c in coeffs.values():
        scale = scale * c.denominator // __import__("math").gcd(scale, c.denominator)
    ints = {k: int(c * scale) for k, c in coeffs.items()}
    deg = max(ints)
    lead = ints[deg]
    low = min(k for k, c in ints.items() if c)
    roots = []
    if low > 0:
        roots.append(Fraction(0))
    const = ints[low]

    def divisors(v):
        v = abs(v)
        out = [d for d in range(1, v + 1) if v % d == 0]
        return out or [1]

    seen = set()
    for p in divisors(const):
        for q in divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                seen.add(cand)
                if sum(c * cand**k for k, c in ints.items()) == 0:
                    roots.append(cand)
    return tuple(sorted(set(roots)))


def sample_graded_alphas(variant: str, n: int, r: int, rng: random.Random) -> dict:
    """Deterministically sample alpha parameters on the Jacobi variety: fix a
    leading alpha to 1, draw or solve the rest (free directions get random
    rationals, discrete directions get exact rational roots of the univariate
    residuals), and let the elimination propagate the forced ones."""
    t = (n - r - 1) // 2 if variant == "A" else (n - r - 2) // 2
    if t <= 0:
        return {}
    names, ring, rels = _jacobi_setup(variant, n, r, t)
    maker = make_A_algebra if variant == "A" else make_B_algebra

    for lead in range(1, t + 1):
        for _ in range(8):
            hyps = [ring.var(names[k]) for k in range(lead - 1)]
            hyps.append(ring.var(names[lead - 1]) - 1)
            outcome = eliminate(ConstraintSystem(ring, tuple(list(rels) + hyps)))
            dead = False
            while outcome.kind == "family" and not dead:
                pinned = False
                for res_poly in outcome.residual:
                    live = res_poly.variables()
                    if len(live) == 1:
                        roots = _rational_roots(res_poly, live[0])
                        if not roots:
                            dead = True
                            break
                        hyps.append(ring.var(live[0]) - rng.choice(roots))
                        pinned = True
                        break
                if dead:
                    break
                if not pinned:
                    undecided = [nm for nm in outcome.free
                                 if not any(nm in e.variables() for e in outcome.residual)]
                    if not undecided:
                        if outcome.residual:
                            dead = True
                        break
                    hyps.append(ring.var(undecided[0]) - small_rational(rng, 6))
                outcome = eliminate(ConstraintSystem(ring, tuple(list(rels) + hyps)))
                if outcome.kind == "contradiction":
                    dead = True
            if dead or outcome.kind == "contradiction" or outcome.residual:
                continue
            res = resolved_assignments(outcome)
            alphas = {}
            for k, nm in enumerate(names, start=1):
                val = res.get(nm)
                alphas[k] = val.evaluate({}) if val is not None else Fraction(0)
            if not any(alphas.values()):
                continue
            try:
                maker(n, r, alphas)
                return alphas
            except ConstructionError:
                continue
    raise RuntimeError(f"no valid alpha tuple found for {variant} n={n} r={r}")


def sample_solv_bs(variant: str, n: int, r: int, alphas: Mapping[int, Fraction],
                   rng: random.Random) -> dict:
    """The displayed solvable families overstate freedom: depending on alpha,
    some b_k are forced to zero by the Leibniz identity. Probe coordinates
    individually, then sample on the admissible set."""
    if variant == "A":
        top, make = n + 1, (lambda b: make_SolvA(n, r, alphas, 0, b))
    else:
        top, make = n, (lambda b: make_SolvB(n, r, alphas, b))
    allowed = []
    for k in range(2, top):
        try:
            make({k: Fraction(1)})
            allowed.append(k)
        except ConstructionError:
            continue
    b = {k: small_rational(rng, 8) for k in allowed}
    make(b)  # raises if the probe missed a coupled relation
    return b


# -- derivation-shape transcriptions ----------------------------------------------


def _poly_zero(p) -> bool:
    return (not p) if isinstance(p, Poly) else p == 0


def _shape_f1(alg: Algebra, alphas: Mapping[int, Fraction], theta: Fraction):
    """Stated derivation form of the first family: entry formulas, relations,
    and parameter count (a_0..a_n, b_{n-1}, b_n modulo the stated relations)."""
    n = alg.dim - 1
    space = derivation_space(alg)
    T = space.generic_matrix()
    a = {j: T.rows[0][j] for j in range(n + 1)}
    b_n1, b_n = T.rows[1][n - 1], T.rows[1][n]
    al = {k: Fraction(alphas.get(k, 0)) for k in range(3, n + 1)}
    al_of = lambda m: al.get(m, Fraction(0))
    errs = []
    if not T.is_upper_triangular():
        errs.append("not upper triangular")
    if not _poly_zero(T.rows[1][0]):
        errs.append("entry (1,0)")
    if T.rows[1][1] != a[0] + a[1]:
        errs.append("diag (1,1)")
    for j in range(2, n - 1):
        if T.rows[1][j] != a[j]:
            errs.append(f"entry (1,{j})")
    for i in range(2, n + 1):
        if T.rows[i][i] != a[0] * i + a[1]:
            errs.append(f"diag ({i},{i})")
        for j in range(i + 1, n + 1):
            if i == 2 and j == n:
                # the chain propagates b_{n-1}, not a_{n-1}: the displayed
                # a_{n-1}+a_1*alpha_n agrees only when a_1(theta-alpha_n)=0
                if T.rows[2][n] != b_n1 + a[1] * al_of(n):
                    errs.append("entry (2,n)")
                continue
            if T.rows[i][j] != a[j - i + 1] + a[1] * ((i - 1) * al_of(j - i + 2)):
                errs.append(f"entry ({i},{j})")
    rel_rows = []
    rel_rows.append(a[0] * (theta - al_of(n)))
    rel_rows.append(a[1] * (al_of(n) - theta) - (a[n - 1] - b_n1))
    rel_rows.append(al_of(3) * (a[1] - a[0]))
    for k in range(4, n + 1):
        conv = sum((al_of(j - 1) * al_of(k - j + 3) for j in range(4, k + 1)), Fraction(0))
        rel_rows.append(al_of(k) * (a[1] - a[0] * (k - 2)) - a[1] * Fraction(k, 2) * conv)
    for idx, rel in enumerate(rel_rows):
        if not _poly_zero(rel):
            errs.append(f"relation {idx}")
    expected = _stated_dimension_f1(n, al, theta)
    if space.dimension != expected:
        errs.append(f"dimension {space.dimension} != stated {expected}")
    return errs


def _stated_dimension_f1(n, al, theta) -> int:
    cols = n + 3  # a_0..a_n, b_{n-1}, b_n
    rows = []

    def row(pairs):
        out = [Fraction(0)] * cols
        for idx, c in pairs:
            out[idx] += c
        return out

    al_of = lambda m: al.get(m, Fraction(0))
    rows.append(row([(0, theta - al_of(n))]))
    rows.append(row([(1, al_of(n) - theta), (n - 1, Fraction(-1)), (n + 1, Fraction(1))]))
    rows.append(row([(1, al_of(3)), (0, -al_of(3))]))
    for k in range(4, n + 1):
        conv = sum((al_of(j - 1) * al_of(k - j + 3) for j in range(4, k + 1)), Fraction(0))
        rows.append(row([(1, al_of(k) - Fraction(k, 2) * conv), (0, -al_of(k) * (k - 2))]))
    return len(nullspace(rows, cols))


def _shape_f2(alg: Algebra, betas: Mapping[int, Fraction], gamma: Fraction):
    n = alg.dim - 1
    space = derivation_space(alg)
    T = space.generic_matrix()
    a = {j: T.rows[0][j] for j in range(n + 1)}
    b1 = T.rows[1][1]
    be = {k: Fraction(betas.get(k, 0)) for k in range(3, n + 1)}
    be_of = lambda m: be.get(m, Fraction(0))
    errs = []
    if not T.is_upper_triangular():
        errs.append("not upper triangular")
    if not _poly_zero(T.rows[1][0]):
        errs.append("entry (1,0)")
    for j in range(2, n - 1):
        if not _poly_zero(T.rows[1][j]):
            errs.append(f"entry (1,{j})")
    if T.rows[1][n - 1] != a[1] * (-gamma):
        errs.append("entry (1,n-1)")
    for i in range(2, n + 1):
        if T.rows[i][i] != a[0] * i:
            errs.append(f"diag ({i},{i})")
        for j in range(i + 1, n + 1):
            if T.rows[i][j] != a[j - i + 1] + a[1] * ((i - 1) * be_of(j - i + 2)):
                errs.append(f"entry ({i},{j})")
    rels = [gamma * (b1 * 2 - a[0] * n), be_of(3) * (b1 - a[0] * 2)]
    for k in range(4, n):
        conv = sum((be_of(j - 1) * be_of(k - j + 3) for j in range(4, k + 1)), Fraction(0))
        rels.append(be_of(k) * (b1 - a[0] * (k - 1)) - a[1] * Fraction(k, 2) * conv)
    conv_n = sum((be_of(j - 1) * be_of(n - j + 3) for j in range(4, n + 1)), Fraction(0))
    rels.append(be_of(n) * (b1 - a[0] * (n - 1)) + a[1] * gamma - a[1] * Fraction(n, 2) * conv_n)
    for idx, rel in enumerate(rels):
        if not _poly_zero(rel):
            errs.append(f"relation {idx}")
    return errs


def _shape_f3(alg: Algebra, thetas, alpha: Fraction):
    """Entry formulas are asserted for all instances; the displayed parameter
    relations and count are sharp only at alpha = 0 (at alpha = 1 the actual
    space is strictly smaller and even violates the displayed relations), so
    divergences there are returned separately as findings."""
    n = alg.dim - 1
    t1, t2, t3 = (Fraction(v) for v in thetas)
    space = derivation_space(alg)
    T = space.generic_matrix()
    a = {j: T.rows[0][j] for j in range(n + 1)}
    b = {j: T.rows[1][j] for j in range(1, n + 1)}
    errs = []
    notes = []
    if not T.is_upper_triangular():
        errs.append("not upper triangular")
    if not _poly_zero(T.rows[1][0]):
        errs.append("entry (1,0)")
    for i in range(2, n):
        if T.rows[i][i] != a[0] * (i - 1) + b[1]:
            errs.append(f"diag ({i},{i})")
        for j in range(i + 1, n):
            if T.rows[i][j] != b[j - i + 1]:
                errs.append(f"entry ({i},{j})")
        if T.rows[i][n] != b[n - i + 1] + a[n - i + 1] * (alpha * Fraction((-1) ** (i - 1))):
            errs.append(f"entry ({i},n)")
    if T.rows[n][n] != a[0] * (n - 1) + b[1] + a[1] * alpha:
        errs.append("diag (n,n)")
    rels = [
        t1 * (a[0] * (n - 3) + b[1]) - a[1] * t2,
        a[1] * t3 * 2 - a[0] * t2 * (n - 2),
        t3 * (a[0] * (n - 1) - b[1]),
    ]
    for idx, rel in enumerate(rels):
        if not _poly_zero(rel):
            if alpha:
                notes.append(f"displayed relation {idx} fails on the actual space")
            else:
                errs.append(f"relation {idx}")
    stated_dim = 2 * n + 1 - _f3_relation_rank(n, t1, t2, t3)
    return errs, notes, space.dimension, stated_dim


def _f3_relation_rank(n, t1, t2, t3) -> int:
    # unknowns in the relations: a_0, a_1, b_1
    rows = [
        [t1 * (n - 3), -t2, t1],
        [-t2 * (n - 2), 2 * t3, Fraction(0)],
        [t3 * (n - 1), Fraction(0), -t3],
    ]
    return 3 - len(nullspace(rows, 3))


def _shape_graded(alg: Algebra, r: int, variant: str):
    """Stated parts for the graded Lie families: triangularity and diagonal
    (i+r)a_0 (plus the (n+2r) top diagonal and missing (0,1) entry for B).
    The unlabeled tail entries are not asserted."""
    n = alg.dim - 1
    space = derivation_space(alg)
    T = space.generic_matrix()
    a0 = T.rows[0][0]
    errs = []
    if not T.is_upper_triangular():
        errs.append("not upper triangular")
    if not _poly_zero(T.rows[1][0]):
        errs.append("entry (1,0)")
    top = n if variant == "A" else n - 1
    for i in range(1, top + 1):
        if T.rows[i][i] != a0 * (i + r):
            errs.append(f"diag ({i},{i})")
    if variant == "B":
        if T.rows[n][n] != a0 * (n + 2 * r):
            errs.append("diag (n,n)")
        if not _poly_zero(T.rows[0][1]):
            errs.append("entry (0,1)")
        for j in range(n):
            if not _poly_zero(T.rows[n][j]):
                errs.append(f"entry (n,{j})")
    return errs


# -- scenario runners -----------------------------------------------------------------


def _fail(scenario, n, seed, t0, details, params=(), transcript=(), findings=()):
    return _report(scenario, n, seed, "fail", t0, details=details, params=params,
                   transcript=transcript, findings=findings)


def _run_prop31_shape(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("prop31-shape", n, seed)
    cases = [("unit-top", {}, Fraction(1))]
    for s in (3, 4):
        if s <= n:
            al = f1s_alphas(n, s)
            cases.append((f"recursion-s{s}", al, al[n]))
    rand_al = {k: small_rational(rng, 4) for k in range(3, n + 1)}
    cases.append(("random", rand_al, small_rational(rng, 4)))
    errors = []
    for label, alphas, theta in cases:
        alg = make_F1(n, alphas, theta)
        errs = _shape_f1(alg, alphas, theta)
        if errs:
            errors.append(f"{label}: {', '.join(errs)}")
    verdict = "pass" if not errors else "fail"
    return _report("prop31-shape", n, seed, verdict, t0,
                   details=[f"{len(cases)} instances checked"] + errors,
                   findings=("first-family derivation matrix rows normalized to the uniform "
                             "pattern d(e_i)_j = a_{j-i+1} + (i-1)a_1*alpha_{j-i+2}; the displayed "
                             "fourth row's alpha subscripts are off by one",
                             "entry (2,n) is b_{n-1} + a_1*alpha_n (the chain propagates b_{n-1}); "
                             "the displayed a_{n-1} + a_1*alpha_n agrees only when "
                             "a_1(theta - alpha_n) = 0",))


def _run_prop34_shape(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("prop34-shape", n, seed)
    cases = [("unit-gamma", {}, Fraction(1)), ("single-j3", {3: Fraction(1)}, Fraction(0))]
    if n % 2 == 0:
        cases.append(("mid-beta", {(n + 2) // 2: nonzero_rational(rng, 4)}, Fraction(1)))
    cases.append(("random", {k: small_rational(rng, 4) for k in range(3, n + 1)},
                  small_rational(rng, 4)))
    errors = []
    for label, betas, gamma in cases:
        errs = _shape_f2(make_F2(n, betas, gamma), betas, gamma)
        if errs:
            errors.append(f"{label}: {', '.join(errs)}")
    verdict = "pass" if not errors else "fail"
    return _report("prop34-shape", n, seed, verdict, t0,
                   details=[f"{len(cases)} instances checked"] + errors,
                   findings=("second-family table displays no gamma parameter; it is the "
                             "top square [e_1,e_1] = gamma e_n, forced by the relation "
                             "gamma(2b_1 - n a_0) = 0",))


def _run_prop38_shape(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    errors = []
    findings = []
    for thetas in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for alpha in (0, 1) if n % 2 == 1 else (0,):
            alg = make_F3(n, *thetas, alpha)
            errs, notes, dim, stated = _shape_f3(alg, thetas, Fraction(alpha))
            if errs:
                errors.append(f"theta={thetas} alpha={alpha}: {', '.join(errs)}")
            for note in notes:
                findings.append(f"theta={thetas} alpha={alpha}: {note}")
            if dim != stated:
                findings.append(
                    f"theta={thetas} alpha={alpha}: derivation space dim {dim} != stated-form "
                    f"count {stated}; the displayed form is not sharp at the alternating instance")
    verdict = "pass" if not errors else "fail"
    return _report("prop38-shape", n, seed, verdict, t0, details=errors or ["all instances match"],
                   findings=findings)


def _run_prop41_shape(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("prop41-shape", n, seed)
    errors = []
    params = []
    for r in sorted({1, max(1, (n - 3) // 2)}):
        alphas = sample_graded_alphas("A", n, r, rng)
        params.append((f"alpha(r={r})", alphas))
        errs = _shape_graded(make_A_algebra(n, r, alphas), r, "A")
        if errs:
            errors.append(f"r={r}: {', '.join(errs)}")
    verdict = "pass" if not errors else "fail"
    return _report("prop41-shape", n, seed, verdict, t0,
                   details=errors or ["triangular with diagonal (i+r)a_0"], params=params)


def _run_prop44_shape(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("prop44-shape", n, seed)
    errors = []
    params = []
    for r in sorted({1, max(1, n - 4)}):
        alphas = sample_graded_alphas("B", n, r, rng)
        params.append((f"alpha(r={r})", alphas))
        errs = _shape_graded(make_B_algebra(n, r, alphas), r, "B")
        if errs:
            errors.append(f"r={r}: {', '.join(errs)}")
    verdict = "pass" if not errors else "fail"
    return _report("prop44-shape", n, seed, verdict, t0,
                   details=errors or ["triangular, diagonal (i+r)a_0 and (n+2r)a_0, no (0,1) entry"],
                   params=params)


def _nonexist_report(scenario: str, n: int, seed: int, nilradical: Algebra, t0,
                     findings=()) -> Report:
    problem, results = solve_extension(nilradical)
    details = []
    transcript = []
    if not results:
        details.append("all derivations nilpotent: no non-nilpotent action exists")
        return _report(scenario, n, seed, "pass", t0, details=details, findings=findings)
    for hyp, outcome in results:
        hyp_s = "; ".join(str(h) + " = 0" for h in hyp)
        if outcome.kind != "contradiction":
            return _fail(scenario, n, seed, t0,
                         [f"branch [{hyp_s}]: expected Contradiction, got {outcome.kind}"],
                         transcript=_assignment_lines(outcome), findings=findings)
        details.append(f"branch [{hyp_s}]: contradiction, witness {outcome.witness}, "
                       f"{len(outcome.assignments)} substitutions")
        transcript.extend(_assignment_lines(outcome, limit=60))
        transcript.append(f"witness: {outcome.witness} = 0")
    return _report(scenario, n, seed, "pass", t0, details=details,
                   transcript=transcript, findings=findings)


def _run_prop32_nonexist(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    return _nonexist_report("prop32-nonexist", n, seed, make_F1(n, {}, 1), t0)


def _run_prop33_nonexist(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    findings = []
    for s in (3, 4):
        if s > n:
            continue
        al = f1s_alphas(n, s)
        naive = {}
        for k in range(3, n + 1):
            if (k - s) % (s - 2) == 0:
                t_idx = (k - s) // (s - 2)
                naive[k] = Fraction((-1) ** t_idx * catalan_number(t_idx + 1))
            else:
                naive[k] = Fraction(0)
        if naive != al:
            findings.append(f"s={s}: recursion coefficients {dict((k, str(v)) for k, v in al.items())} "
                            f"differ from the naive p-th-Catalan reading")
    for s in (3, 4):
        if s > n:
            continue
        rep = _nonexist_report("prop33-nonexist", n, seed, make_F1s(n, s), time.monotonic())
        if rep.verdict != "pass":
            return _fail("prop33-nonexist", n, seed, t0, [f"s={s}: " + d for d in rep.details],
                         transcript=rep.transcript, findings=findings)
    return _report("prop33-nonexist", n, seed, "pass", t0,
                   details=[f"s in (3, 4) capped at n={n}: all branches contradict"],
                   findings=findings)


def _run_thm39_nonexist(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    details = []
    for thetas in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for alpha in (0, 1) if n % 2 == 1 else (0,):
            rep = _nonexist_report("thm39-nonexist", n, seed, make_F3(n, *thetas, alpha),
                                   time.monotonic())
            if rep.verdict != "pass":
                return _fail("thm39-nonexist", n, seed, t0,
                             [f"theta={thetas} alpha={alpha}: " + d for d in rep.details],
                             transcript=rep.transcript)
            details.append(f"theta={thetas} alpha={alpha}: " + rep.details[0])
    return _report("thm39-nonexist", n, seed, "pass", t0, details=details)


def _classification_core(scenario, n, seed, nilradical, target, t0, mix_j0=None,
                         keep_xe1=-1, findings=(), params=()):
    """Shared pipeline: solve, instantiate at random rationals, apply the
    scripted changes, compare tensors entry for entry, check invariants."""
    rng = scenario_rng(scenario, n, seed)
    problem, results = solve_extension(nilradical)
    if len(results) != 1:
        return _fail(scenario, n, seed, t0, [f"expected 1 branch, got {len(results)}"],
                     findings=findings, params=params)
    hyp, outcome = results[0]
    if outcome.kind != "family" or outcome.residual:
        return _fail(scenario, n, seed, t0,
                     [f"expected residual-free Family, got {outcome.kind} "
                      f"with {len(getattr(outcome, 'residual', ()))} residuals"],
                     transcript=_assignment_lines(outcome), findings=findings, params=params)
    if not annihilator_zeroing_emerged(problem, outcome):
        return _fail(scenario, n, seed, t0,
                     ["[x,e_i] = 0 did not emerge from the annihilator equations"],
                     findings=findings, params=params)
    alg = instantiate_family(problem, outcome, rng)
    checks = []
    if alg.dim != n + 2:
        checks.append(f"dimension {alg.dim} != {n + 2}")
    if not is_solvable(alg) or is_nilpotent(alg):
        checks.append("not solvable non-nilpotent")
    if not nilradical_equals(alg, n + 1):
        checks.append("nilradical mismatch")
    normalized, matched, steps = normalize_f2_extension(alg, n, target, mix_j0=mix_j0,
                                                        keep_xe1=keep_xe1)
    if not matched:
        checks.append("scripted changes did not reach the classified table")
    if checks:
        return _fail(scenario, n, seed, t0, checks, findings=findings, params=params)
    return _report(scenario, n, seed, "pass", t0,
                   details=[f"family matched after {steps} scripted changes; "
                            f"{len(outcome.assignments)} substitutions, free: {len(outcome.free)}"],
                   findings=findings, params=params)


def _run_thm35_class(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    return _classification_core(
        "thm35-class", n, seed, make_F2(n, {}, 1), make_L1(n), t0,
        findings=("classified table omits [e_i,x]=i e_i and [x,e_0]=-e_0, both derived in "
                  "its construction and required by the identity",
                  "the odd-n header here and the even-n label in the family list are swapped "
                  "relative to each other; odd n is the consistent reading"))


def _run_thm36_class(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("thm36-class", n, seed)
    while True:
        beta = nonzero_rational(rng, 6)
        if beta * beta != Fraction(2, n):
            break
    return _classification_core(
        "thm36-class", n, seed, make_F2j1(n, beta), make_L2(n, beta), t0,
        keep_xe1=n // 2,
        findings=("beta sampled away from beta^2 = 2/n, where the derivation space jumps "
                  "and the family degenerates",),
        params=(("beta", beta),))


def _run_thm37_class(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    findings = ["nilradical products [e_i,e_1]=e_{j0+i-1} run to i = n+1-j0 (the displayed "
                "n-1-j0 contradicts the nilradical and the identity)"]
    for j0 in (3, 4, 5):
        if j0 > n:
            continue
        if 2 * j0 - 2 > n:
            findings.append(f"j0={j0}: the extra derivation parameter at (0,1) is removed by a "
                            f"nilradical automorphism e_0 -> e_0 + kappa e_1")
        rep = _classification_core("thm37-class", n, seed, make_F2j(n, j0), make_L3(n, j0),
                                   time.monotonic(), mix_j0=j0, keep_xe1=j0 - 1)
        if rep.verdict != "pass":
            return _fail("thm37-class", n, seed, t0, [f"j0={j0}: " + d for d in rep.details],
                         findings=findings)
    return _report("thm37-class", n, seed, "pass", t0,
                   details=[f"j0 in (3,4,5) capped at n={n}: tables match entry for entry"],
                   findings=findings)


def _graded_classification(scenario, n, seed, variant, t0):
    rng = scenario_rng(scenario, n, seed)
    rs = sorted({1, max(1, (n - 3) // 2)}) if variant == "A" else sorted({1, max(1, n - 5)})
    findings = []
    params = []
    for r in rs:
        if variant == "B" and r > n - 4:
            continue
        alphas = sample_graded_alphas(variant, n, r, rng)
        params.append((f"alpha(r={r})", alphas))
        nil = make_A_algebra(n, r, alphas) if variant == "A" else make_B_algebra(n, r, alphas)
        problem, results = solve_extension(nil)
        if len(results) != 1:
            return _fail(scenario, n, seed, t0, [f"r={r}: expected 1 branch"], params=params)
        _, outcome = results[0]
        if outcome.kind != "family" or outcome.residual:
            return _fail(scenario, n, seed, t0, [f"r={r}: expected residual-free Family"],
                         transcript=_assignment_lines(outcome), params=params)
        alg = instantiate_family(problem, outcome, rng)
        if alg.dim != n + 2 or not is_solvable(alg) or is_nilpotent(alg) or not nilradical_equals(alg, n + 1):
            return _fail(scenario, n, seed, t0, [f"r={r}: solvable-structure checks failed"],
                         params=params)
        x = n + 1
        if variant == "A":
            change = x_left_tail_change(alg, n, n)
            if change is not None:
                alg = apply_basis_change(alg, change)
            a1 = alg.tensor[0][x][1]
            b = {k: alg.tensor[1][x][k] for k in range(2, n + 1)}
            target = make_SolvA(n, r, alphas, a1, b)
            if a1 == 0:
                findings.append(f"r={r}: the (0,1) coefficient a_1 is forced to 0 by the identity "
                                f"(the displayed family lists it as free)")
            params.append((f"a1(r={r})", a1))
        else:
            change = x_left_tail_change(alg, n, n - 1)
            if change is not None:
                alg = apply_basis_change(alg, change)
            a_n = alg.tensor[0][x][n]
            if a_n:
                rows = _ident_rows(n + 2)
                rows[0][n] -= a_n / Fraction(n + 2 * r - 1)
                alg = apply_basis_change(alg, _mk(rows))
            b_n = alg.tensor[1][x][n]
            if b_n:
                rows = _ident_rows(n + 2)
                rows[x][n - 1] += b_n
                alg = apply_basis_change(alg, _mk(rows))
            b = {k: alg.tensor[1][x][k] for k in range(2, n)}
            zeroed = [k for k in range(3, n, 2) if not b.get(k)]
            if zeroed:
                findings.append(f"r={r}: odd-index b at {zeroed} forced to 0 by the identity "
                                f"(the displayed family lists b_2..b_(n-1) as free)")
            target = make_SolvB(n, r, alphas, b)
        if not is_lie(alg):
            return _fail(scenario, n, seed, t0, [f"r={r}: extension is not Lie"], params=params)
        if alg.tensor != target.tensor:
            return _fail(scenario, n, seed, t0,
                         [f"r={r}: scripted changes did not reach the classified table"],
                         params=params)
    return _report(scenario, n, seed, "pass", t0,
                   details=[f"r values {rs}: tables match entry for entry"],
                   findings=findings, params=params)


def _run_thm42_class(n: int, seed: int) -> Report:
    return _graded_classification("thm42-class", n, seed, "A", time.monotonic())


def _run_thm45_class(n: int, seed: int) -> Report:
    return _graded_classification("thm45-class", n, seed, "B", time.monotonic())


def _nolie_report(scenario, n, seed, nilradical, t0, params=()):
    """Every solvable extension is Lie: (a) the symmetric coordinates vanish
    identically under the assignment log, (b) the Rabinowitsch certificate
    lam*(sum tag_k sym_k) - 1 = 0 produces a genuine Contradiction witness."""
    problem, results = solve_extension(nilradical)
    if len(results) != 1:
        return _fail(scenario, n, seed, t0, [f"expected 1 branch, got {len(results)}"], params=params)
    hyp, outcome = results[0]
    if outcome.kind != "family" or outcome.residual:
        return _fail(scenario, n, seed, t0, ["expected residual-free Family"],
                     transcript=_assignment_lines(outcome), params=params)
    if not lie_forced(problem, outcome):
        return _fail(scenario, n, seed, t0, ["a symmetric coordinate survives: non-Lie extension"],
                     transcript=_assignment_lines(outcome), params=params)
    ncoords = len(problem.symmetric_coordinates())
    tags = [f"tag{k:03d}" for k in range(ncoords)] + ["lam"]
    cert_problem = build_extension_problem(nilradical, extra_names=tags)
    ring = cert_problem.ring
    combo = ring.zero
    for k, coord in enumerate(cert_problem.symmetric_coordinates()):
        combo = combo + ring.var(f"tag{k:03d}") * coord
    cert = ring.var("lam") * combo - 1
    cert_hyp = list(diagonal_branches(cert_problem)[0]) + [cert]
    cert_out = eliminate(generate_constraints(cert_problem, hypotheses=cert_hyp))
    if cert_out.kind != "contradiction":
        return _fail(scenario, n, seed, t0, ["certificate run did not contradict"],
                     transcript=_assignment_lines(cert_out), params=params)
    return _report(scenario, n, seed, "pass", t0,
                   details=[f"{ncoords} symmetric coordinates all forced to zero",
                            f"certificate witness: {cert_out.witness} = 0"],
                   transcript=_assignment_lines(cert_out, limit=40), params=params)


def _run_prop43_nolie(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("prop43-nolie", n, seed)
    r = 1 if n <= 6 else rng.choice((1, 2))
    alphas = sample_graded_alphas("A", n, r, rng)
    return _nolie_report("prop43-nolie", n, seed, make_A_algebra(n, r, alphas), t0,
                         params=(("r", r), ("alpha", alphas)))


def _run_prop46_nolie(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("prop46-nolie", n, seed)
    r = 1 if n <= 7 else rng.choice((1, 2))
    alphas = sample_graded_alphas("B", n, r, rng)
    return _nolie_report("prop46-nolie", n, seed, make_B_algebra(n, r, alphas), t0,
                         params=(("r", r), ("alpha", alphas)))


def _run_thm26_bound(n: int, seed: int) -> Report:
    t0 = time.monotonic()
    rng = scenario_rng("thm26-bound", n, seed)
    solvables = []
    if n % 2 == 1:
        solvables.append(("L1", make_L1(n)))
    else:
        solvables.append(("L2", make_L2(n, nonzero_rational(rng, 6))))
    solvables.append(("L3", make_L3(n, 3)))
    alphas = sample_graded_alphas("A", n, 1, rng)
    b = sample_solv_bs("A", n, 1, alphas, rng)
    solvables.append(("SolvA", make_SolvA(n, 1, alphas, 0, b)))
    if n % 2 == 1 and n >= 5:
        alphas_b = sample_graded_alphas("B", n, 1, rng)
        bs = sample_solv_bs("B", n, 1, alphas_b, rng)
        solvables.append(("SolvB", make_SolvB(n, 1, alphas_b, bs)))
    details = []
    for label, alg in solvables:
        nil = subalgebra_on_indices(alg, n + 1)
        bound = max_nil_independent(derivation_space(nil))
        if bound < 1:
            return _fail("thm26-bound", n, seed, t0,
                         [f"{label}: codim 1 > max nil-independent {bound}"])
        details.append(f"{label}: codim 1 <= {bound}")
    return _report("thm26-bound", n, seed, "pass", t0, details=details)


def _run_conj(variant: str):
    scenario = "conj-i" if variant == "A" else "conj-ii"

    def run(n: int, seed: int, trials: int = 50) -> Report:
        t0 = time.monotonic()
        rng = scenario_rng(scenario, n, seed)
        checked = 0
        for _ in range(trials):
            if variant == "A":
                r = rng.randint(1, n - 3)
            else:
                r = rng.randint(1, n - 4)
            alphas = sample_graded_alphas(variant, n, r, rng)
            b = sample_solv_bs(variant, n, r, alphas, rng)
            res = conjecture_check(n, variant, r, alphas, 0, b)
            if not res.eliminated:
                return _report(scenario, n, seed, "finding", t0,
                               details=[f"counterexample at r={r}: residual tail "
                                        f"{dict((k, str(v)) for k, v in res.residual_b.items())}"],
                               params=(("r", r), ("alpha", alphas), ("b", b)),
                               transcript=[f"b coefficients after transform: "
                                           f"{dict((k, str(v)) for k, v in res.residual_b.items())}"],
                               findings=("unexpected: transformation failed to eliminate the tails",))
            checked += 1
        findings = (("tail elimination verified with the e_1 row extended through A_n; the "
                     "displayed transformation stops at A_{n-1} and leaves an e_n residue",)
                    if variant == "A" else
                    ("after the transformation the basis is re-adapted through the chain "
                     "products before comparing; the raw image does not carry the table shape",))
        findings = findings + (
            "b sampled on the admissible sub-variety (alpha-dependent coordinates are forced "
            "to zero by the identity); a_1 = 0 throughout, the transformation does not "
            "account for the a_1 correction terms",)
        return _report(scenario, n, seed, "pass", t0,
                       details=[f"{checked} random tuples eliminated"], findings=findings)

    return run


_run_conj_i = _run_conj("A")
_run_conj_ii = _run_conj("B")


# -- registry --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    expected: str               # DerivationShape | Contradiction | FamilyMatch | BoundHolds | Eliminated
    runner: Callable
    parity: Optional[str] = None     # "odd" | "even" | None
    min_n: int = 5

    def admissible(self, n: int) -> bool:
        if n < self.min_n or n > MAX_N:
            return False
        if self.parity == "odd" and n % 2 == 0:
            return False
        if self.parity == "even" and n % 2 == 1:
            return False
        return True

    def rule(self) -> str:
        parity = f", {self.parity} n only" if self.parity else ""
        return f"{self.min_n} <= n <= {MAX_N}{parity}"


SCENARIOS = {s.id: s for s in (
    Scenario("prop31-shape", "derivation matrix form of the first filiform family",
             "DerivationShape", _run_prop31_shape),
    Scenario("prop32-nonexist", "no solvable extension over F1(0,...,0,1)",
             "Contradiction", _run_prop32_nonexist),
    Scenario("prop33-nonexist", "no solvable extension over F1^s",
             "Contradiction", _run_prop33_nonexist),
    Scenario("prop34-shape", "derivation matrix form of the second filiform family",
             "DerivationShape", _run_prop34_shape),
    Scenario("thm35-class", "solvable extensions of F2(0,...,0,1) match the classified table",
             "FamilyMatch", _run_thm35_class, parity="odd"),
    Scenario("thm36-class", "solvable extensions of F2^1(beta, gamma=1) match the classified table",
             "FamilyMatch", _run_thm36_class, parity="even", min_n=6),
    Scenario("thm37-class", "solvable extensions of F2^j match the classified table",
             "FamilyMatch", _run_thm37_class),
    Scenario("prop38-shape", "derivation form of the third filiform family",
             "DerivationShape", _run_prop38_shape),
    Scenario("thm39-nonexist", "no solvable extension over the non-Lie third-family instances",
             "Contradiction", _run_thm39_nonexist),
    Scenario("prop41-shape", "derivation form of the first graded Lie family",
             "DerivationShape", _run_prop41_shape),
    Scenario("thm42-class", "solvable extensions over A nilradicals match the classified table",
             "FamilyMatch", _run_thm42_class),
    Scenario("prop43-nolie", "every solvable extension over an A nilradical is Lie",
             "Contradiction", _run_prop43_nolie),
    Scenario("prop44-shape", "derivation form of the second graded Lie family",
             "DerivationShape", _run_prop44_shape, parity="odd"),
    Scenario("thm45-class", "solvable extensions over B nilradicals match the classified table",
             "FamilyMatch", _run_thm45_class, parity="odd"),
    Scenario("prop46-nolie", "every solvable extension over a B nilradical is Lie",
             "Contradiction", _run_prop46_nolie, parity="odd"),
    Scenario("thm26-bound", "codimension of the nilradical bounded by nil-independent derivations",
             "BoundHolds", _run_thm26_bound),
    Scenario("conj-i", "tail parameters eliminated by the star transformation (first variant)",
             "Eliminated", _run_conj_i),
    Scenario("conj-ii", "tail parameters eliminated by the star transformation (second variant)",
             "Eliminated", _run_conj_ii, parity="odd"),
)}


def run_scenario(scenario_id: str, n: int, seed: int = 0, **kwargs) -> Report:
    if scenario_id not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {scenario_id!r}; known: {known}")
    sc = SCENARIOS[scenario_id]
    if n > MAX_N:
        raise ValueError(f"n={n} rejected: constraint systems grow as (n+2)^3; limit is {MAX_N}")
    if not sc.admissible(n):
        raise ValueError(f"scenario {scenario_id} requires {sc.rule()}, got n={n}")
    return sc.runner(n, seed, **kwargs)


def run_all(n_values, seed: int = 0) -> list:
    """Every scenario over its admissible subset of the given n values."""
    reports = []
    for scenario_id in sorted(SCENARIOS):
        sc = SCENARIOS[scenario_id]
        for n in n_values:
            if sc.admissible(n):
                reports.append(sc.runner(n, seed))
    return reports
