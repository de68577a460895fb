"""Scenario registry: every structural claim bound to an executable check.

Each scenario reproduces one result at desk scale: a derivation-matrix shape,
a non-existence deduction (Contradiction with replayable witness), a
classification (solver Family + scripted basis changes = table, entry for
entry), the nil-independence bound, or a conjecture sampling run.

One pipeline runs them all: ``run_scenario`` hands a runner n and a
``Run``, whose ``rng()`` returns a fresh ``scenario_rng(id, n, seed)`` stream
and whose ``memo`` calls each pure function the run needs once per distinct
arguments (the Jacobi relations, the sampler's eliminations, the validated
frames); the runner returns only its ``Verdict`` (verdict, details,
findings, params, transcript). ``run_scenario`` stamps it with the scenario
id, n, seed and wall time into a ``Report``, and ``run_all`` goes through
``run_scenario``. Nothing a run computes outlives it.

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from .algebra import (
    Algebra,
    is_lie,
    is_nilpotent,
    is_solvable,
    nilradical_report,
    subalgebra_on_indices,
)
from .derivations import derivation_space, max_nil_independent
from .extensions import (
    ConstraintSystem,
    Memo,
    alpha_items,
    apply_basis_change,
    build_extension_problem,
    chain_shift,
    conjecture_check,
    diagonal_branches,
    eliminate,
    forced_annihilator_span,
    generate_constraints,
    instantiate,
    leibniz_equations,
    resolved_assignments,
    shear_change,
    tail_coefficients,
)
from .families import (
    ConstructionError,
    SolvableFrame,
    catalan_number,
    check_graded_range,
    f1s_alphas,
    graded_alpha_count,
    graded_products,
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
    validate,
)
from .linalg import dense_row, is_upper_triangular, nullspace, scale_to_integers
from .poly import Poly, PolyRing, linear_form_rows

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


@dataclass(frozen=True)
class Verdict:
    """What a runner decides; ``run_scenario`` stamps it into a ``Report``."""
    verdict: str                      # pass | fail | finding
    details: Sequence = ()
    findings: Sequence = ()
    params: Sequence = ()             # ((key, value), ...), stringified in the Report
    transcript: Sequence = ()


@dataclass(frozen=True)
class Run:
    """One ``run_scenario`` call: fresh ``scenario_rng(scenario_id, n, seed)``
    streams from :meth:`rng`, and one :class:`~leibnizalg.extensions.Memo`
    of pure functions that lives as long as the run."""
    scenario_id: str
    n: int
    seed: int
    memo: Memo = field(default_factory=Memo)

    def rng(self) -> random.Random:
        return scenario_rng(self.scenario_id, self.n, self.seed)


def _within(case: str, body: Verdict, **context) -> Verdict:
    """A nested case's failure: its detail lines prefixed by the case, with
    the enclosing runner's findings or params."""
    return replace(body, details=[f"{case}: {d}" for d in body.details], **context)


# -- scripted basis changes (numeric, read from the current table) ------------------


def chain_tail_change(alg: Algebra, n: int) -> Optional[tuple]:
    """Kill [e_0,x] tails at e_2..e_n by the cascade e_i -> e_i + A_{k-i+1} e_k
    (valid for nilradicals whose products shift indices by a constant)."""
    t = {i: alg.coefficient(0, n + 1, i) for i in range(2, n + 1)}
    return chain_shift(n, 0, n, tail_coefficients(t, n))


def e0_mix_change(alg: Algebra, n: int, j0: int) -> Optional[tuple]:
    """Kill the e_1 coefficient of [e_0,x] via e_0 -> e_0 + kappa e_1, which
    extends to a nilradical automorphism exactly when 2*j0 - 2 > n (the regime
    where that coefficient is a genuine extra derivation parameter)."""
    a1 = alg.coefficient(0, n + 1, 1)
    if not a1 or 2 * j0 - 2 <= n:
        return None
    kappa = -a1 / Fraction(j0 - 2)
    entries = [(0, 1, kappa)] + [(i, j0 + i - 2, (i - 1) * kappa) for i in range(2, n + 1) if j0 + i - 2 <= n]
    return shear_change(n + 2, entries)


def x_mu_change(alg: Algebra, n: int) -> Optional[tuple]:
    """x -> x - sum mu_{i+1} e_i, killing [x,e_0] coefficients at e_3..e_n."""
    x = n + 1
    return shear_change(n + 2, [(x, i, -alg.coefficient(x, 0, i + 1)) for i in range(2, n)])


def e1_etail_change(alg: Algebra, n: int) -> Optional[tuple]:
    """Kill [e_1,x] tails at e_m via e_1 -> e_1 - c e_m (diagonal-gap solve)."""
    x = n + 1
    w1 = alg.coefficient(1, x, 1)
    entries = []
    for m in range(2, n + 1):
        c = alg.coefficient(1, x, m)
        lam = alg.coefficient(m, x, m)
        if c and lam != w1:
            entries.append((1, m, -c / (lam - w1)))
    return shear_change(n + 2, entries)


def e1_xtail_change(alg: Algebra, n: int, keep: int) -> Optional[tuple]:
    """Kill [x,e_1] coefficients at e_m (m >= 2, m != keep)."""
    x = n + 1
    w1 = alg.coefficient(1, x, 1)
    return shear_change(n + 2, [(1, m, -g / w1) for m in range(2, n + 1)
                                if m != keep and (g := alg.coefficient(x, 1, m))])


def xx_tail_change(alg: Algebra, n: int) -> Optional[tuple]:
    """Kill [x,x] coefficients via x -> x - (delta_m / lambda_m) e_m."""
    x = n + 1
    return shear_change(n + 2, [(x, m, -v / alg.coefficient(m, x, m)) for m in range(2, n + 1)
                                if (v := alg.coefficient(x, x, m))])


NORMALIZE_ROUNDS = 14


def normalize_f2_extension(alg: Algebra, n: int, target: Algebra,
                           mix_j0: Optional[int] = None, keep_xe1: int = -1):
    """Iterate the cleanup steps until the table equals the target; each pass
    strictly pushes residue to higher filtration degree, so the loop settles in
    at most ``NORMALIZE_ROUNDS`` rounds. ``keep_xe1`` names the one [x,e_1]
    tail index the target retains (-1: none). Returns (algebra, matched,
    step_count)."""
    steps = 0
    for _ in range(NORMALIZE_ROUNDS):
        if alg.table == target.table:
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
    return alg, alg.table == target.table, steps


def x_left_tail_change(alg: Algebra, n: int, top: int) -> Optional[tuple]:
    """x -> x - sum a_{i+1} e_i for chain products [e_0,e_i]=e_{i+1}: kills
    [e_0,x] coefficients at e_2..e_{top}."""
    x = n + 1
    return shear_change(n + 2, [(x, i, -alg.coefficient(0, x, i + 1)) for i in range(1, top)])


def _changed(alg: Algebra, change: Optional[tuple]) -> Algebra:
    """The algebra after a scripted change; unchanged when there is none."""
    return alg if change is None else apply_basis_change(alg, change)


# -- solver pipeline helpers ---------------------------------------------------------


def solve_extension(nilradical: Algebra):
    """Build, generate, and eliminate over each non-nilpotency branch.

    Returns the problem and a list of (hypotheses, outcome) pairs; an empty
    list means every derivation is nilpotent (characteristically nilpotent
    nilradical)."""
    problem = build_extension_problem(nilradical)
    return problem, [(tuple(hyp), eliminate(generate_constraints(problem, hypotheses=list(hyp))))
                     for hyp in diagonal_branches(problem)]


def _sole_family(nilradical: Algebra):
    """Solve and expect exactly one branch, ending in a residual-free Family.
    Returns (problem, outcome, failure); failure is None or a fail Verdict."""
    problem, results = solve_extension(nilradical)
    if len(results) != 1:
        return problem, None, Verdict("fail", [f"expected 1 branch, got {len(results)}"])
    _, outcome = results[0]
    if outcome.kind != "family" or outcome.residual:
        return problem, outcome, Verdict(
            "fail", [f"expected residual-free Family, got {outcome.kind} "
                     f"with {len(getattr(outcome, 'residual', ()))} residuals"],
            transcript=_assignment_lines(outcome))
    return problem, outcome, None


def annihilator_zeroing_emerged(problem, outcome) -> bool:
    """The right-annihilator facts must force [x,e_i] = 0 for every basis
    vector e_i of the span of the [u,v]+[v,u] (``forced_annihilator_span``
    of the nilradical): the solver has to derive it from the Leibniz
    defects, which imply [x, [u,v]+[v,u]] = 0, not assume it; the system
    holds no annihilator equation of its own."""
    d = problem.nilradical.dim
    rows = set(forced_annihilator_span(problem.nilradical))  # an RREF basis holds e_i iff it has the row e_i
    res = resolved_assignments(outcome)
    for i in range(2, d):
        if ((i, 1),) not in rows:
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


def _graded_algebra(variant: str, n: int, r: int, alphas: tuple) -> Algebra:
    """The validated graded algebra of the alphas ``alpha_items`` gives."""
    return (make_A_algebra if variant == "A" else make_B_algebra)(n, r, dict(alphas))


def _symbolic_jacobi_relations(variant: str, n: int, r: int, ring: PolyRing, t: int) -> tuple:
    """The Leibniz identity of the graded family with alpha_k the ring
    variable al<k>: polynomial relations in the alphas."""
    alphas = {k: ring.var(f"al{k:02d}") for k in range(1, t + 1)}
    return leibniz_equations(ring, graded_products(variant, n, r, alphas), n + 1)


def _jacobi_setup(variant: str, n: int, r: int, t: int):
    """The alpha names, their ring and the Jacobi relations in them."""
    names = tuple(f"al{k:02d}" for k in range(1, t + 1))
    ring = PolyRing(names)
    return names, ring, _symbolic_jacobi_relations(variant, n, r, ring, t)


def _rational_roots(poly: Poly, name: str):
    """Exact rational roots of a univariate polynomial (rational root test)."""
    idx = poly.ring.index[name]
    coeffs: dict = {}
    for mono, c in poly._terms.items():
        if any(i != idx for i in mono):
            return ()
        coeffs[len(mono)] = coeffs.get(len(mono), Fraction(0)) + c
    if not coeffs:
        return ()
    ints = dict(zip(coeffs, scale_to_integers(list(coeffs.values()))[0]))
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


def sample_graded_alphas(variant: str, n: int, r: int, rng: random.Random,
                         memo: Optional[Memo] = None) -> dict:
    """Deterministically sample alpha parameters on the Jacobi variety: fix a
    leading alpha to 1, draw or solve the rest (free directions get random
    rationals, discrete directions get exact rational roots of the univariate
    residuals), and let the elimination propagate the forced ones. An (n, r)
    outside the family's range raises its ConstructionError. ``memo`` (a
    fresh one when none is given) holds the Jacobi relations, the outcome of
    each hypothesis tuple and the validated graded algebra
    (``memo(_graded_algebra, variant, n, r, alpha_items(alphas))``, which the
    graded runners read), so a run sets up, eliminates and validates each of
    them once; it changes no draw."""
    check_graded_range(variant, n, r)
    t = graded_alpha_count(variant, n, r)
    if t <= 0:
        return {}
    memo = memo or Memo()
    names, ring, rels = memo(_jacobi_setup, variant, n, r, t)

    def solve(hyps):
        return memo(eliminate, ConstraintSystem(ring, rels + tuple(hyps)))

    for lead in range(1, t + 1):
        for _ in range(8):
            hyps = [ring.var(names[k]) for k in range(lead - 1)]
            hyps.append(ring.var(names[lead - 1]) - 1)
            outcome = solve(hyps)
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
                outcome = solve(hyps)
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
                memo(_graded_algebra, variant, n, r, alpha_items(alphas))
            except ConstructionError:
                continue
            return alphas
    raise RuntimeError(f"no valid alpha tuple found for {variant} n={n} r={r}")


def sample_solv_bs(variant: str, n: int, r: int, alphas: Mapping[int, Fraction],
                   rng: random.Random, memo: Optional[Memo] = None) -> dict:
    """The displayed solvable families overstate freedom: depending on alpha,
    some b_k are forced to zero by the Leibniz identity. With a_1 = 0, x acts
    on the nilradical N by R_x|N = R + sum_k b_k D_k, where D_k is the
    x-row propagation started from [e_0, x] = 0 and [e_1, x] = e_k. In the
    Leibniz identity of SolvA/SolvB the terms of a triple with two x's
    cancel by antisymmetry, those of a triple without x are free of b, and
    those of a triple with one x are the derivation equation of R_x|N on N.
    So the identity is linear in b, and b_k may be nonzero exactly when D_k
    is a derivation of N (``SolvableFrame.admitted``). A defect free of b
    (alphas off the Jacobi variety, or R not a derivation) is left to the
    caller, which validates a member. The admitted b_k depend on neither b
    nor a1, so ``memo`` (a fresh one when none is given) keeps the a1 = 0
    frame, which its conjecture trials share, and the next sample only draws."""
    admitted = (memo or Memo())(SolvableFrame, variant, n, r, alpha_items(alphas), 0).admitted
    return {k: small_rational(rng, 8) for k in admitted}


# -- derivation-shape transcriptions ----------------------------------------------


def _derivation_form(alg: Algebra):
    """The derivation space of ``alg``, the rows of its generic element, and
    the errors in the opening every stated form shares: upper triangular
    with a zero (1,0) entry."""
    space = derivation_space(alg)
    ring = space.ring()
    rows = space.generic_matrix(ring)
    errs = []
    if not is_upper_triangular(rows):
        errs.append("not upper triangular")
    T = tuple(dense_row(row, alg.dim, ring.zero) for row in rows)  # the transcriptions index T[i][j]
    if T[1][0]:
        errs.append("entry (1,0)")
    return space, T, errs


def _stated_count(names: Sequence[str], relations: Callable) -> int:
    """How many of the stated unknowns ``names`` the stated relations leave
    free: ``relations`` evaluated on the indeterminates of a ring of the
    unknowns, then the columns less the rank of their coefficient rows (the
    kernel dimension)."""
    ring = PolyRing(names)
    rows = linear_form_rows(relations([ring.var(name) for name in names]), names)
    return len(nullspace(rows, len(names)))


def _f1_relations(a, b_n1, al_of, theta, n: int) -> list:
    """The stated relations of the first family's derivations, in the row-0
    entries a_0..a_n and the entry b_{n-1}, of any scalar type."""
    rels = [a[0] * (theta - al_of(n)),
            a[1] * (al_of(n) - theta) - (a[n - 1] - b_n1),
            al_of(3) * (a[1] - a[0])]
    for k in range(4, n + 1):
        conv = sum((al_of(j - 1) * al_of(k - j + 3) for j in range(4, k + 1)), Fraction(0))
        rels.append(al_of(k) * (a[1] - a[0] * (k - 2)) - a[1] * Fraction(k, 2) * conv)
    return rels


def _shape_f1(alg: Algebra, alphas: Mapping[int, Fraction], theta: Fraction):
    """Stated derivation form of the first family: entry formulas, relations,
    and parameter count (a_0..a_n, b_{n-1}, b_n modulo the stated relations)."""
    n = alg.dim - 1
    space, T, errs = _derivation_form(alg)
    a = T[0]
    b_n1 = T[1][n - 1]
    al = {k: Fraction(alphas.get(k, 0)) for k in range(3, n + 1)}
    al_of = lambda m: al.get(m, Fraction(0))
    if T[1][1] != a[0] + a[1]:
        errs.append("diag (1,1)")
    for j in range(2, n - 1):
        if T[1][j] != a[j]:
            errs.append(f"entry (1,{j})")
    for i in range(2, n + 1):
        if T[i][i] != a[0] * i + a[1]:
            errs.append(f"diag ({i},{i})")
        for j in range(i + 1, n + 1):
            if i == 2 and j == n:
                # the chain propagates b_{n-1}, not a_{n-1}: the displayed
                # a_{n-1}+a_1*alpha_n agrees only when a_1(theta-alpha_n)=0
                if T[2][n] != b_n1 + a[1] * al_of(n):
                    errs.append("entry (2,n)")
                continue
            if T[i][j] != a[j - i + 1] + a[1] * ((i - 1) * al_of(j - i + 2)):
                errs.append(f"entry ({i},{j})")
    for idx, rel in enumerate(_f1_relations(a, b_n1, al_of, theta, n)):
        if rel:
            errs.append(f"relation {idx}")
    names = [f"a{j}" for j in range(n + 1)] + [f"b{n - 1}", f"b{n}"]
    expected = _stated_count(names, lambda u: _f1_relations(u, u[n + 1], al_of, theta, n))
    if space.dimension != expected:
        errs.append(f"dimension {space.dimension} != stated {expected}")
    return errs


def _shape_f2(alg: Algebra, betas: Mapping[int, Fraction], gamma: Fraction):
    n = alg.dim - 1
    _, T, errs = _derivation_form(alg)
    a = T[0]
    b1 = T[1][1]
    be = {k: Fraction(betas.get(k, 0)) for k in range(3, n + 1)}
    be_of = lambda m: be.get(m, Fraction(0))
    for j in range(2, n - 1):
        if T[1][j]:
            errs.append(f"entry (1,{j})")
    if T[1][n - 1] != a[1] * (-gamma):
        errs.append("entry (1,n-1)")
    for i in range(2, n + 1):
        if T[i][i] != a[0] * i:
            errs.append(f"diag ({i},{i})")
        for j in range(i + 1, n + 1):
            if T[i][j] != a[j - i + 1] + a[1] * ((i - 1) * be_of(j - i + 2)):
                errs.append(f"entry ({i},{j})")
    rels = [gamma * (b1 * 2 - a[0] * n), be_of(3) * (b1 - a[0] * 2)]
    for k in range(4, n):
        conv = sum((be_of(j - 1) * be_of(k - j + 3) for j in range(4, k + 1)), Fraction(0))
        rels.append(be_of(k) * (b1 - a[0] * (k - 1)) - a[1] * Fraction(k, 2) * conv)
    conv_n = sum((be_of(j - 1) * be_of(n - j + 3) for j in range(4, n + 1)), Fraction(0))
    rels.append(be_of(n) * (b1 - a[0] * (n - 1)) + a[1] * gamma - a[1] * Fraction(n, 2) * conv_n)
    for idx, rel in enumerate(rels):
        if rel:
            errs.append(f"relation {idx}")
    return errs


def _f3_relations(a0, a1, b1, thetas, n: int) -> list:
    """The stated relations of the third family's derivations, in a_0, a_1
    and b_1, of any scalar type."""
    t1, t2, t3 = thetas
    return [t1 * (a0 * (n - 3) + b1) - a1 * t2,
            a1 * t3 * 2 - a0 * t2 * (n - 2),
            t3 * (a0 * (n - 1) - b1)]


def _shape_f3(alg: Algebra, thetas, alpha: Fraction):
    """Entry formulas are asserted for all instances; the displayed parameter
    relations and count are sharp only at alpha = 0 (at alpha = 1 the actual
    space is strictly smaller and even violates the displayed relations), so
    divergences there are returned separately as findings."""
    n = alg.dim - 1
    thetas = tuple(Fraction(v) for v in thetas)
    space, T, errs = _derivation_form(alg)
    a = T[0]
    b = T[1]
    notes = []
    for i in range(2, n):
        if T[i][i] != a[0] * (i - 1) + b[1]:
            errs.append(f"diag ({i},{i})")
        for j in range(i + 1, n):
            if T[i][j] != b[j - i + 1]:
                errs.append(f"entry ({i},{j})")
        if T[i][n] != b[n - i + 1] + a[n - i + 1] * (alpha * Fraction((-1) ** (i - 1))):
            errs.append(f"entry ({i},n)")
    if T[n][n] != a[0] * (n - 1) + b[1] + a[1] * alpha:
        errs.append("diag (n,n)")
    for idx, rel in enumerate(_f3_relations(a[0], a[1], b[1], thetas, n)):
        if rel:
            if alpha:
                notes.append(f"displayed relation {idx} fails on the actual space")
            else:
                errs.append(f"relation {idx}")
    # a_0..a_n and b_1..b_n, of which the relations tie a_0, a_1 and b_1
    stated_dim = 2 * n - 2 + _stated_count(("a0", "a1", "b1"),
                                           lambda u: _f3_relations(*u, thetas, n))
    return errs, notes, space.dimension, stated_dim


def _shape_graded(alg: Algebra, r: int, variant: str):
    """Stated parts for the graded Lie families: triangularity and diagonal
    (i+r)a_0 (plus the (n+2r) top diagonal and missing (0,1) entry for B).
    The unlabeled tail entries are not asserted."""
    n = alg.dim - 1
    _, T, errs = _derivation_form(alg)
    a0 = T[0][0]
    top = n if variant == "A" else n - 1
    for i in range(1, top + 1):
        if T[i][i] != a0 * (i + r):
            errs.append(f"diag ({i},{i})")
    if variant == "B":
        if T[n][n] != a0 * (n + 2 * r):
            errs.append("diag (n,n)")
        if T[0][1]:
            errs.append("entry (0,1)")
        for j in range(n):
            if T[n][j]:
                errs.append(f"entry (n,{j})")
    return errs


# -- scenario runners: (n, run) -> Verdict --------------------------------------------


def _run_prop31_shape(n: int, run: Run) -> Verdict:
    rng = run.rng()
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
    return Verdict("fail" if errors else "pass", [f"{len(cases)} instances checked"] + errors,
                   findings=("first-family derivation matrix rows normalized to the uniform "
                             "pattern d(e_i)_j = a_{j-i+1} + (i-1)a_1*alpha_{j-i+2}; the displayed "
                             "fourth row's alpha subscripts are off by one",
                             "entry (2,n) is b_{n-1} + a_1*alpha_n (the chain propagates b_{n-1}); "
                             "the displayed a_{n-1} + a_1*alpha_n agrees only when "
                             "a_1(theta - alpha_n) = 0",))


def _run_prop34_shape(n: int, run: Run) -> Verdict:
    rng = run.rng()
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
    return Verdict("fail" if errors else "pass", [f"{len(cases)} instances checked"] + errors,
                   findings=("second-family table displays no gamma parameter; it is the "
                             "top square [e_1,e_1] = gamma e_n, forced by the relation "
                             "gamma(2b_1 - n a_0) = 0",))


def _f3_instances(n: int):
    """The third-family representatives: each theta triple at alpha = 0 and,
    for odd n, alpha = 1, as (case label, thetas, alpha, algebra)."""
    for thetas in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for alpha in (0, 1) if n % 2 == 1 else (0,):
            yield f"theta={thetas} alpha={alpha}", thetas, alpha, make_F3(n, *thetas, alpha)


def _run_prop38_shape(n: int, run: Run) -> Verdict:
    errors = []
    findings = []
    for case, thetas, alpha, alg in _f3_instances(n):
        errs, notes, dim, stated = _shape_f3(alg, thetas, Fraction(alpha))
        if errs:
            errors.append(f"{case}: {', '.join(errs)}")
        findings.extend(f"{case}: {note}" for note in notes)
        if dim != stated:
            findings.append(f"{case}: derivation space dim {dim} != stated-form count {stated}; "
                            f"the displayed form is not sharp at the alternating instance")
    return Verdict("fail" if errors else "pass", errors or ["all instances match"],
                   findings=findings)


def _run_graded_shape(variant: str, n: int, run: Run) -> Verdict:
    rng = run.rng()
    errors = []
    params = []
    for r in sorted({1, max(1, (n - 3) // 2 if variant == "A" else n - 4)}):
        alphas = sample_graded_alphas(variant, n, r, rng, run.memo)
        params.append((f"alpha(r={r})", alphas))
        errs = _shape_graded(run.memo(_graded_algebra, variant, n, r, alpha_items(alphas)), r, variant)
        if errs:
            errors.append(f"r={r}: {', '.join(errs)}")
    stated = ("triangular with diagonal (i+r)a_0" if variant == "A" else
              "triangular, diagonal (i+r)a_0 and (n+2r)a_0, no (0,1) entry")
    return Verdict("fail" if errors else "pass", errors or [stated], params=params)


def _nonexist(nilradical: Algebra) -> Verdict:
    _, results = solve_extension(nilradical)
    if not results:
        return Verdict("pass", ["all derivations nilpotent: no non-nilpotent action exists"])
    details = []
    transcript = []
    for hyp, outcome in results:
        hyp_s = "; ".join(str(h) + " = 0" for h in hyp)
        if outcome.kind != "contradiction":
            return Verdict("fail", [f"branch [{hyp_s}]: expected Contradiction, got {outcome.kind}"],
                           transcript=_assignment_lines(outcome))
        details.append(f"branch [{hyp_s}]: contradiction, witness {outcome.witness}, "
                       f"{len(outcome.assignments)} substitutions")
        transcript.extend(_assignment_lines(outcome, limit=60))
        transcript.append(f"witness: {outcome.witness} = 0")
    return Verdict("pass", details, transcript=transcript)


def _run_prop32_nonexist(n: int, run: Run) -> Verdict:
    return _nonexist(make_F1(n, {}, 1))


def _run_prop33_nonexist(n: int, run: Run) -> Verdict:
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
        body = _nonexist(make_F1s(n, s))
        if body.verdict != "pass":
            return _within(f"s={s}", body, findings=findings)
    return Verdict("pass", [f"s in (3, 4) capped at n={n}: all branches contradict"],
                   findings=findings)


def _run_thm39_nonexist(n: int, run: Run) -> Verdict:
    details = []
    for case, _, _, alg in _f3_instances(n):
        body = _nonexist(alg)
        if body.verdict != "pass":
            return _within(case, body)
        details.append(f"{case}: {body.details[0]}")
    return Verdict("pass", details)


def _structure_errors(alg: Algebra, n: int) -> list:
    """The invariants of a solvable extension of an n-index nilradical:
    dimension n + 2, solvable and not nilpotent, nilradical e_0..e_n."""
    errs = []
    if alg.dim != n + 2:
        errs.append(f"dimension {alg.dim} != {n + 2}")
    solvable = is_solvable(alg)
    nilpotent = solvable and is_nilpotent(alg)  # a nilpotent algebra is solvable
    if not solvable or nilpotent:
        errs.append("not solvable non-nilpotent")
    if not nilradical_report(alg, n + 1, nilpotent):
        errs.append("nilradical mismatch")
    return errs


def _classification_core(nilradical: Algebra, target: Algebra, rng: random.Random,
                         mix_j0=None, keep_xe1=-1, findings=(), params=()) -> Verdict:
    """Shared pipeline: solve, instantiate at random rationals, apply the
    scripted changes, compare tables entry for entry, check invariants."""
    n = nilradical.dim - 1
    problem, outcome, failure = _sole_family(nilradical)
    if failure:
        return replace(failure, findings=findings, params=params)
    if not annihilator_zeroing_emerged(problem, outcome):
        return Verdict("fail", ["[x,e_i] = 0 did not emerge from the annihilator equations"],
                       findings=findings, params=params)
    alg = instantiate_family(problem, outcome, rng)
    checks = _structure_errors(alg, n)
    _, matched, steps = normalize_f2_extension(alg, n, target, mix_j0=mix_j0, keep_xe1=keep_xe1)
    if not matched:
        checks.append("scripted changes did not reach the classified table")
    if checks:
        return Verdict("fail", checks, findings=findings, params=params)
    return Verdict("pass", [f"family matched after {steps} scripted changes; "
                            f"{len(outcome.assignments)} substitutions, free: {len(outcome.free)}"],
                   findings=findings, params=params)


def _run_thm35_class(n: int, run: Run) -> Verdict:
    return _classification_core(
        make_F2(n, {}, 1), make_L1(n), run.rng(),
        findings=("classified table omits [e_i,x]=i e_i and [x,e_0]=-e_0, both derived in "
                  "its construction and required by the identity",
                  "the odd-n header here and the even-n label in the family list are swapped "
                  "relative to each other; odd n is the consistent reading"))


def _run_thm36_class(n: int, run: Run) -> Verdict:
    beta_rng = run.rng()
    while True:
        beta = nonzero_rational(beta_rng, 6)
        if beta * beta != Fraction(2, n):
            break
    return _classification_core(
        make_F2j1(n, beta), make_L2(n, beta), run.rng(), keep_xe1=n // 2,
        findings=("beta sampled away from beta^2 = 2/n, where the derivation space jumps "
                  "and the family degenerates",),
        params=(("beta", beta),))


def _run_thm37_class(n: int, run: Run) -> Verdict:
    findings = ["nilradical products [e_i,e_1]=e_{j0+i-1} run to i = n+1-j0 (the displayed "
                "n-1-j0 contradicts the nilradical and the identity)"]
    for j0 in (3, 4, 5):
        if j0 > n:
            continue
        if 2 * j0 - 2 > n:
            findings.append(f"j0={j0}: the extra derivation parameter at (0,1) is removed by a "
                            f"nilradical automorphism e_0 -> e_0 + kappa e_1")
        body = _classification_core(make_F2j(n, j0), make_L3(n, j0), run.rng(),
                                    mix_j0=j0, keep_xe1=j0 - 1)
        if body.verdict != "pass":
            return _within(f"j0={j0}", body, findings=findings)
    return Verdict("pass", [f"j0 in (3,4,5) capped at n={n}: tables match entry for entry"],
                   findings=findings)


def _run_graded_class(variant: str, n: int, run: Run) -> Verdict:
    rng = run.rng()
    rs = sorted({1, max(1, (n - 3) // 2)}) if variant == "A" else sorted({1, max(1, n - 5)})
    findings = []
    params = []
    for r in rs:
        alphas = sample_graded_alphas(variant, n, r, rng, run.memo)
        params.append((f"alpha(r={r})", alphas))
        problem, outcome, failure = _sole_family(run.memo(_graded_algebra, variant, n, r, alpha_items(alphas)))
        if failure:
            return _within(f"r={r}", failure, params=params)
        alg = instantiate_family(problem, outcome, rng)
        errs = _structure_errors(alg, n)
        if errs:
            return Verdict("fail", [f"r={r}: {e}" for e in errs], params=params)
        x = n + 1
        if variant == "A":
            alg = _changed(alg, x_left_tail_change(alg, n, n))
            a1 = alg.coefficient(0, x, 1)
            b = {k: alg.coefficient(1, x, k) for k in range(2, n + 1)}
            target = make_SolvA(n, r, alphas, a1, b)
            if a1 == 0:
                findings.append(f"r={r}: the (0,1) coefficient a_1 is forced to 0 by the identity "
                                f"(the displayed family lists it as free)")
            params.append((f"a1(r={r})", a1))
        else:
            alg = _changed(alg, x_left_tail_change(alg, n, n - 1))
            alg = _changed(alg, shear_change(
                n + 2, [(0, n, -alg.coefficient(0, x, n) / Fraction(n + 2 * r - 1))]))
            alg = _changed(alg, shear_change(n + 2, [(x, n - 1, alg.coefficient(1, x, n))]))
            b = {k: alg.coefficient(1, x, k) for k in range(2, n)}
            zeroed = [k for k in range(3, n, 2) if not b.get(k)]
            if zeroed:
                findings.append(f"r={r}: odd-index b at {zeroed} forced to 0 by the identity "
                                f"(the displayed family lists b_2..b_(n-1) as free)")
            target = make_SolvB(n, r, alphas, b)
        if not is_lie(alg):
            return Verdict("fail", [f"r={r}: extension is not Lie"], params=params)
        if alg.table != target.table:
            return Verdict("fail", [f"r={r}: scripted changes did not reach the classified table"],
                           params=params)
    return Verdict("pass", [f"r values {rs}: tables match entry for entry"],
                   findings=findings, params=params)


def _run_graded_nolie(variant: str, n: int, run: Run) -> Verdict:
    """Every solvable extension is Lie: (a) the symmetric coordinates vanish
    identically under the assignment log, (b) the Rabinowitsch certificate
    lam*(sum tag_k sym_k) - 1 = 0 produces a genuine Contradiction witness."""
    rng = run.rng()
    r = 1 if n <= (6 if variant == "A" else 7) else rng.choice((1, 2))
    alphas = sample_graded_alphas(variant, n, r, rng, run.memo)
    params = (("r", r), ("alpha", alphas))
    nilradical = run.memo(_graded_algebra, variant, n, r, alpha_items(alphas))
    problem, outcome, failure = _sole_family(nilradical)
    if failure:
        return replace(failure, params=params)
    if not lie_forced(problem, outcome):
        return Verdict("fail", ["a symmetric coordinate survives: non-Lie extension"],
                       transcript=_assignment_lines(outcome), params=params)
    ncoords = len(problem.symmetric_coordinates())
    tags = [f"tag{k:03d}" for k in range(ncoords)] + ["lam"]
    cert_problem = build_extension_problem(nilradical, template=problem.template, extra_names=tags)
    ring = cert_problem.ring
    combo = ring.zero
    for k, coord in enumerate(cert_problem.symmetric_coordinates()):
        combo = combo + ring.var(f"tag{k:03d}") * coord
    cert = ring.var("lam") * combo - 1
    cert_hyp = list(diagonal_branches(cert_problem)[0]) + [cert]
    cert_out = eliminate(generate_constraints(cert_problem, hypotheses=cert_hyp))
    if cert_out.kind != "contradiction":
        return Verdict("fail", ["certificate run did not contradict"],
                       transcript=_assignment_lines(cert_out), params=params)
    return Verdict("pass", [f"{ncoords} symmetric coordinates all forced to zero",
                            f"certificate witness: {cert_out.witness} = 0"],
                   transcript=_assignment_lines(cert_out, limit=40), params=params)


def _run_thm26_bound(n: int, run: Run) -> Verdict:
    rng = run.rng()
    solvables = []
    if n % 2 == 1:
        solvables.append(("L1", make_L1(n)))
    else:
        solvables.append(("L2", make_L2(n, nonzero_rational(rng, 6))))
    solvables.append(("L3", make_L3(n, 3)))
    for variant in ("A", "B") if n % 2 == 1 else ("A",):
        alphas = sample_graded_alphas(variant, n, 1, rng, run.memo)
        b = sample_solv_bs(variant, n, 1, alphas, rng, run.memo)
        frame = run.memo(SolvableFrame, variant, n, 1, alpha_items(alphas), 0)  # the one b was drawn on
        solvables.append((f"Solv{variant}", validate(frame.member(b))))
    details = []
    for label, alg in solvables:
        nil = subalgebra_on_indices(alg, n + 1)
        bound = max_nil_independent(derivation_space(nil))
        if bound < 1:
            return Verdict("fail", [f"{label}: codim 1 > max nil-independent {bound}"])
        details.append(f"{label}: codim 1 <= {bound}")
    return Verdict("pass", details)


CONJ_TRIALS = 50


def _run_conj(variant: str, n: int, run: Run) -> Verdict:
    rng = run.rng()
    for _ in range(CONJ_TRIALS):
        r = rng.randint(1, n - 3 if variant == "A" else n - 4)
        alphas = sample_graded_alphas(variant, n, r, rng, run.memo)
        b = sample_solv_bs(variant, n, r, alphas, rng, run.memo)
        res = conjecture_check(n, variant, r, alphas, 0, b, run.memo)
        if not res.eliminated:
            tail = {k: str(v) for k, v in res.residual_b.items()}
            return Verdict("finding", [f"counterexample at r={r}: residual tail {tail}"],
                           params=(("r", r), ("alpha", alphas), ("b", b)),
                           transcript=[f"b coefficients after transform: {tail}"],
                           findings=("unexpected: transformation failed to eliminate the tails",))
    findings = (("tail elimination verified with the e_1 row extended through A_n; the "
                 "displayed transformation stops at A_{n-1} and leaves an e_n residue",)
                if variant == "A" else
                ("after the transformation the basis is re-adapted through the chain "
                 "products before comparing; the raw image does not carry the table shape",))
    findings = findings + (
        "b sampled on the admissible sub-variety (alpha-dependent coordinates are forced "
        "to zero by the identity); a_1 = 0 throughout, the transformation does not "
        "account for the a_1 correction terms",)
    return Verdict("pass", [f"{CONJ_TRIALS} random tuples eliminated"], findings=findings)


# -- registry --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    expected: str               # DerivationShape | Contradiction | FamilyMatch | BoundHolds | Eliminated
    runner: Callable            # (n, Run) -> Verdict
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
             "DerivationShape", partial(_run_graded_shape, "A")),
    Scenario("thm42-class", "solvable extensions over A nilradicals match the classified table",
             "FamilyMatch", partial(_run_graded_class, "A")),
    Scenario("prop43-nolie", "every solvable extension over an A nilradical is Lie",
             "Contradiction", partial(_run_graded_nolie, "A")),
    Scenario("prop44-shape", "derivation form of the second graded Lie family",
             "DerivationShape", partial(_run_graded_shape, "B"), parity="odd"),
    Scenario("thm45-class", "solvable extensions over B nilradicals match the classified table",
             "FamilyMatch", partial(_run_graded_class, "B"), parity="odd"),
    Scenario("prop46-nolie", "every solvable extension over a B nilradical is Lie",
             "Contradiction", partial(_run_graded_nolie, "B"), parity="odd"),
    Scenario("thm26-bound", "codimension of the nilradical bounded by nil-independent derivations",
             "BoundHolds", _run_thm26_bound),
    Scenario("conj-i", "tail parameters eliminated by the star transformation (first variant)",
             "Eliminated", partial(_run_conj, "A")),
    Scenario("conj-ii", "tail parameters eliminated by the star transformation (second variant)",
             "Eliminated", partial(_run_conj, "B"), parity="odd"),
)}


def run_scenario(scenario_id: str, n: int, seed: int = 0) -> Report:
    """Run one scenario and stamp its verdict with the id, n, seed and wall
    time. The runner gets n and a new :class:`Run`: its ``rng()`` returns a
    fresh ``scenario_rng(scenario_id, n, seed)`` on every call, and its
    ``memo`` starts empty and is dropped with the run."""
    if scenario_id not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {scenario_id!r}; known: {known}")
    sc = SCENARIOS[scenario_id]
    if n > MAX_N:
        raise ValueError(f"n={n} rejected: constraint systems grow as (n+2)^3; limit is {MAX_N}")
    if not sc.admissible(n):
        raise ValueError(f"scenario {scenario_id} requires {sc.rule()}, got n={n}")
    t0 = time.monotonic()
    body = sc.runner(n, Run(scenario_id, n, seed))
    return Report(scenario=scenario_id, n=n, seed=seed, verdict=body.verdict,
                  details=tuple(body.details), findings=tuple(body.findings),
                  params=tuple((str(k), str(v)) for k, v in body.params),
                  transcript=tuple(body.transcript), wall_time=time.monotonic() - t0)


def run_all(n_values, seed: int = 0) -> list:
    """Every scenario over its admissible subset of the given n values."""
    return [run_scenario(scenario_id, n, seed)
            for scenario_id in sorted(SCENARIOS) for n in n_values
            if SCENARIOS[scenario_id].admissible(n)]
