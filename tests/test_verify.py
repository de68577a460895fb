import gc
import json
import random
import sys
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from leibnizalg import algebra, families, verify
from leibnizalg.algebra import leibniz_defects, product_table
from leibnizalg.extensions import Memo, alpha_items, conjecture_check
from leibnizalg.families import ConstructionError, SolvableFrame, make_F2, make_SolvA, make_SolvB, solvable_algebra
from leibnizalg.poly import Poly, PolyRing
from leibnizalg.verify import (
    MAX_N,
    SCENARIOS,
    Scenario,
    run_all,
    run_scenario,
    sample_graded_alphas,
    sample_solv_bs,
    scenario_rng,
    small_rational,
)

from dense_algebra import solvable_products


def test_registry_covers_every_result():
    assert len(SCENARIOS) == 18
    expected = {
        "prop31-shape", "prop32-nonexist", "prop33-nonexist", "prop34-shape",
        "thm35-class", "thm36-class", "thm37-class", "prop38-shape",
        "thm39-nonexist", "prop41-shape", "thm42-class", "prop43-nolie",
        "prop44-shape", "thm45-class", "prop46-nolie", "thm26-bound",
        "conj-i", "conj-ii",
    }
    assert set(SCENARIOS) == expected
    kinds = {s.expected for s in SCENARIOS.values()}
    assert kinds == {"DerivationShape", "Contradiction", "FamilyMatch", "BoundHolds", "Eliminated"}


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario("nope", 5)


def test_inadmissible_n_names_the_rule():
    with pytest.raises(ValueError) as exc:
        run_scenario("thm35-class", 6, 0)
    assert "odd" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        run_scenario("prop32-nonexist", MAX_N + 1, 0)
    assert str(MAX_N) in str(exc.value)


def test_reports_are_deterministic():
    a = run_scenario("prop32-nonexist", 5, 3)
    b = run_scenario("prop32-nonexist", 5, 3)
    assert a.canonical() == b.canonical()
    c = run_scenario("thm37-class", 5, 1)
    d = run_scenario("thm37-class", 5, 1)
    assert c.canonical() == d.canonical()


def test_canonical_form_excludes_wall_time():
    r = run_scenario("thm26-bound", 5, 0)
    assert "wall_time" not in r.canonical()
    assert r.wall_time >= 0


def test_empty_range_gives_empty_reports():
    assert run_all(range(0), seed=0) == []


def test_single_n_runs_only_parity_admissible():
    reports = run_all(range(5, 6), seed=0)
    ids = {r.scenario for r in reports}
    assert "thm35-class" in ids and "thm36-class" not in ids
    assert all(r.verdict == "pass" for r in reports)
    assert len(reports) >= 16
    for r in reports:  # run_all goes through the one registry pipeline
        assert r.canonical() == run_scenario(r.scenario, 5, 0).canonical()


def test_failing_scenarios_carry_witnesses():
    r = run_scenario("prop32-nonexist", 5, 0)
    assert any("witness" in line for line in r.details)
    assert r.transcript


def test_failing_runner_is_stamped_by_the_registry(monkeypatch):
    """F2(0,...,0,1) has a solvable extension, so the non-existence check
    fails on it; the registry stamps the failure like any other verdict and
    hands the runner a run whose rng() gives fresh streams of the scenario's
    rng."""
    draws = []

    def runner(n, run):
        draws.append((run.rng().random(), run.rng().random()))
        return verify._nonexist(make_F2(n, {}, 1))

    monkeypatch.setitem(SCENARIOS, "throwaway-nonexist",
                        Scenario("throwaway-nonexist", "F2 has no solvable extension (false)",
                                 "Contradiction", runner))
    r = run_scenario("throwaway-nonexist", 5, 4)
    assert r.verdict == "fail" and not r.ok
    assert (r.scenario, r.n, r.seed) == ("throwaway-nonexist", 5, 4)
    assert r.details and "expected Contradiction, got family" in r.details[0]
    assert r.transcript
    assert r.wall_time >= 0
    first = scenario_rng("throwaway-nonexist", 5, 4).random()
    assert draws == [(first, first)]


def _probed_bs(variant, n, r, alphas):
    """The b_k for which SolvA/SolvB with that one b_k = 1 is a valid algebra."""
    top = n + 1 if variant == "A" else n
    allowed = []
    for k in range(2, top):
        try:
            if variant == "A":
                make_SolvA(n, r, alphas, 0, {k: Fraction(1)})
            else:
                make_SolvB(n, r, alphas, {k: Fraction(1)})
        except ConstructionError:
            continue
        allowed.append(k)
    return allowed


def test_symbolic_admissible_bs_match_the_per_coordinate_probe():
    """sample_solv_bs admits b_k when D_k passes a derivation check on the
    nilradical; it must admit exactly the coordinates that pass a
    construction one at a time, and the sample must construct."""
    cases = 0
    for n in range(5, 10):
        for variant in ("A", "B"):
            if variant == "B" and n % 2 == 0:
                continue
            for r in range(1, n - 2 if variant == "A" else n - 3):
                for seed in range(2):
                    rng = random.Random(f"probe:{variant}:{n}:{r}:{seed}")
                    alphas = sample_graded_alphas(variant, n, r, rng)
                    b = sample_solv_bs(variant, n, r, alphas, rng)
                    assert sorted(b) == _probed_bs(variant, n, r, alphas), (variant, n, r, alphas)
                    if variant == "A":
                        make_SolvA(n, r, alphas, 0, b)
                    else:
                        make_SolvB(n, r, alphas, b)
                    cases += 1
    assert cases == 58  # (20 A + 9 B) (variant, n, r) x 2 seeds


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_graded_alphas_of_b_at_even_n_raise_the_range_error(n, monkeypatch):
    """B exists at odd n only: the sampler says so before it sets up the
    Jacobi relations, as make_B_algebra does."""
    monkeypatch.setattr(verify, "_jacobi_setup", None)
    with pytest.raises(ConstructionError, match="B needs odd n >= 5"):
        sample_graded_alphas("B", n, 1, random.Random(n))


def _walked_bs(variant, n, r, alphas):
    """The b_k that occur in no Leibniz defect of the SolvA/SolvB table with
    b_k indeterminates (a_1 = 0), from one walk over Poly entries."""
    top = n + 1 if variant == "A" else n
    ring = PolyRing(tuple(f"b{k}" for k in range(2, top)))
    bs = {k: ring.var(f"b{k}") for k in range(2, top)}
    table = product_table(solvable_products(variant, n, r, alphas, bs), n + 2)
    coupled = {name for _, defect in leibniz_defects(table) for c in defect.values()
               if isinstance(c, Poly) for name in c.variables()}
    return [k for k in range(2, top) if f"b{k}" not in coupled]


def test_derivation_solve_matches_the_symbolic_leibniz_walk():
    """sample_solv_bs admits b_k when D_k is a derivation of the nilradical;
    the symbolic Leibniz walk over the whole SolvA/SolvB table must admit the
    same b_k, and the sample must be the one drawn on them, leaving the rng
    in the same state."""
    cases = 0
    for variant, ns in (("A", range(5, 13)), ("B", (5, 7, 9))):
        for n in ns:
            for r in range(1, n - 2 if variant == "A" else n - 3):
                for seed in range(2):
                    rng = random.Random(f"walk:{variant}:{n}:{r}:{seed}")
                    alphas = sample_graded_alphas(variant, n, r, rng)
                    want_rng = random.Random()
                    want_rng.setstate(rng.getstate())
                    want = {k: small_rational(want_rng, 8) for k in _walked_bs(variant, n, r, alphas)}
                    assert sample_solv_bs(variant, n, r, alphas, rng) == want, (variant, n, r, alphas)
                    assert rng.getstate() == want_rng.getstate()
                    cases += 1
    assert cases == 106  # (44 A + 9 B) (variant, n, r) x 2 seeds


def test_sample_solv_bs_multiplies_no_poly(monkeypatch):
    """The admissible-b solve is exact arithmetic on the nilradical: it
    builds no PolyRing and multiplies no Poly."""
    cases = []
    for variant, n in (("A", 7), ("A", 10), ("B", 7), ("B", 9)):
        for r in range(1, n - 2 if variant == "A" else n - 3):
            rng = random.Random(f"nopoly:{variant}:{n}:{r}")
            cases.append((variant, n, r, sample_graded_alphas(variant, n, r, rng), rng))

    def refuse(*args):
        raise AssertionError("Poly arithmetic in sample_solv_bs")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "__rmul__", refuse)
    monkeypatch.setattr(PolyRing, "__init__", refuse)
    admitted = 0
    for variant, n, r, alphas, rng in cases:
        admitted += len(sample_solv_bs(variant, n, r, alphas, rng))
    assert admitted


def test_sample_solv_bs_scales_the_nilradical_once(monkeypatch):
    """The sampler validates N in the frame that sample_solv_bs reads, and
    that validation scales N's table: its integer table then serves the x
    rows and every D_k check, so a frame new to sample_solv_bs scales
    nothing, and one the memo holds keeps its admitted b_k."""
    calls = []

    def counted(table):
        calls.append(table)
        return scale(table)

    scale = algebra.int_table
    monkeypatch.setattr(algebra, "int_table", counted)
    memo = Memo()
    for variant, n, r in (("A", 9, 1), ("A", 9, 3), ("B", 9, 1)):
        rng = random.Random(f"scale:{variant}:{n}:{r}")
        alphas = sample_graded_alphas(variant, n, r, rng, memo)
        nil = memo(SolvableFrame, variant, n, r, alpha_items(alphas), 0).nil
        assert "scaled" in vars(nil) and calls.count(nil.table) == 1, (variant, n, r)
        calls.clear()
        cold = sample_solv_bs(variant, n, r, alphas, rng, memo)
        assert calls == [], (variant, n, r)
        calls.clear()
        warm = sample_solv_bs(variant, n, r, alphas, rng, memo)
        assert calls == [], (variant, n, r)
        assert sorted(warm) == sorted(cold)


@pytest.mark.parametrize("n,admitted", [(7, [2, 4, 6]), (9, [2, 4, 6, 8])])
def test_b_at_r_n_minus_3_admits_bs_but_has_no_solvable_member(n, admitted):
    """The graded B range runs to r = n - 3, where B has no alpha: the
    admissible-b solve answers there, but SolvB stops at r = n - 4, so its
    member raises the range error."""
    rng = random.Random(f"top-r:{n}")
    alphas = sample_graded_alphas("B", n, n - 3, rng)
    assert alphas == {}
    assert sorted(sample_solv_bs("B", n, n - 3, alphas, rng)) == admitted
    with pytest.raises(ConstructionError, match=r"SolvB needs 1 <= r <= n - 4"):
        solvable_algebra("B", n, n - 3, alphas, 0, {})


# -- the run: rng streams and one memo ----------------------------------------------


CONJ_POINTS = [("conj-i", n) for n in range(5, 10)] + [("conj-ii", n) for n in (5, 7, 9)]


@pytest.mark.parametrize("scenario_id,frames", [("conj-i", 25), ("conj-ii", 3)])
def test_a_run_builds_each_frames_nilradical_once(monkeypatch, scenario_id, frames):
    """Each frame of a run builds its graded nilradical N from one Fraction
    graded_products call, which the alpha sampler's validation, the
    admitted-b solve and the trials then share: at seed 0, n = 7, conj-i's
    50 trials fall in 25 frames and conj-ii's in 3."""
    builds, made = [], []
    graded = families.graded_products

    def counted(variant, n, r, alphas):
        if not any(isinstance(v, Poly) for v in alphas.values()):  # the Jacobi relations use Poly alphas
            builds.append((variant, n, r, tuple(sorted(alphas.items()))))
        return graded(variant, n, r, alphas)

    init = SolvableFrame.__init__

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(families, "graded_products", counted)
    monkeypatch.setattr(SolvableFrame, "__init__", counted_init)
    assert run_scenario(scenario_id, 7, 0).verdict == "pass"
    assert len(builds) == len(made) == len(set(made)) == frames


def test_conjecture_reports_do_not_depend_on_the_run_memo(monkeypatch):
    """The canonical conj-i/conj-ii reports are byte-identical whether every
    sampler, sample and check call of a trial gets a fresh memo or the
    trials of a run share the run's; the shared memo validates each graded
    frame once, not once per trial."""
    graded = verify._graded_algebra
    validations = []

    def counted(*args):
        validations.append(args)
        return graded(*args)

    monkeypatch.setattr(verify, "_graded_algebra", counted)

    def reports():
        validations.clear()
        out = [json.dumps(run_scenario(sid, n, seed).canonical(), sort_keys=True)
               for sid, n in CONJ_POINTS for seed in range(4)]
        return out, len(validations)

    shared, shared_validations = reports()
    for name in ("sample_graded_alphas", "sample_solv_bs", "conjecture_check"):
        fn = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, fn=fn: fn(*args[:-1]))  # drop the run's memo
    fresh, fresh_validations = reports()
    assert shared == fresh
    assert fresh_validations == len(CONJ_POINTS) * 4 * verify.CONJ_TRIALS
    assert shared_validations < fresh_validations


@pytest.mark.parametrize("scenario_id", ["conj-i", "conj-ii", "thm26-bound", "prop43-nolie"])
def test_a_runs_memo_is_freed_when_the_run_returns(monkeypatch, scenario_id):
    """Nothing a run computes outlives it, and no reference cycle holds it
    until a cycle collection: with the collector off, every Memo made
    during run_scenario (the run's own and the fresh ones of calls made
    without it) is gone once the report is returned."""
    made = []
    init = Memo.__init__

    def recorded(self):
        made.append(weakref.ref(self))
        init(self)

    monkeypatch.setattr(Memo, "__init__", recorded)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        report = run_scenario(scenario_id, 7, 0)
        alive = sum(ref() is not None for ref in made)
    finally:
        if was_enabled:
            gc.enable()
    assert report.verdict == "pass"
    assert made and alive == 0


def test_different_exact_alphas_never_share_a_frame():
    """Each exact (variant, n, r, alphas, a1) gets a frame of its own in the
    memo, whose target is the integer-scaled table of its validated b = 0
    member: alphas that differ in one coordinate, or the same alphas with
    another a1, get their own. The admissible-b solve and the trials of an
    a1 = 0 frame share it."""
    memo = Memo()

    def frames():
        return {args: frame for (fn, args), frame in memo._values.items() if fn is SolvableFrame}

    cases = []
    for seed in range(12):
        rng = random.Random(f"frames:{seed}")
        alphas = sample_graded_alphas("A", 7, 1, rng, memo)
        cases.append((alphas, sample_solv_bs("A", 7, 1, alphas, rng, memo)))
    distinct = {("A", 7, 1, alpha_items(alphas), 0) for alphas, _ in cases}
    assert len(distinct) > 1 and set(frames()) == distinct
    for alphas, b in cases:
        assert conjecture_check(7, "A", 1, alphas, 0, b, memo).eliminated
    assert set(frames()) == distinct
    for alphas, _ in cases:
        assert frames()["A", 7, 1, alpha_items(alphas), 0].target == make_SolvA(7, 1, alphas, 0, {}).scaled
    assert alpha_items({1: 1, 2: Fraction(1, 2)}) != alpha_items({1: 1, 2: Fraction(1, 3)})
    conjecture_check(6, "A", 3, {1: 1}, 1, {2: 1}, memo)
    conjecture_check(6, "A", 3, {1: 1}, 0, {2: 1}, memo)
    assert frames()["A", 6, 3, ((1, 1),), 1].target == make_SolvA(6, 3, {1: 1}, 1, {}).scaled
    assert frames()["A", 6, 3, ((1, 1),), 0].target == make_SolvA(6, 3, {1: 1}, 0, {}).scaled


def test_an_alpha_that_fails_its_construction_is_never_stored(monkeypatch):
    """A raise propagates out of the memo and stores nothing, so the next
    call tries again. A frame whose alphas fail the member's checks is
    built unvalidated and kept, but the target that raised is not, so the
    next trial of the frame raises again; a frame that cannot be built
    leaves no entry; and a sampler whose every candidate fails validation
    validates the same candidates again on the next call."""
    memo = Memo()
    calls = []

    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise ConstructionError("refused")
        return x

    with pytest.raises(ConstructionError):
        memo(flaky, 1)
    assert memo(flaky, 1) == 1 and memo(flaky, 1) == 1
    assert calls == [1, 1]

    memo = Memo()
    off_variety = {1: 1, 2: 1, 3: 0}  # A n=8 r=1: the Leibniz identity fails on (e1, e2, e3)
    for alphas in (off_variety, {1: 0, 2: 0, 3: 0}):
        for _ in range(2):
            with pytest.raises(ConstructionError):
                conjecture_check(8, "A", 1, alphas, 0, {}, memo)
    with pytest.raises(TypeError):
        conjecture_check(8, "A", 1, {1: 0.5}, 0, {}, memo)
    kept = [(fn, frame) for (fn, _), frame in memo._values.items()]
    assert len(kept) == 2
    assert all(fn is SolvableFrame and "target" not in vars(frame) for fn, frame in kept)

    validations = []

    def refuse(*args):
        validations.append(args)
        raise ConstructionError("refused")

    monkeypatch.setattr(verify, "_graded_algebra", refuse)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no valid alpha tuple"):
            sample_graded_alphas("A", 7, 1, random.Random(0), memo)
    half = len(validations) // 2
    assert half and validations[:half] == validations[half:]


def test_run_scenario_starts_from_an_empty_memo(monkeypatch):
    """A memo entry of an earlier run is gone when the next runner starts,
    and each rng() call of a run restarts the scenario's stream."""
    seen = []
    sc = SCENARIOS["conj-i"]

    def probe(n):
        seen.append(n)
        return n

    def runner(n, run):
        run.memo(probe, n)
        run.memo(probe, n)
        assert run.rng().random() == run.rng().random() == scenario_rng("conj-i", n, 0).random()
        return sc.runner(n, run)

    monkeypatch.setitem(SCENARIOS, "conj-i", replace(sc, runner=runner))
    assert run_scenario("conj-i", 5, 0).verdict == "pass"
    assert run_scenario("conj-i", 5, 0).verdict == "pass"
    assert seen == [5, 5]


def _module_state():
    """The length of every dict, list or set attribute of every leibnizalg
    module."""
    return {(name, attr): len(value)
            for name, mod in sorted(sys.modules.items()) if name.partition(".")[0] == "leibnizalg"
            for attr, value in vars(mod).items() if isinstance(value, (dict, list, set))}


def test_a_run_leaves_no_state_behind():
    """Whatever a run computes lives in its Run: no module-level dict, list
    or set of the package grows or shrinks across run_scenario."""
    points = (("conj-i", 7), ("conj-ii", 7), ("thm26-bound", 7), ("prop41-shape", 8))
    before = _module_state()
    for sid, n in points:
        assert run_scenario(sid, n, 0).verdict == "pass"
    assert _module_state() == before


def test_each_run_builds_the_jacobi_relations_once(monkeypatch):
    """The Jacobi relations of a (variant, n, r) are built once per run, and
    again by the next run: two identical runs build each twice."""
    built = []
    relations = verify._symbolic_jacobi_relations

    def counted(variant, n, r, ring, t):
        built.append((variant, n, r))
        return relations(variant, n, r, ring, t)

    monkeypatch.setattr(verify, "_symbolic_jacobi_relations", counted)
    run_scenario("conj-i", 7, 0)
    once = list(built)
    assert once and len(set(once)) == len(once)
    run_scenario("conj-i", 7, 0)
    assert built == once + once
