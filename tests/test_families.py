from fractions import Fraction

import pytest

from leibnizalg.algebra import (
    is_filiform,
    is_lie,
    is_nilpotent,
    is_solvable,
    leibniz_check,
    nilradical_equals,
    product_table,
    subalgebra_on_indices,
)
from leibnizalg.derivations import derivation_space, is_derivation, max_nil_independent
from leibnizalg.families import (
    FAMILY_IDS,
    ConstructionError,
    FamilySpec,
    catalan_number,
    f1s_alphas,
    family_catalog,
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
    make_Ln,
    make_Qn,
    make_SolvA,
    make_SolvB,
    make_family,
)
from leibnizalg.linalg import is_upper_triangular
from leibnizalg.poly import Poly, PolyRing
from leibnizalg.verify import sample_graded_alphas

from dense_algebra import dense, dense_matrix, mat_scaled, sparse_rows


def test_catalog_has_fifteen_families():
    catalog = family_catalog()
    assert len(catalog) == 15
    assert {info.family for info in catalog} == set(FAMILY_IDS)


def test_catalog_constraints_texts():
    by_id = {info.family: info for info in family_catalog()}
    assert "1 <= r <= n-3" in by_id["A"].constraints
    assert "3 <= j <= n" in by_id["F2j"].constraints and "n >= 4" in by_id["F2j"].constraints


def test_dispatch_runs_every_family():
    specs = [
        FamilySpec("F1", 5, {"theta": 1}),
        FamilySpec("F2", 5, {"gamma": 1}),
        FamilySpec("F3", 5, {"theta1": 1}),
        FamilySpec("F1s", 5, {"s": 3}),
        FamilySpec("F2j", 5, {"j": 3}),
        FamilySpec("F2j1", 6, {"beta": Fraction(1, 2)}),
        FamilySpec("Ln", 5, {}),
        FamilySpec("Qn", 5, {}),
        FamilySpec("A", 5, {"r": 1, "alpha1": 1}),
        FamilySpec("B", 5, {"r": 1, "alpha1": 1}),
        FamilySpec("L1", 5, {}),
        FamilySpec("L2", 6, {"beta": 2}),
        FamilySpec("L3", 5, {"j0": 4}),
        FamilySpec("SolvA", 5, {"r": 1, "alpha1": 1, "b2": 1}),
        FamilySpec("SolvB", 5, {"r": 1, "alpha1": 1, "b2": 1}),
    ]
    for spec in specs:
        alg = make_family(spec)
        assert leibniz_check(alg).ok
        assert alg.metadata["family"] == spec.family


def test_unknown_family_rejected():
    with pytest.raises(ConstructionError):
        make_family(FamilySpec("nope", 5, {}))


def test_unknown_parameter_rejected():
    with pytest.raises(ConstructionError):
        make_family(FamilySpec("F1", 5, {"bogus": 1}))


@pytest.mark.parametrize("spec", [
    FamilySpec("F1s", 6, {"s": Fraction(7, 2)}),
    FamilySpec("F2j", 6, {"j": Fraction(7, 2)}),
    FamilySpec("A", 6, {"r": Fraction(3, 2), "alpha1": 1}),
    FamilySpec("B", 7, {"r": Fraction(3, 2), "alpha1": 1}),
    FamilySpec("L3", 6, {"j0": Fraction(9, 2)}),
    FamilySpec("SolvA", 6, {"r": Fraction(3, 2), "alpha1": 1}),
    FamilySpec("SolvB", 7, {"r": Fraction(3, 2), "alpha1": 1}),
], ids=lambda spec: spec.family)
def test_non_integral_integer_parameter_rejected(spec):
    """s, j, r and j0 are integers; 7/2 is an error, not 3."""
    with pytest.raises(ConstructionError, match="must be an integer"):
        make_family(spec)


def test_integral_fraction_parameter_accepted():
    assert make_family(FamilySpec("F1s", 6, {"s": Fraction(4)})).table == make_F1s(6, 4).table


def test_ln_table():
    a = make_Ln(4)
    assert dense(a)[0][1][2] == 1 and dense(a)[1][0][2] == -1
    assert is_lie(a) and is_filiform(a)


def test_qn_parity_enforced():
    with pytest.raises(ConstructionError):
        make_Qn(6)


def test_f1_unit_top_is_leibniz_non_lie_filiform():
    for n in range(4, 10):
        a = make_F1(n, {}, 1)
        assert leibniz_check(a).ok and not is_lie(a) and is_filiform(a)


def test_f2_gamma_enters_as_top_square():
    a = make_F2(5, {}, 1)
    assert dense(a)[1][1][5] == 1
    assert dense(a)[1][0] == tuple(Fraction(0) for _ in range(6))  # [e_1,e_0] = 0


def test_f1s_catalan_pattern_at_s3():
    assert f1s_alphas(6, 3) == {3: Fraction(1), 4: Fraction(-2), 5: Fraction(5), 6: Fraction(-14)}
    # matches signed Catalan numbers at s = 3
    for k, t in ((3, 0), (4, 1), (5, 2), (6, 3)):
        assert f1s_alphas(6, 3)[k] == Fraction((-1) ** t * catalan_number(t + 1))


def test_f1s_diverges_from_naive_catalan_at_s4():
    al = f1s_alphas(8, 4)
    assert al[4] == 1 and al[6] == -3 and al[8] == 12
    assert al[6] != Fraction(-catalan_number(2))  # naive reading gives -2


def test_f1s_edge_cases():
    al = f1s_alphas(5, 5)
    assert al == {3: Fraction(0), 4: Fraction(0), 5: Fraction(1)}
    a = make_F1s(5, 5)
    assert a.metadata["params"]["theta"] == 1  # theta = alpha_n
    al45 = f1s_alphas(5, 4)
    assert al45 == {3: Fraction(0), 4: Fraction(1), 5: Fraction(0)}


def test_f1s_admits_non_nilpotent_derivation_with_forced_slope():
    for n, s in ((6, 3), (7, 4), (8, 5)):
        a = make_F1s(n, s)
        space = derivation_space(a)
        combo = next(m for m in (dense_matrix(m, a.dim) for m in space.basis) if m.rows[0][0])
        combo = mat_scaled(combo, Fraction(1) / combo.rows[0][0])
        assert combo.rows[0][1] == s - 2  # a_1 = (s-2) a_0
        assert max_nil_independent(space) == 1


def test_f1s_range_validation():
    with pytest.raises(ConstructionError):
        make_F1s(5, 6)
    with pytest.raises(ConstructionError):
        make_F1s(5, 2)


def test_f3_instances():
    for theta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for n, alpha in ((5, 0), (5, 1), (6, 0)):
            a = make_F3(n, *theta, alpha)
            assert is_filiform(a) and not is_lie(a)
    assert is_lie(make_F3(7, 0, 0, 0, 0))


def test_f3_alpha_needs_odd_n():
    with pytest.raises(ConstructionError):
        make_F3(6, 1, 0, 0, 1)
    with pytest.raises(ConstructionError):
        make_F3(5, 1, 0, 0, 2)


def test_f2j_and_f2j1_ranges():
    with pytest.raises(ConstructionError):
        make_F2j(5, 2)
    with pytest.raises(ConstructionError):
        make_F2j1(5, 1)  # odd n
    a = make_F2j1(6, Fraction(2, 3))
    assert dense(a)[0][1][4] == Fraction(2, 3)
    assert dense(a)[1][1][6] == 1


def test_graded_families_lie_filiform():
    assert is_lie(make_A_algebra(6, 1, {1: 1})) and is_filiform(make_A_algebra(6, 1, {1: 1}))
    assert is_lie(make_B_algebra(7, 1, {1: 1, 2: -2}))


def test_a_family_needs_nonzero_alpha():
    with pytest.raises(ConstructionError):
        make_A_algebra(6, 1, {})


def test_b_family_jacobi_relation_enforced():
    with pytest.raises(ConstructionError):
        make_B_algebra(7, 1, {1: 1})  # needs alpha2 = -2 alpha1


def test_b_family_wide_r_range_degenerates_to_qn():
    b = make_B_algebra(7, 4, {})  # t = 0: no alpha parameters
    assert dense(b) == dense(make_Qn(7))


def _graded_cases(lo=5, hi=9):
    """(variant, n, r) for every admissible r of A and B at lo <= n <= hi."""
    for n in range(lo, hi + 1):
        for r in range(1, n - 2):
            yield "A", n, r
            if n % 2 == 1:
                yield "B", n, r


def test_graded_builder_over_poly_alphas_evaluates_to_the_rational_table():
    """One builder serves both scalar types: the table built with alpha
    indeterminates, evaluated at a sampled point of the Jacobi variety, is
    the table of the constructed algebra."""
    import random

    make = {"A": make_A_algebra, "B": make_B_algebra}
    for variant, n, r in _graded_cases():
        t = graded_alpha_count(variant, n, r)
        ring = PolyRing(tuple(f"al{k}" for k in range(1, t + 1)))
        symbolic = product_table(
            graded_products(variant, n, r, {k: ring.var(f"al{k}") for k in range(1, t + 1)}), n + 1)
        for seed in range(2):
            alphas = sample_graded_alphas(variant, n, r, random.Random(f"{variant}{n}{r}{seed}"))
            point = {f"al{k}": alphas.get(k, Fraction(0)) for k in range(1, t + 1)}
            evaluated = tuple(tuple(
                tuple((k, v) for k, c in cell
                      for v in [c.evaluate(point) if isinstance(c, Poly) else Fraction(c)] if v)
                for cell in plane) for plane in symbolic)
            assert evaluated == make[variant](n, r, alphas).table, (variant, n, r, seed)


def test_b_family_parity():
    with pytest.raises(ConstructionError):
        make_B_algebra(6, 1, {1: 1})


def test_solvable_families_structure():
    cases = [
        make_L1(5), make_L1(7),
        make_L2(6, Fraction(1, 2)), make_L2(8, 3),
        make_L3(5, 3), make_L3(6, 5), make_L3(7, 4),
        make_SolvA(6, 1, {1: 1}, 0, {2: 1, 3: Fraction(-1, 2)}),
        make_SolvB(7, 1, {1: 1, 2: -2}, {2: Fraction(3, 4)}),
    ]
    for alg in cases:
        n = alg.dim - 2
        assert is_solvable(alg) and not is_nilpotent(alg)
        assert nilradical_equals(alg, n + 1)
        assert leibniz_check(alg).ok


def test_solvable_lie_families_are_lie():
    assert is_lie(make_SolvA(6, 1, {1: 1}, 0, {4: 2}))
    assert is_lie(make_SolvB(7, 2, {1: 1}, {2: 1}))
    assert not is_lie(make_L1(5))


def test_l1_parity():
    with pytest.raises(ConstructionError):
        make_L1(6)


def test_l2_parity():
    with pytest.raises(ConstructionError):
        make_L2(5, 1)


def test_l3_range():
    with pytest.raises(ConstructionError):
        make_L3(5, 2)
    with pytest.raises(ConstructionError):
        make_L3(5, 6)


def test_l3_nilradical_is_f2j():
    for n, j0 in ((5, 3), (6, 5), (7, 4)):
        ext = make_L3(n, j0)
        nil = subalgebra_on_indices(ext, n + 1)
        assert dense(nil) == dense(make_F2j(n, j0))


def test_solva_a1_forced_zero_at_small_r():
    with pytest.raises(ConstructionError):
        make_SolvA(5, 1, {1: 1}, 1, {})
    make_SolvA(5, 2, {1: 1}, 1, {})  # admissible here


def test_solvb_constrained_b():
    with pytest.raises(ConstructionError):
        make_SolvB(5, 1, {1: 1}, {3: 1})
    make_SolvB(5, 1, {1: 1}, {2: 1, 4: 2})


def test_solvb_top_row_diagonal():
    a = make_SolvB(7, 2, {1: 1}, {})
    assert dense(a)[7][8][7] == 7 + 2 * 2  # (n + 2r) e_n


def test_solva_matches_displayed_row_formulas():
    """The chain-propagated rows must equal the displayed closed formulas."""
    from leibnizalg.linalg import binomial

    for (n, r, a1) in ((5, 1, Fraction(0)), (6, 2, Fraction(1, 2)), (7, 2, Fraction(0))):
        t = (n - r - 1) // 2
        alphas = {1: Fraction(1)}
        b = {k: Fraction(k, 3) for k in range(2, n + 1)}
        try:
            alg = make_SolvA(n, r, alphas, a1, b)
        except ConstructionError:
            continue
        x = n + 1

        def coeff_1k(k):
            al = {j: alphas.get(j, Fraction(0)) for j in range(1, t + 1)}
            return sum(((-1) ** (s - 1)) * al.get(s, Fraction(0)) * binomial(k - s - 1, s - 1)
                       for s in range(1, t + 1))

        for i in range(3, n - r + 1):
            row = dense(alg)[i][x]
            assert row[i] == i + r
            for j in range(i + 1, n + 1):
                expected = b.get(j - i + 1, Fraction(0))
                if j == i + r:
                    expected += a1 * sum(coeff_1k(k) for k in range(2, i))
                assert row[j] == expected, (n, r, i, j)
        for i in range(max(n - r + 1, 2), n + 1):
            row = dense(alg)[i][x]
            assert row[i] == i + r
            for j in range(i + 1, n + 1):
                assert row[j] == b.get(j - i + 1, Fraction(0))


def test_rx_restriction_is_derivation_of_nilradical():
    for alg in (make_SolvA(6, 1, {1: 1}, 0, {3: 1}),
                make_SolvB(7, 1, {1: 1, 2: -2}, {2: 1}),
                make_L1(5), make_L2(6, 2), make_L3(6, 4)):
        n = alg.dim - 2
        nil = subalgebra_on_indices(alg, n + 1)
        x = n + 1
        t = dense(alg)
        restriction = sparse_rows([t[i][x][:n + 1] for i in range(n + 1)])
        assert is_derivation(nil, restriction)
        assert is_upper_triangular(restriction)


def test_nil_independence_bound_on_solvables():
    for alg in (make_L1(5), make_L2(6, 1), make_L3(5, 3),
                make_SolvA(5, 1, {1: 1}, 0, {2: 1})):
        n = alg.dim - 2
        nil = subalgebra_on_indices(alg, n + 1)
        assert max_nil_independent(derivation_space(nil)) >= 1


NON_RATIONAL = [0.1, 0.5, "3/4", PolyRing(("p",)).var("p")]


@pytest.mark.parametrize("value", NON_RATIONAL, ids=["float", "float-exact", "str", "Poly"])
def test_non_rational_parameters_raise_type_error(value):
    """A float used to become its binary expansion (alpha3 = 0.1 was stored as
    3602879701896397/36028797018963968); every parameter now goes through the
    int/Fraction type check."""
    message = f"expected int or Fraction entries, got {type(value).__name__}"
    for build in (
        lambda: make_F1(5, {3: value}, 1),
        lambda: make_F1(5, {}, value),
        lambda: make_F2(5, {4: value}, 0),
        lambda: make_F3(5, value, 0, 0),
        lambda: make_F2j1(6, value),
        lambda: make_A_algebra(5, 1, {1: value}),
        lambda: make_L2(6, value),
        lambda: make_SolvA(5, 1, {1: 1}, value, {}),
        lambda: make_SolvB(7, 1, {1: 1, 2: -2}, {2: value}),
        lambda: FamilySpec("F1", 5, {"theta": value}),
    ):
        with pytest.raises(TypeError, match=message):
            build()


def test_rational_parameters_are_stored_as_fractions():
    a = make_F1(5, {3: 2, 4: Fraction(1, 3)}, 1)
    params = a.metadata["params"]
    assert params["alpha3"] == 2 and params["alpha4"] == Fraction(1, 3)
    assert all(type(v) is Fraction for v in params.values())
    assert all(type(c) is Fraction for plane in a.table for cell in plane for _, c in cell)
    assert make_family(FamilySpec("F1", 5, {"alpha3": 2, "theta": 1})).table == make_F1(5, {3: 2}, 1).table
