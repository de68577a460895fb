import random
from fractions import Fraction

import pytest

from leibnizalg.derivations import (
    derivation_space,
    inner_derivations,
    is_derivation,
    max_nil_independent,
    right_multiplication,
)
from leibnizalg.families import make_F1, make_F1s, make_F2, make_F3, make_Qn
from leibnizalg.linalg import rref

from dense_algebra import (dense, dense_matrix, from_dense, mat_add, mat_identity, mat_is_nilpotent, mat_mul,
                           mat_scaled, mat_sub, mat_zeros, sparse_rows)


def abelian(d):
    zero = tuple(tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d)) for _ in range(d))
    return from_dense(tuple(f"e{i}" for i in range(d)), zero)


def test_dimension_f1_unit_top():
    assert derivation_space(make_F1(5, {}, 1)).dimension == 6


def test_dimension_abelian():
    assert derivation_space(abelian(3)).dimension == 9


def test_right_multiplications_are_derivations():
    a = make_F1(5, {}, 1)
    for j in range(a.dim):
        assert is_derivation(a, right_multiplication(a, j))


def test_identity_matrix_is_not_a_derivation():
    a = make_F1(5, {}, 1)
    assert not is_derivation(a, sparse_rows(mat_identity(a.dim)))


def test_prop_template_instance_on_f1s():
    # instantiate a derivation of F1^3 at n=6 with leading entries a_0 = 1,
    # a_1 = s - 2 = 1 and everything else zero; it must satisfy the equation
    a = make_F1s(6, 3)
    space = derivation_space(a)
    # solve for the basis combination with entry (0,0) = 1, (0,1) = 1,
    # remaining free coordinates zero: use the canonical basis directly
    combo = None
    for mat in (dense_matrix(m, a.dim) for m in space.basis):
        if mat.rows[0][0]:
            combo = mat_scaled(mat, Fraction(1) / mat.rows[0][0])
            break
    assert combo is not None
    assert combo.rows[0][1] == 1  # a_1 = (s-2) a_0 forced
    assert is_derivation(a, sparse_rows(combo))
    assert not mat_is_nilpotent(combo)


def test_wrong_size_matrix_rejected():
    with pytest.raises(ValueError, match="rows"):
        is_derivation(make_F1(5, {}, 1), sparse_rows(mat_identity(3)))


@pytest.mark.parametrize("column", [6, 7, -1, -6])
def test_column_outside_the_map_rejected(column):
    """A negative column would otherwise index from the end."""
    rows = list(sparse_rows(mat_identity(6)))
    rows[2] = ((column, 1),)
    with pytest.raises(ValueError, match="out of range"):
        is_derivation(make_F1(5, {}, 1), tuple(rows))


def test_inner_derivations_f1():
    a = make_F1(5, {}, 1)
    inner = inner_derivations(a)
    assert inner.dimension == 2  # dim - dim Ann_r = 6 - 4
    assert derivation_space(a).dimension - inner.dimension == 4


def test_inner_derivations_abelian_zero():
    assert inner_derivations(abelian(4)).dimension == 0


def test_inner_derivations_qn():
    assert inner_derivations(make_Qn(5)).dimension == 5  # dim - dim center


def test_inner_contained_in_derivation_space():
    for alg in (make_F1(5, {}, 1), make_F2(6, {4: 1}, 1), make_Qn(5)):
        space = derivation_space(alg)
        inner = inner_derivations(alg)
        d = alg.dim

        def flat(m):
            return tuple((i * d + k, c) for i, row in enumerate(m) for k, c in row)

        span = [flat(m) for m in space.basis]
        base_rank = len(rref(span)[1])
        for m in inner.basis:
            assert len(rref(span + [flat(m)])[1]) == base_rank


def test_derivation_space_closed_under_commutator():
    for alg in (make_F1s(6, 3), make_F2(5, {}, 1), make_F3(5, 1, 0, 0, 1)):
        space = derivation_space(alg)
        basis = [dense_matrix(m, alg.dim) for m in space.basis[:4]]
        for m1 in basis:
            for m2 in basis:
                comm = mat_sub(mat_mul(m1, m2), mat_mul(m2, m1))
                assert is_derivation(alg, sparse_rows(comm))


def test_right_multiplication_anti_homomorphism():
    # [R_x, R_y] = R_{[y,x]}; with row-matrix composition rx @ ry applies R_x
    # first, i.e. represents R_y R_x, so rx @ ry - ry @ rx is R_{[e_i,e_j]}
    from leibnizalg.algebra import bracket

    for alg in (make_F1(5, {3: Fraction(1, 2)}, 1), make_Qn(5), make_F2(6, {}, 1)):
        d = alg.dim
        t = dense(alg)
        for i in range(d):
            for j in range(d):
                rx, ry = (dense_matrix(right_multiplication(alg, k), d) for k in (i, j))
                lhs = mat_sub(mat_mul(rx, ry), mat_mul(ry, rx))
                w = bracket(alg.table, ((i, Fraction(1)),), ((j, Fraction(1)),))
                rows = []
                for p in range(d):
                    acc = [Fraction(0)] * d
                    for k, c in w:
                        for m, cc in enumerate(t[p][k]):
                            acc[m] += c * cc
                    rows.append(tuple(acc))
                assert lhs.rows == tuple(rows)


def test_generic_matrix_is_symbolic_derivation():
    a = make_F2(5, {}, 1)
    assert is_derivation(a, derivation_space(a).generic_matrix())


def test_max_nil_independent_counts():
    assert max_nil_independent(derivation_space(make_F1(5, {}, 1))) == 1
    assert max_nil_independent(derivation_space(make_F2(5, {}, 1))) == 1
    assert max_nil_independent(derivation_space(abelian(3))) == 3


def test_max_nil_independent_f1s():
    for n, s in ((5, 3), (6, 4)):
        assert max_nil_independent(derivation_space(make_F1s(n, s))) == 1


def test_characteristically_nilpotent_detector():
    # alpha_3 = alpha_4 = 1 forces a_0 = a_1 = 0: every derivation nilpotent
    a = make_F1(5, {3: 1, 4: 1}, 0)
    space = derivation_space(a)
    assert max_nil_independent(space) == 0
    rng = random.Random(3)
    for _ in range(16):
        combo = mat_zeros(a.dim, a.dim)
        for mat in space.basis:
            weight = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            combo = mat_add(combo, mat_scaled(dense_matrix(mat, a.dim), weight))
        assert mat_is_nilpotent(combo)


def test_nonzero_count_iff_some_non_nilpotent():
    space = derivation_space(make_F1(5, {}, 1))
    assert max_nil_independent(space) > 0
    assert any(not mat_is_nilpotent(dense_matrix(m, 6)) for m in space.basis)


def test_naive_brute_force_oracle_matches():
    """Assemble the derivation system naively (all dim^2 unknowns, textbook
    elimination written here) and compare against derivation_space."""
    rng = random.Random(4)

    def oracle_nullspace_dim(rows, ncols):
        rows = [r[:] for r in rows if any(r)]
        basis = []
        for vec in rows:
            for bvec in basis:
                lead = next(i for i, c in enumerate(bvec) if c)
                if vec[lead]:
                    f = vec[lead] / bvec[lead]
                    vec = [a - f * b for a, b in zip(vec, bvec)]
            if any(vec):
                basis.append(vec)
        return ncols - len(basis)

    for _ in range(10):
        d = rng.randint(1, 4)
        tensor = tuple(tuple(tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.35 else Fraction(0)
                                   for _ in range(d)) for _ in range(d)) for _ in range(d))
        alg = from_dense(tuple(f"e{i}" for i in range(d)), tensor)
        rows = []
        for i in range(d):
            for j in range(d):
                for m in range(d):
                    row = [Fraction(0)] * (d * d)
                    for k in range(d):
                        row[k * d + m] += tensor[i][j][k]
                    for p in range(d):
                        row[i * d + p] -= tensor[p][j][m]
                    for q in range(d):
                        row[j * d + q] -= tensor[i][q][m]
                    rows.append(row)
        want = oracle_nullspace_dim(rows, d * d)
        space = derivation_space(alg)
        assert space.dimension == want
        for mat in space.basis:
            assert is_derivation(alg, mat)
