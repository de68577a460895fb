"""Dense references for the tests.

The library stores an algebra only as its sparse product table. These helpers
give the tests the d x d x d structure tensor ``tensor[i][j][k]`` (the
coefficient of e_k in [e_i, e_j]) in both directions, the plain ``Fraction``
matrix action, product and zero test that the oracles compare the
integer-scaled library routines against, the matrix arithmetic the tests use
to combine derivations, the conversion between a dense ``Matrix`` and the
sparse rows of a basis change, and the per-triple Leibniz defect that the
library's sparse walk is compared against.
"""

from fractions import Fraction

from leibnizalg.algebra import Algebra, algebra_from_products
from leibnizalg.linalg import Matrix


def dense(alg: Algebra) -> tuple:
    """The structure tensor of ``alg`` as nested tuples of Fractions."""
    d = alg.dim
    tensor = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k, c in alg.table[i][j]:
                tensor[i][j][k] = c
    return tuple(tuple(tuple(cell) for cell in plane) for plane in tensor)


def from_dense(labels, tensor) -> Algebra:
    """The algebra whose structure tensor is ``tensor``."""
    products = {(i, j): list(enumerate(cell))
                for i, plane in enumerate(tensor) for j, cell in enumerate(plane)}
    return algebra_from_products(labels, products)


def mat_identity(n: int) -> Matrix:
    return Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))


def sparse_rows(mat: Matrix) -> tuple:
    """The basis-change form of ``mat``: row a lists the nonzero (i, c) of
    its row a, sorted by i."""
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in mat.rows)


def dense_matrix(rows, d: int) -> Matrix:
    """The d x d matrix of sparse rows."""
    out = [[Fraction(0)] * d for _ in rows]
    for a, row in enumerate(rows):
        for i, c in row:
            out[a][i] = Fraction(c)
    return Matrix(tuple(tuple(r) for r in out))


def mat_apply(mat: Matrix, vec) -> tuple:
    """Row-vector action: vec (length nrows) -> vec @ mat."""
    if len(vec) != mat.nrows:
        raise ValueError("vector length does not match matrix rows")
    return tuple(sum((vec[i] * mat.rows[i][j] for i in range(mat.nrows) if vec[i]), Fraction(0))
                 for j in range(mat.ncols))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    return Matrix(tuple(mat_apply(b, row) for row in a.rows))


def mat_is_zero(mat: Matrix) -> bool:
    return all(not e for row in mat.rows for e in row)


def mat_zeros(n: int, m: int) -> Matrix:
    return Matrix(tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n)))


def mat_scaled(mat: Matrix, c) -> Matrix:
    return Matrix(tuple(tuple(c * e for e in r) for r in mat.rows))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a.rows, b.rows)))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a.rows, b.rows)))


def leibniz_defect(prods, i: int, j: int, k: int, zero) -> list:
    """Coordinates of [[b_i,b_j],b_k] - [[b_i,b_k],b_j] - [b_i,[b_j,b_k]] on a
    product table, one triple at a time, as a dense list started at ``zero``."""
    out = [zero] * len(prods)
    for m, c in prods[i][j]:  # [[bi,bj],bk]
        for t, c2 in prods[m][k]:
            out[t] = out[t] + c * c2
    for m, c in prods[i][k]:  # -[[bi,bk],bj]
        for t, c2 in prods[m][j]:
            out[t] = out[t] - c * c2
    for m, c in prods[j][k]:  # -[bi,[bj,bk]]
        for t, c2 in prods[i][m]:
            out[t] = out[t] - c * c2
    return out


def dense_leibniz_defects(prods, zero) -> list:
    """((i, j, k), {t: c}) for every triple with a nonzero defect, in lex
    order, from the per-triple loop over all d^3 triples."""
    d = len(prods)
    found = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                defect = leibniz_defect(prods, i, j, k, zero)
                nonzero = {t: c for t, c in enumerate(defect) if c}
                if nonzero:
                    found.append(((i, j, k), nonzero))
    return found
