"""Dense references for the tests.

The library stores an algebra only as its sparse product table. These helpers
give the tests the d x d x d structure tensor ``tensor[i][j][k]`` (the
coefficient of e_k in [e_i, e_j]) in both directions, and the plain
``Fraction`` matrix action, product and zero test that the oracles compare
the integer-scaled library routines against.
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
