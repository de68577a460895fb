"""Dense references for the tests.

The library stores an algebra only as its sparse product table, and a vector
or a linear map only in sparse rows. These helpers give the tests the
d x d x d structure tensor ``tensor[i][j][k]`` (the coefficient of e_k in
[e_i, e_j]) in both directions, a dense ``Matrix`` with the plain
``Fraction`` (or ``Poly``) action, product, zero test and nilpotency test
that the oracles compare the integer-scaled library routines against, the
matrix arithmetic the tests use to combine derivations, the conversion
between dense vectors or matrices and sparse rows, the ``Fraction`` inverse
of a map in sparse rows (``sparse_inverse``), the dense bracket
``table_bracket`` that ``algebra.bracket`` is compared against, subspace
containment for the series tests, and the per-triple
Leibniz defect that the library's sparse walk is compared against. The
derivation space from dense ``Fraction`` rows of the derivation equation,
the annihilator span from dense brackets, and the constraint equations from
dense unit vectors through a bracket loop are the references for the sparse
constructions of the extension problem. The right-annihilator coordinates
[e_p, [u, v] + [v, u]] that the constraint system leaves out, and an exact
linear-span test over monomial coordinates, check that the defects imply
them.
"""

from dataclasses import dataclass
from fractions import Fraction

from leibnizalg.algebra import Algebra, algebra_from_products, product_table
from leibnizalg.linalg import int_inverse, nullspace, rank, rref, scale_to_integers


@dataclass(frozen=True)
class Matrix:
    """A dense rectangular matrix: a tuple of equal-length rows of
    Fractions or Polys."""

    rows: tuple

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


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


def sparse(vec) -> tuple:
    """The sparse row of a dense vector: its nonzero (i, c), sorted by i."""
    return tuple((i, c) for i, c in enumerate(vec) if c)


def sparse_rows(mat) -> tuple:
    """The library's form of a dense matrix (a ``Matrix`` or a sequence of
    rows): row a lists the nonzero (i, c) of its row a, sorted by i."""
    return tuple(map(sparse, mat.rows if isinstance(mat, Matrix) else mat))


def sparse_inverse(rows) -> tuple:
    """The inverse of an invertible map in sparse rows, with ``Fraction``
    entries: ``int_inverse`` divided by its den (ValueError when singular)."""
    inverse, den = int_inverse(rows)
    return tuple(tuple((c, Fraction(x, den)) for c, x in row) for row in inverse)


def dense_matrix(rows, d: int, zero=Fraction(0)) -> Matrix:
    """The d-column matrix of sparse rows, ``zero`` in the gaps."""
    out = [[zero] * d for _ in rows]
    for a, row in enumerate(rows):
        for i, c in row:
            out[a][i] = c
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


def mat_is_nilpotent(mat: Matrix) -> bool:
    """M^d == 0 for a d x d Fraction matrix, by powering in Fractions."""
    power = mat_identity(mat.nrows)
    for _ in range(mat.nrows):
        power = mat_mul(power, mat)
    return mat_is_zero(power)


def mat_int_rows(mat: Matrix) -> list:
    """The rows of a Fraction matrix times the common denominator of its
    entries, as lists of ints."""
    ints, _ = scale_to_integers([e for row in mat.rows for e in row])
    return [ints[a * mat.ncols:(a + 1) * mat.ncols] for a in range(mat.nrows)]


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


def derivation_equations(alg: Algebra):
    """The derivation equation d([e_i,e_j]) = [d(e_i),e_j] + [e_i,d(e_j)], one
    coordinate m at a time, in the order of (i, j, m). Each equation is a pair
    (lhs, rhs) of sparse linear terms ((r*dim + s, c), ...) over the flat
    entries of d, whose row r is the image of e_r; a side may repeat an index
    or be empty."""
    d = alg.dim
    prods = alg.table
    for i in range(d):
        for j in range(d):
            lhs = [[] for _ in range(d)]
            rhs = [[] for _ in range(d)]
            for k, c in prods[i][j]:  # d([ei,ej])
                for m in range(d):
                    lhs[m].append((k * d + m, c))
            for p in range(d):
                for m, c in prods[p][j]:  # [d(ei),ej]
                    rhs[m].append((i * d + p, c))
                for m, c in prods[i][p]:  # [ei,d(ej)]
                    rhs[m].append((j * d + p, c))
            yield from zip(lhs, rhs)


def dense_derivation_space(alg: Algebra) -> tuple:
    """(basis, param_names) of the derivation space from dense d^2-entry
    Fraction rows of the derivation equation and ``linalg.nullspace``, each
    basis map in sparse rows and named ``tRRcCC`` after its leading entry."""
    d = alg.dim
    rows = []
    for lhs, rhs in derivation_equations(alg):
        row = [0] * (d * d)
        for idx, c in lhs:
            row[idx] += c
        for idx, c in rhs:
            row[idx] -= c
        if any(row):
            rows.append(row)
    vecs = dense_matrix(nullspace(map(sparse, rows), d * d), d * d).rows
    basis = tuple(tuple(sparse(v[i * d:(i + 1) * d]) for i in range(d)) for v in vecs)
    names = []
    for vec in vecs:
        lead = next(i for i, c in enumerate(vec) if c)
        names.append(f"t{lead // d:02d}c{lead % d:02d}")
    return basis, tuple(names)


def dense_annihilator_span(alg: Algebra) -> tuple:
    """RREF basis of the span of [e_i, e_j] + [e_j, e_i] (i <= j), each
    bracket read off the structure tensor."""
    t, d = dense(alg), alg.dim
    vecs = [[t[i][j][k] + t[j][i][k] for k in range(d)] for i in range(d) for j in range(i, d)]
    return rref(map(sparse, vecs))[0]


def subspace_contains(big, small) -> bool:
    """Whether the ``Subspace`` ``small`` lies inside ``big``."""
    return all(big.contains(v) for v in small.basis)


def table_bracket(prods, u, v, zero) -> list:
    """Coordinates of [u, v] for dense coordinate vectors over a product
    table, started at ``zero``."""
    out = [zero] * len(prods)
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = prods[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            uv = ui * vj
            for k, c in row[j]:
                out[k] = out[k] + uv * c
    return out


def _extended_table(problem):
    """The product table of N + <x> built from the problem's parts, x last."""
    N = problem.nilradical
    d = N.dim
    products = {(i, j): N.table[i][j] for i in range(d) for j in range(d)}
    for i in range(d):
        products[i, d] = problem.template[i]
        products[d, i] = problem.unknown_rows[i]
    products[d, d] = problem.square_row
    return product_table(products, d + 1)


def dense_constraints(problem, hypotheses=()) -> tuple:
    """The equations of ``generate_constraints(problem, hypotheses)``, in its
    order, from dense loops: the Leibniz defect of every triple with an x,
    then the hypotheses; each content-normalized, zeros and repeats
    dropped."""
    d, ring = problem.nilradical.dim, problem.ring
    equations = {}

    def add(polys):
        for p in polys:
            if p:
                equations.setdefault(p.content_normalized(), None)

    for (p, q, r), defect in dense_leibniz_defects(_extended_table(problem), ring.zero):
        if max(p, q, r) == d:
            add(defect.values())
    for h in hypotheses:
        assert h.ring is ring
        add((h,))
    return tuple(equations)


def dense_annihilator_coordinates(problem) -> list:
    """The nonzero coordinates of [e_p, s] for every unit vector e_p and
    every nonzero dense s = [u, v] + [v, u] with an x among u, v: the
    right-annihilator equations, which the Leibniz defects imply."""
    d, ring = problem.nilradical.dim, problem.ring
    m, zero = d + 1, ring.zero
    table = _extended_table(problem)
    coords = []
    for q in range(m):
        for r in range(max(q, d), m):
            sym = [zero] * m
            for k, c in table[q][r] + table[r][q]:
                sym[k] = sym[k] + c
            if any(sym):
                for p in range(m):
                    coords.extend(c for c in table_bracket(table, [int(i == p) for i in range(m)], sym, zero) if c)
    return coords


def in_linear_span(polys, span) -> bool:
    """Whether every Poly of ``polys`` is a rational linear combination of
    the Polys of ``span``: each monomial is a coordinate, and adding the
    polys to the span's exact RREF must not raise its rank."""
    cols = {}

    def row(p):
        return [(cols.setdefault(mono, len(cols)), c) for mono, c in p.terms()]

    base = [row(p) for p in span]
    return rank(base) == rank(base + [row(p) for p in polys])
