"""Row-reduction kernel: sparse fraction-free Gauss-Jordan over the integers.

A row is a ``{col: int}`` dict of its nonzero entries. Forward elimination
takes the sparsest rows first (few nonzeros means little fill-in, in the
spirit of Markowitz pivoting) and reduces each against the pivot rows found
so far; a row that survives becomes a pivot row on its leading column.
Back-substitution then clears every pivot column above its pivot. Every
combination is ``a * row - b * pivot_row`` with a, b divided by their gcd,
and the result is divided by its content, so the entries stay coprime
integers and no Fraction is built inside the loop. Only nonzero entries are
ever touched.
"""

from __future__ import annotations

from math import gcd


def _combine(row: dict, piv: dict, col: int) -> dict:
    """The primitive integer multiple of ``row * piv[col] - piv * row[col]``,
    whose entry in ``col`` is zero."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, y in piv.items():
        x = out.get(c, 0) - b * y
        if x:
            out[c] = x
        else:
            del out[c]
    content = gcd(*out.values())
    if content > 1:
        out = {c: x // content for c, x in out.items()}
    return out


def rref_int(rows: list[dict]) -> list[dict]:
    """The reduced row echelon form of the span of sparse integer rows.

    Returns one row per pivot, sorted by pivot column; each is primitive
    (coprime entries) with a positive leading entry and zeros in every other
    pivot column. The rational RREF row is the row divided by its leading
    entry. Zero rows are allowed and ignored.
    """
    pivots: dict = {}  # leading column -> pivot row
    for row in sorted(rows, key=len):
        # clearing pivot column c brings in only columns right of c, so
        # taking the leftmost pivot column each time clears each one once
        c = min(filter(pivots.__contains__, row), default=None)
        while c is not None:
            row = _combine(row, pivots[c], c)
            c = min(filter(pivots.__contains__, row), default=None)
        if row:
            lead = min(row)
            if row[lead] < 0:
                row = {c: -x for c, x in row.items()}
            pivots[lead] = row
    order = sorted(pivots)
    for i in range(len(order) - 1, -1, -1):
        c = order[i]
        piv = pivots[c]
        for p in order[:i]:
            if c in pivots[p]:
                pivots[p] = _combine(pivots[p], piv, c)
    return [pivots[c] for c in order]
