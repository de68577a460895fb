"""Row-reduction kernel: fraction-free Gauss-Jordan elimination over the integers.

Entries stay integers throughout (Bareiss exact division), so callers can run
exact rational reduction without ever constructing Fraction objects inside
the O(rank * rows * cols) loop.
"""

from __future__ import annotations


def rref_int(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Reduce integer rows in place to fraction-free reduced row echelon form.

    Pivot order is deterministic: columns left to right, first remaining row
    with a nonzero entry. On return the first ``len(pivots)`` rows carry the
    reduced rows, every pivot entry equals the returned ``denom`` (the final
    Bareiss pivot, possibly negative), all other entries of pivot columns are
    zero, and remaining rows are zero. The rational RREF is ``row / denom``.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    t = 0
    for c in range(ncols):
        sel = -1
        for r in range(t, nrows):
            if rows[r][c] != 0:
                sel = r
                break
        if sel < 0:
            continue
        if sel != t:
            rows[sel], rows[t] = rows[t], rows[sel]
        piv_row = rows[t]
        p = piv_row[c]
        for r in range(nrows):
            if r == t:
                continue
            row = rows[r]
            f = row[c]
            if f == 0:
                if p != prev:
                    for j in range(ncols):
                        if row[j]:
                            row[j] = row[j] * p // prev
                continue
            for j in range(ncols):
                row[j] = (row[j] * p - f * piv_row[j]) // prev
        prev = p
        pivots.append(c)
        t += 1
    return pivots, prev
