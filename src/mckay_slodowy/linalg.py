"""Small exact linear algebra over the rationals: the rank of a matrix, by
one fraction-free elimination in integers."""
from __future__ import annotations

from math import gcd, lcm


def _eliminate(rows) -> tuple[list[list[int]], list[int]]:
    """Forward elimination of a rational matrix, kept in integers: (echelon
    rows, pivot column indices).

    Each row is scaled to integers (which leaves its row space alone).  A row
    meeting the pivot column becomes pv * row - f * pivot_row, divided by its
    content.  Rows that miss the pivot column are left alone, so sparse
    systems stay cheap."""
    out = []
    for vals in rows:  # ints and Fractions
        d = lcm(1, *(v.denominator for v in vals))
        out.append([v.numerator * (d // v.denominator) for v in vals])
    m = len(out)
    n = len(out[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if out[i][c]), None)
        if p is None:
            continue
        out[r], out[p] = out[p], out[r]
        top = out[r]
        pv = top[c]
        for i in range(r + 1, m):
            row = out[i]
            f = row[c]
            if f:
                new = [pv * a - f * b for a, b in zip(row, top)]
                g = gcd(*new)
                out[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return out, pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])

