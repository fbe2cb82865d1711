"""Small exact linear algebra over the rationals (Gaussian elimination)."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]


def _echelon(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Row-reduce in place, returning (echelon rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(rows: Matrix) -> int:
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def solve_exact(rows: Matrix, rhs: list[Fraction]) -> list[Fraction]:
    """Solve A x = b exactly.  A may have more rows than columns; the system
    must be consistent and determine x uniquely, else ValueError.

    Each equation is scaled to integers (which leaves x alone) and the
    elimination stays in integers: a row meeting the pivot column becomes
    pv * row - f * pivot_row, divided by its content.  Rows that miss the
    pivot column are left alone, so sparse systems stay cheap.  Fractions
    appear only in the back substitution."""
    m = len(rows)
    n = len(rows[0])
    aug = []
    for row, b in zip(rows, rhs):
        vals = [*row, b]  # ints and Fractions
        d = lcm(1, *(v.denominator for v in vals))
        aug.append([v.numerator * (d // v.denominator) for v in vals])
    pivots: list[int] = []
    r = 0
    for c in range(n + 1):
        p = next((i for i in range(r, m) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        top = aug[r]
        pv = top[c]
        for i in range(r + 1, m):
            row = aug[i]
            f = row[c]
            if f:
                new = [pv * a - f * b for a, b in zip(row, top)]
                g = gcd(*new)
                aug[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == m:
            break
    if n in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < n:
        raise ValueError("underdetermined linear system")
    # pivots == [0, ..., n-1]: rows 0..n-1 are upper triangular
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n) if row[j])) / Fraction(row[i])
    return x


def nullspace(rows: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel of A."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = _echelon(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return basis
