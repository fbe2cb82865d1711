from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay_slodowy.linalg import rank
from oracles import solve_exact


def _echelon(rows):
    """Oracle: Gauss-Jordan reduction over Fractions, returning (reduced
    rows, pivot column indices)."""
    rows = [[Fraction(x) for x in r] for r in rows]
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


def gauss_jordan_solve(rows, rhs):
    """Oracle for solve_exact: Gauss-Jordan elimination over Fractions."""
    n = len(rows[0])
    red, pivots = _echelon([[Fraction(a) for a in r] + [Fraction(b)] for r, b in zip(rows, rhs)])
    if n in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < n:
        raise ValueError("underdetermined linear system")
    return [red[i][n] for i in range(n)]


_ENTRY = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def systems(draw):
    """A x = b with n unknowns and n..n+3 equations; some rows repeat or are
    zero, so singular and inconsistent systems occur too."""
    n = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.integers(min_value=n, max_value=n + 3))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        kind = draw(st.sampled_from(["free", "free", "copy", "zero"]))
        if kind == "copy" and i:
            rows[i] = list(rows[draw(st.integers(min_value=0, max_value=i - 1))])
        elif kind == "zero":
            rows[i] = [0] * n
    x = [draw(_ENTRY) for _ in range(n)]
    rhs = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]
    if draw(st.booleans()):
        rhs[draw(st.integers(min_value=0, max_value=m - 1))] += 1
    return rows, rhs


@settings(max_examples=80, deadline=None)
@given(systems())
def test_fraction_free_solve_matches_gauss_jordan(system):
    rows, rhs = system
    try:
        want = gauss_jordan_solve(rows, rhs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            solve_exact(rows, rhs)
        return
    got = solve_exact(rows, rhs)
    assert got == want
    assert all(type(v) is Fraction for v in got)


def test_solve_exact_examples():
    assert solve_exact([[2, 1], [1, 3]], [3, 5]) == [Fraction(4, 5), Fraction(7, 5)]
    assert solve_exact([[Fraction(1, 2)], [1]], [1, 2]) == [2]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_exact([[1], [1]], [1, 2])
    with pytest.raises(ValueError, match="underdetermined"):
        solve_exact([[1, 1], [2, 2]], [1, 2])


@settings(max_examples=40, deadline=None)
@given(systems())
def test_fraction_free_rank_matches_gauss_jordan(system):
    rows, rhs = system
    assert rank(rows) == len(_echelon(rows)[1])
    augmented = [[*row, b] for row, b in zip(rows, rhs)]
    assert rank(augmented) == len(_echelon(augmented)[1])
    transposed = [list(col) for col in zip(*rows)]
    assert rank(transposed) == rank(rows)


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]) == 2
