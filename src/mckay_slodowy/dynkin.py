"""The catalog of affine Dynkin diagrams, one table row per family: label,
ranks, edges, finite part and exponents.  Also the finite types' exponents,
and identification of a candidate matrix against the catalog up to
simultaneous row/column permutation.

Adjacency convention: A[i][j] is the multiplicity of node i in (V tensor
node j), so an entry > 1 is drawn as a multi-edge with the arrow pointing
to i.  The Cartan matrix is 2I - A.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError

INF = math.inf


class Family(NamedTuple):
    """One row of the affine catalog.  n is the rank: the diagram has n + 1
    nodes, node 0 the trivial one."""

    kind: str  # the adjacency key
    letter: str
    twist: int
    sub: tuple[int, int]  # (a, b): the label's subscript is a*n + b
    ranks: tuple[int, float]  # the ranks identify lists it at
    edges: Callable[[int], list[tuple[int, int, int, int]]]  # (i, j, A[i][j], A[j][i])
    # (rank range, n -> (exponents, Coxeter number)), or None for no data
    exponents: tuple[tuple[int, float], Callable] | None = None
    finite: str | None = None  # letter of the finite part (node 0 deleted), rank n
    asserted: bool = False  # whether char(A) = prod (t - 2cos(m pi / h)) is asserted

    def label(self, n: int) -> str:
        a, b = self.sub
        return f"{self.letter}_{a * n + b}^({self.twist})"

    def exponent_rank(self, sub: int) -> int | None:
        """The rank n with subscript sub, if it is in the exponent range."""
        if self.exponents is None:
            return None
        (low, high), _ = self.exponents
        a, b = self.sub
        n = (sub - b) // a if a else low
        return n if a * n + b == sub and low <= n <= high else None


def _path(start, end):
    """The edges of a path 0..n whose two ends are each a fork (None: nodes
    0 and 1 on node 2, or n - 1 and n on node n - 2) or one weighted edge
    (x, y): A[0][1], A[1][0] = x, y at the start, A[n-1][n], A[n][n-1] = x, y
    at the end."""

    def edges(n):
        out = [(i, i + 1, 1, 1) for i in range(1, n - 1)]
        out.append((0, 2, 1, 1) if start is None else (0, 1, *start))
        out.append((n - 2, n, 1, 1) if end is None else (n - 1, n, *end))
        return out

    return edges


def _fixed(*edges):
    """The edges of a one-rank diagram; a pair (i, j) is a simple edge."""
    out = [e if len(e) == 4 else (*e, 1, 1) for e in edges]
    return lambda n: out


def _b_exponents(n: int) -> tuple[tuple[int, ...], int]:
    if n % 2:  # B_{2l+1}: 0..2l and l twice
        return tuple(sorted([*range(n), n // 2])), n - 1
    # B_{2l}: the evens below 2l - 1, 2l - 1, the evens from 2l to 4l - 2
    return (*range(0, n - 1, 2), n - 1, *range(n, 2 * n - 1, 2)), 2 * (n - 1)


def _c_exponents(n: int) -> tuple[tuple[int, ...], int]:
    return tuple(range(0, n + 1)), n


def _f4_exponents(n: int) -> tuple[tuple[int, ...], int]:
    return (0, 2, 3, 4, 6), 6


def _g2_exponents(n: int) -> tuple[tuple[int, ...], int]:
    return (0, 1, 2), 2


# One row per affine family, in the order identify tries them.  A row starts
# at the rank where it stops coinciding with an earlier one (B_2^(1) = C_2^(1),
# A_3^(2) = D_3^(2), C_1^(1) = A_1^(1), ...); its exponent range may start
# lower, since those labels name the same diagram, but not to where the formula
# degenerates (B_1^(1) would give exponents (0, 0), Coxeter number 0).
# A_{2n-1}^(2) shares the exponents of B_n^(1); A_{2n}^(2) and D_{n+1}^(2)
# share those of C_n^(1).  The 2cos row is asserted where its convention is
# unambiguous.
FAMILIES = (
    Family("A1^1", "A", 1, (1, 0), (1, 1), _fixed((0, 1, 2, 2)),
           ((1, 1), lambda n: ((0, 1), 1)), "A"),
    Family("A2^2", "A", 2, (2, 0), (1, 1), _fixed((0, 1, 4, 1)),
           ((1, 1), lambda n: ((0, 2), 2)), "A"),
    Family("A^1", "A", 1, (1, 0), (2, INF),
           lambda n: [(i, (i + 1) % (n + 1), 1, 1) for i in range(n + 1)]),
    Family("B^1", "B", 1, (1, 0), (3, INF), _path(None, (1, 2)),
           ((2, INF), _b_exponents), "B", True),
    Family("C^1", "C", 1, (1, 0), (2, INF), _path((1, 2), (2, 1)),
           ((1, INF), _c_exponents), "C", True),
    Family("D^1", "D", 1, (1, 0), (4, INF), _path(None, None)),
    Family("E6^1", "E", 1, (1, 0), (6, 6), _fixed((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6))),
    Family("E7^1", "E", 1, (1, 0), (7, 7),
           _fixed((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))),
    Family("E8^1", "E", 1, (1, 0), (8, 8),
           _fixed((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))),
    Family("A_odd^2", "A", 2, (2, -1), (3, INF), _path(None, (2, 1)),
           ((2, INF), _b_exponents), "C", True),
    Family("A_even^2", "A", 2, (2, 0), (2, INF), _path((2, 1), (2, 1)),
           ((2, INF), _c_exponents), "C"),
    Family("D^2", "D", 2, (1, 1), (2, INF), _path((2, 1), (1, 2)),
           ((1, INF), _c_exponents), "B", True),
    Family("F4^1", "F", 1, (1, 0), (4, 4), _fixed((0, 1), (1, 2), (2, 3, 1, 2), (3, 4)),
           ((4, 4), _f4_exponents), "F", True),
    Family("E6^2", "E", 2, (0, 6), (4, 4), _fixed((0, 1), (1, 2), (2, 3, 2, 1), (3, 4)),
           ((4, 4), _f4_exponents), "F", True),
    Family("G2^1", "G", 1, (1, 0), (2, 2), _fixed((0, 1), (1, 2, 1, 3)),
           ((2, 2), _g2_exponents), "G", True),
    Family("D4^3", "D", 3, (0, 4), (2, 2), _fixed((0, 1), (1, 2, 3, 1)),
           ((2, 2), _g2_exponents), "G", True),
)
_BY_KIND = {row.kind: row for row in FAMILIES}


def _bc_exponents(n: int) -> tuple[tuple[int, ...], int]:
    return tuple(range(1, 2 * n, 2)), 2 * n


# The finite types: letter -> (rank range, n -> (exponents, Coxeter number)).
FINITE = {
    "A": ((1, INF), lambda n: (tuple(range(1, n + 1)), n + 1)),
    "B": ((1, INF), _bc_exponents),
    "C": ((1, INF), _bc_exponents),
    "D": ((2, INF), lambda n: (tuple(sorted([*range(1, 2 * n - 2, 2), n - 1])), 2 * n - 2)),
    "E": ((6, 8), lambda n: {
        6: ((1, 4, 5, 7, 8, 11), 12),
        7: ((1, 5, 7, 9, 11, 13, 17), 18),
        8: ((1, 7, 11, 13, 17, 19, 23, 29), 30),
    }[n]),
    "F": ((4, 4), lambda n: ((1, 5, 7, 11), 12)),
    "G": ((2, 2), lambda n: ((1, 5), 6)),
}


def adjacency(label_kind: str, rank: int = 0) -> list[list[int]]:
    """Adjacency matrix of an affine diagram by kind (a FAMILIES key) and
    rank n, the node count less one; a one-rank kind ignores the rank."""
    row = _BY_KIND.get(label_kind)
    if row is None:
        raise DomainError(f"unknown diagram kind {label_kind!r}")
    low, high = row.ranks
    if low == high:
        rank = low
    elif rank < low:
        raise DomainError(f"{label_kind} needs rank >= {low}")
    A = [[0] * (rank + 1) for _ in range(rank + 1)]
    for i, j, x, y in row.edges(rank):
        A[i][j], A[j][i] = x, y
    return A


def catalog_for_size(size: int) -> list[tuple[str, list[list[int]]]]:
    """All catalog entries with the given node count, as (label, adjacency)."""
    n = size - 1
    return [
        (row.label(n), adjacency(row.kind, n))
        for row in FAMILIES
        if row.ranks[0] <= n <= row.ranks[1]
    ]


def _isomorphic(A: list[list[int]], B: list[list[int]]) -> bool:
    """Whether B is A up to simultaneous row/column permutation: backtracking
    over the nodes of A in breadth-first order from node 0, candidates pruned
    by their (sorted row, sorted column) signature and by the entries to the
    nodes already matched."""
    k = len(A)
    if len(B) != k:
        return False

    def signatures(M):
        return [(sorted(M[i]), sorted(M[j][i] for j in range(k))) for i in range(k)]

    sig_a, sig_b = signatures(A), signatures(B)
    if sorted(sig_a) != sorted(sig_b):
        return False
    order = [0]
    for i in order:
        order += [j for j in range(k) if (A[i][j] or A[j][i]) and j not in order]
    order += [j for j in range(k) if j not in order]
    image: dict[int, int] = {}

    def extend(depth: int) -> bool:
        if depth == k:
            return True
        i = order[depth]
        for j in range(k):
            if j in image.values() or sig_b[j] != sig_a[i]:
                continue
            if all(A[i][a] == B[j][b] and A[a][i] == B[b][j] for a, b in image.items()):
                image[i] = j
                if extend(depth + 1):
                    return True
                del image[i]
        return False

    return extend(0)


def identify(A: list[list[int]]) -> str:
    """Affine type of the adjacency matrix up to simultaneous permutation,
    or "unrecognized"."""
    k = len(A)
    if any(A[i][i] for i in range(k)):
        return "unrecognized"
    for label, cand in catalog_for_size(k):
        if _isomorphic(A, cand):
            return label
    return "unrecognized"
