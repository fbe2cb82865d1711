"""Catalog of affine Dynkin diagrams as fusion-style adjacency matrices, and
identification of a candidate matrix against it up to simultaneous
row/column permutation.

Adjacency convention: A[i][j] is the multiplicity of node i in (V tensor
node j), so an entry > 1 is drawn as a multi-edge with the arrow pointing
to i.  The Cartan matrix is 2I - A.
"""
from __future__ import annotations

from .errors import DomainError


def _empty(k: int) -> list[list[int]]:
    return [[0] * k for _ in range(k)]


def _sym(A, i, j):
    A[i][j] = A[j][i] = 1


def adjacency(label_kind: str, rank: int = 0) -> list[list[int]]:
    """Adjacency matrix of an affine diagram by kind; rank is the subscript."""
    k = label_kind
    if k == "A1^1":
        return [[0, 2], [2, 0]]
    if k == "A^1":  # cycle, rank >= 2
        n = rank
        A = _empty(n + 1)
        for i in range(n + 1):
            _sym(A, i, (i + 1) % (n + 1))
        return A
    if k == "B^1":  # rank >= 3
        n = rank
        A = _empty(n + 1)
        _sym(A, 0, 2)
        _sym(A, 1, 2)
        for i in range(2, n - 1):
            _sym(A, i, i + 1)
        A[n][n - 1] = 2
        A[n - 1][n] = 1
        return A
    if k == "C^1":  # rank >= 2
        n = rank
        A = _empty(n + 1)
        A[1][0] = 2
        A[0][1] = 1
        for i in range(1, n - 1):
            _sym(A, i, i + 1)
        A[n - 1][n] = 2
        A[n][n - 1] = 1
        return A
    if k == "D^1":  # rank >= 4
        n = rank
        A = _empty(n + 1)
        _sym(A, 0, 2)
        _sym(A, 1, 2)
        for i in range(2, n - 2):
            _sym(A, i, i + 1)
        _sym(A, n - 1, n - 2)
        _sym(A, n, n - 2)
        return A
    if k in ("E6^1", "E7^1", "E8^1"):
        edges = {
            "E6^1": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)],
            "E7^1": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)],
            "E8^1": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)],
        }[k]
        A = _empty(len(edges) + 1)
        for i, j in edges:
            _sym(A, i, j)
        return A
    if k == "A2^2":
        return [[0, 4], [1, 0]]
    if k == "A_odd^2":  # A_{2n-1}^{(2)}, n >= 3: n+1 nodes
        n = rank  # rank = n here
        A = _empty(n + 1)
        _sym(A, 0, 2)
        _sym(A, 1, 2)
        for i in range(2, n - 1):
            _sym(A, i, i + 1)
        A[n - 1][n] = 2
        A[n][n - 1] = 1
        return A
    if k == "A_even^2":  # A_{2n}^{(2)}, n >= 2: n+1 nodes
        n = rank
        A = _empty(n + 1)
        A[0][1] = 2
        A[1][0] = 1
        for i in range(1, n - 1):
            _sym(A, i, i + 1)
        A[n - 1][n] = 2
        A[n][n - 1] = 1
        return A
    if k == "D^2":  # D_{n+1}^{(2)}: n+1 nodes (rank = n)
        n = rank
        A = _empty(n + 1)
        A[0][1] = 2
        A[1][0] = 1
        for i in range(1, n - 1):
            _sym(A, i, i + 1)
        A[n][n - 1] = 2
        A[n - 1][n] = 1
        return A
    if k == "E6^2":
        A = _empty(5)
        _sym(A, 0, 1)
        _sym(A, 1, 2)
        A[2][3] = 2
        A[3][2] = 1
        _sym(A, 3, 4)
        return A
    if k == "F4^1":
        A = _empty(5)
        _sym(A, 0, 1)
        _sym(A, 1, 2)
        A[3][2] = 2
        A[2][3] = 1
        _sym(A, 3, 4)
        return A
    if k == "D4^3":
        A = _empty(3)
        _sym(A, 0, 1)
        A[1][2] = 3
        A[2][1] = 1
        return A
    if k == "G2^1":
        A = _empty(3)
        _sym(A, 0, 1)
        A[2][1] = 3
        A[1][2] = 1
        return A
    raise DomainError(f"unknown diagram kind {label_kind!r}")


def catalog_for_size(size: int) -> list[tuple[str, list[list[int]]]]:
    """All catalog entries with the given node count, as (label, adjacency)."""
    out: list[tuple[str, list[list[int]]]] = []
    if size == 2:
        out.append(("A_1^(1)", adjacency("A1^1")))
        out.append(("A_2^(2)", adjacency("A2^2")))
        return out
    n = size - 1
    out.append((f"A_{n}^(1)", adjacency("A^1", n)))
    if n >= 3:
        out.append((f"B_{n}^(1)", adjacency("B^1", n)))
    if n >= 2:
        out.append((f"C_{n}^(1)", adjacency("C^1", n)))
    if n >= 4:
        out.append((f"D_{n}^(1)", adjacency("D^1", n)))
    if size == 7:
        out.append(("E_6^(1)", adjacency("E6^1")))
    if size == 8:
        out.append(("E_7^(1)", adjacency("E7^1")))
    if size == 9:
        out.append(("E_8^(1)", adjacency("E8^1")))
    if n >= 3:
        out.append((f"A_{2 * n - 1}^(2)", adjacency("A_odd^2", n)))
    if n >= 2:
        out.append((f"A_{2 * n}^(2)", adjacency("A_even^2", n)))
        out.append((f"D_{n + 1}^(2)", adjacency("D^2", n)))
    if size == 5:
        out.append(("F_4^(1)", adjacency("F4^1")))
        out.append(("E_6^(2)", adjacency("E6^2")))
    if size == 3:
        out.append(("G_2^(1)", adjacency("G2^1")))
        out.append(("D_4^(3)", adjacency("D4^3")))
    return out


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


def finite_type_of(affine_label: str) -> str:
    """Finite diagram left after deleting the trivial-module node."""
    mapping_exact = {
        "A_1^(1)": "A_1",
        "A_2^(2)": "A_1",
        "F_4^(1)": "F_4",
        "E_6^(2)": "F_4",
        "G_2^(1)": "G_2",
        "D_4^(3)": "G_2",
    }
    if affine_label in mapping_exact:
        return mapping_exact[affine_label]
    import re

    m = re.fullmatch(r"([A-G])_(\d+)\^\((\d)\)", affine_label)
    if not m:
        raise DomainError(f"cannot map {affine_label!r} to a finite type")
    letter, sub, twist = m.group(1), int(m.group(2)), int(m.group(3))
    if twist == 1:
        if letter == "A":
            return f"A_{sub}"
        if letter == "B":
            return f"B_{sub}"
        if letter == "C":
            return f"C_{sub}"
        if letter == "D":
            return f"D_{sub}"
        return f"{letter}_{sub}"
    if twist == 2:
        if letter == "A":  # A_{2n-1}^{(2)} -> C_n, A_{2n}^{(2)} -> C_n
            return f"C_{(sub + 1) // 2}"
        if letter == "D":  # D_{n+1}^{(2)} -> B_n
            return f"B_{sub - 1}"
    raise DomainError(f"cannot map {affine_label!r} to a finite type")
