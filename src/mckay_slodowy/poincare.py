"""Poincare series of tensor-algebra multiplicities for a normal pair:
coefficient streams by the fusion-matrix recursion, rational closed
forms by Cramer's rule over integer polynomial matrices, the product
formula for the common denominator, and the relations between the
restriction-side and induction-side series.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cache
from itertools import islice
from operator import mul

from .characters import Character, ClassFunction, table
from .errors import CheckFailure, DomainError
from .groups import PAIRS, NormalPair
# SIDES is re-exported: the side names the series functions take
from .mckay import (
    SIDES, FusionData, character_product, characteristic_identity_check, default_module,
    fusion_matrices, side_recurrence,
)
from .polynomials import IntPoly, poly_gcd
from .record import Record


def _side_matrix(data: FusionData, side: str, vertex: int = 0):
    M = data.side(side)[0]
    # the series identities need Hom(-, V ox W) = Hom(V ox -, W), i.e. V = V*
    _require_self_dual(data.V)
    if type(vertex) is not int or not 0 <= vertex < len(M):
        raise DomainError(f"vertex {vertex} out of range for size {len(M)}")
    return M


def _checked_count(name: str, value) -> int:
    if type(value) is not int or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, not {value!r}")
    return value


class RationalSeries:
    """numerator/denominator in Z[t] (reduced, denominator constant term 1),
    and nothing else: each read of coefficients runs the recurrence."""

    def __init__(self, numerator: IntPoly, denominator: IntPoly):
        if denominator.is_zero() or denominator[0] == 0:
            raise DomainError("denominator must have nonzero constant term")
        g = poly_gcd(numerator, denominator)
        if g.degree >= 1:
            numerator = numerator.divmod_exact(g)
            denominator = denominator.divmod_exact(g)
        if denominator[0] == -1:
            numerator, denominator = -numerator, -denominator
        if denominator[0] != 1:
            raise DomainError(
                f"denominator constant term {denominator[0]} cannot be normalized to 1"
            )
        self.numerator = numerator
        self.denominator = denominator

    def coefficient(self, k: int) -> int:
        return self.coefficients(_checked_count("k", k) + 1)[k]

    def coefficients(self, count: int) -> list[int]:
        # c_k = a_k - sum_{i >= 1} d_i c_(k-i), from numerator = denominator * series
        d, out = self.denominator, []
        for k in range(_checked_count("count", count)):
            acc = self.numerator[k]
            for i in range(1, min(k, d.degree) + 1):
                acc -= d[i] * out[k - i]
            out.append(acc)
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def scaled(self, c: int) -> "RationalSeries":
        return RationalSeries(c * self.numerator, self.denominator)

    def __repr__(self):
        return f"({self.numerator.pretty()}) / ({self.denominator.pretty()})"

    def to_json(self) -> dict:
        return {
            "numerator": list(self.numerator.coeffs),
            "denominator": list(self.denominator.coeffs),
        }


class MultiplicityVector(Record):
    """All basis-member multiplicities inside V^(tensor k), one integer per
    basis index."""

    k: int
    values: tuple[int, ...]


def _recursion_vectors(M, K: int):
    """c_0 = e_0, then c_k = M^T c_{k-1} for k = 1..K (exact integers)."""
    size = len(M)
    c = [0] * size
    c[0] = 1
    yield c
    for _ in range(K):
        c = [sum(M[j][i] * c[j] for j in range(size)) for i in range(size)]
        yield c


def multiplicity_vector(data: FusionData, side: str, k: int) -> MultiplicityVector:
    """The k-th recursion vector c_k = (M^T)^k e_0, exact integers."""
    c = deque(_recursion_vectors(_side_matrix(data, side), _checked_count("k", k)), maxlen=1).pop()
    return MultiplicityVector(k, tuple(c))


def series_recursion(data: FusionData, side: str, vertex: int, K: int) -> list[int]:
    """First K+1 multiplicity coefficients by iterating c_k = M^T c_{k-1}
    from the unit vector at index 0 (exact integers)."""
    M = _side_matrix(data, side, vertex)
    return [c[vertex] for c in _recursion_vectors(M, _checked_count("K", K))]


def series_cramer(data: FusionData, side: str, vertex: int) -> RationalSeries:
    """Closed form by Cramer's rule on (I - tM^T) c = e_0: the numerator is
    det of (I - tM^T) with the vertex column replaced by the unit vector,
    i.e. entry (vertex, 0) of adj(I - tM^T), over det(I - tM^T).  Both come
    from the side's one Faddeev-LeVerrier run (mckay.side_recurrence)."""
    _side_matrix(data, side, vertex)
    den, numerators = side_recurrence(data, side)
    return RationalSeries(numerators[vertex], IntPoly(den))


def denominator_product(pair: NormalPair, V: Character | None = None) -> IntPoly:
    """prod over g in Upsilon(N) of (1 - chi_V(g) t), expanded exactly; the
    coefficients must come out rational integers."""
    if V is None:
        V = default_module(pair)
    _require_self_dual(V)
    return IntPoly(character_product(pair, V))


@cache
def _require_self_dual(V: Character) -> None:
    """Raise unless V = V*; once per V (a failed check is not memoised)."""
    if any(v != v.conj() for v in V.values):
        raise DomainError(
            f"module {V.label} is not self-dual (character is not real-valued)"
        )


def denominator_identity_check(pair: NormalPair, V: Character | None = None) -> IntPoly:
    """det(I - t A^T) == det(I - t B^T) == prod (1 - chi_V(g) t), exactly: the
    characteristic identity read backwards, since all three lists have
    |Upsilon(N)| + 1 coefficients (the bases check that size) and constant
    term 1."""
    data = fusion_matrices(pair, V)
    _require_self_dual(data.V)
    characteristic_identity_check(data)
    return IntPoly(side_recurrence(data, "restriction")[0])


DEFAULT_BRUTE_FORCE_BOUND = 20


def brute_force_multiplicity(
    data: FusionData, side: str, vertex: int, k: int, bound: int = DEFAULT_BRUTE_FORCE_BOUND
) -> int:
    """dim Hom(basis member, V^(tensor k)) summed over the member's irreducible
    constituents, straight from the character inner products: chi_V^k is
    decomposed once and dotted with the member's constituent vector."""
    if _checked_count("k", k) > bound:
        raise DomainError(f"tensor power {k} exceeds the bound {bound}")
    _side_matrix(data, side, vertex)
    tbl, powers, mult_vectors = _brute_force_side(data, side)
    constituents = tbl.decompose(next(islice(powers, k, None)))
    return sum(map(mul, constituents, mult_vectors[vertex]))


def brute_force_series(
    data: FusionData, side: str, K: int, bound: int = DEFAULT_BRUTE_FORCE_BOUND
) -> list[list[int]]:
    """brute_force_multiplicity for every vertex and every k = 0..K, one list
    per vertex; each power chi_V^k is computed and decomposed once for all
    of them."""
    if _checked_count("K", K) > bound:  # name the first power out of reach, as the single-k entry point does
        raise DomainError(f"tensor power {bound + 1} exceeds the bound {bound}")
    tbl, powers, mult_vectors = _brute_force_side(data, side)
    out: list[list[int]] = [[] for _ in mult_vectors]
    for power in islice(powers, K + 1):
        constituents = tbl.decompose(power)
        for series, mults in zip(out, mult_vectors):
            series.append(sum(map(mul, constituents, mults)))
    return out


def _brute_force_side(data: FusionData, side: str):
    """(the side's table, the powers chi_V^0, chi_V^1, ... on its group as
    lifted class functions, constituent multiplicities of each basis member)."""
    _require_self_dual(data.V)
    _, basis, chi_v = data.side(side)
    return table(chi_v.group), _powers(chi_v), basis.mult_vectors


def _powers(chi: ClassFunction):
    """chi^0, chi^1, chi^2, ...: each the previous times chi, a lifted product."""
    power = ClassFunction(chi.group, [1] * len(chi.group.classes))
    while True:
        yield power
        power = power * chi


def invariants_series_check(pair: NormalPair, V: Character | None = None) -> RationalSeries:
    """The two invariants series coincide: m_check^0 == m_hat^0 as reduced
    rational functions."""
    data = fusion_matrices(pair, V)
    res = series_cramer(data, "restriction", 0)
    ind = series_cramer(data, "induction", 0)
    if res != ind:
        raise CheckFailure(
            f"invariants series differ for {pair.name}: {res} vs {ind}"
        )
    return res


# -- long/short classification and the index-correspondence relations --------


def root_lengths(cartan: tuple[tuple[int, ...], ...]) -> list[str]:
    """Classify nodes of a connected non-simply-laced Cartan matrix as
    "long"/"short" via the symmetrizer; all "long" when simply laced."""
    k = len(cartan)
    eps: list[Fraction | None] = [None] * k
    eps[0] = Fraction(1)
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(k):
                if i != j and cartan[i][j] != 0 and eps[j] is None:
                    eps[j] = eps[i] * Fraction(cartan[i][j], cartan[j][i])
                    nxt.append(j)
        frontier = nxt
    if any(e is None for e in eps):
        raise CheckFailure("Cartan matrix graph is not connected")
    top = max(eps)
    bottom = min(eps)
    if top == bottom:
        return ["long"] * k
    out = []
    for e in eps:
        if e == top:
            out.append("long")
        elif e == bottom:
            out.append("short")
        else:
            out.append("middle")
    return out


class RelationReport(Record):
    pair_name: str
    kind: str  # "main" or "special"
    relations: tuple[tuple[int, str, int], ...]  # (vertex, length class, factor)


def corollary_relation_check(pair: NormalPair) -> RelationReport:
    """Exact relations between m_check^i and m_hat^i under the index
    correspondence: equal on long roots, scaled by |G:N| on short roots; for
    the (D_2, C_2) and (D_2n, C_2n) pairs the invariants agree and every other
    vertex satisfies m_check^i = 2 m_hat^i."""
    row = PAIRS.get(pair.family)
    kind = row and row.relation
    data = fusion_matrices(pair)
    k = data.size
    res = [series_cramer(data, "restriction", i) for i in range(k)]
    ind = [series_cramer(data, "induction", i) for i in range(k)]
    relations = []
    if kind == "main":
        lengths = root_lengths(data.cartanB)
        for i in range(k):
            if lengths[i] == "long":
                factor = 1
            elif lengths[i] == "short":
                factor = pair.index
            else:
                raise CheckFailure(f"unexpected middle-length root at vertex {i}")
            if res[i] != ind[i].scaled(factor):
                raise CheckFailure(
                    f"{pair.name} vertex {i}: m_check = {res[i]} is not "
                    f"{factor} * m_hat = {ind[i]}"
                )
            relations.append((i, lengths[i], factor))
        return RelationReport(pair.name, "main", tuple(relations))
    if kind == "special":
        if res[0] != ind[0]:
            raise CheckFailure(f"{pair.name}: invariants series differ")
        relations.append((0, "special", 1))
        for i in range(1, k):
            if res[i] != ind[i].scaled(2):
                raise CheckFailure(
                    f"{pair.name} vertex {i}: m_check = {res[i]} is not 2 * m_hat = {ind[i]}"
                )
            relations.append((i, "finite", 2))
        return RelationReport(pair.name, "special", tuple(relations))
    # the main pairs in catalog order, then the special ones by name
    stated = [name for name, r in PAIRS.items() if r.relation == "main"]
    stated += sorted(name for name, r in PAIRS.items() if r.relation == "special")
    raise DomainError(f"index-correspondence relations are only stated for {tuple(stated)}")
