"""McKay-Slodowy data of a normal pair: the pared-down restriction and
induction bases, the two fusion matrices from tensoring with the defining
module, Cartan matrices, representation graphs and their identification
in the affine catalog, null vectors and eigenvector structure.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from operator import mul
from typing import ClassVar

from . import dynkin
from .characters import Character, ClassFunction, _lifted_combination, induce, restrict, table
from .cyclotomic import Cyclotomic, one_minus_product
from .errors import CheckFailure, DomainError
from .groups import NormalPair
from .linalg import rank
from .polynomials import IntPoly, faddeev_leverrier
from .record import Record

SIDES = ("restriction", "induction")


class Basis(Record):
    """The restrictions (or inductions) of the irreducibles of one group of a
    pair, one per support: class functions on the other group, with their
    multiplicity vectors there and the indices of the irreducibles of each
    member's support.  Two restrictions of one support are multiples of one
    orbit sum (Clifford), and the member is the least multiple, on a tie the
    first in table order; its own irreducible is listed first and names it."""

    pair: NormalPair
    members: tuple[ClassFunction, ...]
    mult_vectors: tuple[tuple[int, ...], ...]  # multiplicities over the members' group
    origins: tuple[tuple[int, ...], ...]  # irreducible indices of each member's support
    labels: tuple[str, ...]

    verb: ClassVar[str]  # "restrict" or "induce"
    origin_group: ClassVar[str]  # the pair's attribute naming the origins' group

    @property
    def degrees(self) -> tuple[int, ...]:
        # sum_i m_i chi_i(1): the members stay lifted
        degs = table(self.members[0].group).degrees
        return tuple(sum(map(mul, mv, degs)) for mv in self.mult_vectors)

    def index_of_origin(self, label: str) -> int:
        oi = table(getattr(self.pair, self.origin_group)).index(label)
        for i, orig in enumerate(self.origins):
            if oi in orig:
                return i
        raise DomainError(f"{label} does not {self.verb} to a basis member")


class RestrictionBasis(Basis):
    """Distinct restrictions of the irreducible G-characters, trivial first."""

    verb = "restrict"
    origin_group = "G"


class InductionBasis(Basis):
    """Distinct inductions of the irreducible N-characters, ordered by the
    correspondence with the restriction basis (trivial-origin first)."""

    verb = "induce"
    origin_group = "N"


def _distinct(pair: NormalPair, decs, what: str):
    """One member per support (set of constituents), the support holding the
    trivial character first and the others in order of first appearance,
    with the indices of the functions of that support, the member's own
    first.  By Clifford's theorem two functions of one support are multiples
    of one orbit sum, and supports of distinct orbits are disjoint; the
    member is the least multiple, on a tie the first in table order."""
    supports: dict[tuple[int, ...], list[int]] = {}
    for i, dec in enumerate(decs):
        supports.setdefault(tuple(j for j, m in enumerate(dec.multiplicities) if m), []).append(i)
    if len(supports) != len(pair.upsilonN):
        raise CheckFailure(
            f"{len(supports)} distinct {what} but |Upsilon(N)| = {len(pair.upsilonN)}"
        )
    # the series count invariants at vertex 0, so the trivial module is member 0
    trivial = decs[0].table.trivial
    members, origins = [], []
    for _, same in sorted(supports.items(), key=lambda item: trivial not in item[0]):
        least = min(same, key=lambda i: sum(decs[i].multiplicities))
        members.append(decs[least])
        origins.append([least] + [i for i in same if i != least])
    return members, origins


def _basis(cls, pair, members, origins, prefix, tbl) -> Basis:
    return cls(
        pair,
        tuple(dec.function for dec in members),
        tuple(dec.multiplicities for dec in members),
        tuple(map(tuple, origins)),
        tuple(f"{prefix}({tbl.labels[o[0]]})" for o in origins),
    )


@cache
def restriction_basis(pair: NormalPair) -> RestrictionBasis:
    gt = table(pair.G)
    members, origins = _distinct(pair, [restrict(pair, rho) for rho in gt], "restrictions")
    if rank([dec.multiplicities for dec in members]) != len(members):
        raise CheckFailure("restriction members are linearly dependent")
    return _basis(RestrictionBasis, pair, members, origins, "check", gt)


@cache
def induction_basis(pair: NormalPair) -> InductionBasis:
    nt = table(pair.N)
    rbasis = restriction_basis(pair)
    members, origins = _distinct(pair, [induce(pair, phi) for phi in nt], "inductions")
    # order by the bijection f(check rho_i) = hat phi_k for any constituent
    # phi_k of check rho_i; all constituents must induce to one member
    member_of = {ni: mi for mi, orig in enumerate(origins) for ni in orig}
    order: list[int] = []
    for i, rvec in enumerate(rbasis.mult_vectors):
        targets = {member_of[ni] for ni, m in enumerate(rvec) if m}
        if len(targets) != 1:
            raise CheckFailure(
                f"restriction member {i} has constituents inducing to {len(targets)} members"
            )
        order.append(targets.pop())
    if sorted(order) != list(range(len(members))):
        raise CheckFailure("induction/restriction correspondence is not a bijection")
    return _basis(
        InductionBasis, pair, [members[i] for i in order], [origins[i] for i in order], "hat", nt
    )


class FusionData(Record):
    """The two fusion matrices of a pair for a fixed module V, with bases.

    Compared and hashed by identity: only the memoised _fusion_matrices
    builds one, and the caches keyed by it need not hash the bases."""

    pair: NormalPair
    V: Character
    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]
    rbasis: RestrictionBasis
    ibasis: InductionBasis

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def size(self) -> int:
        return len(self.A)

    def side(self, name: str) -> tuple[tuple[tuple[int, ...], ...], Basis, ClassFunction]:
        """(fusion matrix, basis, chi_V on the basis members' group) of one
        side: (A, rbasis, Res chi_V) or (B, ibasis, chi_V)."""
        if name == "restriction":
            return self.A, self.rbasis, restrict(self.pair, self.V).function
        if name == "induction":
            return self.B, self.ibasis, self.V.base
        raise DomainError(f"side must be one of {SIDES}")

    @property
    def cartanA(self) -> tuple[tuple[int, ...], ...]:
        return _cartan(self.A)

    @property
    def cartanB(self) -> tuple[tuple[int, ...], ...]:
        return _cartan(self.B)

    def v_values_on_upsilon(self) -> list[Cyclotomic]:
        """chi_V(g) for g running over Upsilon(N) (as G-class representatives)."""
        return [self.V.values[gc] for gc in self.pair.upsilonN]

    def to_json(self) -> dict:
        return {
            "pair": self.pair.name,
            "V": self.V.label,
            "A": [list(r) for r in self.A],
            "B": [list(r) for r in self.B],
            "cartan_A": [list(r) for r in self.cartanA],
            "cartan_B": [list(r) for r in self.cartanB],
            "restriction_labels": list(self.rbasis.labels),
            "induction_labels": list(self.ibasis.labels),
            "restriction_degrees": list(self.rbasis.degrees),
            "induction_degrees": list(self.ibasis.degrees),
        }


def _cartan(A) -> tuple[tuple[int, ...], ...]:
    n = len(A)
    return tuple(
        tuple((2 if i == j else 0) - A[i][j] for j in range(n)) for i in range(n)
    )


def _solve_in_basis(vectors, target) -> tuple[int, ...]:
    """Write target as a non-negative integer combination of a basis's
    (independent) multiplicity vectors.  By Clifford's theorem distinct
    restrictions, and distinct inductions, have disjoint constituents: each
    coefficient is one exact division at its vector's first constituent, and
    the combination is then checked in full."""
    out = []
    for vec in vectors:
        i = next(i for i, m in enumerate(vec) if m)
        c, r = divmod(target[i], vec[i])
        if r or c < 0:
            raise CheckFailure(f"fusion coefficient {Fraction(target[i], vec[i])} is not a non-negative integer")
        out.append(c)
    if any(sum(map(mul, row, out)) != t for row, t in zip(zip(*vectors), target)):
        raise CheckFailure(f"multiplicities {tuple(target)} are not a combination of the basis")
    return tuple(out)


def default_module(pair: NormalPair) -> Character:
    """The pair's defining module (the 2-dimensional imbedding character,
    or rho_2^+ for (S_4, A_4))."""
    if pair.default_v_label is None:
        raise DomainError(
            "no default module for a generic pair; pass V explicitly"
        )
    return table(pair.G)[pair.default_v_label]


def fusion_matrices(pair: NormalPair, V: Character | None = None) -> FusionData:
    """Decompose V tensor (each basis member) in the basis, on both sides."""
    if V is None:
        V = default_module(pair)
    if V.group is not pair.G:
        raise DomainError("V must be a character of the pair's big group")
    return _fusion_matrices(pair, V)


@cache
def _fusion_matrices(pair: NormalPair, V: Character) -> FusionData:
    rbasis = restriction_basis(pair)
    ibasis = induction_basis(pair)
    mats = []
    for basis, v in ((rbasis, restrict(pair, V).function), (ibasis, V.base)):
        tbl = table(v.group)
        # column j: V tensor member j, written in the basis
        cols = [_solve_in_basis(basis.mult_vectors, tbl.decompose(v * f)) for f in basis.members]
        mats.append(tuple(zip(*cols)))
    A, B = mats
    return FusionData(pair, V, A, B, rbasis, ibasis)


class Edge(Record):
    i: int
    j: int
    multiplicity: int
    arrow_to: int | None  # None for symmetric edges


class RepresentationGraph(Record):
    side: str
    node_labels: tuple[str, ...]
    degrees: tuple[int, ...]
    edges: tuple[Edge, ...]
    dynkin_type: str

    def to_dot(self) -> str:
        lines = ["digraph representation_graph {"]
        for i, (lbl, deg) in enumerate(zip(self.node_labels, self.degrees)):
            lines.append(f'  {i} [label="{lbl} ({deg})"];')
        for e in self.edges:
            if e.arrow_to is None:
                lines.append(
                    f"  {e.i} -> {e.j} [dir=none, multiplicity={e.multiplicity}];"
                )
            else:
                src = e.j if e.arrow_to == e.i else e.i
                lines.append(
                    f"  {src} -> {e.arrow_to} [multiplicity={e.multiplicity}];"
                )
        lines.append("}")
        return "\n".join(lines)


def graph(data: FusionData, side: str = "restriction") -> RepresentationGraph:
    """Representation graph of one side, identified against the affine catalog."""
    M, basis, _ = data.side(side)
    k = len(M)
    edges = []
    for i in range(k):
        if M[i][i]:
            edges.append(Edge(i, i, M[i][i], i if M[i][i] > 1 else None))
        for j in range(i + 1, k):
            m = max(M[i][j], M[j][i])
            if m == 0:
                continue
            if M[i][j] == M[j][i]:
                edges.append(Edge(i, j, m, None))
            else:
                arrow_to = i if M[i][j] > M[j][i] else j
                edges.append(Edge(i, j, m, arrow_to))
    label = dynkin.identify([list(r) for r in M])
    return RepresentationGraph(
        side, basis.labels, basis.degrees, tuple(edges), label
    )


class NullVectorReport(Record):
    variant: str  # "standard", "transposed", or "both"
    alpha_A: tuple[int, ...]
    alpha_B: tuple[int, ...]
    kernel_dims: tuple[int, int]
    annihilations: dict

    def __hash__(self):
        # the annihilations dict is not hashable; equal reports still hash alike
        return hash((self.variant, self.alpha_A, self.alpha_B, self.kernel_dims))


def _annihilates(M, v) -> bool:
    return not any(sum(map(mul, row, v)) for row in M)


def null_vector_check(data: FusionData) -> NullVectorReport:
    """Verify the degree vectors annihilated by the Cartan matrices, in one of
    the two documented variants, and that both kernels are 1-dimensional."""
    pair = data.pair
    CA, CB = data.cartanA, data.cartanB
    ind_degs = data.ibasis.degrees
    if any(d % pair.index for d in ind_degs):
        raise CheckFailure("induced degrees are not divisible by |G:N|")
    alpha_A = tuple(d // pair.index for d in ind_degs)
    alpha_B = data.rbasis.degrees
    for v, nm in ((alpha_A, "alpha_A"), (alpha_B, "alpha_B")):
        if gcd(*v) != 1:
            raise CheckFailure(f"{nm} = {v} is not a coprime integer vector")
    dims = [data.size - rank(C) for C in (CA, CB)]
    if dims != [1, 1]:
        raise CheckFailure(f"Cartan kernels have dimensions {dims}, expected 1 and 1")
    ann = {
        "C_A.alpha_A": _annihilates(CA, alpha_A),
        "C_B.alpha_B": _annihilates(CB, alpha_B),
        "C_A^T.alpha_B": _annihilates(zip(*CA), alpha_B),
        "C_B^T.alpha_A": _annihilates(zip(*CB), alpha_A),
    }
    standard = ann["C_A.alpha_A"] and ann["C_B.alpha_B"]
    transposed = ann["C_A^T.alpha_B"] and ann["C_B^T.alpha_A"]
    if standard and transposed:
        variant = "both"
    elif standard:
        variant = "standard"
    elif transposed:
        variant = "transposed"
    else:
        raise CheckFailure(
            f"neither null-vector variant holds for {pair.name}: {ann}"
        )
    return NullVectorReport(variant, alpha_A, alpha_B, (1, 1), ann)


@cache
def character_product(pair: NormalPair, V: Character) -> tuple[int, ...]:
    """prod over Upsilon(N) of (1 - chi_V(g) t), untrimmed, once per (pair, V)."""
    return tuple(one_minus_product([V.values[gc] for gc in pair.upsilonN]))


@cache
def side_recurrence(data: FusionData, side: str) -> tuple[tuple[int, ...], tuple[IntPoly, ...]]:
    """The side's one faddeev_leverrier run, on M^T: det(I - tM^T) untrimmed
    (reversed, det(tI - M)), and column 0 of adj(I - tM^T) per vertex."""
    M = data.side(side)[0]
    coeffs, mats = faddeev_leverrier([list(col) for col in zip(*M)])
    return tuple(coeffs), tuple(IntPoly([B[v][0] for B in mats]) for v in range(len(M)))


def characteristic_identity_check(data: FusionData):
    """char(A) == char(B) == prod over Upsilon(N) of (t - chi_V(g)), exactly."""
    pa = IntPoly(side_recurrence(data, "restriction")[0][::-1])
    pb = IntPoly(side_recurrence(data, "induction")[0][::-1])
    if pa != pb:
        raise CheckFailure(
            f"characteristic polynomials differ: {pa} vs {pb}"
        )
    # prod (t - v) is prod (1 - v t) with its coefficients reversed
    prod = IntPoly(character_product(data.pair, data.V)[::-1])
    if pa != prod:
        raise CheckFailure(
            f"char poly {pa} differs from the eigenvalue product {prod}"
        )
    return pa


def eigenvector_check(data: FusionData) -> list[Cyclotomic]:
    """Restricted/induced character-value vectors are exact eigenvectors of
    (dI - A^T) resp. (dI - B^T) with eigenvalue d - chi_V(g); the degree
    vectors (g = identity) lie in the kernels.  Returns the eigenvalue list,
    one per Upsilon(N) class.

    d v_i - (M^T v)_i = (d - chi_V(g)) v_i is the class-function identity
    chi_V * f_i = sum_j M[j][i] * f_j on the basis members f_j, checked as
    the residual r_i = chi_V * f_i - sum_j M[j][i] * f_j vanishing at each
    Upsilon(N) class (on the restriction side, at the N-class carrying g)."""
    pair = data.pair
    d = data.V.degree
    residuals = []
    for side in SIDES:
        M, basis, chi = data.side(side)
        residuals.append([
            _lifted_combination((1, *(-row[i] for row in M)), (chi * f, *basis.members))
            for i, f in enumerate(basis.members)
        ])
    eigenvalues = []
    for gc in pair.upsilonN:
        eigenvalues.append(d - data.V.values[gc])
        for side, rs in zip(SIDES, residuals):
            c = pair.g_class_with_n_values(gc) if side == "restriction" else gc
            for i, r in enumerate(rs):
                if not r.is_zero_at(c):
                    raise CheckFailure(f"{side} eigenvector fails at class {gc}, row {i}")
    return eigenvalues
