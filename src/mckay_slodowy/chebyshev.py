"""Chebyshev polynomials of both kinds with the identities they satisfy, the
determinant family of the C_n diagrams, binomial closed forms for the
dihedral-pair invariants series, the exponent/Coxeter-number catalog, and the
spectral realization of exponents from fusion matrices.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import dynkin
from .cyclotomic import root_of_unity
from .errors import CheckFailure, DomainError
from .groups import NormalPair, normal_pair
from .mckay import FusionData, fusion_matrices, graph, one_minus_product
from .poincare import RationalSeries, series_cramer
from .polynomials import IntPoly, char_poly


@dataclass(frozen=True)
class ChebyshevPoly:
    kind: str  # "first" or "second"
    n: int
    poly: IntPoly

    def __call__(self, x):
        return self.poly(x)


def chebyshev(kind: str, n: int) -> ChebyshevPoly:
    """T_n or U_n by the three-term recursion p_{n+1} = 2t p_n - p_{n-1}."""
    if kind not in ("first", "second"):
        raise DomainError("kind must be 'first' or 'second'")
    if n < 0:
        raise DomainError("degree must be non-negative")
    p0 = IntPoly.const(1)
    p1 = IntPoly((0, 1)) if kind == "first" else IntPoly((0, 2))
    if n == 0:
        return ChebyshevPoly(kind, 0, p0)
    two_t = IntPoly((0, 2))
    for _ in range(n - 1):
        p0, p1 = p1, two_t * p1 - p0
    return ChebyshevPoly(kind, n, p1)


def chebyshev_additive(kind: str, n: int) -> IntPoly:
    """The binomial closed forms, expanded exactly."""
    if kind == "first":
        # sum over i of C(n, 2i) t^(n-2i) (t^2-1)^i
        acc = IntPoly()
        tsq_minus_1 = IntPoly((-1, 0, 1))
        for i in range(n // 2 + 1):
            term = math.comb(n, 2 * i) * (tsq_minus_1**i).shift(n - 2 * i)
            acc = acc + term
        return acc
    if kind == "second":
        acc = IntPoly()
        for i in range(n // 2 + 1):
            c = (-1) ** i * math.comb(n - i, i) * 2 ** (n - 2 * i)
            acc = acc + IntPoly.const(c).shift(n - 2 * i)
        return acc
    raise DomainError("kind must be 'first' or 'second'")


def chebyshev_product_value(kind: str, n: int, t: float) -> float:
    """The product closed form, evaluated numerically."""
    if n == 0:
        return 1.0
    if kind == "first":
        return 2.0 ** (n - 1) * math.prod(
            t - math.cos((2 * i - 1) * math.pi / (2 * n)) for i in range(1, n + 1)
        )
    if kind == "second":
        return 2.0**n * math.prod(
            t - math.cos(math.pi * i / (n + 1)) for i in range(1, n + 1)
        )
    raise DomainError("kind must be 'first' or 'second'")


@dataclass(frozen=True)
class IdentityFailure:
    identity: str
    n: int
    detail: str


def chebyshev_identities_check(
    n_max: int, points: int = 20, tol: float = 1e-9, seed: int = 0
) -> list[IdentityFailure]:
    """For every n <= n_max: the recursion polynomials equal the additive
    closed forms (exactly), T_n = U_n - t U_{n-1} (exactly), and the product
    forms agree numerically at random points in [-1, 1]."""
    if n_max < 2:
        raise DomainError("n_max must be at least 2")
    rng = random.Random(seed)
    failures = []
    T = [chebyshev("first", n).poly for n in range(n_max + 1)]
    U = [chebyshev("second", n).poly for n in range(n_max + 1)]
    for n in range(n_max + 1):
        if T[n] != chebyshev_additive("first", n):
            failures.append(IdentityFailure("T additive form", n, "exact mismatch"))
        if U[n] != chebyshev_additive("second", n):
            failures.append(IdentityFailure("U additive form", n, "exact mismatch"))
        if n >= 1 and T[n] != U[n] - IntPoly((0, 1)) * U[n - 1]:
            failures.append(IdentityFailure("T = U_n - t U_{n-1}", n, "exact mismatch"))
        for kind, poly in (("first", T[n]), ("second", U[n])):
            for _ in range(points):
                x = rng.uniform(-1.0, 1.0)
                got = chebyshev_product_value(kind, n, x)
                # exact rational Horner; float Horner cancels catastrophically
                # for the large coefficients at n ~ 50
                want = float(poly(Fraction(x)))
                if abs(got - want) > tol:
                    failures.append(
                        IdentityFailure(
                            f"{kind} product form", n, f"|{got} - {want}| > {tol} at t={x}"
                        )
                    )
                    break
    return failures


def c_family(n: int) -> IntPoly:
    """c_n(t) from the recursion c_{k+1} = c_k - t^2 c_{k-1}, c_0 = 1,
    c_1 = 1 - 2t^2; c_{k} is det(I - t A^T) for the C_{k+1} finite diagram.

    Asserts the reversed-Chebyshev closed form 2 t^{k+1} T_{k+1}(1/(2t)) and
    the binomial form 2^{-k} sum_i C(k+1, 2i) (1 - 4t^2)^i, both exactly.
    """
    if n < 0:
        raise DomainError("index must be non-negative")
    c0, c1 = IntPoly.const(1), IntPoly((1, 0, -2))
    seq = [c0, c1]
    tsq = IntPoly((0, 0, 1))
    while len(seq) <= n:
        seq.append(seq[-1] - tsq * seq[-2])
    cn = seq[n]
    if cn != _reversed_chebyshev_form(n + 1):
        raise CheckFailure(f"c_{n} does not match the reversed Chebyshev form")
    if cn != _binomial_c_form(n + 1):
        raise CheckFailure(f"c_{n} does not match the binomial form")
    return cn


def _reversed_chebyshev_form(m: int) -> IntPoly:
    # 2 t^m T_m(1/(2t)): coefficient a_k of T_m contributes 2 a_k 2^{-k} t^{m-k}
    T = chebyshev("first", m).poly
    coeffs = [Fraction(0)] * (m + 1)
    for k, a in enumerate(T.coeffs):
        if a:
            coeffs[m - k] += Fraction(2 * a, 2**k)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise CheckFailure("reversed Chebyshev form is not integral")
        out.append(c.numerator)
    return IntPoly(out)


def _binomial_c_form(m: int) -> IntPoly:
    # 2^(1-m) sum_i C(m, 2i) (1 - 4 t^2)^i
    base = IntPoly((1, 0, -4))
    acc = IntPoly()
    for i in range(m // 2 + 1):
        acc = acc + math.comb(m, 2 * i) * base**i
    scale = 2 ** (m - 1)
    out = []
    for c in acc.coeffs:
        if c % scale:
            raise CheckFailure("binomial form is not integral")
        out.append(c // scale)
    return IntPoly(out)


def _alternating_sum(m: int) -> IntPoly:
    """sum_i (-1)^i C(m - i, i) t^(2i)."""
    acc = IntPoly()
    for i in range(m // 2 + 1):
        acc = acc + IntPoly.const((-1) ** i * math.comb(m - i, i)).shift(2 * i)
    return acc


@dataclass(frozen=True)
class ClosedFormReport:
    family: str
    n: int
    series: RationalSeries
    numerator: IntPoly
    denominator: IntPoly


def closed_form_check(family_name: str, n: int) -> ClosedFormReport:
    """The invariants series of the dihedral-family pairs equals its binomial
    closed form: numerator c_{n-1}, denominator (1-4t^2) times the alternating
    binomial sum of order n-2 (first family) or n-1 (second family), exactly."""
    if family_name == "A2n-1^2":
        if n < 3:
            raise DomainError("A2n-1^2 requires n >= 3")
        depth = n - 2
    elif family_name == "Dn+1^2":
        if n < 2:
            raise DomainError("Dn+1^2 requires n >= 2")
        depth = n - 1
    else:
        raise DomainError("closed forms are stated for A2n-1^2 and Dn+1^2")
    pair = normal_pair(family_name, n)
    data = fusion_matrices(pair)
    series = series_cramer(data, "restriction", 0)
    num = c_family(n - 1)
    den = IntPoly((1, 0, -4)) * _alternating_sum(depth)
    # equality as rational functions (the closed form need not be reduced)
    if series.numerator * den != num * series.denominator:
        raise CheckFailure(
            f"{family_name} n={n}: invariants series {series} does not match "
            f"({num.pretty()}) / ({den.pretty()})"
        )
    from .poincare import denominator_identity_check

    det_val = denominator_identity_check(pair)
    if det_val != den:
        raise CheckFailure(
            f"{family_name} n={n}: det(I - t A^T) = {det_val} differs from the "
            f"closed-form denominator {den}"
        )
    return ClosedFormReport(family_name, n, series, num, den)


# -- exponents ---------------------------------------------------------------


@dataclass(frozen=True)
class ExponentData:
    type_label: str
    exponents: tuple[int, ...]
    coxeter: int
    finite_type: str | None = None
    finite_exponents: tuple[int, ...] | None = None
    finite_coxeter: int | None = None

    def cos_values(self) -> list[float]:
        return [2 * math.cos(m * math.pi / self.coxeter) for m in self.exponents]


_FINITE_EXPONENTS = {
    "A": lambda n: (tuple(range(1, n + 1)), n + 1),
    "B": lambda n: (tuple(range(1, 2 * n, 2)), 2 * n),
    "C": lambda n: (tuple(range(1, 2 * n, 2)), 2 * n),
    "D": lambda n: (tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])), 2 * n - 2),
    "F": lambda n: ((1, 5, 7, 11), 12),
    "G": lambda n: ((1, 5), 6),
    "E": lambda n: {
        6: ((1, 4, 5, 7, 8, 11), 12),
        7: ((1, 5, 7, 9, 11, 13, 17), 18),
        8: ((1, 7, 11, 13, 17, 19, 23, 29), 30),
    }[n],
}


# the subscripts (lowest, highest) each row's formula covers; outside them it
# degenerates (B_1^(1) would give exponents [0, 0], Coxeter number 0)
_FINITE_RANKS = {"A": (1, math.inf), "B": (1, math.inf), "C": (1, math.inf),
                 "D": (2, math.inf), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
_AFFINE_RANKS = {("A", 1): (1, 1), ("B", 1): (2, math.inf), ("C", 1): (1, math.inf),
                 ("F", 1): (4, 4), ("G", 1): (2, 2), ("A", 2): (2, math.inf),
                 ("D", 2): (2, math.inf), ("E", 2): (6, 6), ("D", 3): (4, 4)}
_NO_RANKS = (1, 0)


def _affine_exponents(letter: str, sub: int, twist: int) -> tuple[tuple[int, ...], int]:
    """Exponent multiset and affine Coxeter number, one row per diagram."""
    low, high = _AFFINE_RANKS.get((letter, twist), _NO_RANKS)
    if not low <= sub <= high:
        raise DomainError(f"no exponent data for {letter}_{sub}^({twist})")
    if twist == 1:
        if letter == "A" and sub == 1:
            return (0, 1), 1
        if letter == "B":
            if sub % 2 == 1:  # B_{2l+1}
                l = (sub - 1) // 2
                return tuple(sorted(list(range(0, 2 * l + 1)) + [l])), 2 * l
            l = sub // 2  # B_{2l}
            exps = list(range(0, 2 * l - 1, 2)) + [2 * l - 1] + list(range(2 * l, 4 * l - 1, 2))
            return tuple(exps), 2 * (2 * l - 1)
        if letter == "C":
            return tuple(range(0, sub + 1)), sub
        if letter == "F":
            return (0, 2, 3, 4, 6), 6
        if letter == "G":
            return (0, 1, 2), 2
    if twist == 2:
        if letter == "A":
            if sub == 2:
                return (0, 2), 2
            if sub % 2 == 0:  # A_{2l}^{(2)}
                l = sub // 2
                return tuple(range(0, l + 1)), l
            # A_{2n-1}^{(2)} shares its row with B_n^{(1)}
            n = (sub + 1) // 2
            return _affine_exponents("B", n, 1)
        if letter == "D":  # D_{l+1}^{(2)} shares its row with C_l^{(1)}
            return _affine_exponents("C", sub - 1, 1)
        if letter == "E":  # E_6^{(2)}
            return (0, 2, 3, 4, 6), 6
    # D_4^{(3)}, the one row left after _AFFINE_RANKS
    return (0, 1, 2), 2


def exponents_catalog(type_label: str) -> ExponentData:
    """Stored exponents and Coxeter numbers, affine (with the finite data of
    the diagram left after deleting the special node) or finite."""
    label = type_label.strip()
    m = re.fullmatch(r"([A-G])_(\d+)\^\((\d)\)", label)
    if m:
        letter, sub, twist = m.group(1), int(m.group(2)), int(m.group(3))
        exps, cox = _affine_exponents(letter, sub, twist)
        finite = dynkin.finite_type_of(label)
        fl, fs = finite.split("_")
        fexps, fcox = _FINITE_EXPONENTS[fl](int(fs))
        return ExponentData(label, exps, cox, finite, fexps, fcox)
    m = re.fullmatch(r"([A-G])_(\d+)", label)
    if m:
        letter, sub = m.group(1), int(m.group(2))
        low, high = _FINITE_RANKS.get(letter, _NO_RANKS)
        if not low <= sub <= high:
            raise DomainError(f"unknown finite type {label!r}")
        exps, cox = _FINITE_EXPONENTS[letter](sub)
        return ExponentData(label, exps, cox, label, exps, cox)
    raise DomainError(f"cannot parse Dynkin label {type_label!r}")


def exponent_duality_holds(data: ExponentData) -> bool:
    exps = sorted(data.exponents)
    n = len(exps)
    return all(exps[i] + exps[n - 1 - i] == data.coxeter for i in range(n))


# rows of the exponent table whose cosine convention is unambiguous
ASSERTED_COS_ROWS = ("B", "C", "D2", "F", "E2", "G", "D3")


def _row_key(label: str) -> str:
    m = re.fullmatch(r"([A-G])_(\d+)\^\((\d)\)", label)
    if not m:
        return "?"
    letter, sub, twist = m.group(1), int(m.group(2)), int(m.group(3))
    if twist == 1 and letter in ("B", "C", "F", "G"):
        return letter
    if twist == 2:
        if letter == "A" and sub >= 3 and sub % 2 == 1:
            return "B"  # A_{2n-1}^{(2)} row
        if letter == "D":
            return "D2"
        if letter == "E":
            return "E2"
    if twist == 3 and letter == "D":
        return "D3"
    return "?"


@dataclass(frozen=True)
class SpectrumReport:
    pair_name: str
    affine_type: str
    finite_type: str
    affine_eigenvalues: tuple[float, ...]
    chi_v_values: tuple[float, ...]
    affine_cos_values: tuple[float, ...]
    affine_cos_asserted: bool
    affine_cos_matches: bool
    finite_eigenvalues: tuple[float, ...]
    finite_cos_values: tuple[float, ...]
    finite_cos_matches: bool


def _cos_poly(exponents, coxeter: int) -> IntPoly:
    """prod over m of (t - 2 cos(m pi / h)), each root as zeta_2h^m + zeta_2h^-m."""
    roots = [root_of_unity(2 * coxeter, m) + root_of_unity(2 * coxeter, -m) for m in exponents]
    return IntPoly(one_minus_product(roots)[::-1])


def spectrum_exponents_check(pair_or_data: NormalPair | FusionData) -> SpectrumReport:
    """The characteristic polynomial of the restriction fusion matrix equals
    prod (t - chi_V(g)) over Upsilon(N) (always asserted), and equals
    prod (t - 2 cos(m pi / h)) from the exponent table for the rows with
    unambiguous convention; that of the finite sub-diagram (trivial node
    deleted) equals the product over the finite exponents.  All exactly; the
    float fields of the report are read off the exact values."""
    data = pair_or_data if isinstance(pair_or_data, FusionData) else fusion_matrices(pair_or_data)
    pair = data.pair
    affine_type = graph(data, "restriction").dynkin_type
    if affine_type == "unrecognized":
        raise DomainError(f"{pair.name} does not realize an affine diagram")
    cat = exponents_catalog(affine_type)

    values = data.v_values_on_upsilon()
    if any(v != v.conj() for v in values):
        raise CheckFailure(f"{pair.name}: chi_V takes a non-real value on Upsilon(N)")
    poly = char_poly([list(r) for r in data.A])
    if poly != IntPoly(one_minus_product(values)[::-1]):
        raise CheckFailure(f"{pair.name}: char poly {poly} differs from prod (t - chi_V(g))")
    chi_v = sorted(v.to_complex().real for v in values)
    cos_vals = sorted(cat.cos_values())
    cos_asserted = _row_key(affine_type) in ASSERTED_COS_ROWS
    cos_matches = poly == _cos_poly(cat.exponents, cat.coxeter)
    if cos_asserted and not cos_matches:
        raise CheckFailure(
            f"{pair.name}: eigenvalues {chi_v} do not match 2cos values {cos_vals} "
            f"for {affine_type}"
        )

    # finite part: delete the trivial-origin node (index 0)
    k = data.size
    finite_A = [[data.A[i][j] for j in range(1, k)] for i in range(1, k)]
    finite_cos = sorted(
        2 * math.cos(m * math.pi / cat.finite_coxeter) for m in cat.finite_exponents
    )
    finite_matches = char_poly(finite_A) == _cos_poly(cat.finite_exponents, cat.finite_coxeter)
    if not finite_matches:
        raise CheckFailure(
            f"{pair.name}: finite eigenvalues do not match 2cos values {finite_cos} "
            f"for {cat.finite_type}"
        )
    return SpectrumReport(
        pair.name,
        affine_type,
        cat.finite_type,
        tuple(chi_v),
        tuple(chi_v),
        tuple(cos_vals),
        cos_asserted,
        cos_matches,
        tuple(finite_cos),
        tuple(finite_cos),
        finite_matches,
    )
