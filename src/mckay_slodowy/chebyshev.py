"""Chebyshev polynomials of both kinds with the identities they satisfy, the
determinant family of the C_n diagrams, binomial closed forms for the
dihedral-pair invariants series, exponent data read off the `dynkin` catalog,
and the spectral realization of exponents from fusion matrices.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from . import dynkin
from .cyclotomic import one_minus_product, root_of_unity
from .errors import CheckFailure, DomainError
from .groups import PAIRS, NormalPair, _checked_n, normal_pair
from .mckay import (
    FusionData,
    characteristic_identity_check,
    fusion_matrices,
    graph,
)
from .poincare import RationalSeries, denominator_identity_check, series_cramer
from .polynomials import IntPoly, char_poly
from .record import Record


class ChebyshevPoly(Record):
    kind: str  # "first" or "second"
    n: int
    poly: IntPoly

    def __call__(self, x):
        return self.poly(x)


def _checked(name: str, value, least: int = 0) -> int:
    """The one argument check of the Chebyshev entry points: an int (not a
    bool) of at least `least`."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise DomainError(f"{name} must be " + (f"at least {least}" if least else "non-negative"))
    return value


def _checked_kind(kind: str) -> str:
    """The one kind check of the Chebyshev entry points, made before any work."""
    if kind not in ("first", "second"):
        raise DomainError("kind must be 'first' or 'second'")
    return kind


def chebyshev(kind: str, n: int) -> ChebyshevPoly:
    """T_n or U_n by the three-term recursion p_{n+1} = 2t p_n - p_{n-1}."""
    _checked_kind(kind)
    _checked("degree", n)
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
    _checked_kind(kind)
    _checked("degree", n)
    if kind == "first":
        # sum over i of C(n, 2i) t^(n-2i) (t^2-1)^i
        acc = IntPoly()
        tsq_minus_1 = IntPoly((-1, 0, 1))
        for i in range(n // 2 + 1):
            term = math.comb(n, 2 * i) * (tsq_minus_1**i).shift(n - 2 * i)
            acc = acc + term
        return acc
    acc = IntPoly()
    for i in range(n // 2 + 1):
        c = (-1) ** i * math.comb(n - i, i) * 2 ** (n - 2 * i)
        acc = acc + IntPoly.const(c).shift(n - 2 * i)
    return acc


def chebyshev_product_value(kind: str, n: int, t: float) -> float:
    """The product closed form, evaluated numerically."""
    _checked_kind(kind)
    if _checked("degree", n) == 0:
        return 1.0
    if kind == "first":
        return 2.0 ** (n - 1) * math.prod(
            t - math.cos((2 * i - 1) * math.pi / (2 * n)) for i in range(1, n + 1)
        )
    return 2.0**n * math.prod(
        t - math.cos(math.pi * i / (n + 1)) for i in range(1, n + 1)
    )


class IdentityFailure(Record):
    identity: str
    n: int
    detail: str


def chebyshev_identities_check(
    n_max: int, points: int = 20, tol: float = 1e-9, seed: int = 0
) -> list[IdentityFailure]:
    """For every n <= n_max: the recursion polynomials equal the additive
    closed forms (exactly), T_n = U_n - t U_{n-1} (exactly), and the product
    forms agree numerically at random points in [-1, 1]."""
    _checked("n_max", n_max, 2)
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
    _checked("index", n)
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


class ClosedFormReport(Record):
    family: str
    n: int
    series: RationalSeries
    numerator: IntPoly
    denominator: IntPoly


def closed_form_check(family_name: str, n: int) -> ClosedFormReport:
    """The invariants series of the dihedral-family pairs equals its binomial
    closed form: numerator c_{n-1}, denominator (1-4t^2) times the alternating
    binomial sum of order n-2 (first family) or n-1 (second family), exactly."""
    row = PAIRS.get(family_name)
    if row is None or row.closed_form is None:
        stated = " and ".join(name for name, r in PAIRS.items() if r.closed_form)
        raise DomainError(f"closed forms are stated for {stated}")
    if _checked_n(n) is None or n < row.n_min:
        raise DomainError(f"{family_name} requires n >= {row.n_min}")
    depth = row.closed_form(n)
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
    det_val = denominator_identity_check(pair)
    if det_val != den:
        raise CheckFailure(
            f"{family_name} n={n}: det(I - t A^T) = {det_val} differs from the "
            f"closed-form denominator {den}"
        )
    return ClosedFormReport(family_name, n, series, num, den)


# -- exponents ---------------------------------------------------------------


class ExponentData(Record):
    type_label: str
    exponents: tuple[int, ...]
    coxeter: int
    finite_type: str | None = None
    finite_exponents: tuple[int, ...] | None = None
    finite_coxeter: int | None = None

    def cos_values(self) -> list[float]:
        return [2 * math.cos(m * math.pi / self.coxeter) for m in self.exponents]


_LABEL = re.compile(r"([A-G])_(\d+)(?:\^\((\d)\))?")
# a bound on size: the B and C rows list n + 1 exponents, and C_1000000^(1)
# takes 124 MB
MAX_SUBSCRIPT = 10_000


def _catalog_entry(type_label: str) -> tuple[ExponentData, dynkin.Family | None]:
    """The exponent data of a label, with its affine catalog row (None for a
    finite type)."""
    label = type_label.strip()
    m = _LABEL.fullmatch(label)
    if not m:
        raise DomainError(f"cannot parse Dynkin label {type_label!r}")
    letter, digits = m.group(1), m.group(2).lstrip("0") or "0"
    # the digit count first: int() of a long digit string is itself slow
    if len(digits) > len(str(MAX_SUBSCRIPT)) or int(digits) > MAX_SUBSCRIPT:
        raise DomainError(f"a Dynkin label's subscript is capped at {MAX_SUBSCRIPT}")
    sub = int(digits)
    if m.group(3) is None:
        (low, high), formula = dynkin.FINITE[letter]
        if not low <= sub <= high:
            raise DomainError(f"unknown finite type {label!r}")
        exps, cox = formula(sub)
        return ExponentData(label, exps, cox, label, exps, cox), None
    twist = int(m.group(3))
    for row in dynkin.FAMILIES:
        n = row.exponent_rank(sub)
        if (row.letter, row.twist) == (letter, twist) and n is not None:
            exps, cox = row.exponents[1](n)
            fexps, fcox = dynkin.FINITE[row.finite][1](n)
            return ExponentData(label, exps, cox, f"{row.finite}_{n}", fexps, fcox), row
    raise DomainError(f"no exponent data for {letter}_{sub}^({twist})")


def exponents_catalog(type_label: str) -> ExponentData:
    """Stored exponents and Coxeter numbers, affine (with the finite data of
    the diagram left after deleting the special node) or finite."""
    return _catalog_entry(type_label)[0]


def exponent_duality_holds(data: ExponentData) -> bool:
    exps = sorted(data.exponents)
    n = len(exps)
    return all(exps[i] + exps[n - 1 - i] == data.coxeter for i in range(n))


class SpectrumReport(Record):
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
    prod (t - chi_V(g)) over Upsilon(N) (always asserted, by
    characteristic_identity_check), and equals
    prod (t - 2 cos(m pi / h)) from the exponent table for the rows with
    unambiguous convention; that of the finite sub-diagram (trivial node
    deleted) equals the product over the finite exponents.  All exactly; the
    float fields of the report are read off the exact values."""
    data = pair_or_data if isinstance(pair_or_data, FusionData) else fusion_matrices(pair_or_data)
    pair = data.pair
    affine_type = graph(data, "restriction").dynkin_type
    if affine_type == "unrecognized":
        raise DomainError(f"{pair.name} does not realize an affine diagram")
    cat, row = _catalog_entry(affine_type)

    values = data.v_values_on_upsilon()
    if any(v != v.conj() for v in values):
        raise CheckFailure(f"{pair.name}: chi_V takes a non-real value on Upsilon(N)")
    poly = characteristic_identity_check(data)
    chi_v = sorted(v.to_complex().real for v in values)
    cos_vals = sorted(cat.cos_values())
    cos_asserted = row.asserted
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
