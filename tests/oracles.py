"""Kernels kept as test oracles.  The library pairs, induces and multiplies
lifted class functions; the value kernels work on `Cyclotomic` values one at
a time, so the lifted paths are checked against an independent one.  The
library lowers a value by one projection per prime and inverts by the Galois
norm; the Galois-orbit lowering and the linear-solve inverse it replaced are
kept here as the independent path.  The library reads fusion coefficients
off disjoint constituents; the linear solve it replaced is kept here too.
The library's cyclic and binary dihedral tables are born lifted; the
builders they replaced, which add `root_of_unity` values, are kept here.

The oracles read a value only through its `coeffs` (Fractions), never through
the library's stored integer coordinates or its `terms_at`, and compute in
Fractions, so they share no arithmetic with the integer kernel."""
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from mckay_slodowy.cyclotomic import (
    Cyclotomic,
    _galois_apply,
    euler_phi,
    prime_factors,
    reduce_mod_phi,
    root_of_unity,
    unlift,
)
from mckay_slodowy.linalg import _eliminate


def solve_exact(rows, rhs) -> list[Fraction]:
    """Solve A x = b exactly.  A may have more rows than columns; the system
    must be consistent and determine x uniquely, else ValueError.

    The augmented matrix goes through the library's integer elimination;
    Fractions appear only in the back substitution."""
    n = len(rows[0])
    aug, pivots = _eliminate([*row, b] for row, b in zip(rows, rhs))
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


def _terms(x) -> list[tuple[int, Fraction]]:
    """The nonzero (j, coefficient of zeta_n^j) pairs of a value or a rational."""
    x = x if type(x) is Cyclotomic else Cyclotomic(x)
    return [(j, c) for j, c in enumerate(x.coeffs) if c]


def from_fractions(n: int, coeffs) -> Cyclotomic:
    """The value sum_j coeffs[j] * zeta_n^j for rational coeffs, reduced
    modulo Phi_n, cleared to one denominator and built by the library's one
    constructor."""
    reduced = reduce_mod_phi(n, list(coeffs))
    den = lcm(1, *(c.denominator for c in reduced))
    return unlift(n, den, [int(c * den) for c in reduced])


def canonical_value(n: int, coords) -> Cyclotomic:
    """The Cyclotomic whose canonical coordinates at conductor n are coords
    (as orbit_canonical returns them), built without lowering."""
    den = lcm(1, *(c.denominator for c in coords))
    return Cyclotomic._canonical_form(n, den, tuple(int(c * den) for c in coords))


def weighted_dot(weights, xs, ys) -> Cyclotomic:
    """sum_i weights[i] * xs[i] * conj(ys[i]) for rational weights and
    cyclotomic values, in one pass.

    Every value is embedded into Q[x]/(x^m - 1), m the lcm of the conductors,
    where zeta_n^j is x^(j*m/n) and conjugation is x^k -> x^-k; coefficients
    accumulate as Fractions, and the sum is reduced modulo Phi_m and
    canonicalised once."""
    terms = []
    m = 1
    for w, x, y in zip(weights, xs, ys):
        if w:
            x = x if type(x) is Cyclotomic else Cyclotomic(x)
            y = y if type(y) is Cyclotomic else Cyclotomic(y)
            xt, yt = _terms(x), _terms(y)
            if xt and yt:
                terms.append((w, x.conductor, xt, y.conductor, yt))
                m = lcm(m, x.conductor, y.conductor)
    acc = [Fraction(0)] * m
    for w, nx, xt, ny, yt in terms:
        sx, sy = m // nx, m // ny
        yt = [(b * sy, v) for b, v in yt]
        for a, u in xt:
            a *= sx
            u *= w
            for b, v in yt:
                acc[(a - b) % m] += u * v
    return from_fractions(m, acc)


def linear_combination(weights, xs) -> Cyclotomic:
    """sum_i weights[i] * xs[i] for rational weights and cyclotomic values,
    accumulated in Q[x]/(x^m - 1) as weighted_dot does and canonicalised once."""
    pairs = [(w, x) for w, x in zip(weights, xs) if w and x]
    m = lcm(1, *(x.conductor for _, x in pairs))
    acc = [Fraction(0)] * m
    for w, x in pairs:
        step = m // x.conductor
        for j, c in _terms(x):
            acc[j * step] += w * c
    return from_fractions(m, acc)


@cache
def _subfield_basis(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Images of the Q(zeta_d) power basis inside Q(zeta_n) (d | n)."""
    step = n // d
    cols = []
    for i in range(euler_phi(d)):
        vec = [Fraction(0)] * (i * step + 1)
        vec[i * step] = Fraction(1)
        cols.append(tuple(reduce_mod_phi(n, vec)))
    return tuple(cols)


def _orbit_lower_once(n: int, coeffs: tuple[Fraction, ...]):
    """(d, coordinates at d) for the first prime p of n whose subfield
    Q(zeta_d), d = n/p, is fixed pointwise by every automorphism fixing
    zeta_d, tested on x itself; the coordinates come from a linear solve in
    the subfield's basis.  None when no such p exists."""
    for p in prime_factors(n):
        d = n // p
        if any(
            gcd(k, n) == 1 and tuple(_galois_apply(n, coeffs, k)) != coeffs
            for k in range(1 + d, n, d)
        ):
            continue
        basis = _subfield_basis(n, d)
        rows = [[col[i] for col in basis] for i in range(euler_phi(n))]
        return d, tuple(solve_exact(rows, list(coeffs)))
    return None


def orbit_canonical(n: int, coeffs) -> tuple[int, tuple[Fraction, ...]]:
    """The minimal conductor and coordinates of sum_j coeffs[j] zeta_n^j
    (coeffs reduced modulo Phi_n), lowered through the Galois-fixed subfields."""
    cur = tuple(coeffs)
    while n > 1:
        if all(c == 0 for c in cur[1:]):
            return 1, (cur[0],)
        lowered = _orbit_lower_once(n, cur)
        if lowered is None:
            break
        n, cur = lowered
    return n, cur


def solve_inverse(x: Cyclotomic) -> Cyclotomic:
    """x^-1 by solving x * y = 1: column j of the multiplication-by-x matrix
    is the reduced x * zeta_n^j."""
    if x.is_rational():
        return Cyclotomic(1 / x.to_rational())
    n = x.conductor
    deg = len(x.coeffs)
    cols = [reduce_mod_phi(n, [Fraction(0)] * j + list(x.coeffs)) for j in range(deg)]
    rows = [[col[i] for col in cols] for i in range(deg)]
    return canonical_value(*orbit_canonical(n, solve_exact(rows, [1] + [0] * (deg - 1))))


def cyclic_table_values(n: int) -> list[tuple[str, list[Cyclotomic]]]:
    """The (label, values) rows of the table of C_n, value by value:
    xi_i(z^k) = zeta_n^(ik)."""
    return [(f"xi_{i}", [root_of_unity(n, i * k) for k in range(n)]) for i in range(n)]


def binary_dihedral_table_values(n: int) -> list[tuple[str, list[Cyclotomic]]]:
    """The (label, values) rows of the table of BD_n, value by value, on the
    classes 1, -1, x, ..., x^{n-1}, y, yx, with sqrt((-1)^n) pinned to zeta_4^n."""
    s = root_of_unity(4, n)
    data = [(lbl, [1] * (n + 1) + [eps, eps]) for eps, lbl in ((1, "delta_0^+"), (-1, "delta_0^-"))]
    for i in range(1, n):
        vals = [2, 2 * (-1) ** i]
        vals += [root_of_unity(2 * n, i * j) + root_of_unity(2 * n, -i * j) for j in range(1, n)]
        data.append((f"delta_{i}", vals + [0, 0]))
    for eps, lbl in ((1, f"delta_{n}^+"), (-1, f"delta_{n}^-")):
        data.append((lbl, [1, (-1) ** n] + [(-1) ** j for j in range(1, n)] + [eps * s, -eps * s]))
    return [(lbl, [Cyclotomic(v) for v in vals]) for lbl, vals in data]


def _generated(G, seeds) -> frozenset[int]:
    """The element indices of the subgroup of G generated by the indices in seeds."""
    out, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in seeds:
            y = G.mul(x, s)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def normal_subgroups(G) -> list[frozenset[int]]:
    """Every normal subgroup of G as a set of element indices, smallest first.

    The normal closure of x is generated by x's class, and a normal subgroup
    is the join of the normal closures of its elements (Isaacs, Character
    Theory of Finite Groups, ch. 2), so the closures of the classes, joined
    until no new subgroup appears, are all of them."""
    found = {_generated(G, cls) for cls in G.classes}
    while True:
        joined = found | {_generated(G, a | b) for a in found for b in found}
        if joined == found:
            return sorted(found, key=lambda sub: (len(sub), sorted(sub)))
        found = joined
