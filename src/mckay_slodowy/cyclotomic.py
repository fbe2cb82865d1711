"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

Values are stored as rational coefficient vectors over the power basis
1, zeta_n, ..., zeta_n^{phi(n)-1}, reduced modulo the n-th cyclotomic
polynomial and lowered to the minimal conductor, so equality and hashing
are structural.  Conductor 1 is the rationals; square roots that occur in
character tables stay inside this domain (sqrt(2) = zeta_8 + zeta_8^-1,
sqrt(-1) = zeta_4).
"""
from __future__ import annotations

import cmath
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .errors import CheckFailure
from .polynomials import IntPoly

Rational = Fraction


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    for p in prime_factors(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_n, via x^n - 1 = prod_{d|n} Phi_d."""
    if n == 1:
        return (-1, 1)
    num = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.divmod_exact(IntPoly(cyclotomic_polynomial(d)))
    return num.coeffs


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (j, c) of Phi_n below its leading term x^phi(n)."""
    phi = cyclotomic_polynomial(n)
    return tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def reduce_mod_phi(n: int, coeffs: list) -> list:
    """Remainder of a coefficient vector modulo Phi_n; result has length phi(n).

    Works on ints and Fractions alike: an integer vector stays integral."""
    tail = _phi_tail(n)
    deg = euler_phi(n)
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            base = i - deg
            for j, p in tail:
                c[base + j] -= top * p
    c = c[:deg]
    c += [0] * (deg - len(c))
    return c


def _galois_apply(n: int, coeffs: tuple[Fraction, ...], k: int) -> list[Fraction]:
    # sum_j coeffs[j] zeta_n^(jk), reduced: for k coprime to n the automorphism
    # zeta -> zeta^k, for k = n/d the embedding of coordinates at conductor d
    out = [Fraction(0)] * n
    for j, cj in enumerate(coeffs):
        if cj:
            out[(j * k) % n] += cj
    return reduce_mod_phi(n, out)


def _lower_once(n: int, coeffs: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]] | None:
    """(d, x's coordinates at d) for the first prime p of n with x in
    Q(zeta_d), d = n/p, else None: x lies there when E = Tr/[Q(zeta_n):Q(zeta_d)]
    (Washington, GTM 83, ch. 2) fixes it.  If p^2 | n, E keeps the coefficients
    at multiples of p, x's coordinates at d; if p || n, E sends zeta_n^i to
    w_i zeta_d^(iq), q = p^-1 mod d, w_i = 1 if p | i else -1/(p - 1)."""
    for p in prime_factors(n):
        d = n // p
        if d % p == 0:
            if not any(c for i, c in enumerate(coeffs) if i % p):
                return d, coeffs[::p]
            continue
        q, w = pow(p, -1, d), Fraction(-1, p - 1)
        y = [Fraction(0)] * d
        for i, c in enumerate(coeffs):
            if c:
                y[i * q % d] += c if i % p == 0 else c * w
        y = tuple(reduce_mod_phi(d, y))
        if p == 2 or tuple(_galois_apply(n, y, p)) == coeffs:
            return d, y
    return None


@lru_cache(maxsize=1 << 18)
def _canonical_cached(n: int, cur: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    # Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)): greedy steps end at the least conductor
    while n > 1:
        if all(c == 0 for c in cur[1:]):
            return 1, (cur[0],)
        lowered = _lower_once(n, cur)
        if lowered is None:
            break
        n, cur = lowered
    return n, cur


# value-pair product cache; character values recur from a small set, so the
# hit rate in group/character computations is high
_MUL_CACHE: dict = {}
_CACHE_LIMIT = 1 << 20


class Cyclotomic:
    """An exact element of Q(zeta_n), immutable and hashable."""

    __slots__ = ("conductor", "coeffs", "_hash", "_conj", "_terms")

    def __init__(self, value: int | Fraction | "Cyclotomic" = 0):
        if isinstance(value, Cyclotomic):
            object.__setattr__(self, "conductor", value.conductor)
            object.__setattr__(self, "coeffs", value.coeffs)
        else:
            object.__setattr__(self, "conductor", 1)
            object.__setattr__(self, "coeffs", (Fraction(value),))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_conj", None)
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @classmethod
    def _raw(cls, n: int, coeffs: list[Fraction]) -> "Cyclotomic":
        """Construct from reduced coefficients (length phi(n)); canonicalizes."""
        return cls._canonical_form(*_canonical_cached(n, tuple(coeffs)))

    @classmethod
    def _canonical_form(cls, n: int, coeffs: tuple[Fraction, ...]) -> "Cyclotomic":
        """Construct from coefficients that are already canonical at conductor n."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "conductor", n)
        object.__setattr__(obj, "coeffs", coeffs)
        object.__setattr__(obj, "_hash", None)
        object.__setattr__(obj, "_conj", None)
        object.__setattr__(obj, "_terms", None)
        return obj

    def _scaled(self, r: Fraction) -> "Cyclotomic":
        """self * r for a rational r.  Lowering is linear, so a nonzero
        multiple of a canonical value is canonical at the same conductor."""
        if r == 1:
            return self
        if r == 0:
            return Cyclotomic(0)
        return Cyclotomic._canonical_form(self.conductor, tuple(c * r for c in self.coeffs))

    def terms(self) -> tuple[tuple[int, int | Fraction], ...]:
        """The nonzero (j, coefficient of zeta_n^j) pairs, each coefficient an
        int when it is integral; computed once per value."""
        t = self._terms
        if t is None:
            t = tuple((j, _integral(c)) for j, c in enumerate(self.coeffs) if c)
            object.__setattr__(self, "_terms", t)
        return t

    # -- predicates / conversions ------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and not self.coeffs[0]

    def is_rational(self) -> bool:
        return self.conductor == 1

    def to_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.conductor == 1 and self.coeffs[0].denominator == 1

    def to_integer(self) -> int:
        r = self.to_rational()
        if r.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return r.numerator

    def to_complex(self) -> complex:
        n = self.conductor
        return sum(
            complex(c) * cmath.exp(2j * cmath.pi * j / n)
            for j, c in enumerate(self.coeffs)
            if c
        ) or complex(0)

    # -- arithmetic ----------------------------------------------------

    def _embedded(self, m: int) -> list[Fraction]:
        return _galois_apply(m, self.coeffs, m // self.conductor)

    @staticmethod
    def _coerce(x) -> "Cyclotomic | None":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = lcm(self.conductor, o.conductor)
        a, b = self._embedded(m), o._embedded(m)
        return Cyclotomic._raw(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(Fraction(-1))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            return self._scaled(o.coeffs[0])
        if self.is_rational():
            return o._scaled(self.coeffs[0])
        key = (self, o)
        hit = _MUL_CACHE.get(key)
        if hit is not None:
            return hit
        m = lcm(self.conductor, o.conductor)
        a, b = self._embedded(m), o._embedded(m)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        result = Cyclotomic._raw(m, reduce_mod_phi(m, prod))
        if len(_MUL_CACHE) < _CACHE_LIMIT:
            _MUL_CACHE[key] = result
        return result

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """The product of x's other Galois conjugates over its norm, down the
        tower: x times its conjugates over Q(zeta_d), d = n/p for the first
        prime p of n, is the relative norm, inverted in Q(zeta_d)."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero cyclotomic value")
        if self.is_rational():
            return Cyclotomic(1 / self.coeffs[0])
        n = self.conductor
        d = n // prime_factors(n)[0]
        others = prod((self.galois(k) for k in range(1 + d, n, d) if gcd(k, n) == 1), start=Cyclotomic(1))
        return others * (self * others).inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta_n -> zeta_n^k (k coprime to the conductor)."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not coprime to conductor {n}")
        # a conjugate generates the same field, so it keeps the conductor
        return Cyclotomic._canonical_form(n, tuple(_galois_apply(n, self.coeffs, k % n)))

    def conj(self) -> "Cyclotomic":
        if self.conductor == 1:
            return self
        cached = self._conj
        if cached is None:
            cached = self.galois(self.conductor - 1)
            object.__setattr__(self, "_conj", cached)
        return cached

    # -- comparisons / formatting ---------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.conductor == o.conductor and self.coeffs == o.coeffs

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes as one
        h = self._hash
        if h is None:
            h = hash(self.coeffs[0] if self.conductor == 1 else (self.conductor, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    def to_text(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"cyc({self.conductor})[{body}]"

    def pretty(self) -> str:
        """Compact display: rationals plainly, single roots of unity as
        r*z{n}^k, anything else as a sum over the power basis."""
        if self.is_rational():
            return str(self.coeffs[0])
        n = self.conductor
        # r*zeta_n^k has coordinates |r| times a primitive integer vector (a
        # unit's), so divide by the content and look the vector and its
        # negative up; for even n both hit, and the smaller k is shown
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = gcd(*ints)
        exponents = _root_exponents(n)
        hits = [(exponents[u], s) for s in (1, -1) if (u := tuple(s * c // g for c in ints)) in exponents]
        if hits:
            k, s = min(hits)
            r = Fraction(s * g, den)
            head = "" if r == 1 else ("-" if r == -1 else f"{r}*")
            return head + f"z{n}" + (f"^{k}" if k > 1 else "")
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}z{n}" + (f"^{j}" if j > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "Cyclotomic":
        text = text.strip()
        if not (text.startswith("cyc(") and text.endswith("]")):
            raise ValueError(f"bad cyclotomic literal: {text!r}")
        head, _, body = text.partition(")[")
        coeffs = [Fraction(part.strip()) for part in body[:-1].split(",") if part.strip()]
        return cls._parsed(int(head[4:]), coeffs)

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict | str) -> "Cyclotomic":
        if isinstance(data, str):
            data = json.loads(data)
        return cls._parsed(int(data["conductor"]), [Fraction(c) for c in data["coeffs"]])

    @classmethod
    def _parsed(cls, n: int, coeffs: list[Fraction]) -> "Cyclotomic":
        """The value sum_j coeffs[j] * zeta_n^j of a parsed literal.  With g
        the gcd of n and the indices of the nonzero coefficients, zeta_n^j =
        zeta_(n/g)^(j/g), so the literal is read at conductor n/g first; a
        rational one never meets Phi_n."""
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        g = gcd(n, *(j for j, c in enumerate(coeffs) if c))
        n, coeffs = n // g, coeffs[::g]
        if n == 1:
            return cls(sum(coeffs))
        coeffs += [Fraction(0)] * (euler_phi(n) - len(coeffs))
        return cls._raw(n, reduce_mod_phi(n, coeffs))

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        return self.to_text()


def _integral(c: Fraction) -> int | Fraction:
    return c.numerator if c.denominator == 1 else c


# -- the lifted form: values of Q(zeta_m) on one integer denominator ---------


def lift(values, m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Values lying in Q(zeta_m) as one positive denominator D and the integer
    vectors D * (power-basis coefficients at conductor m, reduced modulo Phi_m),
    with gcd(D, every coefficient) = 1.  The form is unique and hashable."""
    vecs = [v._embedded(m) for v in values]
    den = lcm(1, *(c.denominator for v in vecs for c in v))
    return normalise_lifted(den, [[(c * den).numerator for c in v] for v in vecs])


def normalise_lifted(den: int, vecs) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Divide a positive denominator and integer vectors by their common gcd."""
    g = gcd(den, *(c for v in vecs for c in v))
    if g == 1:
        return den, tuple(map(tuple, vecs))
    return den // g, tuple(tuple(c // g for c in v) for v in vecs)


def unlift(m: int, den: int, vec) -> Cyclotomic:
    """The canonical value of one lifted vector over its denominator.  A
    rational value and a single root of unity +-zeta_m^k are recognised and
    built directly."""
    if not any(vec[1:]):
        return Cyclotomic(Fraction(vec[0], den))
    g = gcd(den, *vec)
    if g == den:
        unit = tuple(c // g for c in vec)
        exponents = _root_exponents(m)
        k = exponents.get(unit)
        if k is not None:
            return root_of_unity(m, k)
        k = exponents.get(tuple(-c for c in unit))
        if k is not None:
            return -root_of_unity(m, k)
    return Cyclotomic._raw(m, [Fraction(c, den) for c in vec])


@lru_cache(maxsize=None)
def _root_exponents(m: int) -> dict[tuple[int, ...], int]:
    """{power-basis vector of zeta_m^k at conductor m, reduced modulo Phi_m: k}
    for k = 0..m-1, each power the previous one times x, reduced once."""
    tail = _phi_tail(m)
    vec = [1] + [0] * (euler_phi(m) - 1)
    out = {}
    for k in range(m):
        out[tuple(vec)] = k
        top = vec.pop()
        vec.insert(0, 0)
        for j, c in tail:
            vec[j] -= top * c
    return out


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k in canonical (minimal-conductor) form, built directly.  With
    g = gcd(k, n) it is a primitive (n/g)-th root, whose field has conductor
    n/g unless n/g = 2d with d odd; then zeta_2d^j = -zeta_d^((j - d)/2)."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    g = gcd(k, n)
    n = n // g
    k = k // g % n
    sign = 1
    if n % 4 == 2:
        n //= 2
        k, sign = (k - n) // 2 % n, -1
    if n == 1:
        return Cyclotomic(sign)
    vec = [0] * (k + 1)
    vec[k] = sign
    return Cyclotomic._canonical_form(n, tuple(map(Fraction, reduce_mod_phi(n, vec))))


def root_sum(n: int, counts) -> Cyclotomic:
    """sum_j counts[j] * zeta_n^j for rational counts, reduced modulo Phi_n in
    the counts' own arithmetic and canonicalised once.  A rational sum (every
    coefficient past the constant one zero) is built directly."""
    reduced = reduce_mod_phi(n, list(counts))
    if not any(reduced[1:]):
        return Cyclotomic(reduced[0])
    return Cyclotomic._raw(n, [Fraction(c) for c in reduced])


def one_minus_product(values) -> list[int]:
    """Coefficients of prod over v in values of (1 - v t), lowest degree first
    (len(values) + 1 of them); each must be a rational integer.

    Expanded in Q[x]/(x^m - 1), m the lcm of the conductors, where zeta_n^j
    is x^(j*m/n); each coefficient becomes a cyclotomic number once, at the end."""
    m = lcm(1, *(v.conductor for v in values))
    rows = [[1] + [0] * (m - 1)]
    for v in values:
        terms = [(j * (m // v.conductor), c) for j, c in v.terms()]
        rows.append([0] * m)
        # times (1 - v t): each row less v times the one below, highest first
        for row, prev in zip(rows[:0:-1], rows[-2::-1]):
            for s, c in terms:
                for r, x in enumerate(prev):
                    if x:
                        row[(r + s) % m] -= c * x
    coeffs = [root_sum(m, row) for row in rows]
    for c in coeffs:
        if not c.is_integer():
            raise CheckFailure(f"coefficient {c} of prod (1 - chi_V(g) t) is not a rational integer")
    return [c.to_integer() for c in coeffs]


def zeta(n: int, k: int = 1) -> Cyclotomic:
    return root_of_unity(n, k)


def sqrt2() -> Cyclotomic:
    """sqrt(2) realized as zeta_8 + zeta_8^{-1}."""
    return root_of_unity(8, 1) + root_of_unity(8, -1)


def sqrt_minus1() -> Cyclotomic:
    return root_of_unity(4, 1)
