"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

A value is stored as (n, D, ints): integer coordinates over the power basis
1, zeta_n, ..., zeta_n^{phi(n)-1}, reduced modulo the n-th cyclotomic
polynomial, over one positive denominator D with gcd(D, ints) = 1, and at
the minimal conductor n.  The form is unique, so equality and hashing are
structural, and arithmetic runs on integers; Fractions appear only at the
edges (`Rational`, `to_rational`, `coeffs`, parsing, display).  Conductor 1
is the rationals; square roots that occur in character tables stay inside
this domain (sqrt(2) = zeta_8 + zeta_8^-1, sqrt(-1) = zeta_4).
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


def reduced(m: int, terms) -> list:
    """Sparse (exponent, coefficient) terms of Z[x]/(x^m - 1), exponents read
    modulo m, as the vector reduced modulo Phi_m (length phi(m)).  Integer
    terms give an integer vector."""
    acc = [0] * m
    for a, u in terms:
        acc[a % m] += u
    return reduce_mod_phi(m, acc)


def _galois_apply(n: int, ints, k: int) -> list:
    # sum_j ints[j] zeta_n^(jk), reduced: for k coprime to n the automorphism
    # zeta -> zeta^k, for k = n/d the embedding of coordinates at conductor d;
    # both keep a vector's content, so the image stays over the same D
    return reduced(n, ((j * k, c) for j, c in enumerate(ints) if c))


def _lower_once(n: int, den: int, ints: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]] | None:
    """(d, D', x's coordinates at d) for the first prime p of n with x in
    Q(zeta_d), d = n/p, else None: x lies there when E = Tr/[Q(zeta_n):Q(zeta_d)]
    (Washington, GTM 83, ch. 2) fixes it.  If p^2 | n, E keeps the coefficients
    at multiples of p, x's coordinates at d; if p || n, E sends zeta_n^i to
    w_i zeta_d^(iq), q = p^-1 mod d, w_i = 1 if p | i else -1/(p - 1): integral
    over (p - 1) * D.  E(x) = x keeps the denominator, as embeddings do."""
    for p in prime_factors(n):
        d = n // p
        if d % p == 0:
            if not any(c for i, c in enumerate(ints) if i % p):
                return d, den, ints[::p]
            continue
        q, y = pow(p, -1, d), [0] * d
        for i, c in enumerate(ints):
            if c:
                y[i * q % d] += c * (p - 1) if i % p == 0 else -c
        y_den, (y,) = normalise_lifted(den * (p - 1), [reduce_mod_phi(d, y)])
        if p == 2 or (y_den == den and tuple(_galois_apply(n, y, p)) == ints):
            return d, y_den, y
    return None


@lru_cache(maxsize=1 << 18)
def _canonical_cached(n: int, den: int, ints: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    # Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)): greedy steps end at the least conductor
    while n > 1:
        if not any(ints[1:]):
            return 1, den, ints[:1]
        lowered = _lower_once(n, den, ints)
        if lowered is None:
            break
        n, den, ints = lowered
    return n, den, ints


# value-pair product cache; character values recur from a small set, so the
# hit rate in group/character computations is high
_MUL_CACHE: dict = {}
_CACHE_LIMIT = 1 << 20


class Cyclotomic:
    """An exact element of Q(zeta_n), immutable and hashable: the integer
    coordinates `ints` at the minimal conductor over the denominator `den`."""

    __slots__ = ("conductor", "den", "ints", "_hash")

    def __init__(self, value: int | Fraction | "Cyclotomic" = 0):
        if isinstance(value, Cyclotomic):
            self._set(value.conductor, value.den, value.ints)
        elif isinstance(value, (int, Fraction)):
            self._set(1, value.denominator, (int(value.numerator),))
        else:
            raise TypeError(f"a Cyclotomic is an int, a Fraction or a Cyclotomic, not {type(value).__name__}")

    def _set(self, n: int, den: int, ints: tuple[int, ...]) -> None:
        for name, value in zip(self.__slots__, (n, den, ints, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @classmethod
    def _unlift(cls, n: int, den: int, ints) -> "Cyclotomic":
        """The canonical value of sum_j ints[j] zeta_n^j / den, for integer
        coordinates reduced modulo Phi_n and a positive denominator; the one
        constructor, public as `unlift`.  A rational value is built directly."""
        den, (ints,) = normalise_lifted(den, (ints,))
        if not any(ints[1:]):
            return cls._canonical_form(1, den, ints[:1])
        return cls._canonical_form(*_canonical_cached(n, den, ints))

    @classmethod
    def _canonical_form(cls, n: int, den: int, ints: tuple[int, ...]) -> "Cyclotomic":
        """Construct from coordinates that are already canonical at conductor n."""
        obj = object.__new__(cls)
        obj._set(n, den, ints)
        return obj

    def _scaled(self, num: int, den: int = 1) -> "Cyclotomic":
        """self * num/den for integers num and den > 0.  Lowering is linear,
        so a nonzero multiple of a canonical value is canonical at the same
        conductor."""
        if num == den:
            return self
        if not num:
            return Cyclotomic(0)
        den, (ints,) = normalise_lifted(self.den * den, ([c * num for c in self.ints],))
        return Cyclotomic._canonical_form(self.conductor, den, ints)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients at the conductor, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    def terms_at(self, m: int, den: int) -> tuple[tuple[int, int], ...]:
        """The nonzero terms (j * m/n, c * den/D) of den * self in
        Z[x]/(x^m - 1), for m a multiple of the conductor n and den one of
        the denominator D; they are not reduced modulo Phi_m."""
        s, t = m // self.conductor, den // self.den
        return tuple((j * s, c * t) for j, c in enumerate(self.ints) if c)

    # -- predicates / conversions ------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and not self.ints[0]

    def is_rational(self) -> bool:
        return self.conductor == 1

    def to_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.ints[0], self.den)

    def is_integer(self) -> bool:
        return self.conductor == 1 and self.den == 1

    def to_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not {'an integer' if self.is_rational() else 'rational'}")
        return self.ints[0]

    def to_complex(self) -> complex:
        n, den = self.conductor, self.den
        return sum(
            complex(c / den) * cmath.exp(2j * cmath.pi * j / n)
            for j, c in enumerate(self.ints)
            if c
        ) or complex(0)

    # -- arithmetic ----------------------------------------------------

    def _embedded(self, m: int) -> list[int]:
        """The coordinates at conductor m (a multiple of the conductor), over `den`."""
        return reduced(m, self.terms_at(m, self.den))

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
        m, den = lcm(self.conductor, o.conductor), lcm(self.den, o.den)
        return Cyclotomic._unlift(m, den, reduced(m, self.terms_at(m, den) + o.terms_at(m, den)))

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

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
            return self._scaled(o.ints[0], o.den)
        if self.is_rational():
            return o._scaled(self.ints[0], self.den)
        key = (self, o)
        hit = _MUL_CACHE.get(key)
        if hit is not None:
            return hit
        m = lcm(self.conductor, o.conductor)
        b = o.terms_at(m, o.den)
        prod = reduced(m, [(i + j, x * y) for i, x in self.terms_at(m, self.den) for j, y in b])
        result = Cyclotomic._unlift(m, self.den * o.den, prod)
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
            return Cyclotomic(Fraction(self.den, self.ints[0]))
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
        return Cyclotomic._canonical_form(n, self.den, tuple(_galois_apply(n, self.ints, k % n)))

    def conj(self) -> "Cyclotomic":
        return self if self.conductor == 1 else self.galois(self.conductor - 1)

    # -- comparisons / formatting ---------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.conductor == o.conductor and self.den == o.den and self.ints == o.ints

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes as one
        h = self._hash
        if h is None:
            h = hash(self.to_rational() if self.conductor == 1 else (self.conductor, self.den, self.ints))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    def to_text(self) -> str:
        # integral coordinates print as their Fractions do, without building them
        body = ", ".join(map(str, self.ints if self.den == 1 else self.coeffs))
        return f"cyc({self.conductor})[{body}]"

    def pretty(self) -> str:
        """Compact display: rationals plainly, single roots of unity as
        r*z{n}^k, anything else as a sum over the power basis."""
        if self.is_rational():
            return str(self.to_rational())
        n = self.conductor
        # r*zeta_n^k has coordinates |r| times a primitive integer vector (a
        # unit's), so divide by the content and look the vector and its
        # negative up; for even n both hit, and the smaller k is shown
        g = gcd(*self.ints)
        exponents = _root_exponents(n)
        hits = [(exponents[u], s) for s in (1, -1) if (u := tuple(s * c // g for c in self.ints)) in exponents]
        if hits:
            k, s = min(hits)
            r = Fraction(s * g, self.den)
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
        """The value sum_j coeffs[j] * zeta_n^j of a parsed literal; a literal
        may list more than n coefficients, and zeta_n^j = zeta_n^(j mod n)."""
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        den = lcm(1, *(c.denominator for c in coeffs))
        return from_terms(n, den, [(j, c.numerator * (den // c.denominator)) for j, c in enumerate(coeffs) if c])

    def __repr__(self):
        if self.is_rational():
            return str(self.to_rational())
        return self.to_text()


# -- the lifted form: values of Q(zeta_m) on one integer denominator ---------


def lift(values, m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Values lying in Q(zeta_m) as one positive denominator D, the lcm of
    theirs, and the integer vectors D * (power-basis coefficients at conductor
    m, reduced modulo Phi_m); each value's own gcd(den, ints) = 1 makes
    gcd(D, every coefficient) = 1.  The form is unique and hashable."""
    den = lcm(1, *(v.den for v in values))
    return den, tuple(tuple(c * (den // v.den) for c in v._embedded(m)) for v in values)


def normalise_lifted(den: int, vecs) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Divide a positive denominator and integer vectors by their common gcd."""
    g = gcd(den, *(c for v in vecs for c in v))
    if g == 1:
        return den, tuple(map(tuple, vecs))
    return den // g, tuple(tuple(c // g for c in v) for v in vecs)


unlift = Cyclotomic._unlift


def from_terms(m: int, den: int, terms) -> Cyclotomic:
    """The canonical value of sparse (exponent, integer) terms of
    Z[x]/(x^m - 1) over a positive den: reduced and unlifted at their least
    level m/g, g the gcd of m and the exponents, so lowering starts as low
    as the terms allow."""
    terms = tuple(terms)
    g = gcd(m, *(a for a, _ in terms))
    return unlift(m // g, den, reduced(m // g, [(a // g, u) for a, u in terms]))


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
    """zeta_n^k in canonical (minimal-conductor) form."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    return from_terms(n, 1, ((k % n, 1),))


def one_minus_product(values) -> list[int]:
    """Coefficients of prod over v in values of (1 - v t), lowest degree first
    (len(values) + 1 of them); each must be a rational integer.

    Expanded in Z[x]/(x^m - 1), m the lcm of the conductors, where zeta_n^j
    is x^(j*m/n), with every value over D the lcm of the denominators, so
    the coefficient of t^r is over D^r; each becomes a cyclotomic number
    once, at the end."""
    m = lcm(1, *(v.conductor for v in values))
    den = lcm(1, *(v.den for v in values))
    rows = [[1] + [0] * (m - 1)]
    for v in values:
        terms = v.terms_at(m, den)
        rows.append([0] * m)
        # times (1 - v t): each row less v times the one below, highest first
        for row, prev in zip(rows[:0:-1], rows[-2::-1]):
            for s, c in terms:
                for r, x in enumerate(prev):
                    if x:
                        row[(r + s) % m] -= c * x
    coeffs = [Cyclotomic._unlift(m, den**r, reduce_mod_phi(m, row)) for r, row in enumerate(rows)]
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
