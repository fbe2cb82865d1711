"""Integer polynomials in one variable t, with the exact determinant and gcd
machinery needed for Cramer closed forms of generating series."""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import CheckFailure


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients, ascending order.

    The zero polynomial is the empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = _trim(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def t(cls) -> "IntPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        result, base = IntPoly.const(1), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x):
        if isinstance(x, Fraction) and self.coeffs:
            # Horner on numerator and denominator in integers: sum c_i p^i q^(d-i)
            # over q^d, with one gcd at the end instead of one per step
            p, q = x.numerator, x.denominator
            num, den = 0, 1
            for c in reversed(self.coeffs):
                num, den = num * p + c * den, den * q
            return Fraction(num, den // q)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_exact(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient in Z[t]; raises if the division is not exact."""
        if other.is_zero():
            raise ZeroDivisionError
        if self.is_zero():
            return IntPoly()
        rem = list(self.coeffs)
        den = other.coeffs
        db = len(den) - 1
        lead = den[-1]
        q = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                f, r = divmod(c, lead)
                if r:
                    raise ArithmeticError("non-exact polynomial division")
                q[i - db] = f
                for j, d in enumerate(den, i - db):
                    rem[j] -= f * d
        if any(rem):
            raise ArithmeticError("non-exact polynomial division")
        return IntPoly(q)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = int_gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        g = self.content()
        if g in (0, 1):
            return self
        return IntPoly([c // g for c in self.coeffs])

    def __eq__(self, other):
        other = _as_poly(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def pretty(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def _as_poly(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,)) if x else IntPoly()
    raise TypeError(f"cannot coerce {type(x).__name__} to IntPoly")


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """GCD in Z[t] via primitive pseudo-remainder sequences; result primitive
    with positive leading coefficient (content gcd folded back in)."""
    if a.is_zero():
        return _positive(b)
    if b.is_zero():
        return _positive(a)
    ca, cb = a.content(), b.content()
    p, q = a.primitive(), b.primitive()
    if p.degree < q.degree:
        p, q = q, p
    while not q.is_zero():
        r = _prem(p, q).primitive()
        p, q = q, r
    g = _positive(p)
    c = int_gcd(ca, cb)
    return IntPoly([c * x for x in g.coeffs])


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Remainder of lc(b)^(deg a - deg b + 1) * a modulo b (exact in Z[t])."""
    da, db = a.degree, b.degree
    if da < db:
        return a
    lead = b.coeffs[-1]
    rem = [c * lead ** (da - db + 1) for c in a.coeffs]
    for i in range(da, db - 1, -1):
        c = rem[i]
        if c:
            if c % lead:
                raise ArithmeticError("pseudo-remainder bookkeeping error")
            f = c // lead
            for j in range(db + 1):
                rem[i - db + j] -= f * b.coeffs[j]
    return IntPoly(rem[:db])


def _positive(p: IntPoly) -> IntPoly:
    if not p.is_zero() and p.coeffs[-1] < 0:
        return -p
    return p


def det_poly(matrix: list[list[IntPoly]]) -> IntPoly:
    """Determinant of a square matrix over Z[t], by fraction-free Bareiss
    elimination.  The closed forms take their determinants from
    faddeev_leverrier; this is the independent oracle they are tested against."""
    n = len(matrix)
    if n == 0:
        return IntPoly.const(1)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    m = [[matrix[i][j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = IntPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot is None:
                return IntPoly()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.divmod_exact(prev)
            m[i][k] = IntPoly()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def faddeev_leverrier(mat) -> tuple[list[int], list[list[list[int]]]]:
    """The Faddeev-LeVerrier recurrence over Z for a square integer matrix A
    (Gantmacher, The Theory of Matrices, vol. 1, ch. IV):

        B_0 = I,  a_k = -tr(A B_(k-1)) / k,  B_k = A B_(k-1) + a_k I.

    Returns ([a_0 = 1, a_1, ..., a_r], [B_0, ..., B_(r-1)]), so that
    det(I - tA) = sum a_k t^k, det(tI - A) = sum a_k t^(r-k) and
    adj(I - tA) = sum B_k t^k.  Each division by k is exact and B_r = 0
    (Cayley-Hamilton); CheckFailure if either fails.  A is read by its
    nonzero entries, so one step costs O(r * nnz(A)) integer operations.
    """
    r = len(mat)
    for row in mat:
        if len(row) != r:
            raise ValueError("matrix must be square")
    rows = [[(l, x) for l, x in enumerate(row) if x] for row in mat]
    coeffs = [1]
    mats: list[list[list[int]]] = []
    B = [[int(i == j) for j in range(r)] for i in range(r)]
    for k in range(1, r + 1):
        mats.append(B)
        AB = [[0] * r for _ in range(r)]
        for out, row in zip(AB, rows):
            for l, x in row:
                for j, y in enumerate(B[l]):
                    if y:
                        out[j] += x * y
        a, rem = divmod(-sum(AB[i][i] for i in range(r)), k)
        if rem:
            raise CheckFailure(f"Faddeev-LeVerrier: tr(A B_{k - 1}) is not divisible by {k}")
        for i in range(r):
            AB[i][i] += a
        coeffs.append(a)
        B = AB
    if any(any(row) for row in B):
        raise CheckFailure("Faddeev-LeVerrier: B_r is not zero (Cayley-Hamilton fails)")
    return coeffs, mats


def identity_minus_t(mat: list[list[int]], transpose: bool = False) -> list[list[IntPoly]]:
    """The polynomial matrix I - t*M (or I - t*M^T)."""
    n = len(mat)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            a = mat[j][i] if transpose else mat[i][j]
            coeffs = [1 if i == j else 0, -a]
            row.append(IntPoly(coeffs))
        out.append(row)
    return out


def char_poly(mat: list[list[int]]) -> IntPoly:
    """det(t*I - M) as an integer polynomial, from faddeev_leverrier."""
    coeffs, _ = faddeev_leverrier(mat)
    return IntPoly(coeffs[::-1])
