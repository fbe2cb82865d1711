"""Exact character tables, induction/restriction between a normal pair, and a
Dixon-Schneider table computation over a prime field used as an independent
oracle.

The named families get their tables from closed formulas (one row per
irreducible, in the classical layout); anything else falls back to the
Dixon-Schneider computation, which is exact as well.  Cyclic, binary dihedral
and Dixon-Schneider rows are born lifted, as integer exponent terms, and a
value is canonicalised only when it is read.
"""
from __future__ import annotations

from functools import cache, cached_property
from math import isqrt, lcm
from operator import mul

from .cyclotomic import (
    Cyclotomic,
    from_terms,
    prime_factors,
    reduce_mod_phi,
    reduced,
    root_of_unity,
    sqrt2,
)
from .errors import CheckFailure, DomainError
from .groups import FiniteGroup, NormalPair
from .record import Record


class ClassFunction:
    """A function constant on conjugacy classes, one cyclotomic value per class.

    It is held in either of two forms, and the other is built on first use.
    One is the canonical values.  The other is the lifted form (m, D, cols):
    cols[c] holds the sparse (exponent mod m, integer) terms of D * f(c) in
    Z[x]/(x^m - 1), where zeta_m^j is x^j.  The terms are not reduced modulo
    Phi_m, and one exponent may occur in several terms: pairing with a table
    is a ring map, and _pairings reduces once per irreducible.  Table rows
    are born lifted; sums, scalars, conjugates, products, induction and the
    pairings run on the lifted form; `values` reduces and canonicalises each
    class once, when read."""

    __slots__ = ("group", "_values", "_lifted", "_hash")

    def __init__(self, group: FiniteGroup, values):
        vals = tuple(v if isinstance(v, Cyclotomic) else Cyclotomic(v) for v in values)
        if len(vals) != len(group.classes):
            raise DomainError(
                f"{len(vals)} values for {len(group.classes)} classes"
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_lifted", None)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_lifted(cls, group: FiniteGroup, m: int, den: int, cols) -> "ClassFunction":
        """The class function with lifted form (m, den, cols); see the class."""
        cols = tuple(cols)
        if len(cols) != len(group.classes):
            raise DomainError(f"{len(cols)} values for {len(group.classes)} classes")
        if type(m) is not int or type(den) is not int or m < 1 or den < 1:
            raise DomainError(f"a lifted form needs positive integers m and D, not {m!r} and {den!r}")
        obj = object.__new__(cls)
        object.__setattr__(obj, "group", group)
        object.__setattr__(obj, "_values", None)
        object.__setattr__(obj, "_lifted", (m, den, cols))
        object.__setattr__(obj, "_hash", None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction is immutable")

    @property
    def values(self) -> tuple[Cyclotomic, ...]:
        vals = self._values
        if vals is None:
            m, den, cols = self._lifted
            vals = tuple(from_terms(m, den, terms) for terms in cols)
            object.__setattr__(self, "_values", vals)
        return vals

    def value_at(self, c: int) -> Cyclotomic:
        """f at class c; from the lifted form, that class alone is reduced and unlifted."""
        if self._values is not None:
            return self._values[c]
        m, den, cols = self._lifted
        return from_terms(m, den, cols[c])

    def is_zero_at(self, c: int) -> bool:
        """Whether f vanishes at class c, read off the lifted form."""
        m, _, cols = self.lifted()
        return not cols[c] or not any(reduced(m, cols[c]))

    def lifted(self) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
        """The lifted form (m, D, cols); a function built from values is
        lifted at m the lcm of the group exponent and its conductors."""
        lf = self._lifted
        if lf is None:
            vals = self._values
            m = lcm(self.group.exponent(), *(v.conductor for v in vals))
            den = lcm(1, *(v.den for v in vals))
            lf = (m, den, tuple(v.terms_at(m, den) for v in vals))
            object.__setattr__(self, "_lifted", lf)
        return lf

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        # pointwise product = character of the tensor product; a scalar is a constant function
        if not isinstance(other, ClassFunction):
            if Cyclotomic._coerce(other) is None:
                return NotImplemented
            other = ClassFunction(self.group, [other] * len(self.group.classes))
        elif other.group is not self.group:
            raise DomainError("class functions live on different groups")
        return _lifted_product(self, other)

    __rmul__ = __mul__

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if other.group is not self.group:
            raise DomainError("class functions live on different groups")
        return _lifted_combination((1, 1), (self, other))

    def conj(self) -> "ClassFunction":
        m, den, cols = self.lifted()  # conjugation sends zeta_m^a to zeta_m^-a
        return ClassFunction.from_lifted(self.group, m, den, [tuple((-a % m, u) for a, u in t) for t in cols])

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.values == self.values
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.group), self.values))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {[str(v) for v in self.values]})"


def _lifted_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """f * g pointwise, by one sparse convolution per class in
    Z[x]/(x^m - 1), m the lcm of the two conductors, over D_f * D_g."""
    mf, df, cf = f.lifted()
    mg, dg, cg = g.lifted()
    m = lcm(mf, mg)
    sf, sg = m // mf, m // mg
    cols = [
        _collect(((a * sf + b * sg) % m, u * w) for a, u in tf for b, w in tg)
        for tf, tg in zip(cf, cg)
    ]
    return ClassFunction.from_lifted(f.group, m, df * dg, cols)


def _lifted_combination(coeffs, fs) -> ClassFunction:
    """sum_i coeffs[i] * fs[i] for integer coeffs: each f_i's terms rescaled to
    m and D the lcms of the conductors and denominators, collected class by class."""
    forms = [(c, f.lifted()) for c, f in zip(coeffs, fs) if c]
    m = lcm(*(f_m for _, (f_m, _, _) in forms))
    den = lcm(*(f_den for _, (_, f_den, _) in forms))
    scaled = [(m // f_m, c * (den // f_den), cols) for c, (f_m, f_den, cols) in forms]
    cols = [
        _collect((a * s, w * u) for s, w, f_cols in scaled for a, u in f_cols[k])
        for k in range(len(fs[0].group.classes))
    ]
    return ClassFunction.from_lifted(fs[0].group, m, den, cols)


def _entry(m: int, terms: tuple, step: int = 1) -> tuple[tuple[int, int], ...]:
    """A table entry given by its terms at level m, as its terms at level
    m * step, or as its one constant term (none for 0) when it is rational:
    pairings among rational entries then stay constant blocks, which need
    no reduction."""
    vec = reduced(m, terms)
    if not any(vec[1:]):
        return ((0, vec[0]),) if vec[0] else ()
    return tuple((a * step, u) for a, u in terms) if step > 1 else terms


def _collect(terms) -> tuple[tuple[int, int], ...]:
    """Sparse (exponent, coefficient) terms with equal exponents summed and
    zero sums dropped."""
    acc: dict[int, int] = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return tuple((e, c) for e, c in acc.items() if c)


class Character(Record):
    base: ClassFunction
    label: str
    irreducible: bool = False

    @property
    def group(self) -> FiniteGroup:
        return self.base.group

    @property
    def values(self):
        return self.base.values

    @property
    def degree(self) -> int:
        return self.base.value_at(0).to_integer()


class CharacterTable:
    def __init__(self, group: FiniteGroup, irreducibles: list[Character]):
        self.group = group
        self.irreducibles = list(irreducibles)
        self.labels = [c.label for c in self.irreducibles]
        if len(self.irreducibles) != len(group.classes):
            raise CheckFailure(
                f"{len(self.irreducibles)} irreducibles for {len(group.classes)} classes"
            )
        # each row, as the Character and as its base, by identity: the table
        # holds both, so no other live object shares their ids
        self._row_ids = {id(x): i for i, chi in enumerate(self.irreducibles) for x in (chi, chi.base)}

    def __iter__(self):
        return iter(self.irreducibles)

    def __len__(self):
        return len(self.irreducibles)

    def __getitem__(self, key: int | str) -> Character:
        if isinstance(key, str):
            key = self.index(key)
        return self.irreducibles[key]

    def index(self, label: str) -> int:
        """The row index of the irreducible labelled `label`."""
        if label not in self.labels:
            raise DomainError(
                f"no irreducible {label!r} of {self.group.name or 'the group'}, whose labels are {self.labels}"
            )
        return self.labels.index(label)

    def row_of(self, f: Character | ClassFunction) -> int | None:
        """The index of f if it is one of the rows, the Character or its base
        itself (not an equal copy), else None; no value is read."""
        return self._row_ids.get(id(f))

    @cached_property
    def degrees(self) -> list[int]:
        """chi(1) for each row, read once per table."""
        return [c.degree for c in self.irreducibles]

    @cached_property
    def trivial(self) -> int:
        """The index of the trivial character: the row whose lifted columns
        are all the one term (0, D), the way every table writes the value 1,
        so no value is read."""
        for i, chi in enumerate(self.irreducibles):
            _, den, cols = chi.base.lifted()
            if all(col == ((0, den),) for col in cols):
                return i
        raise CheckFailure(f"no trivial character in the table of {self.group.name or 'the group'}")

    def decompose(self, f: ClassFunction) -> tuple[int, ...]:
        """Multiplicities of the irreducibles in f (must be non-negative
        integers), from one pass of _pairings."""
        den, vecs = _pairings(self, f)
        mults = []
        for chi, vec in zip(self.irreducibles, vecs):
            q, r = divmod(vec[0], den)
            if r or q < 0 or any(vec[1:]):
                m = inner_product(f, chi.base)
                raise CheckFailure(
                    f"non-integral multiplicity {m} of {chi.label} in a class function"
                )
            mults.append(q)
        return tuple(mults)

    def to_json(self) -> dict:
        return {
            "labels": self.labels,
            "classes": self.group.class_labels
            or [str(i) for i in range(len(self.group.classes))],
            "class_sizes": self.group.class_sizes(),
            "values": [[v.to_text() for v in c.values] for c in self.irreducibles],
        }


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum over classes of size * a(g) * conj(b(g)): the lifted
    a * conj(b), its terms summed with the class sizes as weights, reduced
    modulo Phi_m once and unlifted once, over |G| * D."""
    m, den, cols = (a * b.conj()).lifted()
    terms = ((e, size * u) for size, col in zip(a.group.class_sizes(), cols) for e, u in col)
    return from_terms(m, a.group.order * den, terms)


# -- the lifted dual: every pairing <f, chi_i> in one pass ---------------------


@cache
def _table_dual(tbl: CharacterTable, m: int):
    """The conjugate table lifted once into Z[x]/(x^M - 1), M the lcm of m
    and the rows' lifted m, read off the rows' lifted forms (no value is
    read), where conjugation sends x^a to x^-a: (M, D, dual) with D one
    shared denominator and dual[c] the terms (i*M, b, w) of
    |c| * D * conj(chi_i(c)) = sum of w * x^b."""
    forms = [chi.base.lifted() for chi in tbl]
    m = lcm(m, *(row_m for row_m, _, _ in forms))
    den = lcm(1, *(row_den for _, row_den, _ in forms))
    dual = []
    for c, size in enumerate(tbl.group.class_sizes()):
        col = []
        for i, (row_m, row_den, cols) in enumerate(forms):
            step, scale = m // row_m, size * (den // row_den)
            col.extend((i * m, -a * step % m, scale * u) for a, u in cols[c])
        dual.append(tuple(col))
    return m, den, tuple(dual)


def _pairings(tbl: CharacterTable, f: ClassFunction) -> tuple[int, list[list[int]]]:
    """All k pairings <f, chi_i> in one pass over f's terms: (D, vecs) with
    <f, chi_i> = sum_j vecs[i][j] zeta_m^j / D, vecs[i] reduced modulo Phi_m.

    f's lifted form is read against the table's lifted dual; integers
    accumulate in Z[x]/(x^m - 1), one block of m per irreducible,
    and each block is reduced once.  No cyclotomic value is built."""
    if f.group is not tbl.group:
        raise DomainError("class functions live on different groups")
    f_m, f_den, cols = f.lifted()
    # the group exponent covers every genuine character value
    m, dual_den, dual = _table_dual(tbl, lcm(tbl.group.exponent(), f_m))
    step = m // f_m
    acc = [0] * (len(tbl) * m)
    for terms, col in zip(cols, dual):
        for a, u in terms:
            a *= step
            for base, b, w in col:
                acc[base + (a + b) % m] += u * w
    blocks = (acc[base:base + m] for base in range(0, len(acc), m))
    # a block with nothing past x^0 is already reduced
    vecs = [reduce_mod_phi(m, blk) if any(blk[1:]) else blk for blk in blocks]
    return tbl.group.order * dual_den * f_den, vecs


# -- exact family tables ----------------------------------------------------


def _rows(group: FiniteGroup, data) -> CharacterTable:
    """The table with one irreducible per (label, ClassFunction) entry, in order."""
    return CharacterTable(group, [Character(f, lbl, irreducible=True) for lbl, f in data])


def _literal(group: FiniteGroup, data) -> CharacterTable:
    """The table of (label, values) entries written out by hand."""
    return _rows(group, [(lbl, ClassFunction(group, vals)) for lbl, vals in data])


def _table_cyclic(group: FiniteGroup, n: int) -> CharacterTable:
    # xi_i(z^k) = zeta_n^(ik), lifted at the exponent n
    return _rows(group, [
        (f"xi_{i}", ClassFunction.from_lifted(group, n, 1, [_entry(n, ((i * k % n, 1),)) for k in range(n)]))
        for i in range(n)
    ])


def _table_binary_dihedral(group: FiniteGroup, n: int) -> CharacterTable:
    # classes: 1, -1, x, ..., x^{n-1}, y, yx; lifted at the exponent m, where
    # x^h stands for zeta_2n, x^s for the pinned sqrt((-1)^n) = zeta_4^n, and
    # a rational c is the one term (0, c)
    m = lcm(2 * n, 4)
    h, s = m // (2 * n), n * m // 4 % m
    data = [(lbl, [((0, 1),)] * (n + 1) + [((0, eps),)] * 2) for eps, lbl in ((1, "delta_0^+"), (-1, "delta_0^-"))]
    for i in range(1, n):
        cols = [((0, 2),), ((0, 2 * (-1) ** i),)]
        cols += [_entry(m, ((i * j * h % m, 1), (-i * j * h % m, 1))) for j in range(1, n)]
        data.append((f"delta_{i}", cols + [(), ()]))
    for eps, lbl in ((1, f"delta_{n}^+"), (-1, f"delta_{n}^-")):
        signs = [((0, (-1) ** j),) for j in (0, n, *range(1, n))]
        data.append((lbl, signs + [((s, eps),), ((s, -eps),)]))
    return _rows(group, [(lbl, ClassFunction.from_lifted(group, m, 1, cols)) for lbl, cols in data])


def _table_tetrahedral(group: FiniteGroup, n: None) -> CharacterTable:
    w = root_of_unity(3)
    w2 = root_of_unity(3, 2)
    return _literal(group, [
        ("tau_0", [1, 1, 1, 1, 1, 1, 1]),
        ("tau_0'", [1, 1, 1, w, w2, w, w2]),
        ("tau_0''", [1, 1, 1, w2, w, w2, w]),
        ("tau_1", [2, -2, 0, 1, -1, -1, 1]),
        ("tau_1'", [2, -2, 0, w, -w2, -w, w2]),
        ("tau_1''", [2, -2, 0, w2, -w, -w2, w]),
        ("tau_2", [3, 3, -1, 0, 0, 0, 0]),
    ])


def _table_octahedral(group: FiniteGroup, n: None) -> CharacterTable:
    r2 = sqrt2()
    return _literal(group, [
        ("omega_0^+", [1, 1, 1, 1, 1, 1, 1, 1]),
        ("omega_1^+", [2, -2, r2, -r2, 0, 0, 1, -1]),
        ("omega_2^+", [3, 3, 1, 1, -1, -1, 0, 0]),
        ("omega_3", [4, -4, 0, 0, 0, 0, -1, 1]),
        ("omega_4", [2, 2, 0, 0, 2, 0, -1, -1]),
        ("omega_2^-", [3, 3, -1, -1, -1, 1, 0, 0]),
        ("omega_1^-", [2, -2, -r2, r2, 0, 0, 1, -1]),
        ("omega_0^-", [1, 1, -1, -1, 1, -1, 1, 1]),
    ])


def _table_symmetric4(group: FiniteGroup, n: None) -> CharacterTable:
    return _literal(group, [
        ("rho_0^+", [1, 1, 1, 1, 1]),
        ("rho_0^-", [1, -1, 1, -1, 1]),
        ("rho_1", [2, 0, -1, 0, 2]),
        ("rho_2^+", [3, 1, 0, -1, -1]),
        ("rho_2^-", [3, -1, 0, 1, -1]),
    ])


def _table_alternating4(group: FiniteGroup, n: None) -> CharacterTable:
    w, w2 = root_of_unity(3), root_of_unity(3, 2)
    return _literal(group, [
        ("phi_0", [1, 1, 1, 1]),
        ("phi_1", [1, w, w2, 1]),
        ("phi_2", [1, w2, w, 1]),
        ("phi_3", [3, 0, 0, -1]),
    ])


# closed-form tables by family name (groups.FAMILIES), each built from (group, n)
_TABLES = {
    "cyclic": _table_cyclic,
    "binary_dihedral": _table_binary_dihedral,
    "binary_tetrahedral": _table_tetrahedral,
    "binary_octahedral": _table_octahedral,
    "symmetric4": _table_symmetric4,
    "alternating4": _table_alternating4,
}


@cache
def table(group: FiniteGroup) -> CharacterTable:
    """Exact character table; closed formulas for the named families,
    Dixon-Schneider otherwise."""
    kind, n = group.family_info or (None, None)
    builder = _TABLES.get(kind)
    return table_numeric(group) if builder is None else builder(group, n)


# -- Dixon-Schneider oracle ------------------------------------------------


def _krylov(M: list[list[int]], v: list[int], p: int) -> tuple[list[list[int]], list[int]]:
    """The vectors v, Mv, M^2 v, ... over F_p up to the first linear
    dependence, and the monic minimal polynomial of v (lowest degree first)."""
    krylov: list[list[int]] = []
    echelon = []  # (pivot, reduced vector, its coefficients on the Krylov vectors)
    while True:
        r, c = v, [0] * len(krylov) + [1]
        for piv, row, rc in echelon:
            f = r[piv]
            if f:
                r = [(a - f * b) % p for a, b in zip(r, row)]
                c = [(a - f * b) % p for a, b in zip(c, rc)] + c[len(rc):]
        piv = next((i for i, x in enumerate(r) if x), None)
        if piv is None:
            return krylov, c
        inv = pow(r[piv], -1, p)
        echelon.append((piv, [x * inv % p for x in r], [x * inv % p for x in c]))
        krylov.append(v)
        v = [sum(map(mul, row, v)) % p for row in M]


def _value(poly: list[int], x: int, p: int) -> int:
    """poly(x) over F_p, coefficients lowest degree first."""
    acc = 0
    for a in reversed(poly):
        acc = (acc * x + a) % p
    return acc


def table_numeric(group: FiniteGroup) -> CharacterTable:
    """Character table by the Dixon-Schneider algorithm, exactly, from the
    group multiplication alone (Dixon, Numer. Math. 10 (1967) 446-450;
    Schneider, J. Symbolic Comput. 9 (1990) 601-606), then re-verified.

    The central characters w_l = |C_l| chi(g_l) / chi(1) are the common
    eigenvectors of the class matrices M_i[j][l] = #{x in C_i : x^-1 z_l in C_j}
    (z_l the class representatives).  They are found over F_p, p = 1 mod e the
    exponent and p^2 > 4|G|, where a primitive e-th root of unity z stands for
    zeta_e; every chi(g) = sum_j m_j zeta_o^j (o the order of g) is read off
    its multiplicities 0 <= m_j <= chi(1) < p/2, and is born lifted at e as
    the terms (j*e/o, m_j)."""
    k, order, e = len(group.classes), group.order, group.exponent()
    cls, sizes = group.class_of, group.class_sizes()
    coeff = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, rep in enumerate(group.class_reps):
        for x in range(order):
            coeff[cls[x]][cls[group.mul(group.inv(x), rep)]][l] += 1
    p = e + 1
    while p * p <= 4 * order or prime_factors(p) != (p,):
        p += e
    z = next(
        z for z in (pow(a, (p - 1) // e, p) for a in range(2, p))
        if all(pow(z, e // q, p) != 1 for q in prime_factors(e))
    )
    # Each common eigenspace is kept as a cyclic vector.  The unit vector of the
    # identity class is sum over chi of (chi(1)^2 / |G|) w_chi, so it meets
    # every w_chi, and so do its projections onto the eigenspaces of each M
    # (Lagrange interpolation in M on its Krylov vectors).
    spaces = [[int(l == 0) for l in range(k)]]
    for M in coeff[1:]:
        if len(spaces) == k:
            break
        split = []
        for v in spaces:
            krylov, mu = _krylov(M, v, p)
            roots = [x for x in range(p) if not _value(mu, x, p)] if len(mu) > 2 else [-mu[0] % p]
            for lam in roots:
                q = [mu[-1]]  # mu / (x - lam), highest degree first
                for a in reversed(mu[1:-1]):
                    q.append((a + lam * q[-1]) % p)
                q.reverse()
                scale = pow(_value(q, lam, p), -1, p)
                split.append([sum(map(mul, q, col)) * scale % p for col in zip(*krylov)])
        spaces = split
    if len(spaces) != k:
        raise CheckFailure(f"the class matrices of {group.name or 'the group'} do not separate its characters")
    zpow = [pow(z, -s, p) for s in range(e)]
    star = [cls[group.inv(rep)] for rep in group.class_reps]
    inv_sizes = [pow(size, -1, p) for size in sizes]
    powers, dft = [], {}
    for rep in group.class_reps:
        o, cur, pc = group.element_order(rep), 0, []
        for _ in range(o):
            pc.append(cls[cur])
            cur = group.mul(cur, rep)
        powers.append(pc)
        if o not in dft:
            dft[o] = [[zpow[(e // o) * j * t % e] for t in range(o)] for j in range(o)]
    rows = []  # (degree, the row born lifted at e)
    for u in spaces:
        w = [x * pow(u[0], -1, p) % p for x in u]
        norm = sum(w[l] * w[star[l]] * inv_sizes[l] for l in range(k)) % p
        target = order * pow(norm, -1, p) % p
        degree = next((d for d in range(1, isqrt(order) + 1) if d * d % p == target), None)
        if degree is None:
            raise CheckFailure(f"no character degree d with d^2 = {target} mod {p}")
        chi = [degree * w[l] * inv_sizes[l] % p for l in range(k)]
        cols = []
        for pc in powers:
            o = len(pc)
            xs = [chi[c] for c in pc]
            mults = [sum(map(mul, xs, row)) * pow(o, -1, p) % p for row in dft[o]]
            if max(mults) > degree:
                raise CheckFailure(f"eigenvalue multiplicities {mults} exceed the degree {degree} mod {p}")
            cols.append(_entry(o, tuple((j, mj) for j, mj in enumerate(mults) if mj), e // o))
        rows.append((degree, ClassFunction.from_lifted(group, e, 1, cols)))
    rows.sort(key=lambda row: (row[0], [v.to_text() for v in row[1].values]))
    result = _rows(group, [(f"chi_{i}", f) for i, (_, f) in enumerate(rows)])
    verify_table(result)
    return result


def verify_table(tbl: CharacterTable) -> None:
    """Exact squareness, degree and row-orthogonality checks; CheckFailure on
    any violation.

    Column orthogonality follows and is not checked again.  Let X be the
    k x k table (rows irreducibles, columns classes) and D = diag(|C|).  Row
    orthogonality is X D X* = |G| I, so D X* / |G| is a right inverse of X.
    X is square, so it is also a left inverse: D X* X = |G| I, that is
    X* X = |G| D^-1, which is column orthogonality,
    sum_chi conj(chi(a)) chi(b) = [a = b] |G| / |C_a|."""
    group = tbl.group
    k = len(tbl.irreducibles)
    if k != len(group.classes):
        raise CheckFailure(f"{k} irreducibles for {len(group.classes)} classes")
    if sum(d * d for d in tbl.degrees) != group.order:
        raise CheckFailure("sum of squared degrees does not equal the group order")
    # rows[j] = (den, vecs) with vecs[i] the lifted den * <chi_j, chi_i>
    rows = [_pairings(tbl, chi.base) for chi in tbl.irreducibles]
    for i in range(k):
        for j in range(i, k):
            den, vecs = rows[j]
            vec = vecs[i]
            if vec[0] != (den if i == j else 0) or any(vec[1:]):
                ip = inner_product(tbl.irreducibles[i].base, tbl.irreducibles[j].base)
                raise CheckFailure(
                    f"row orthogonality fails at ({tbl.labels[i]}, {tbl.labels[j]}): {ip}"
                )


# -- induction / restriction -------------------------------------------------


class Decomposed(Record):
    """A class function together with its decomposition into irreducibles."""

    function: ClassFunction
    multiplicities: tuple[int, ...]
    table: CharacterTable

    def as_label_dict(self) -> dict[str, int]:
        return {
            lbl: m
            for lbl, m in zip(self.table.labels, self.multiplicities)
            if m
        }

    @property
    def degree(self) -> int:
        """f(1) = sum_i m_i chi_i(1), read off the multiplicities."""
        return sum(map(mul, self.multiplicities, self.table.degrees))


def restrict(pair: NormalPair, chi: Character | ClassFunction) -> Decomposed:
    """Pull a G-character back along the embedding of N: its lifted columns at N's classes."""
    return _memoised(_restriction, pair, pair.G, chi)


def induce(pair: NormalPair, phi: Character | ClassFunction) -> Decomposed:
    """Induce an N-character up to G (zero off the classes meeting N).

    (Ind phi)(g) = (1/|N|) sum over N-classes c of counts[c] * phi(c), with
    the counts of pair.induction_profile(), is summed on phi's lifted terms:
    the result stays lifted, over |N| * D."""
    return _memoised(_induction, pair, pair.N, phi)


def _memoised(compute, pair: NormalPair, group: FiniteGroup, f) -> Decomposed:
    """compute(pair, f), memoised.  A row of table(group), as the Character
    or as its base, is found by identity and memoised by its index, so no
    value of it is read; anything else is memoised by its values."""
    i = table(group).row_of(f)
    return _by_value(compute, pair, f) if i is None else _by_row(compute, pair, group, i)


@cache
def _by_row(compute, pair: NormalPair, group: FiniteGroup, i: int) -> Decomposed:
    return compute(pair, table(group)[i])


@cache
def _by_value(compute, pair: NormalPair, f) -> Decomposed:
    return compute(pair, f)


def _restriction(pair: NormalPair, chi: Character | ClassFunction) -> Decomposed:
    base = chi.base if isinstance(chi, Character) else chi
    if base.group is not pair.G:
        raise DomainError("character does not belong to the pair's big group")
    m, den, cols = base.lifted()
    f = ClassFunction.from_lifted(pair.N, m, den, [cols[gc] for gc in pair.n_class_to_g_class])
    tbl = table(pair.N)
    return Decomposed(f, tbl.decompose(f), tbl)


def _induction(pair: NormalPair, phi: Character | ClassFunction) -> Decomposed:
    base = phi.base if isinstance(phi, Character) else phi
    if base.group is not pair.N:
        raise DomainError("character does not belong to the pair's subgroup")
    m, den, cols = base.lifted()
    induced = [
        _collect((a, count * u) for nc, count in counts.items() for a, u in cols[nc])
        for counts in pair.induction_profile()
    ]
    f = ClassFunction.from_lifted(pair.G, m, pair.N.order * den, induced)
    tbl = table(pair.G)
    return Decomposed(f, tbl.decompose(f), tbl)


def frobenius_check(pair: NormalPair) -> list[list[int]]:
    """<rho_i, Ind phi_k>_G == <Res rho_i, phi_k>_N for all (i, k); returns the
    common integer matrix, raises CheckFailure on any mismatch.

    The two sides are entry i of induce(pair, phi_k).multiplicities and entry
    k of restrict(pair, rho_i).multiplicities: the same exact pairings, each
    already checked to be a non-negative integer by decompose."""
    induced = [induce(pair, phi).multiplicities for phi in table(pair.N)]
    restricted = [restrict(pair, rho).multiplicities for rho in table(pair.G)]
    out = []
    for i, res in enumerate(restricted):
        row = []
        for k, ind in enumerate(induced):
            if ind[i] != res[k]:
                raise CheckFailure(
                    f"Frobenius reciprocity fails at (i={i}, k={k}): {ind[i]} vs {res[k]}"
                )
            row.append(ind[i])
        out.append(row)
    return out
