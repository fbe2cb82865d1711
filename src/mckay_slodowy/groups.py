"""Finite groups with exact element arithmetic.

Two element backends: 2x2 matrices over cyclotomic numbers (the SU(2)
subgroups, built from their standard generators) and permutations of
{1..m} (S4, A4).  Groups are closed by breadth-first multiplication from
the identity; conjugacy classes come from orbit enumeration.  Normal
pairs carry the embedding of N into G and the set Upsilon(N) of G-class
representatives lying in N.  The named families (FAMILIES) and the
distinguished pairs (PAIRS) are one catalog row each.
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import cache, partial
from math import lcm
from typing import Callable

from .cyclotomic import (
    Cyclotomic,
    euler_phi,
    lift,
    normalise_lifted,
    reduce_mod_phi,
    root_of_unity,
    sqrt2,
    sqrt_minus1,
    unlift,
)
from .errors import CheckFailure, ClosureBoundExceeded, DomainError
from .record import Record

DEFAULT_MAX_ORDER = 10000


def _max_order(override: int | None) -> int:
    if override is not None:
        return override
    env = os.environ.get("MSC_MAX_GROUP_ORDER")
    return int(env) if env else DEFAULT_MAX_ORDER


class Matrix2:
    """2x2 matrix over Cyclotomic, row-major entries (a, b, c, d)."""

    __slots__ = ("entries",)

    def __init__(self, a, b, c, d):
        object.__setattr__(
            self, "entries", tuple(Cyclotomic(x) if not isinstance(x, Cyclotomic) else x for x in (a, b, c, d))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Matrix2 is immutable")

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, x, y) -> "Matrix2":
        return cls(x, 0, 0, y)

    def __mul__(self, other: "Matrix2") -> "Matrix2":
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return Matrix2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def det(self) -> Cyclotomic:
        a, b, c, d = self.entries
        return a * d - b * c

    def inverse(self) -> "Matrix2":
        a, b, c, d = self.entries
        dt = self.det()
        return Matrix2(d / dt, -b / dt, -c / dt, a / dt)

    def trace(self) -> Cyclotomic:
        return self.entries[0] + self.entries[3]

    def is_unitary(self) -> bool:
        a, b, c, d = self.entries
        conj_t = Matrix2(a.conj(), c.conj(), b.conj(), d.conj())
        return conj_t * self == Matrix2.identity()

    def __eq__(self, other):
        return isinstance(other, Matrix2) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Matrix2{self.entries}"

    def serialize(self) -> list[str]:
        return [e.to_text() for e in self.entries]


class Permutation:
    """Permutation of {1..m}, stored as the 0-based image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise DomainError(f"not a bijection: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(m))

    @classmethod
    def from_cycles(cls, m: int, *cycles) -> "Permutation":
        """Build from 1-based cycles, e.g. from_cycles(4, (1,2,3))."""
        imgs = list(range(m))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                imgs[a - 1] = cyc[(i + 1) % len(cyc)] - 1
        return cls(imgs)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p*q)(i) = p(q(i)): apply q first
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{tuple(i + 1 for i in self.images)}"

    def serialize(self) -> list[int]:
        return [i + 1 for i in self.images]


class FiniteGroup:
    """A concrete finite group: ordered elements (identity first), conjugacy
    classes and chosen class representatives.

    Products are computed on indices, never on elements: ``_right[k][i]`` is
    the index of ``elements[i] * generators[k]``, and the breadth-first
    spanning tree ``elements[i] = elements[_parent[i]] * generators[_parent_gen[i]]``
    turns those tables into inverses, conjugation by the generators and
    general products.  Memory is O(|G| * #generators).
    """

    def __init__(self, elements, generators, name="", right_mul=None):
        self.elements = list(elements)
        self.order = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.generators = list(generators)
        self.name = name
        self.family_info: tuple[str, int | None] | None = None
        self.class_labels: list[str] | None = None
        self._element_orders: list[int] | None = None
        self._exponent: int | None = None
        if right_mul is None:
            try:
                right_mul = [[self.index[e * g] for e in self.elements] for g in self.generators]
            except KeyError:
                raise DomainError("elements are not closed under the generators") from None
        self._right: list[list[int]] = right_mul
        self._spanning_tree()
        self.classes: list[list[int]] = []
        self.class_reps: list[int] = []
        self.class_of: list[int] = []
        self._compute_classes()

    def _spanning_tree(self) -> None:
        """Breadth-first tree from the identity (index 0) over the right
        multiplication tables, then every inverse by one pass down the tree:
        (w * a)^-1 = a^-1 * w^-1."""
        right, n = self._right, self.order
        for k, g in enumerate(self.generators):
            if self.index.get(g) != right[k][0]:
                raise DomainError("the first element must be the identity")
        parent, parent_gen = [0] * n, [-1] * n
        seen = [False] * n
        seen[0] = True
        tree_order = [0]
        for w in tree_order:
            for k, row in enumerate(right):
                p = row[w]
                if not seen[p]:
                    seen[p] = True
                    parent[p], parent_gen[p] = w, k
                    tree_order.append(p)
        if len(tree_order) != n:
            raise DomainError("the generators do not generate every element")
        self._parent, self._parent_gen = parent, parent_gen
        # left multiplication by a^-1 along the tree: a^-1 (w b) = (a^-1 w) b
        left_inv = []
        for row in right:
            table = [0] * n
            table[0] = row.index(0)
            for j in tree_order[1:]:
                table[j] = right[parent_gen[j]][table[parent[j]]]
            left_inv.append(table)
        inverses = [0] * n
        for j in tree_order[1:]:
            inverses[j] = left_inv[parent_gen[j]][inverses[parent[j]]]
        self._inverses = inverses

    # -- basic operations ------------------------------------------------

    def _word(self, j: int) -> list[int]:
        """Generator indices spelling element j from the identity, in order."""
        word = []
        while j:
            word.append(self._parent_gen[j])
            j = self._parent[j]
        word.reverse()
        return word

    def mul(self, i: int, j: int) -> int:
        right = self._right
        for k in self._word(j):
            i = right[k][i]
        return i

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def conjugate_by_generator(self, x: int, k: int) -> int:
        """generators[k]^-1 * x * generators[k], as an index."""
        r, inv = self._right[k], self._inverses
        # g^-1 y = (y^-1 g)^-1 with y = x g
        return inv[r[inv[r[x]]]]

    def element_order(self, i: int) -> int:
        if self._element_orders is None:
            self._element_orders = [0] * self.order
        if self._element_orders[i] == 0:
            k, j = 1, i
            while j != 0:
                j = self.mul(j, i)
                k += 1
            self._element_orders[i] = k
        return self._element_orders[i]

    def exponent(self) -> int:
        """The lcm of the element orders, over one representative per class
        (conjugates share an order, so choosing other representatives
        leaves it alone); computed once and kept on the group."""
        if self._exponent is None:
            self._exponent = lcm(1, *(self.element_order(c) for c in self.class_reps))
        return self._exponent

    def _compute_classes(self) -> None:
        # conjugation by generators generates conjugation by the whole group
        gens = range(len(self.generators))
        seen = [False] * self.order
        classes = []
        for start in range(self.order):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            for x in orbit:
                for k in gens:
                    y = self.conjugate_by_generator(x, k)
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            classes.append(sorted(orbit))
        classes.sort(key=lambda c: c[0])
        self.classes = classes
        self.class_reps = [c[0] for c in classes]
        self.class_of = [0] * self.order
        for ci, members in enumerate(classes):
            for m in members:
                self.class_of[m] = ci

    def class_sizes(self) -> list[int]:
        return [len(c) for c in self.classes]

    def set_class_reps(self, reps: list[int], labels: list[str] | None = None) -> None:
        """Reorder the conjugacy classes to follow the given representatives."""
        if len(reps) != len(self.classes):
            raise DomainError(
                f"{len(reps)} representatives given for {len(self.classes)} classes"
            )
        class_ids = [self.class_of[r] for r in reps]
        if sorted(class_ids) != list(range(len(self.classes))):
            raise DomainError("representatives do not hit every class exactly once")
        self.classes = [self.classes[ci] for ci in class_ids]
        self.class_reps = list(reps)
        for ci, members in enumerate(self.classes):
            for m in members:
                self.class_of[m] = ci
        if labels is not None:
            self.class_labels = list(labels)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "classes": [
                {"rep": self.elements[r].serialize(), "size": len(c)}
                for r, c in zip(self.class_reps, self.classes)
            ],
        }

    def __repr__(self):
        return f"FiniteGroup({self.name or 'unnamed'}, order={self.order})"


def generate(gens, max_order: int | None = None, name: str = "") -> FiniteGroup:
    """Close a nonempty generator list under multiplication (breadth-first
    from the identity, generator order as given).  Each product w * g is
    computed once and kept as the group's right multiplication table.
    Matrices are multiplied as integer keys in Z[zeta_m] (see _lifted_closure)."""
    gens = list(gens)
    if not gens:
        raise DomainError("at least one generator required")
    first = gens[0]
    if isinstance(first, Matrix2):
        identity = Matrix2.identity()
    elif isinstance(first, Permutation):
        identity = Permutation.identity(len(first.images))
    else:
        raise DomainError(f"unsupported element type {type(first).__name__}")
    for g in gens:
        if type(g) is not type(first):
            raise DomainError("mixed element backends")
    bound = _max_order(max_order)
    if isinstance(first, Matrix2):
        elements, right = _lifted_closure(gens, bound)
    else:
        elements, right = _closure(identity, lambda w: [w * g for g in gens], len(gens), bound)
    return FiniteGroup(elements, gens, name=name, right_mul=right)


def _closure(identity, products, count: int, bound: int):
    """Breadth-first closure from the identity of hashable elements:
    products(w) lists w * g for each of the count generators.  Returns
    (elements, right) with right[k][i] the index of elements[i] * gens[k]."""
    elements = [identity]
    index = {identity: 0}
    # the queue is the element list
    right: list[list[int]] = [[] for _ in range(count)]
    for w in elements:
        for row, p in zip(right, products(w)):
            j = index.get(p)
            if j is None:
                if len(elements) >= bound:
                    raise ClosureBoundExceeded(
                        f"closure exceeded the bound of {bound} elements"
                    )
                j = index[p] = len(elements)
                elements.append(p)
            row.append(j)
    return elements, right


def _lifted_closure(gens: list[Matrix2], bound: int):
    """_closure for 2x2 matrices, run on integer keys.

    Every product of the generators has its entries in Q(zeta_m), m the lcm
    of the generators' entry conductors, so a group element is its lifted
    form there: one positive denominator and four integer vectors of length
    phi(m) (cyclotomic.lift).  That form is unique, so it is the hash key.
    A product costs two sparse integer convolutions per entry, one integer
    reduction modulo Phi_m and one gcd; canonical Matrix2 values are built
    once, for the final element list."""
    m = lcm(*(e.conductor for g in gens for e in g.entries))
    lifted = [lift(g.entries, m) for g in gens]
    sparse_gens = [(den, [_sparse(v) for v in vecs]) for den, vecs in lifted]

    def products(w):
        den, vecs = w
        a, b, c, d = map(_sparse, vecs)
        out = []
        for den_g, (e, f, g, h) in sparse_gens:
            entries = (_dot2(m, a, e, b, g), _dot2(m, a, f, b, h), _dot2(m, c, e, d, g), _dot2(m, c, f, d, h))
            out.append(normalise_lifted(den * den_g, entries))
        return out

    keys, right = _closure(lift(Matrix2.identity().entries, m), products, len(gens), bound)
    value = cache(partial(unlift, m))  # entries recur across elements
    return [Matrix2(*(value(den, v) for v in vecs)) for den, vecs in keys], right


def _sparse(vec: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(j, c) for j, c in enumerate(vec) if c]


def _dot2(m: int, x, e, y, f) -> list[int]:
    """x*e + y*f modulo Phi_m, for sparse integer coefficient vectors."""
    acc = [0] * (2 * euler_phi(m) - 1)
    for p, q in ((x, e), (y, f)):
        for i, u in p:
            for j, v in q:
                acc[i + j] += u * v
    return reduce_mod_phi(m, acc)


# -- the named families ---------------------------------------------------


def _tetra_generators() -> tuple[Matrix2, Matrix2, Matrix2]:
    i = sqrt_minus1()
    half_inv_s2 = Fraction(1, 2) * sqrt2()  # 1/sqrt(2)
    t8, t8i = root_of_unity(8, 1), root_of_unity(8, -1)
    x = Matrix2.diagonal(i, -i)
    y = Matrix2(0, i, i, 0)
    z = Matrix2(
        half_inv_s2 * t8i, half_inv_s2 * t8i, -(half_inv_s2 * t8), half_inv_s2 * t8
    )
    return x, y, z


# Each builder takes (n, max_order) and returns the closed group, its class
# representatives in the order of the character table's columns, and their
# labels.


def _cyclic(n: int, max_order: int):
    z = Matrix2.diagonal(root_of_unity(n, -1), root_of_unity(n, 1))
    G = generate([z], max_order, name=f"C_{n}")
    zi = G.index[z]
    reps, cur = [0], zi
    for _ in range(n - 1):
        reps.append(cur)
        cur = G.mul(cur, zi)
    return G, reps, ["1"] + [f"z^{k}" if k > 1 else "z" for k in range(1, n)]


def _binary_dihedral(n: int, max_order: int):
    x = Matrix2.diagonal(root_of_unity(2 * n, -1), root_of_unity(2 * n, 1))
    y = Matrix2(0, sqrt_minus1(), sqrt_minus1(), 0)
    G = generate([x, y], max_order, name=f"D_{n}")
    if G.order != 4 * n:
        raise CheckFailure(f"binary dihedral closure has order {G.order}, expected {4*n}")
    xi, yi = G.index[x], G.index[y]
    powers = [0]
    for _ in range(2 * n - 1):
        powers.append(G.mul(powers[-1], xi))
    reps = [0, powers[n]] + powers[1:n] + [yi, G.mul(yi, xi)]
    return G, reps, ["1", "-1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)] + ["y", "yx"]


def _binary_tetrahedral(n: None, max_order: int):
    x, y, z = _tetra_generators()
    G = generate([x, y, z], max_order, name="T")
    xi, zi = G.index[x], G.index[z]
    minus1 = G.mul(xi, xi)
    z2 = G.mul(zi, zi)
    reps = [0, minus1, xi, zi, z2, G.mul(minus1, zi), G.mul(minus1, z2)]
    return G, reps, ["1", "-1", "x", "z", "z^2", "-z", "-z^2"]


def _binary_octahedral(n: None, max_order: int):
    _, y, z = _tetra_generators()
    u = Matrix2.diagonal(root_of_unity(8, 1), root_of_unity(8, -1))
    G = generate([u, y, z], max_order, name="O")
    ui, yi, zi = G.index[u], G.index[y], G.index[z]
    u2 = G.mul(ui, ui)
    minus1 = G.mul(u2, u2)
    reps = [0, minus1, ui, G.mul(minus1, ui), yi, G.mul(ui, yi), zi, G.mul(minus1, zi)]
    return G, reps, ["1", "-1", "u", "-u", "y", "uy", "z", "-z"]


def _symmetric4(n: None, max_order: int):
    cycles = partial(Permutation.from_cycles, 4)
    G = generate([cycles((1, 2)), cycles((1, 2, 3, 4))], max_order, name="S_4")
    reps = [cycles(), cycles((1, 2)), cycles((1, 2, 3)), cycles((1, 2, 3, 4)), cycles((1, 2), (3, 4))]
    return G, [G.index[r] for r in reps], ["1", "(12)", "(123)", "(1234)", "(12)(34)"]


def _alternating4(n: None, max_order: int):
    cycles = partial(Permutation.from_cycles, 4)
    G = generate([cycles((1, 2, 3)), cycles((1, 2, 4))], max_order, name="A_4")
    reps = [cycles(), cycles((1, 2, 3)), cycles((1, 3, 2)), cycles((1, 2), (3, 4))]
    return G, [G.index[r] for r in reps], ["1", "(123)", "(132)", "(12)(34)"]


class GroupFamily(Record):
    """One named family: the least n it takes (None for a single group), its
    order as a closed form in n, and its builder."""

    n_min: int | None
    order: Callable[[int | None], int]
    build: Callable


FAMILIES = {
    "cyclic": GroupFamily(2, lambda n: n, _cyclic),
    "binary_dihedral": GroupFamily(2, lambda n: 4 * n, _binary_dihedral),
    "binary_tetrahedral": GroupFamily(None, lambda n: 24, _binary_tetrahedral),
    "binary_octahedral": GroupFamily(None, lambda n: 48, _binary_octahedral),
    "symmetric4": GroupFamily(None, lambda n: 24, _symmetric4),
    "alternating4": GroupFamily(None, lambda n: 12, _alternating4),
}
FAMILY_NAMES = tuple(FAMILIES)


def _checked_row(rows: dict, kind: str, name: str, n: int | None, subject: str):
    """The catalog row of name, once n fits it; subject opens the message for
    a missing or small n."""
    row = rows.get(name)
    if row is None:
        raise DomainError(f"unknown {kind} {name!r}; choose from {tuple(rows)}")
    if row.n_min is None:
        if n is not None:
            raise DomainError(f"{kind} {name} takes no n")
    elif n is None or n < row.n_min:
        raise DomainError(f"{subject} requires n >= {row.n_min}")
    return row


def _checked_n(n):
    # checked before the memoised lookup, where 4.0 would find the entry for 4
    if n is None or type(n) is int:
        return n
    raise DomainError(f"n must be an integer, not {n!r}")


def family(name: str, n: int | None = None, max_order: int | None = None) -> FiniteGroup:
    """One of the named group families, with conjugacy class representatives
    ordered to match its character table columns.  Results are shared
    (memoized) per parameter set and effective order bound."""
    return _family_cached(name, _checked_n(n), _max_order(max_order))


@cache
def _family_cached(name: str, n: int | None, max_order: int) -> FiniteGroup:
    row = _checked_row(FAMILIES, "family", name, n, name)
    order = row.order(n)
    if order > max_order:
        raise ClosureBoundExceeded(
            f"{name} has order {order}, above the bound of {max_order} elements"
        )
    G, reps, labels = row.build(n, max_order)
    G.set_class_reps(reps, labels)
    G.family_info = (name, n)
    return G


class NormalPair:
    """A pair N normal in G with the embedding and Upsilon(N) data."""

    def __init__(self, G: FiniteGroup, N: FiniteGroup, name: str = "", default_v: str | None = None):
        self.G = G
        self.N = N
        self.name = name
        self.default_v_label = default_v
        try:
            self.embed = [G.index[e] for e in N.elements]
        except KeyError as exc:
            raise DomainError(f"subgroup element {exc.args[0]!r} not found in G") from None
        if G.order % N.order:
            raise DomainError("subgroup order does not divide group order")
        self.index = G.order // N.order
        image = set(self.embed)
        # conjugation by the generators implies conjugation by all of G
        for k in range(len(G.generators)):
            for h in self.embed:
                if G.conjugate_by_generator(h, k) not in image:
                    raise DomainError(f"{N.name} is not normal in {G.name}")
        self._image = image
        self.upsilonN = [
            ci for ci, rep in enumerate(G.class_reps) if rep in image
        ]
        # each N-class sits inside a single G-class
        self.n_class_to_g_class = [
            G.class_of[self.embed[rep]] for rep in N.class_reps
        ]
        # the PAIRS key and n of a distinguished pair; None for a generic one
        self.family: str | None = None
        self.n: int | None = None

    def exhaustive_normality_check(self) -> bool:
        """g n g^-1 in N for every g in G and n in N (exact, element by element)."""
        G = self.G
        for g in range(G.order):
            gi = G.inv(g)
            for h in self.embed:
                if G.mul(G.mul(g, h), gi) not in self._image:
                    return False
        return True

    def g_class_with_n_values(self, g_class: int) -> int | None:
        """Some N-class contained in the given G-class, or None."""
        for nc, gc in enumerate(self.n_class_to_g_class):
            if gc == g_class:
                return nc
        return None

    def induction_profile(self) -> list[dict[int, int]]:
        """For each G-class rep g, the counts {N-class: #{x in G : x^-1 g x in that class}}.

        x -> x^-1 g x maps G onto Cl_G(g) with fibres of size |G| / |Cl_G(g)|,
        so an N-class c inside Cl_G(g) is hit |c| * |G| / |Cl_G(g)| times
        (Isaacs, Character Theory of Finite Groups, ch. 5)."""
        G, N = self.G, self.N
        profile: list[dict[int, int]] = [{} for _ in G.classes]
        for nc, gc in enumerate(self.n_class_to_g_class):
            profile[gc][nc] = len(N.classes[nc]) * G.order // len(G.classes[gc])
        return profile

    def __repr__(self):
        return f"NormalPair({self.name or (self.N.name + ' < ' + self.G.name)})"


class PairFamily(Record):
    """One distinguished pair N < G, or one family of them indexed by n: the
    least n it takes (None for a single pair), the (family name, n) of G and
    of N as a function of n, the label of the default module V, and what the
    paper asserts of it.  That is the (restriction, induction) Dynkin types
    ("unrecognized" where the graphs are no affine diagrams), the kind of
    index-correspondence relations ("main", "special" or None), and, where
    the invariants series has a binomial closed form, the order of the
    alternating sum in its denominator."""

    n_min: int | None
    groups: Callable[[int | None], tuple[tuple[str, int | None], tuple[str, int | None]]]
    module: str
    types: Callable[[int | None], tuple[str, str]]
    relation: str | None
    closed_form: Callable[[int], int] | None = None


PAIRS = {
    "A2n-1^2": PairFamily(
        3, lambda n: (("binary_dihedral", 2 * (n - 1)), ("binary_dihedral", n - 1)), "delta_1",
        lambda n: (f"A_{2 * n - 1}^(2)", f"B_{n}^(1)"), "main", lambda n: n - 2),
    "Dn+1^2": PairFamily(
        2, lambda n: (("binary_dihedral", n), ("cyclic", 2 * n)), "delta_1",
        lambda n: (f"D_{n + 1}^(2)", f"C_{n}^(1)"), "main", lambda n: n - 1),
    "A2n^2": PairFamily(
        2, lambda n: (("binary_dihedral", 2 * n), ("cyclic", 2 * n)), "delta_1",
        lambda n: (f"A_{2 * n}^(2)", f"C_{n}^(1)"), "special"),
    "E6^2": PairFamily(
        None, lambda n: (("binary_octahedral", None), ("binary_tetrahedral", None)), "omega_1^+",
        lambda n: ("E_6^(2)", "F_4^(1)"), "main"),
    "D4^3": PairFamily(
        None, lambda n: (("binary_tetrahedral", None), ("binary_dihedral", 2)), "tau_1",
        lambda n: ("D_4^(3)", "G_2^(1)"), "main"),
    "A2^2": PairFamily(
        None, lambda n: (("binary_dihedral", 2), ("cyclic", 2)), "delta_1",
        lambda n: ("A_2^(2)", "A_1^(1)"), "special"),
    "S4A4": PairFamily(
        None, lambda n: (("symmetric4", None), ("alternating4", None)), "rho_2^+",
        lambda n: ("unrecognized", "unrecognized"), None),
}
PAIR_NAMES = tuple(PAIRS)
PAIR_N_MIN = {name: row.n_min for name, row in PAIRS.items() if row.n_min is not None}


def normal_pair(name: str, n: int | None = None, max_order: int | None = None) -> NormalPair:
    """One of the distinguished pairs N < G, with the standard embeddings.
    Results are shared (memoized) per parameter set and effective order bound."""
    return _normal_pair_cached(name, _checked_n(n), _max_order(max_order))


@cache
def _normal_pair_cached(name: str, n: int | None, max_order: int) -> NormalPair:
    row = _checked_row(PAIRS, "pair", name, n, f"pair {name}")
    (g_name, g_n), (n_name, n_n) = row.groups(n)
    G = family(g_name, g_n, max_order)
    N = family(n_name, n_n, max_order)
    pair = NormalPair(G, N, name=f"({G.name}, {N.name})", default_v=row.module)
    pair.family, pair.n = name, n
    return pair


def pair_from_groups(G: FiniteGroup, N: FiniteGroup, name: str = "") -> NormalPair:
    """Generic pair constructor: N's elements must all occur in G."""
    return NormalPair(G, N, name=name)
