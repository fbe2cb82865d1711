"""Exact character tables, induction/restriction between a normal pair, and a
numeric Burnside-type table computation used as an independent oracle.

The named families get their tables from closed formulas (cyclotomic values,
one row per irreducible, in the classical layout); anything else falls back
to the numeric computation with exact snapping.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .cyclotomic import Cyclotomic, root_of_unity, sqrt2, weighted_dot
from .errors import CheckFailure, DomainError
from .groups import FiniteGroup, NormalPair


class ClassFunction:
    """A function constant on conjugacy classes, one cyclotomic value per class."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        vals = tuple(v if isinstance(v, Cyclotomic) else Cyclotomic(v) for v in values)
        if len(vals) != len(group.classes):
            raise DomainError(
                f"{len(vals)} values for {len(group.classes)} classes"
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction is immutable")

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        # pointwise product = character of the tensor product
        if isinstance(other, ClassFunction):
            if other.group is not self.group:
                raise DomainError("class functions live on different groups")
            return ClassFunction(self.group, [a * b for a, b in zip(self.values, other.values)])
        return ClassFunction(self.group, [v * other for v in self.values])

    __rmul__ = __mul__

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if other.group is not self.group:
            raise DomainError("class functions live on different groups")
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def conj(self) -> "ClassFunction":
        return ClassFunction(self.group, [v.conj() for v in self.values])

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.values == self.values
        )

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {[str(v) for v in self.values]})"


@dataclass(frozen=True)
class Character:
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
        return self.base.values[0].to_integer()


class CharacterTable:
    def __init__(self, group: FiniteGroup, irreducibles: list[Character]):
        self.group = group
        self.irreducibles = list(irreducibles)
        self.labels = [c.label for c in self.irreducibles]
        if len(self.irreducibles) != len(group.classes):
            raise CheckFailure(
                f"{len(self.irreducibles)} irreducibles for {len(group.classes)} classes"
            )

    def __iter__(self):
        return iter(self.irreducibles)

    def __len__(self):
        return len(self.irreducibles)

    def __getitem__(self, key: int | str) -> Character:
        if isinstance(key, str):
            return self.irreducibles[self.labels.index(key)]
        return self.irreducibles[key]

    @property
    def degrees(self) -> list[int]:
        return [c.degree for c in self.irreducibles]

    def decompose(self, f: ClassFunction) -> tuple[int, ...]:
        """Multiplicities of the irreducibles in f (must be non-negative integers)."""
        mults = []
        for chi in self.irreducibles:
            m = inner_product(f, chi.base)
            if not m.is_integer() or m.to_integer() < 0:
                raise CheckFailure(
                    f"non-integral multiplicity {m} of {chi.label} in a class function"
                )
            mults.append(m.to_integer())
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
    """(1/|G|) sum over classes of size * a(g) * conj(b(g))."""
    if a.group is not b.group:
        raise DomainError("class functions live on different groups")
    return Fraction(1, a.group.order) * weighted_dot(a.group.class_sizes(), a.values, b.values)


# -- exact family tables ----------------------------------------------------


def _table_cyclic(group: FiniteGroup, n: int) -> CharacterTable:
    rows = []
    for i in range(n):
        values = [root_of_unity(n, i * k) for k in range(n)]
        rows.append(Character(ClassFunction(group, values), f"xi_{i}", irreducible=True))
    return CharacterTable(group, rows)


def _table_binary_dihedral(group: FiniteGroup, n: int) -> CharacterTable:
    # classes: 1, -1, x, ..., x^{n-1}, y, yx
    one = Cyclotomic(1)
    s = root_of_unity(4, n)  # pinned value of sqrt((-1)^n)
    rows = []
    for eps, lbl in ((1, "delta_0^+"), (-1, "delta_0^-")):
        vals = [one, one] + [one] * (n - 1) + [Cyclotomic(eps), Cyclotomic(eps)]
        rows.append(Character(ClassFunction(group, vals), lbl, irreducible=True))
    rows_mid = []
    for i in range(1, n):
        vals = [Cyclotomic(2), Cyclotomic(2 * (-1) ** i)]
        vals += [root_of_unity(2 * n, i * j) + root_of_unity(2 * n, -i * j) for j in range(1, n)]
        vals += [Cyclotomic(0), Cyclotomic(0)]
        rows_mid.append(Character(ClassFunction(group, vals), f"delta_{i}", irreducible=True))
    rows_end = []
    for eps, lbl in ((1, f"delta_{n}^+"), (-1, f"delta_{n}^-")):
        vals = [one, Cyclotomic((-1) ** n)]
        vals += [Cyclotomic((-1) ** j) for j in range(1, n)]
        vals += [eps * s, -eps * s]
        rows_end.append(Character(ClassFunction(group, vals), lbl, irreducible=True))
    return CharacterTable(group, rows + rows_mid + rows_end)


def _table_tetrahedral(group: FiniteGroup) -> CharacterTable:
    w = root_of_unity(3)
    w2 = root_of_unity(3, 2)
    data = [
        ("tau_0", [1, 1, 1, 1, 1, 1, 1]),
        ("tau_0'", [1, 1, 1, w, w2, w, w2]),
        ("tau_0''", [1, 1, 1, w2, w, w2, w]),
        ("tau_1", [2, -2, 0, 1, -1, -1, 1]),
        ("tau_1'", [2, -2, 0, w, -w2, -w, w2]),
        ("tau_1''", [2, -2, 0, w2, -w, -w2, w]),
        ("tau_2", [3, 3, -1, 0, 0, 0, 0]),
    ]
    rows = [
        Character(ClassFunction(group, [Cyclotomic(v) if not isinstance(v, Cyclotomic) else v for v in vals]), lbl, irreducible=True)
        for lbl, vals in data
    ]
    return CharacterTable(group, rows)


def _table_octahedral(group: FiniteGroup) -> CharacterTable:
    r2 = sqrt2()
    data = [
        ("omega_0^+", [1, 1, 1, 1, 1, 1, 1, 1]),
        ("omega_1^+", [2, -2, r2, -r2, 0, 0, 1, -1]),
        ("omega_2^+", [3, 3, 1, 1, -1, -1, 0, 0]),
        ("omega_3", [4, -4, 0, 0, 0, 0, -1, 1]),
        ("omega_4", [2, 2, 0, 0, 2, 0, -1, -1]),
        ("omega_2^-", [3, 3, -1, -1, -1, 1, 0, 0]),
        ("omega_1^-", [2, -2, -r2, r2, 0, 0, 1, -1]),
        ("omega_0^-", [1, 1, -1, -1, 1, -1, 1, 1]),
    ]
    rows = [
        Character(ClassFunction(group, vals), lbl, irreducible=True) for lbl, vals in data
    ]
    return CharacterTable(group, rows)


def _table_symmetric4(group: FiniteGroup) -> CharacterTable:
    data = [
        ("rho_0^+", [1, 1, 1, 1, 1]),
        ("rho_0^-", [1, -1, 1, -1, 1]),
        ("rho_1", [2, 0, -1, 0, 2]),
        ("rho_2^+", [3, 1, 0, -1, -1]),
        ("rho_2^-", [3, -1, 0, 1, -1]),
    ]
    return CharacterTable(
        group,
        [Character(ClassFunction(group, vals), lbl, irreducible=True) for lbl, vals in data],
    )


def _table_alternating4(group: FiniteGroup) -> CharacterTable:
    w, w2 = root_of_unity(3), root_of_unity(3, 2)
    data = [
        ("phi_0", [1, 1, 1, 1]),
        ("phi_1", [1, w, w2, 1]),
        ("phi_2", [1, w2, w, 1]),
        ("phi_3", [3, 0, 0, -1]),
    ]
    return CharacterTable(
        group,
        [Character(ClassFunction(group, vals), lbl, irreducible=True) for lbl, vals in data],
    )


@cache
def table(group: FiniteGroup) -> CharacterTable:
    """Exact character table; closed formulas for the named families,
    numeric-with-snapping otherwise."""
    info = group.family_info
    if info is None:
        return table_numeric(group)
    kind, n = info
    builder = {
        "cyclic": lambda: _table_cyclic(group, n),
        "binary_dihedral": lambda: _table_binary_dihedral(group, n),
        "binary_tetrahedral": lambda: _table_tetrahedral(group),
        "binary_octahedral": lambda: _table_octahedral(group),
        "symmetric4": lambda: _table_symmetric4(group),
        "alternating4": lambda: _table_alternating4(group),
    }[kind]
    return builder()


# -- numeric oracle ---------------------------------------------------------


def _structure_matrices(group: FiniteGroup) -> list[np.ndarray]:
    """M_i[j, l] = coefficient of class-sum l in (class-sum i)*(class-sum j).

    The central-character vectors (|C_j| chi(g_j) / chi(1))_j are the common
    eigenvectors of these matrices.
    """
    k = len(group.classes)
    mats = []
    for i in range(k):
        M = np.zeros((k, k))
        for j in range(k):
            counts = [0] * k
            for x in group.classes[i]:
                for y in group.classes[j]:
                    counts[group.class_of[group.mul(x, y)]] += 1
            for l in range(k):
                M[j, l] = counts[l] / len(group.classes[l])
        mats.append(M)
    return mats


def _snap_to_roots(value: complex, degree: int, order: int, tol: float = 1e-6) -> Cyclotomic:
    """Match a numeric value against exact sums of `degree` roots of unity of
    the given order.  Failure raises; ambiguity raises."""
    if degree == 0:
        return Cyclotomic(0)
    from math import comb

    if comb(order + degree - 1, degree) > 200000:
        raise CheckFailure(
            f"snapping search too large (order {order}, degree {degree})"
        )
    roots = [root_of_unity(order, k) for k in range(order)]
    numeric = [r.to_complex() for r in roots]
    matches: dict[Cyclotomic, None] = {}
    for combo in itertools.combinations_with_replacement(range(order), degree):
        approx = sum(numeric[k] for k in combo)
        if abs(approx - value) < tol:
            exact = Cyclotomic(0)
            for k in combo:
                exact = exact + roots[k]
            matches[exact] = None
    if not matches:
        raise CheckFailure(f"no exact root-of-unity sum matches {value}")
    if len(matches) > 1:
        raise CheckFailure(
            f"ambiguous snapping for {value}: {[str(m) for m in matches]}"
        )
    return next(iter(matches))


def table_numeric(group: FiniteGroup, seed: int = 7, attempts: int = 12) -> CharacterTable:
    """Character table from simultaneous diagonalization of class-sum matrices
    in double precision, snapped back to exact cyclotomic values and re-verified."""
    k = len(group.classes)
    sizes = group.class_sizes()
    mats = _structure_matrices(group)
    rng = np.random.default_rng(seed)
    vecs = None
    for _ in range(attempts):
        weights = rng.standard_normal(k)
        T = sum(w * M for w, M in zip(weights, mats))
        eigvals, eigvecs = np.linalg.eig(T)
        if len(set(np.round(eigvals, 6))) == k:
            vecs = eigvecs
            break
    if vecs is None:
        raise CheckFailure("could not separate eigenvalues of class-sum matrices")
    rows = []
    for col in range(k):
        v = vecs[:, col]
        v = v / v[0]  # identity class entry is 1
        # row orthogonality fixes the degree
        s = sum(abs(v[i]) ** 2 / sizes[i] for i in range(k))
        deg_f = float(np.sqrt(group.order / s.real))
        degree = round(deg_f)
        if abs(deg_f - degree) > 1e-6 or degree < 1:
            raise CheckFailure(f"non-integral character degree {deg_f}")
        values = []
        for i in range(k):
            target = complex(v[i]) * degree / sizes[i]
            order = group.element_order(group.class_reps[i])
            values.append(_snap_to_roots(target, degree, order))
        rows.append(values)
    rows.sort(key=lambda vals: (vals[0].to_integer(), [v.to_text() for v in vals]))
    chars = [
        Character(ClassFunction(group, vals), f"chi_{i}", irreducible=True)
        for i, vals in enumerate(rows)
    ]
    result = CharacterTable(group, chars)
    verify_table(result)
    return result


def verify_table(tbl: CharacterTable) -> None:
    """Exact orthogonality and degree checks; CheckFailure on any violation."""
    group = tbl.group
    k = len(tbl.irreducibles)
    if sum(c.degree**2 for c in tbl.irreducibles) != group.order:
        raise CheckFailure("sum of squared degrees does not equal the group order")
    for i in range(k):
        for j in range(i, k):
            ip = inner_product(tbl.irreducibles[i].base, tbl.irreducibles[j].base)
            expected = 1 if i == j else 0
            if ip != expected:
                raise CheckFailure(
                    f"row orthogonality fails at ({tbl.labels[i]}, {tbl.labels[j]}): {ip}"
                )
    sizes = group.class_sizes()
    ones = [1] * k
    columns = [[chi.values[a] for chi in tbl.irreducibles] for a in range(k)]
    for a in range(k):
        for b in range(a, k):
            total = weighted_dot(ones, columns[a], columns[b])
            expected = Fraction(group.order, sizes[a]) if a == b else 0
            if total != Cyclotomic(Fraction(expected)):
                raise CheckFailure(f"column orthogonality fails at classes ({a}, {b})")


# -- induction / restriction -------------------------------------------------


@dataclass(frozen=True)
class Decomposed:
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
        return self.function.values[0].to_integer()


def restrict(pair: NormalPair, chi: Character | ClassFunction) -> Decomposed:
    """Pull a G-character back along the embedding of N."""
    base = chi.base if isinstance(chi, Character) else chi
    if base.group is not pair.G:
        raise DomainError("character does not belong to the pair's big group")
    values = [base.values[gc] for gc in pair.n_class_to_g_class]
    f = ClassFunction(pair.N, values)
    tbl = table(pair.N)
    return Decomposed(f, tbl.decompose(f), tbl)


def induce(pair: NormalPair, phi: Character | ClassFunction) -> Decomposed:
    """Induce an N-character up to G (zero off the classes meeting N)."""
    base = phi.base if isinstance(phi, Character) else phi
    if base.group is not pair.N:
        raise DomainError("character does not belong to the pair's subgroup")
    profile = pair.induction_profile()
    scale = Fraction(1, pair.N.order)
    values = []
    for counts in profile:
        acc = Cyclotomic(0)
        for nc, cnt in counts.items():
            acc = acc + cnt * base.values[nc]
        values.append(scale * acc)
    f = ClassFunction(pair.G, values)
    tbl = table(pair.G)
    return Decomposed(f, tbl.decompose(f), tbl)


def frobenius_check(pair: NormalPair) -> list[list[int]]:
    """<rho_i, Ind phi_k>_G == <Res rho_i, phi_k>_N for all (i, k); returns the
    common integer matrix, raises CheckFailure on any mismatch."""
    gt, nt = table(pair.G), table(pair.N)
    induced = [induce(pair, phi).function for phi in nt]
    restricted = [restrict(pair, rho).function for rho in gt]
    out = []
    for i, rho in enumerate(gt):
        row = []
        for k, phi in enumerate(nt):
            lhs = inner_product(rho.base, induced[k])
            rhs = inner_product(restricted[i], phi.base)
            if lhs != rhs:
                raise CheckFailure(
                    f"Frobenius reciprocity fails at (i={i}, k={k}): {lhs} vs {rhs}"
                )
            if not lhs.is_integer():
                raise CheckFailure(f"non-integral pairing at (i={i}, k={k})")
            row.append(lhs.to_integer())
        out.append(row)
    return out
