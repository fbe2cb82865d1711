import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay_slodowy.characters import (
    Character,
    CharacterTable,
    ClassFunction,
    frobenius_check,
    induce,
    inner_product,
    restrict,
    table,
    table_numeric,
    verify_table,
)
from mckay_slodowy.cyclotomic import Cyclotomic, root_of_unity, sqrt2
from mckay_slodowy.errors import CheckFailure, DomainError
from mckay_slodowy.groups import FAMILIES, family, generate, normal_pair, Permutation
from oracles import weighted_dot

W = root_of_unity(3)
W2 = root_of_unity(3, 2)
R2 = sqrt2()
I4 = root_of_unity(4)

# classical character table of the binary tetrahedral group
TABLE_T = {
    "tau_0": [1, 1, 1, 1, 1, 1, 1],
    "tau_0'": [1, 1, 1, W, W2, W, W2],
    "tau_0''": [1, 1, 1, W2, W, W2, W],
    "tau_1": [2, -2, 0, 1, -1, -1, 1],
    "tau_1'": [2, -2, 0, W, -W2, -W, W2],
    "tau_1''": [2, -2, 0, W2, -W, -W2, W],
    "tau_2": [3, 3, -1, 0, 0, 0, 0],
}

# classical character table of the binary octahedral group
TABLE_O = {
    "omega_0^+": [1, 1, 1, 1, 1, 1, 1, 1],
    "omega_1^+": [2, -2, R2, -R2, 0, 0, 1, -1],
    "omega_2^+": [3, 3, 1, 1, -1, -1, 0, 0],
    "omega_3": [4, -4, 0, 0, 0, 0, -1, 1],
    "omega_4": [2, 2, 0, 0, 2, 0, -1, -1],
    "omega_2^-": [3, 3, -1, -1, -1, 1, 0, 0],
    "omega_1^-": [2, -2, -R2, R2, 0, 0, 1, -1],
    "omega_0^-": [1, 1, -1, -1, 1, -1, 1, 1],
}

# classical character tables of S_4 and A_4
TABLE_S4 = {
    "rho_0^+": [1, 1, 1, 1, 1],
    "rho_0^-": [1, -1, 1, -1, 1],
    "rho_1": [2, 0, -1, 0, 2],
    "rho_2^+": [3, 1, 0, -1, -1],
    "rho_2^-": [3, -1, 0, 1, -1],
}
TABLE_A4 = {
    "phi_0": [1, 1, 1, 1],
    "phi_1": [1, W, W2, 1],
    "phi_2": [1, W2, W, 1],
    "phi_3": [3, 0, 0, -1],
}


def _assert_table(group, expected):
    tbl = table(group)
    assert tbl.labels == list(expected)
    for lbl, values in expected.items():
        got = tbl[lbl].values
        want = [v if isinstance(v, Cyclotomic) else Cyclotomic(v) for v in values]
        assert list(got) == want, lbl


def test_table_T_exact_values():
    _assert_table(family("binary_tetrahedral"), TABLE_T)


def test_table_O_exact_values():
    _assert_table(family("binary_octahedral"), TABLE_O)


def test_table_S4_exact_values():
    _assert_table(family("symmetric4"), TABLE_S4)


def test_table_A4_exact_values():
    _assert_table(family("alternating4"), TABLE_A4)


@pytest.mark.parametrize("n", range(2, 9))
def test_table_dihedral_exact_values(n):
    G = family("binary_dihedral", n)
    tbl = table(G)
    s = root_of_unity(4, n)  # the documented pinning of sqrt((-1)^n)
    assert s * s == Cyclotomic((-1) ** n)
    one = Cyclotomic(1)
    for eps, lbl in ((1, "delta_0^+"), (-1, "delta_0^-")):
        assert list(tbl[lbl].values) == [one] * (n + 1) + [Cyclotomic(eps)] * 2
    for i in range(1, n):
        row = tbl[f"delta_{i}"].values
        assert row[0] == 2
        assert row[1] == 2 * (-1) ** i
        for j in range(1, n):
            assert row[1 + j] == root_of_unity(2 * n, i * j) + root_of_unity(2 * n, -i * j)
        assert row[n + 1] == 0 and row[n + 2] == 0
    for eps, lbl in ((1, f"delta_{n}^+"), (-1, f"delta_{n}^-")):
        row = tbl[lbl].values
        assert row[0] == 1
        assert row[1] == (-1) ** n
        for j in range(1, n):
            assert row[1 + j] == (-1) ** j
        assert row[n + 1] == eps * s
        assert row[n + 2] == -eps * s


def test_cyclic_table():
    tbl = table(family("cyclic", 2))
    assert [list(c.values) for c in tbl] == [
        [Cyclotomic(1), Cyclotomic(1)],
        [Cyclotomic(1), Cyclotomic(-1)],
    ]
    tbl3 = table(family("cyclic", 3))
    allowed = {Cyclotomic(1), W, W2}
    assert all(v in allowed for c in tbl3 for v in c.values)


@pytest.mark.parametrize(
    "name,n",
    [("binary_dihedral", n) for n in range(2, 9)]
    + [("binary_tetrahedral", None), ("binary_octahedral", None), ("symmetric4", None),
       ("alternating4", None), ("cyclic", 5)],
)
def test_orthogonality_and_degree_sums(name, n):
    G = family(name, n)
    tbl = table(G)
    verify_table(tbl)  # exact row/column orthogonality and sum d^2 = |G|
    assert sum(c.degree**2 for c in tbl) == G.order


def test_inner_product_examples():
    T = family("binary_tetrahedral")
    tbl = table(T)
    triv = tbl["tau_0"]
    assert inner_product(triv.base, triv.base) == 1
    assert inner_product(tbl["tau_1"].base, tbl["tau_1"].base) == 1

    # <rho_2^+ . rho_2^+, rho_1> on S_4, brute-forced from the literal table
    sizes = [1, 6, 8, 6, 3]
    prod = [a * a for a in [3, 1, 0, -1, -1]]
    rho1 = [2, 0, -1, 0, 2]
    brute = sum(s * x * y for s, x, y in zip(sizes, prod, rho1))
    assert brute // 24 == 1 and brute % 24 == 0
    S4 = family("symmetric4")
    t4 = table(S4)
    sq = t4["rho_2^+"].base * t4["rho_2^+"].base
    assert inner_product(sq, t4["rho_1"].base) == 1


@st.composite
def class_values(draw, k):
    """k values of mixed conductor, with often non-integral coefficients."""
    values = []
    for _ in range(k):
        n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
        v = Cyclotomic(0)
        for _ in range(draw(st.integers(0, 3))):
            c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            v = v + c * root_of_unity(n, draw(st.integers(0, n - 1)))
        values.append(v)
    return values


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("E6^2", None), ("S4A4", None), ("A2n-1^2", 3), ("Dn+1^2", 2), ("A2^2", None)]),
    st.booleans(),
    st.data(),
)
def test_lifted_inner_product_matches_the_value_oracle(pair_args, born_lifted, data):
    pair = normal_pair(*pair_args)
    G = pair.G
    k = len(G.classes)
    a = ClassFunction(G, data.draw(class_values(k)))
    b = ClassFunction(G, data.draw(class_values(k)))
    if born_lifted:
        # an induced function times a: lifted, with no canonical value built
        phi = data.draw(st.sampled_from(table(pair.N).irreducibles))
        a = induce(pair, phi).function * a
        assert a._values is None
    got = inner_product(a, b)
    want = value_inner_product(a, b)
    assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
    assert inner_product(b, a) == want.conj()


def test_inner_product_group_mismatch():
    a = table(family("symmetric4"))[0].base
    b = table(family("alternating4"))[0].base
    with pytest.raises(DomainError):
        inner_product(a, b)


def test_restrict_examples():
    p = normal_pair("Dn+1^2", 4)  # (D_4, C_8)
    gt = table(p.G)
    for i in range(1, 4):
        dec = restrict(p, gt[f"delta_{i}"])
        assert dec.as_label_dict() == {f"xi_{i}": 1, f"xi_{8 - i}": 1}
    assert restrict(p, gt["delta_0^+"]).as_label_dict() == {"xi_0": 1}

    po = normal_pair("E6^2")
    dec = restrict(po, table(po.G)["omega_3"])
    assert dec.as_label_dict() == {"tau_1'": 1, "tau_1''": 1}


def test_induce_examples():
    p = normal_pair("Dn+1^2", 4)
    nt = table(p.N)
    for i in range(1, 4):
        assert induce(p, nt[f"xi_{i}"]).as_label_dict() == {f"delta_{i}": 1}
    # induced degree scales by the index
    triv = induce(p, nt["xi_0"])
    assert triv.degree == p.index

    pt = normal_pair("D4^3")
    dec = induce(pt, table(pt.N)["delta_0^+"])
    assert dec.as_label_dict() == {"tau_0": 1, "tau_0'": 1, "tau_0''": 1}
    assert dec.degree == 3


def test_frobenius_reciprocity():
    # (D_2, C_2): a 5x2 agreement matrix
    m = frobenius_check(normal_pair("A2^2"))
    assert len(m) == 5 and len(m[0]) == 2

    # trivial pair G = N: the matrix is the identity permutation
    from mckay_slodowy.groups import pair_from_groups

    T1, T2 = family("binary_tetrahedral"), family("binary_tetrahedral")
    m = frobenius_check(pair_from_groups(T1, T2))
    assert all(m[i][j] == (1 if i == j else 0) for i in range(7) for j in range(7))

    # (S_4, A_4) agrees with the known induced decompositions
    m = frobenius_check(normal_pair("S4A4"))
    s4, a4 = table(family("symmetric4")), table(family("alternating4"))
    assert m[s4.labels.index("rho_1")][a4.labels.index("phi_1")] == 1


# every family group of order <= 48
SMALL_FAMILY_GROUPS = [
    (name, n)
    for name, row in FAMILIES.items()
    for n in ([None] if row.n_min is None else range(row.n_min, 49))
    if row.order(n) <= 48
]


@pytest.mark.parametrize("name,n", SMALL_FAMILY_GROUPS)
def test_numeric_oracle_agrees_with_exact_table(name, n):
    G = family(name, n)
    exact = sorted(tuple(v.to_text() for v in c.values) for c in table(G))
    numeric = sorted(tuple(v.to_text() for v in c.values) for c in table_numeric(G))
    assert exact == numeric


def test_numeric_table_for_unnamed_group():
    # the generic fallback path: a plain permutation group with no family info
    gens = [Permutation.from_cycles(3, (1, 2, 3)), Permutation.from_cycles(3, (1, 2))]
    G = generate(gens, name="S_3")
    tbl = table(G)
    verify_table(tbl)
    assert sorted(c.degree for c in tbl) == [1, 1, 2]


def test_character_values_are_algebraic_integers():
    for name, n in [("binary_octahedral", None), ("binary_dihedral", 6), ("alternating4", None)]:
        for chi in table(family(name, n)):
            for v in chi.values:
                assert all(c.denominator == 1 for c in v.coeffs)


def test_class_function_requires_matching_length():
    G = family("cyclic", 3)
    with pytest.raises(DomainError):
        ClassFunction(G, [Cyclotomic(1)])


@pytest.mark.parametrize(
    "m,den,cols,match",
    [
        (4, 1, [], "0 values for 4 classes"),
        (4, 1, [((0, 1),)] * 3, "3 values for 4 classes"),
        (4, 1, [((0, 1),)] * 5, "5 values for 4 classes"),
        (4, 0, [((0, 1),)] * 4, "positive integers m and D"),
        (4, -2, [((0, 1),)] * 4, "positive integers m and D"),
        (0, 1, [((0, 1),)] * 4, "positive integers m and D"),
        (4.0, 1, [((0, 1),)] * 4, "positive integers m and D"),
        (4, Fraction(1), [((0, 1),)] * 4, "positive integers m and D"),
    ],
)
def test_a_lifted_form_of_the_wrong_shape_is_a_domain_error(m, den, cols, match):
    with pytest.raises(DomainError, match=match):
        ClassFunction.from_lifted(family("cyclic", 4), m, den, cols)


def test_an_unknown_label_is_a_domain_error_naming_the_group_and_its_labels():
    G = normal_pair("A2n^2", 3).G
    with pytest.raises(DomainError, match=rf"no irreducible 'nope' of {G.name}, whose labels are \['delta_0\^\+'"):
        table(G)["nope"]


@pytest.mark.parametrize("bad", [0.5, "1"])
def test_class_function_rejects_a_float_or_a_string_value(bad):
    # the values reach the Cyclotomic constructor, which once read both
    with pytest.raises(TypeError):
        ClassFunction(family("cyclic", 3), [1, bad, 1])


def test_modular_oracle_on_a_frobenius_group():
    # C_53 x| C_4 on the 53 points: x -> x + 1 and x -> 23x, 23 of order 4 mod 53.
    # Its degree-4 values are sums of four 53rd roots of unity, out of reach
    # of any search over root-of-unity sums.
    shift = Permutation([(x + 1) % 53 for x in range(53)])
    scale = Permutation([(23 * x) % 53 for x in range(53)])
    G = generate([shift, scale], name="C53:C4")
    assert (G.order, len(G.classes)) == (212, 17)
    start = time.perf_counter()
    tbl = table(G)
    assert time.perf_counter() - start < 2
    verify_table(tbl)
    assert sorted(tbl.degrees) == [1] * 4 + [4] * 13


# -- the lifted pairing kernel against per-irreducible inner products ---------


def value_inner_product(a, b):
    """<a, b> from the canonical values, by the value-level oracle."""
    return Fraction(1, a.group.order) * weighted_dot(a.group.class_sizes(), a.values, b.values)


def decompose_oracle(tbl, f):
    """decompose as one value-level inner product per irreducible, the loop
    the lifted kernel replaced."""
    mults = []
    for chi in tbl:
        m = value_inner_product(f, chi.base)
        if not m.is_integer() or m.to_integer() < 0:
            raise CheckFailure(f"non-integral multiplicity {m} of {chi.label} in a class function")
        mults.append(m.to_integer())
    return tuple(mults)


def column_orthogonality_oracle(tbl):
    """sum_chi chi(a) conj(chi(b)) = [a = b] |G| / |C_a|, the column half
    verify_table derives from the row half instead of checking."""
    group, k = tbl.group, len(tbl)
    sizes = group.class_sizes()
    columns = [[chi.values[a] for chi in tbl] for a in range(k)]
    for a in range(k):
        for b in range(a, k):
            total = weighted_dot([1] * k, columns[a], columns[b])
            assert total == (Fraction(group.order, sizes[a]) if a == b else 0), (a, b)


def _symmetric3():
    gens = [Permutation.from_cycles(3, (1, 2, 3)), Permutation.from_cycles(3, (1, 2))]
    return generate(gens, name="S_3")


# every named family at small n, and two Dixon-Schneider tables
KERNEL_TABLES = {
    "cyclic-4": lambda: table(family("cyclic", 4)),
    "cyclic-6": lambda: table(family("cyclic", 6)),
    "cyclic-12": lambda: table(family("cyclic", 12)),
    "binary_dihedral-2": lambda: table(family("binary_dihedral", 2)),
    "binary_dihedral-3": lambda: table(family("binary_dihedral", 3)),
    "binary_dihedral-5": lambda: table(family("binary_dihedral", 5)),
    "binary_dihedral-8": lambda: table(family("binary_dihedral", 8)),
    "binary_tetrahedral": lambda: table(family("binary_tetrahedral")),
    "binary_octahedral": lambda: table(family("binary_octahedral")),
    "symmetric4": lambda: table(family("symmetric4")),
    "alternating4": lambda: table(family("alternating4")),
    "numeric binary_dihedral-4": lambda: table_numeric(family("binary_dihedral", 4)),
    "numeric S_3": lambda: table(_symmetric3()),
}


def _outcome(f, decompose):
    try:
        return decompose(f)
    except CheckFailure as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(KERNEL_TABLES)),
    st.sampled_from(("combination", "product", "scaled")),
    st.data(),
)
def test_lifted_decompose_matches_the_oracle(name, kind, data):
    tbl = KERNEL_TABLES[name]()
    k = len(tbl)
    coeffs = data.draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=k, max_size=k))
    f = ClassFunction(tbl.group, [0] * k)
    for c, chi in zip(coeffs, tbl):
        f = f + c * chi.base
    if kind == "product":
        a, b = data.draw(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)))
        f = tbl[a].base * tbl[b].base + f * tbl[a].base
    got = _outcome(f, tbl.decompose)
    assert got == _outcome(f, lambda g: decompose_oracle(tbl, g))
    if kind == "scaled":
        # every multiplicity of f + f + chi_i is 2c + [i], the i-th one odd; an
        # odd p over an even q keeps that one non-integral
        i = data.draw(st.integers(0, k - 1))
        q = data.draw(st.sampled_from([2, 4]))
        f = Fraction(1 + q * data.draw(st.integers(0, 3)), q) * (f + f + tbl[i].base)
        got = _outcome(f, tbl.decompose)
        assert isinstance(got, str) and got.startswith("non-integral multiplicity")
        assert got == _outcome(f, lambda g: decompose_oracle(tbl, g))


def test_decompose_examples():
    s4 = table(family("symmetric4"))
    sq = s4["rho_2^+"].base * s4["rho_2^+"].base
    assert s4.decompose(sq) == (1, 0, 1, 1, 1)
    with pytest.raises(CheckFailure, match="non-integral multiplicity 1/2 of rho_0"):
        s4.decompose(Fraction(1, 2) * sq)
    with pytest.raises(CheckFailure, match="non-integral multiplicity -1 of rho_0"):
        s4.decompose(ClassFunction(s4.group, [-1] * 5))


def test_decompose_rejects_a_function_on_another_group():
    # the same number of classes, so only the group tells them apart
    f = table(family("alternating4"))[1].base
    c4 = table(family("cyclic", 4))
    with pytest.raises(DomainError, match="different groups"):
        c4.decompose(f)


@pytest.mark.parametrize("name", sorted(KERNEL_TABLES))
def test_column_orthogonality_follows_from_the_row_check(name):
    tbl = KERNEL_TABLES[name]()
    verify_table(tbl)
    column_orthogonality_oracle(tbl)


@pytest.mark.parametrize("delta", [1, Fraction(1, 2), root_of_unity(5)], ids=["1", "1/2", "z5"])
def test_a_perturbed_table_fails_the_row_check(delta):
    tbl = table(family("binary_tetrahedral"))
    rows = [list(chi.values) for chi in tbl]
    rows[3][4] = rows[3][4] + delta  # tau_1 at one class off the identity
    bad = CharacterTable(
        tbl.group,
        [Character(ClassFunction(tbl.group, vals), lbl, irreducible=True) for vals, lbl in zip(rows, tbl.labels)],
    )
    with pytest.raises(CheckFailure, match=r"row orthogonality fails at \(tau_0, tau_1\)"):
        verify_table(bad)
    bad.irreducibles.pop()
    with pytest.raises(CheckFailure, match="6 irreducibles for 7 classes"):
        verify_table(bad)


def frobenius_oracle(pair):
    """The Frobenius matrix from 2 k_G k_N inner products, as frobenius_check
    computed it before it read induce/restrict multiplicities."""
    gt, nt = table(pair.G), table(pair.N)
    induced = [induce(pair, phi).function for phi in nt]
    restricted = [restrict(pair, rho).function for rho in gt]
    out = []
    for i, rho in enumerate(gt):
        row = []
        for k, phi in enumerate(nt):
            lhs = inner_product(rho.base, induced[k])
            assert lhs == inner_product(restricted[i], phi.base)
            row.append(lhs.to_integer())
        out.append(row)
    return out


def test_induce_and_restrict_are_memoised(monkeypatch):
    from mckay_slodowy.groups import pair_from_groups

    pair = pair_from_groups(family("binary_octahedral"), family("binary_tetrahedral"))
    first = frobenius_check(pair)
    calls = []
    decompose = CharacterTable.decompose
    monkeypatch.setattr(
        CharacterTable, "decompose", lambda tbl, f: calls.append(f) or decompose(tbl, f)
    )
    assert frobenius_check(pair) == first
    assert calls == []


@pytest.mark.parametrize(
    "name,n",
    [("A2n-1^2", 3), ("Dn+1^2", 3), ("A2n^2", 3), ("E6^2", None), ("D4^3", None), ("A2^2", None), ("S4A4", None)],
)
def test_frobenius_matrix_matches_the_inner_products(name, n):
    pair = normal_pair(name, n)
    assert frobenius_check(pair) == frobenius_oracle(pair)


def test_value_keyed_memos_find_one_function_in_any_form():
    # restrict, induce, _fusion_matrices, character_product and the series'
    # self-duality check are memoised on the Character or ClassFunction they
    # are given: one function must be one key, whichever form built it
    pair = normal_pair("A2n-1^2", 4)
    induced = induce(pair, table(pair.N)[1]).function
    m, den, cols = induced.lifted()
    forms = [
        ClassFunction(pair.G, induced.values),
        ClassFunction.from_lifted(
            pair.G, 2 * m, 3 * den, [tuple((2 * a, 3 * u) for a, u in col) for col in cols]
        ),
        induced,
    ]
    characters = [Character(f, "psi") for f in forms]
    for keys in (forms, characters):
        for i, key in enumerate(keys):
            memo = {key: i}
            for other in keys:
                assert other == key and hash(other) == hash(key)
                assert memo[other] == i
    assert restrict(pair, characters[1]) is restrict(pair, characters[0])
