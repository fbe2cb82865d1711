import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay_slodowy.cyclotomic import root_of_unity, sqrt_minus1
from mckay_slodowy.errors import ClosureBoundExceeded, DomainError
from mckay_slodowy.groups import (
    FiniteGroup,
    Matrix2,
    NormalPair,
    Permutation,
    family,
    generate,
    normal_pair,
    pair_from_groups,
)

# conjugacy class sizes of the named families
FAMILY_CLASS_SIZES = {
    ("binary_tetrahedral", None): [1, 1, 6, 4, 4, 4, 4],
    ("binary_octahedral", None): [1, 1, 6, 6, 6, 12, 8, 8],
    ("symmetric4", None): [1, 6, 8, 6, 3],
    ("alternating4", None): [1, 4, 4, 3],
}


def numeric_closure_classes(gens_numeric, subgroup_keys=None):
    """Independent oracle: close 2x2 complex matrices numerically, compute
    conjugacy classes by brute-force conjugation over all elements, and count
    the classes whose representative lies in a given subset."""

    def key(m):
        return tuple(np.round(m.flatten(), 6) + 0)

    identity = np.eye(2, dtype=complex)
    elements = [identity]
    index = {key(identity): 0}
    frontier = [identity]
    while frontier:
        new = []
        for w in frontier:
            for g in gens_numeric:
                p = w @ g
                k = key(p)
                if k not in index:
                    index[k] = len(elements)
                    elements.append(p)
                    new.append(p)
        frontier = new
    unassigned = set(range(len(elements)))
    classes = []
    while unassigned:
        i = min(unassigned)
        rep = elements[i]
        orbit = set()
        for g in elements:
            orbit.add(index[key(g @ rep @ np.linalg.inv(g))])
        classes.append(sorted(orbit))
        unassigned -= orbit
    if subgroup_keys is None:
        return len(elements), classes, None
    inside = sum(1 for cls in classes if key(elements[cls[0]]) in subgroup_keys)
    return len(elements), classes, inside


def test_trivial_generation():
    G = generate([Matrix2.identity()])
    assert G.order == 1
    assert len(G.classes) == 1


def test_binary_dihedral_n2_order_and_classes():
    G = family("binary_dihedral", 2)
    assert G.order == 8
    assert len(G.classes) == 5


def test_binary_octahedral_order_and_classes():
    G = family("binary_octahedral")
    assert G.order == 48
    assert len(G.classes) == 8


@pytest.mark.parametrize("name,n", list(FAMILY_CLASS_SIZES))
def test_class_sizes(name, n):
    G = family(name, n)
    assert G.class_sizes() == FAMILY_CLASS_SIZES[(name, n)]


@pytest.mark.parametrize("n", range(2, 9))
def test_dihedral_class_sizes(n):
    G = family("binary_dihedral", n)
    assert G.order == 4 * n
    assert G.class_sizes() == [1, 1] + [2] * (n - 1) + [n, n]
    assert sum(G.class_sizes()) == G.order


def test_family_generators_are_special_unitary():
    for name, n in [("binary_dihedral", 5), ("binary_tetrahedral", None), ("binary_octahedral", None)]:
        G = family(name, n)
        for g in G.generators:
            assert g.det() == 1
            assert g.is_unitary()


def test_cyclic_family():
    G = family("cyclic", 2)
    assert G.order == 2
    assert len(G.classes) == 2
    with pytest.raises(DomainError):
        family("cyclic")
    with pytest.raises(DomainError):
        family("made_up")


def test_closure_bound():
    x = Matrix2.diagonal(root_of_unity(64, 1), root_of_unity(64, -1))
    with pytest.raises(ClosureBoundExceeded):
        generate([x], max_order=10)


def test_closure_bound_env_override(monkeypatch):
    monkeypatch.setenv("MSC_MAX_GROUP_ORDER", "12")
    x = Matrix2.diagonal(root_of_unity(64, 1), root_of_unity(64, -1))
    with pytest.raises(ClosureBoundExceeded):
        generate([x])
    monkeypatch.setenv("MSC_MAX_GROUP_ORDER", "100")
    assert generate([x]).order == 64


def test_generate_order_independent_class_sizes():
    i = sqrt_minus1()
    x = Matrix2.diagonal(root_of_unity(8, -1), root_of_unity(8, 1))
    y = Matrix2(0, i, i, 0)
    a = generate([x, y])
    b = generate([y, x])
    assert a.order == b.order
    assert sorted(a.class_sizes()) == sorted(b.class_sizes())


@pytest.mark.parametrize("bad", [0.5, "1"])
def test_matrix_entries_reject_a_float_or_a_string(bad):
    # the entries reach the Cyclotomic constructor, which once read both
    with pytest.raises(TypeError):
        Matrix2(1, 0, 0, bad)
    with pytest.raises(TypeError):
        Matrix2(bad, 0, 0, 1)


def test_generate_rejects_mixed_backends():
    with pytest.raises(DomainError):
        generate([Matrix2.identity(), Permutation.identity(3)])


def test_tetrahedral_class_representatives():
    G = family("binary_tetrahedral")
    assert G.class_labels == ["1", "-1", "x", "z", "z^2", "-z", "-z^2"]
    # -1 has order 2 and sits in its own class
    minus1 = G.class_reps[1]
    assert G.element_order(minus1) == 2
    assert len(G.classes[1]) == 1


def test_pair_a2_2():
    p = normal_pair("A2^2")
    assert p.G.order == 8
    assert p.N.order == 2
    assert len(p.upsilonN) == 2
    assert p.index == 4


def test_pair_e6_2_upsilon_count_against_numeric_oracle():
    p = normal_pair("E6^2")
    assert p.N.order == 24

    def complex_mat(m):
        a, b, c, d = (e.to_complex() for e in m.entries)
        return np.array([[a, b], [c, d]])

    gens_o = [complex_mat(g) for g in p.G.generators]
    sub_keys = set()
    for el in p.N.elements:
        m = complex_mat(el)
        sub_keys.add(tuple(np.round(m.flatten(), 6) + 0))
    order, classes, inside = numeric_closure_classes(gens_o, sub_keys)
    assert order == 48
    assert len(classes) == 8
    assert inside == 5
    assert len(p.upsilonN) == inside


def test_pair_s4a4():
    p = normal_pair("S4A4")
    assert len(p.upsilonN) == 3
    assert p.exhaustive_normality_check()


def test_pair_n_ranges():
    with pytest.raises(DomainError):
        normal_pair("A2n-1^2", 2)
    with pytest.raises(DomainError):
        normal_pair("Dn+1^2", 1)
    with pytest.raises(DomainError):
        normal_pair("nope")


def test_pair_embeddings_are_subgroups():
    for name, n in [("A2n-1^2", 3), ("Dn+1^2", 3), ("A2n^2", 2), ("E6^2", None), ("D4^3", None)]:
        p = normal_pair(name, n)
        assert p.G.order == p.N.order * p.index
        assert p.exhaustive_normality_check()
        # each N class lands inside a single G class
        for nc, gc in enumerate(p.n_class_to_g_class):
            rep = p.embed[p.N.class_reps[nc]]
            assert p.G.class_of[rep] == gc


def test_non_normal_subgroup_rejected():
    S4 = family("symmetric4")
    C2 = generate([Permutation.from_cycles(4, (1, 2))], name="C2")
    with pytest.raises(DomainError):
        pair_from_groups(S4, C2)


def test_group_json_round_trips():
    G = family("binary_dihedral", 3)
    payload = G.to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["order"] == 12
    assert back["name"] == "D_3"
    assert len(back["classes"]) == 6
    assert all(set(c) == {"rep", "size"} for c in back["classes"])

    A4 = family("alternating4")
    rep0 = A4.to_json()["classes"][1]["rep"]
    assert rep0 == [2, 3, 1, 4]  # (123) in one-line notation


# -- index tables, class-size induction and the order bound ------------------

FAMILY_PARAMS = (
    [("cyclic", n) for n in (2, 3, 5, 8, 12)]
    + [("binary_dihedral", n) for n in (2, 3, 4, 6)]
    + [("binary_tetrahedral", None), ("binary_octahedral", None)]
    + [("symmetric4", None), ("alternating4", None)]
)


def exhaustive_induction_profile(pair):
    """Oracle: count x in G with x^-1 g x in each N-class, multiplying the
    elements themselves."""
    G, N = pair.G, pair.N
    g_to_n = {gidx: nidx for nidx, gidx in enumerate(pair.embed)}
    profile = []
    for rep in G.class_reps:
        counts = {}
        g = G.elements[rep]
        for x in G.elements:
            n_idx = g_to_n.get(G.index[x.inverse() * g * x])
            if n_idx is not None:
                nc = N.class_of[n_idx]
                counts[nc] = counts.get(nc, 0) + 1
        profile.append(counts)
    return profile


@pytest.mark.parametrize(
    "name,n",
    [("A2n-1^2", 3), ("A2n-1^2", 4), ("Dn+1^2", 2), ("Dn+1^2", 3), ("A2n^2", 2),
     ("A2n^2", 3), ("E6^2", None), ("D4^3", None), ("A2^2", None), ("S4A4", None)],
)
def test_induction_profile_matches_exhaustive_count(name, n):
    pair = normal_pair(name, n)
    assert pair.induction_profile() == exhaustive_induction_profile(pair)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_tables_match_element_products(data):
    name, n = data.draw(st.sampled_from(FAMILY_PARAMS))
    G = family(name, n)
    idx = st.integers(min_value=0, max_value=G.order - 1)
    i, j = data.draw(idx), data.draw(idx)
    assert G.mul(i, j) == G.index[G.elements[i] * G.elements[j]]
    assert G.inv(i) == G.index[G.elements[i].inverse()]
    for k, gen in enumerate(G.generators):
        assert G.conjugate_by_generator(i, k) == G.index[gen.inverse() * G.elements[i] * gen]


@pytest.mark.parametrize("name,n", FAMILY_PARAMS)
def test_element_orders_match_element_powers(name, n):
    G = family(name, n)
    for i, e in enumerate(G.elements):
        k, p = 1, e
        while p != G.elements[0]:
            p, k = p * e, k + 1
        assert G.element_order(i) == k


def test_directly_constructed_group_builds_its_tables():
    S4 = family("symmetric4")
    # reverse every non-identity element so no table is inherited
    elements = [S4.elements[0]] + S4.elements[:0:-1]
    G = FiniteGroup(elements, S4.generators[::-1], name="S_4'")
    assert G.order == 24
    assert sorted(G.class_sizes()) == sorted(S4.class_sizes())
    for i in range(G.order):
        for j in range(G.order):
            assert G.mul(i, j) == G.index[elements[i] * elements[j]]
        assert G.inv(i) == G.index[elements[i].inverse()]


def test_directly_constructed_group_rejects_bad_input():
    A4 = family("alternating4")
    with pytest.raises(DomainError):  # identity not first
        FiniteGroup(A4.elements[1:] + A4.elements[:1], A4.generators)
    with pytest.raises(DomainError):  # generators reach only a subgroup
        FiniteGroup(A4.elements, [Permutation.from_cycles(4, (1, 2), (3, 4))])
    with pytest.raises(DomainError):  # not closed
        FiniteGroup(A4.elements, [Permutation.from_cycles(4, (1, 2))])


def test_no_element_products_after_closure(monkeypatch):
    from mckay_slodowy.characters import induce, table
    from mckay_slodowy.mckay import fusion_matrices

    cases = [
        (family("binary_dihedral", 5), family("cyclic", 10), "delta_1"),
        (family("symmetric4"), family("alternating4"), "rho_2^+"),
    ]
    fresh = [generate(family(name, n).generators) for name, n in (("binary_octahedral", None), ("symmetric4", None))]
    calls = []
    for cls in (Matrix2, Permutation):
        original = cls.__mul__

        def counting(self, other, original=original):
            calls.append(type(self).__name__)
            return original(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
    for G, N, v in cases:
        pair = NormalPair(G, N, default_v=v)
        fusion_matrices(pair)
        for phi in table(N):
            induce(pair, phi)
    for G in fresh:
        G._compute_classes()
    assert calls == []


def test_family_cache_follows_effective_bound(monkeypatch):
    monkeypatch.delenv("MSC_MAX_GROUP_ORDER", raising=False)
    big = family("cyclic", 20)
    assert big.order == 20
    assert normal_pair("Dn+1^2", 10).G.order == 40
    monkeypatch.setenv("MSC_MAX_GROUP_ORDER", "12")
    with pytest.raises(ClosureBoundExceeded):
        family("cyclic", 20)
    with pytest.raises(ClosureBoundExceeded):
        normal_pair("Dn+1^2", 10)
    monkeypatch.delenv("MSC_MAX_GROUP_ORDER")
    assert family("cyclic", 20) is big


def test_normal_pair_carries_its_family_key():
    for name, n in [("A2n-1^2", 3), ("Dn+1^2", 2), ("A2n^2", 2), ("E6^2", None), ("S4A4", None)]:
        p = normal_pair(name, n)
        assert (p.family, p.n) == (name, n)
    generic = pair_from_groups(family("binary_dihedral", 2), family("cyclic", 2))
    assert (generic.family, generic.n) == (None, None)


@pytest.mark.parametrize("name", ["E6^2", "D4^3", "A2^2", "S4A4"])
def test_pair_without_n_rejects_one(name):
    with pytest.raises(DomainError, match="takes no n"):
        normal_pair(name, 5)


@pytest.mark.parametrize(
    "name", ["binary_tetrahedral", "binary_octahedral", "symmetric4", "alternating4"]
)
def test_family_without_n_rejects_one(name):
    with pytest.raises(DomainError, match="takes no n"):
        family(name, 5)


def plain_closure(gens):
    """Oracle for the lifted closure: the breadth-first closure by element
    products (Matrix2.__mul__ on canonical cyclotomic entries)."""
    first = gens[0]
    identity = Matrix2.identity() if isinstance(first, Matrix2) else Permutation.identity(len(first.images))
    elements, index = [identity], {identity: 0}
    right = [[] for _ in gens]
    for w in elements:
        for row, g in zip(right, gens):
            p = w * g
            if p not in index:
                index[p] = len(elements)
                elements.append(p)
            row.append(index[p])
    return elements, right


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["cyclic", "binary_dihedral"]), st.integers(min_value=2, max_value=24))
def test_lifted_closure_matches_plain_closure(name, n):
    lifted_closure_agrees(name, n)


@pytest.mark.parametrize("name", ["binary_tetrahedral", "binary_octahedral", "symmetric4", "alternating4"])
def test_lifted_closure_matches_plain_closure_fixed(name):
    lifted_closure_agrees(name, None)


def lifted_closure_agrees(name, n):
    gens = family(name, n).generators
    lifted = generate(gens)
    elements, right = plain_closure(gens)
    assert lifted.elements == elements
    assert all(type(e) is type(gens[0]) for e in lifted.elements)
    assert lifted._right == right
    assert lifted.classes == FiniteGroup(elements, gens, right_mul=right).classes
    # the lifted elements are canonical: they hash and compare like fresh products
    assert lifted.index == {e: i for i, e in enumerate(elements)}


def test_lifted_closure_handles_rational_and_half_integral_entries():
    # conductor 1 entries, and a generator with denominator 2 (the tetrahedral z)
    swap = Matrix2(0, 1, -1, 0)
    assert generate([swap]).elements == plain_closure([swap])[0]
    z = family("binary_tetrahedral").generators[2]
    assert generate([z]).elements == plain_closure([z])[0]


def test_exponent_is_computed_once_per_group(monkeypatch):
    # a fresh group: S_4 from a 4-cycle and a transposition, exponent 12
    G = generate([Permutation.from_cycles(4, (1, 2, 3, 4)), Permutation.from_cycles(4, (1, 2))])
    calls = []
    real = FiniteGroup.element_order
    monkeypatch.setattr(FiniteGroup, "element_order", lambda self, i: calls.append(i) or real(self, i))
    assert G.exponent() == 12
    assert len(calls) == len(G.classes)
    assert G.exponent() == 12
    assert len(calls) == len(G.classes)


def test_the_exponent_keeps_no_group_alive():
    # the exponent is kept on the group; a cache on the method once held
    # every group whose exponent was asked for
    groups = [
        generate([Permutation.from_cycles(4, (1, 2, 3, 4))]),
        generate([Permutation.from_cycles(4, (1, 2, 3, 4)), Permutation.from_cycles(4, (1, 2))]),
        generate([Matrix2.diagonal(root_of_unity(6, 1), root_of_unity(6, -1))]),
    ]
    assert [G.exponent() for G in groups] == [4, 12, 6]
    refs = [weakref.ref(G) for G in groups]
    del groups
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
