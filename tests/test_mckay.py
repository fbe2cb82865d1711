import random

import pytest

from mckay_slodowy.dynkin import adjacency, catalog_for_size, identify, _isomorphic
from mckay_slodowy.errors import CheckFailure, DomainError
from mckay_slodowy.characters import restrict, table
from mckay_slodowy.groups import Matrix2, Permutation, family, generate, normal_pair, pair_from_groups
from mckay_slodowy.verify import default_pair_arguments, triple_equivalence_check
from mckay_slodowy.mckay import (
    InductionBasis,
    RestrictionBasis,
    characteristic_identity_check,
    eigenvector_check,
    fusion_matrices,
    graph,
    induction_basis,
    null_vector_check,
    restriction_basis,
)

PAIR_CASES = (
    [("A2n-1^2", n) for n in range(3, 9)]
    + [("Dn+1^2", n) for n in range(2, 9)]
    + [("A2n^2", n) for n in range(2, 9)]
    + [("E6^2", None), ("D4^3", None), ("A2^2", None), ("S4A4", None)]
)

EXPECTED_TYPES = {
    "A2n-1^2": lambda n: (f"A_{2 * n - 1}^(2)", f"B_{n}^(1)"),
    "Dn+1^2": lambda n: (f"D_{n + 1}^(2)", f"C_{n}^(1)"),
    "A2n^2": lambda n: (f"A_{2 * n}^(2)", f"C_{n}^(1)"),
    "E6^2": lambda n: ("E_6^(2)", "F_4^(1)"),
    "D4^3": lambda n: ("D_4^(3)", "G_2^(1)"),
    "A2^2": lambda n: ("A_2^(2)", "A_1^(1)"),
    "S4A4": lambda n: ("unrecognized", "unrecognized"),
}


CENTRE_CASES = [
    ("binary_tetrahedral", None, "tau_1"),
    ("binary_tetrahedral", None, "tau_2"),
    ("binary_octahedral", None, "omega_1^+"),
    ("binary_octahedral", None, "omega_4"),
    ("binary_dihedral", 3, "delta_1"),
    ("binary_dihedral", 4, "delta_2"),
    ("binary_dihedral", 2, "delta_1"),
]


@pytest.mark.parametrize("name,n,v", CENTRE_CASES)
def test_the_centre_of_a_binary_group_is_a_legal_normal_subgroup(name, n, v):
    # two irreducibles can restrict to different multiples of one orbit sum
    # (here tau_0 -> 1 * triv and tau_2 -> 3 * triv): the bases once counted
    # both and raised "3 distinct restrictions but |Upsilon(N)| = 2"
    G = family(name, n) if n else family(name)
    pair = pair_from_groups(G, generate([Matrix2.diagonal(-1, -1)], name="Z2"))
    data = fusion_matrices(pair, table(G)[v])
    assert data.size == len(pair.upsilonN) == 2
    gt = table(G)
    # one member per support, the least multiple, named by its own irreducible
    rb = data.rbasis
    assert sorted(i for orig in rb.origins for i in orig) == list(range(len(gt)))
    for mv, orig, label in zip(rb.mult_vectors, rb.origins, rb.labels):
        sizes = {i: sum(restrict(pair, gt[i]).multiplicities) for i in orig}
        least = min(sizes.values())
        assert sum(mv) == least and orig[0] == min(i for i in orig if sizes[i] == least)
        assert label == f"check({gt.labels[orig[0]]})"
    characteristic_identity_check(data)
    eigenvector_check(data)
    triple_equivalence_check(data, 6)


def test_restriction_basis_examples():
    assert restriction_basis(normal_pair("S4A4")).degrees == (1, 2, 3)
    b = restriction_basis(normal_pair("A2^2"))
    assert b.degrees == (1, 2)
    # delta_1 restricts to 2*xi_1
    assert b.mult_vectors[1] == (0, 2)
    assert restriction_basis(normal_pair("E6^2")).degrees == (1, 2, 3, 4, 2)


def test_induction_basis_examples():
    assert induction_basis(normal_pair("D4^3")).degrees == (3, 6, 3)
    assert induction_basis(normal_pair("A2^2")).degrees == (4, 4)
    assert induction_basis(normal_pair("S4A4")).degrees == (2, 2, 6)
    assert induction_basis(normal_pair("E6^2")).degrees == (2, 4, 6, 4, 2)


def test_trivial_member_comes_first():
    for name, n in [("S4A4", None), ("E6^2", None), ("Dn+1^2", 3)]:
        pair = normal_pair(name, n)
        rb, ib = restriction_basis(pair), induction_basis(pair)
        assert rb.degrees[0] == 1
        assert 0 in rb.origins[0]
        assert 0 in ib.origins[0]
        assert ib.degrees[0] == pair.index


def _self_pair(name):
    return pair_from_groups(family(name), family(name))


@pytest.mark.parametrize(
    "pair",
    [pytest.param(lambda n=n, name=name: normal_pair(name, n), id=f"{name}-{n}")
     for name, n in default_pair_arguments()]
    + [pytest.param(lambda name=name: _self_pair(name), id=f"{name}-self")
       for name in ("binary_tetrahedral", "binary_octahedral")],
)
def test_basis_degrees_match_the_members_values(pair):
    pair = pair()
    for basis in (restriction_basis(pair), induction_basis(pair)):
        assert basis.degrees == tuple(f.values[0].to_integer() for f in basis.members)


def test_the_two_sides_keep_their_basis_types():
    pair = normal_pair("S4A4")
    rb, ib = restriction_basis(pair), induction_basis(pair)
    assert repr(rb).startswith("RestrictionBasis(pair=")
    assert repr(ib).startswith("InductionBasis(pair=")
    fields = {name: getattr(rb, name) for name in rb._fields}
    ib_fields = {name: getattr(ib, name) for name in ib._fields}
    assert list(fields) == ["pair", "members", "mult_vectors", "origins", "labels"]
    assert RestrictionBasis(**fields) == rb
    assert InductionBasis(**fields) != rb  # equality compares the class
    assert rb.index_of_origin("rho_0^-") == 0 and ib.index_of_origin("phi_2") == 1
    with pytest.raises(DomainError, match=r"rho_0\^\+ does not restrict to a basis member"):
        RestrictionBasis(**{**fields, "origins": rb.origins[1:]}).index_of_origin("rho_0^+")
    with pytest.raises(DomainError, match="phi_0 does not induce to a basis member"):
        InductionBasis(**{**ib_fields, "origins": ib.origins[1:]}).index_of_origin("phi_0")


def test_an_unknown_origin_label_is_a_domain_error_naming_the_labels():
    rb = restriction_basis(normal_pair("S4A4"))
    with pytest.raises(DomainError, match=r"no irreducible 'nope' of .*'rho_0\^\+', 'rho_0\^-'"):
        rb.index_of_origin("nope")


def test_fusion_matrices_s4a4():
    d = fusion_matrices(normal_pair("S4A4"))
    assert d.A == ((0, 0, 1), (0, 0, 1), (1, 2, 2))
    assert d.B == ((0, 0, 1), (0, 0, 2), (1, 1, 2))
    assert d.cartanA == ((2, 0, -1), (0, 2, -1), (-1, -2, 0))


def test_fusion_matrices_a2_2():
    d = fusion_matrices(normal_pair("A2^2"))
    assert d.A == ((0, 4), (1, 0))
    assert d.B == ((0, 2), (2, 0))


def test_fusion_matrices_d4_3():
    d = fusion_matrices(normal_pair("D4^3"))
    assert d.A == ((0, 1, 0), (1, 0, 3), (0, 1, 0))
    assert d.B == ((0, 1, 0), (1, 0, 1), (0, 3, 0))


@pytest.mark.parametrize("name,n", PAIR_CASES)
def test_dynkin_identification(name, n):
    d = fusion_matrices(normal_pair(name, n))
    want = EXPECTED_TYPES[name](n)
    got = (graph(d, "restriction").dynkin_type, graph(d, "induction").dynkin_type)
    assert got == want


def test_mckay_graph_of_trivial_pair():
    T = family("binary_tetrahedral")
    p = pair_from_groups(T, family("binary_tetrahedral"), name="(T, T)")
    p.default_v_label = "tau_1"
    d = fusion_matrices(p)
    assert graph(d, "restriction").dynkin_type == "E_6^(1)"
    O = family("binary_octahedral")
    po = pair_from_groups(O, family("binary_octahedral"), name="(O, O)")
    po.default_v_label = "omega_1^+"
    assert graph(fusion_matrices(po), "restriction").dynkin_type == "E_7^(1)"


@pytest.mark.parametrize("name,n", [c for c in PAIR_CASES if c[0] != "S4A4"])
def test_null_vectors(name, n):
    report = null_vector_check(fusion_matrices(normal_pair(name, n)))
    assert report.kernel_dims == (1, 1)
    if name in ("A2n^2", "A2^2"):
        assert report.variant in ("transposed", "both")
        assert report.annihilations["C_A^T.alpha_B"]
        assert report.annihilations["C_B^T.alpha_A"]
    else:
        assert report.variant in ("standard", "both")
        assert report.annihilations["C_A.alpha_A"]
        assert report.annihilations["C_B.alpha_B"]


def test_null_vector_values():
    r = null_vector_check(fusion_matrices(normal_pair("D4^3")))
    assert r.alpha_A == (1, 2, 1)
    assert r.alpha_B == (1, 2, 3)
    r2 = null_vector_check(fusion_matrices(normal_pair("Dn+1^2", 4)))
    assert r2.alpha_B == (1, 2, 2, 2, 1)


def test_null_vector_orientation_for_dihedral_cyclic_pair():
    # the diagram degree vector (1, 2, ..., 2, 1) is annihilated in the
    # transposed orientation C_A^T (and alpha_A by C_A itself), not by C_A
    for n in (2, 4, 7):
        data = fusion_matrices(normal_pair("Dn+1^2", n))
        r = null_vector_check(data)
        assert r.alpha_B == (1,) + (2,) * (n - 1) + (1,)
        assert r.annihilations["C_A^T.alpha_B"]
        assert r.annihilations["C_A.alpha_A"]
        CA = data.cartanA
        k = data.size
        direct = [sum(CA[i][j] * r.alpha_B[j] for j in range(k)) for i in range(k)]
        assert any(x != 0 for x in direct)


def test_null_vector_rejects_s4a4():
    with pytest.raises(CheckFailure):
        null_vector_check(fusion_matrices(normal_pair("S4A4")))


@pytest.mark.parametrize("name,n", PAIR_CASES)
def test_eigenvector_structure(name, n):
    d = fusion_matrices(normal_pair(name, n))
    eigenvalues = eigenvector_check(d)
    assert len(eigenvalues) == len(d.pair.upsilonN)
    assert eigenvalues[0].is_zero()  # identity class gives d - d = 0


@pytest.mark.parametrize("name,n", PAIR_CASES)
def test_characteristic_polynomials_agree(name, n):
    characteristic_identity_check(fusion_matrices(normal_pair(name, n)))


def test_full_identity_fixture_lists():
    from mckay_slodowy.verify import run_identity_fixtures

    for name, n in PAIR_CASES:
        result = run_identity_fixtures(normal_pair(name, n), name, n)
        assert result.ok, result.detail


def test_catalog_entries_pairwise_distinct():
    for size in range(2, 11):
        entries = catalog_for_size(size)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                assert not _isomorphic(entries[i][1], entries[j][1]), (
                    entries[i][0],
                    entries[j][0],
                )


def test_catalog_has_no_diagram_below_two_nodes():
    # each row starts at its first rank: no A_0^(1) self-loop, no A_-1^(1)
    assert catalog_for_size(1) == []
    assert catalog_for_size(0) == []
    assert identify([]) == "unrecognized"


def test_adjacency_rejects_a_rank_below_its_row():
    with pytest.raises(DomainError):
        adjacency("A^1", 1)
    with pytest.raises(DomainError):
        adjacency("Z^9")
    assert adjacency("G2^1", 7) == adjacency("G2^1") == [[0, 1, 0], [1, 0, 1], [0, 3, 0]]


def test_identify_is_permutation_invariant():
    A = adjacency("F4^1")
    perm = [4, 2, 0, 1, 3]
    permuted = [[A[perm[i]][perm[j]] for j in range(5)] for i in range(5)]
    assert identify(permuted) == "F_4^(1)"
    assert identify([[0, 1], [1, 0]]) == "unrecognized"  # finite A_2 is not affine


def test_identify_is_permutation_invariant_across_the_catalog():
    rng = random.Random(11)
    for size in range(2, 13):
        for label, A in catalog_for_size(size):
            for _ in range(3):
                perm = rng.sample(range(size), size)
                permuted = [[A[perm[i]][perm[j]] for j in range(size)] for i in range(size)]
                assert identify(permuted) == label, (label, perm)


def test_graph_edges_and_dot():
    d = fusion_matrices(normal_pair("S4A4"))
    g = graph(d, "restriction")
    loops = [e for e in g.edges if e.i == e.j]
    assert len(loops) == 1 and loops[0].multiplicity == 2
    dot = g.to_dot()
    assert dot.startswith("digraph") and dot.endswith("}")
    assert dot.count("[") == dot.count("]")
    assert 'label="check(rho_1) (2)"' in dot

    g2 = graph(fusion_matrices(normal_pair("D4^3")), "induction")
    assert any(e.multiplicity == 3 for e in g2.edges)


def test_fusion_cache_keys_on_the_module_not_its_label():
    from mckay_slodowy.characters import Character, table

    p = normal_pair("A2n^2", 3)
    gt = table(p.G)
    v1 = Character(gt["delta_1"].base, "V")
    v2 = Character(gt["delta_2"].base, "V")
    d1, d2 = fusion_matrices(p, v1), fusion_matrices(p, v2)
    assert d1 is not d2 and d1.A != d2.A
    assert d1.V.values == v1.values
    assert d2.V.values == v2.values
    assert fusion_matrices(p) is fusion_matrices(p, gt["delta_1"])


def test_one_minus_product():
    from fractions import Fraction

    from mckay_slodowy.cyclotomic import Cyclotomic, root_of_unity
    from mckay_slodowy.mckay import one_minus_product

    assert one_minus_product([]) == [1]
    assert one_minus_product([Cyclotomic(1), Cyclotomic(-1)]) == [1, 0, -1]
    assert one_minus_product([Cyclotomic(0), Cyclotomic(2)]) == [1, -2, 0]
    w = root_of_unity(3)
    assert one_minus_product([w, w.conj()]) == [1, 1, 1]
    with pytest.raises(CheckFailure):
        one_minus_product([w])
    with pytest.raises(CheckFailure):
        one_minus_product([Cyclotomic(Fraction(1, 2))])


def _permutations(name, degree, *gens):
    return generate([Permutation.from_cycles(degree, *cycles) for cycles in gens], name=name)


def test_the_trivial_module_is_vertex_0_whatever_the_table_order():
    # S4 from permutations gets the oracle's table, sorted by (degree, text),
    # which lists the sign character before the trivial one; the series
    # count the invariants at vertex 0, so vertex 0 must be the trivial module
    S4 = _permutations("S4", 4, [(1, 2, 3, 4)], [(1, 2)])
    tbl = table(S4)
    trivial = next(i for i, chi in enumerate(tbl) if set(chi.values) == {1})
    assert trivial != 0
    data = fusion_matrices(pair_from_groups(S4, S4, name="(S4, S4)"), tbl["chi_2"])
    triple_equivalence_check(data, 8)
    label = tbl.labels[trivial]
    assert data.rbasis.labels[0] == f"check({label})" and data.ibasis.labels[0] == f"hat({label})"
    # the table finds the row from its lifted form alone
    assert tbl.trivial == trivial


_PERMUTATION_GROUPS = {
    "S4": (4, [(1, 2, 3, 4)], [(1, 2)]),
    "A4": (4, [(1, 2, 3)], [(1, 2), (3, 4)]),
    "D10": (5, [(1, 2, 3, 4, 5)], [(2, 5), (3, 4)]),
    "S3xC3": (6, [(1, 2, 3)], [(1, 2)], [(4, 5, 6)]),
}


@pytest.mark.parametrize("name", list(_PERMUTATION_GROUPS))
def test_every_normal_subgroup_of_a_permutation_group(name):
    # every normal subgroup N (trivial and G included) with up to three real
    # irreducible modules V of degree above 1: the oracle tables need not
    # list the trivial character first
    from oracles import normal_subgroups

    G = _permutations(name, *_PERMUTATION_GROUPS[name])
    modules = [chi for chi in table(G) if chi.degree > 1 and chi.base == chi.base.conj()][:3]
    subgroups = normal_subgroups(G)
    assert modules and subgroups[0] == {0} and len(subgroups[-1]) == G.order
    for sub in subgroups:
        N = generate([G.elements[i] for i in sorted(sub)], name=f"N_{len(sub)}")
        pair = pair_from_groups(G, N, name=f"({name}, N_{len(sub)})")
        for V in modules:
            data = fusion_matrices(pair, V)
            characteristic_identity_check(data)
            eigenvector_check(data)
            triple_equivalence_check(data, 6)
