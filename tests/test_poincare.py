from fractions import Fraction

import numpy as np
import pytest

from mckay_slodowy.characters import restrict, table
from mckay_slodowy.cyclotomic import Cyclotomic
from mckay_slodowy.errors import DomainError
from mckay_slodowy.groups import normal_pair
from mckay_slodowy import mckay, poincare
from mckay_slodowy.chebyshev import spectrum_exponents_check
from mckay_slodowy.mckay import characteristic_identity_check, default_module, fusion_matrices
from mckay_slodowy.poincare import (
    SIDES,
    RationalSeries,
    brute_force_multiplicity,
    brute_force_series,
    corollary_relation_check,
    denominator_identity_check,
    denominator_product,
    invariants_series_check,
    multiplicity_vector,
    root_lengths,
    series_cramer,
    series_recursion,
)
from mckay_slodowy.polynomials import IntPoly
from oracles import weighted_dot


def matrix_power_oracle(M, vertex, K):
    """Independent oracle: coefficients as entries of (M^T)^k applied to the
    unit vector, in plain numpy integer arithmetic."""
    M = np.array(M, dtype=object).T
    c = np.zeros(len(M), dtype=object)
    c[0] = 1
    out = [int(c[vertex])]
    for _ in range(K):
        c = M @ c
        out.append(int(c[vertex]))
    return out


# frozen from the oracle above with the quaternion pair's matrices
# A = [[0,4],[1,0]], B = [[0,2],[2,0]]
A2_2_RESTRICTION_V1 = [0, 4, 0, 16, 0, 64]
A2_2_INDUCTION_V1 = [0, 2, 0, 8, 0, 32]


def test_matrix_power_oracle_frozen_values():
    assert matrix_power_oracle([[0, 4], [1, 0]], 1, 5) == A2_2_RESTRICTION_V1
    assert matrix_power_oracle([[0, 2], [2, 0]], 1, 5) == A2_2_INDUCTION_V1


def test_series_recursion_s4a4():
    d = fusion_matrices(normal_pair("S4A4"))
    assert series_recursion(d, "restriction", 0, 7) == [1, 0, 1, 2, 7, 20, 61, 182]
    assert series_recursion(d, "restriction", 2, 7) == [0, 1, 2, 7, 20, 61, 182, 547]
    assert series_recursion(d, "restriction", 1, 7) == [0, 0, 2, 4, 14, 40, 122, 364]


def test_series_recursion_k0_is_trivial_delta():
    for name, n in [("S4A4", None), ("Dn+1^2", 3), ("E6^2", None)]:
        d = fusion_matrices(normal_pair(name, n))
        assert series_recursion(d, "restriction", 0, 0) == [1]
        assert series_recursion(d, "induction", 0, 0) == [1]


def test_series_recursion_a2_2_vertex1():
    d = fusion_matrices(normal_pair("A2^2"))
    assert series_recursion(d, "restriction", 1, 5) == A2_2_RESTRICTION_V1
    assert series_recursion(d, "induction", 1, 5) == A2_2_INDUCTION_V1
    assert series_recursion(d, "restriction", 1, 5) == matrix_power_oracle(
        [list(r) for r in d.A], 1, 5
    )


def test_series_cramer_s4a4():
    d = fusion_matrices(normal_pair("S4A4"))
    s0 = series_cramer(d, "restriction", 0)
    assert s0.numerator == IntPoly([1, -2, -2])
    assert s0.denominator == IntPoly([1, -2, -3])
    s2 = series_cramer(d, "restriction", 2)
    assert s2.numerator == IntPoly([0, 1])
    assert s2.denominator == IntPoly([1, -2, -3])
    s1 = series_cramer(d, "restriction", 1)
    assert s1.numerator == IntPoly([0, 0, 2])


def test_series_cramer_a2_2_invariants():
    d = fusion_matrices(normal_pair("A2^2"))
    s = series_cramer(d, "restriction", 0)
    assert s.numerator == IntPoly([1])
    assert s.denominator == IntPoly([1, 0, -4])
    assert s.coefficients(11) == [1, 0, 4, 0, 16, 0, 64, 0, 256, 0, 1024]


def test_series_cramer_stream_matches_recursion():
    for name, n in [("S4A4", None), ("D4^3", None), ("A2n-1^2", 4)]:
        d = fusion_matrices(normal_pair(name, n))
        for side in ("restriction", "induction"):
            for v in range(d.size):
                assert series_cramer(d, side, v).coefficients(11) == series_recursion(
                    d, side, v, 10
                )


def test_denominator_product_examples():
    assert denominator_product(normal_pair("S4A4")) == IntPoly([1, -2, -3])
    assert denominator_product(normal_pair("E6^2")) == IntPoly([1, 0, -5, 0, 4])
    assert denominator_product(normal_pair("D4^3")) == IntPoly([1, 0, -4])

    # (D_n, C_2n): equality with the expanded cosine product, brute-forced
    # from the literal character values in double precision
    p = normal_pair("Dn+1^2", 3)
    got = denominator_product(p)
    poly = np.array([1.0])
    values = [2.0, -2.0] + [2 * np.cos(np.pi * i / 3) for i in (1, 2)]
    for val in values:
        poly = np.convolve(poly, [1.0, -val])
    assert np.allclose(poly, [float(c) for c in got.coeffs])


def test_denominator_product_requires_self_dual():
    p = normal_pair("S4A4")
    phi1_like = table(p.G)["rho_0^-"]  # real, fine
    denominator_product(p, phi1_like)


def test_series_reject_non_self_dual_module():
    # a complex-valued module is structurally fine for fusion matrices but
    # cannot produce the multiplicity series
    from mckay_slodowy.groups import family, pair_from_groups

    C6 = family("cyclic", 6)
    trivial_pair = pair_from_groups(C6, family("cyclic", 6), name="(C_6, C_6)")
    data = fusion_matrices(trivial_pair, table(C6)["xi_1"])
    with pytest.raises(DomainError):
        series_cramer(data, "restriction", 0)
    with pytest.raises(DomainError):
        series_recursion(data, "restriction", 0, 3)
    with pytest.raises(DomainError):
        brute_force_multiplicity(data, "restriction", 0, 2)


@pytest.mark.parametrize(
    "name,n",
    [("A2n-1^2", n) for n in range(3, 9)]
    + [("Dn+1^2", n) for n in range(2, 9)]
    + [("A2n^2", n) for n in range(2, 9)]
    + [("E6^2", None), ("D4^3", None), ("A2^2", None), ("S4A4", None)],
)
def test_denominator_identity_all_pairs(name, n):
    denominator_identity_check(normal_pair(name, n))


def test_brute_force_examples():
    d = fusion_matrices(normal_pair("E6^2"))
    assert brute_force_multiplicity(d, "restriction", 0, 4) == 2
    assert brute_force_multiplicity(d, "restriction", 0, 0) == 1
    d2 = fusion_matrices(normal_pair("D4^3"))
    assert brute_force_multiplicity(d2, "restriction", 0, 4) == 4
    with pytest.raises(DomainError):
        brute_force_multiplicity(d, "restriction", 0, 21)


def brute_force_oracle(data, side, K):
    """brute_force_series by one weighted_dot per (k, vertex, constituent),
    the path it replaced by one decomposition of chi_V^k per k."""
    pair = data.pair
    if side == "restriction":
        group, chi_v = pair.N, [data.V.values[gc] for gc in pair.n_class_to_g_class]
        mult_vectors = data.rbasis.mult_vectors
    else:
        group, chi_v, mult_vectors = pair.G, list(data.V.values), data.ibasis.mult_vectors
    tbl, sizes = table(group), group.class_sizes()
    out = []
    for mults in mult_vectors:
        series = []
        for k in range(K + 1):
            power = [v**k for v in chi_v]
            total = 0
            for chi, mult in zip(tbl, mults):
                if mult:
                    val = Fraction(1, group.order) * weighted_dot(sizes, power, chi.values)
                    total += mult * val.to_integer()
            series.append(total)
        out.append(series)
    return out


@pytest.mark.parametrize(
    "name,n",
    [("A2n-1^2", 3), ("Dn+1^2", 3), ("A2n^2", 3), ("E6^2", None), ("D4^3", None), ("A2^2", None), ("S4A4", None)],
)
def test_brute_force_series_matches_the_inner_product_path(name, n):
    data = fusion_matrices(normal_pair(name, n))
    for side in ("restriction", "induction"):
        want = brute_force_oracle(data, side, 8)
        assert brute_force_series(data, side, 8) == want
        assert [brute_force_multiplicity(data, side, v, 7) for v in range(data.size)] == [w[7] for w in want]


def test_invariants_series_closed_values():
    s = invariants_series_check(normal_pair("E6^2"))
    assert s.numerator == IntPoly([1, 0, -4, 0, 1])
    assert s.denominator == IntPoly([1, 0, -5, 0, 4])
    assert s.coefficients(11)[::2] == [1, 1, 2, 6, 22, 86]

    s = invariants_series_check(normal_pair("D4^3"))
    assert s.numerator == IntPoly([1, 0, -3])
    assert s.denominator == IntPoly([1, 0, -4])
    assert s.coefficients(11)[::2] == [1, 1, 4, 16, 64, 256]

    s = invariants_series_check(normal_pair("A2^2"))
    assert s.numerator == IntPoly([1])
    assert s.coefficients(11)[::2] == [1, 4, 16, 64, 256, 1024]


def test_other_vertex_series_values():
    # (O, T): the non-trivial-vertex series
    d = fusion_matrices(normal_pair("E6^2"))
    assert series_recursion(d, "restriction", 1, 9) == [0, 1, 0, 2, 0, 6, 0, 22, 0, 86]
    assert series_recursion(d, "restriction", 2, 10)[2::2] == [1, 4, 16, 64, 256]
    assert series_recursion(d, "restriction", 3, 9)[3::2] == [2, 10, 42, 170]
    assert series_recursion(d, "restriction", 4, 10)[4::2] == [2, 10, 42, 170]
    # induction side: hat series halve on the short roots
    assert series_recursion(d, "induction", 3, 9)[3::2] == [1, 5, 21, 85]

    # (T, D_2)
    d = fusion_matrices(normal_pair("D4^3"))
    assert series_recursion(d, "restriction", 1, 9)[1::2] == [1, 4, 16, 64, 256]
    assert series_recursion(d, "restriction", 2, 8)[2::2] == [3, 12, 48, 192]
    assert series_recursion(d, "induction", 2, 8)[2::2] == [1, 4, 16, 64]

    # (D_2, C_2)
    d = fusion_matrices(normal_pair("A2^2"))
    assert series_recursion(d, "restriction", 1, 9)[1::2] == [4, 16, 64, 256, 1024]
    assert series_recursion(d, "induction", 1, 9)[1::2] == [2, 8, 32, 128, 512]


@pytest.mark.parametrize(
    "name,n",
    [("A2n-1^2", 3), ("A2n-1^2", 6), ("Dn+1^2", 2), ("Dn+1^2", 5),
     ("A2n^2", 2), ("A2n^2", 4), ("E6^2", None), ("D4^3", None), ("A2^2", None),
     ("S4A4", None)],
)
def test_triple_equivalence(name, n):
    d = fusion_matrices(normal_pair(name, n))
    for side in ("restriction", "induction"):
        for vertex in range(d.size):
            rec = series_recursion(d, side, vertex, 12)
            stream = series_cramer(d, side, vertex).coefficients(13)
            brute = [brute_force_multiplicity(d, side, vertex, k) for k in range(13)]
            assert rec == stream == brute


def test_multiplicity_vector_matches_brute_force():
    d = fusion_matrices(normal_pair("D4^3"))
    for side in ("restriction", "induction"):
        for k in (0, 1, 4, 7):
            vec = multiplicity_vector(d, side, k)
            assert vec.k == k
            assert all(v >= 0 for v in vec.values)
            assert list(vec.values) == [
                brute_force_multiplicity(d, side, j, k) for j in range(d.size)
            ]


def test_triple_equivalence_to_k20_one_pair():
    # the module invariant is stated through k = 20; exercise it fully once
    d = fusion_matrices(normal_pair("E6^2"))
    for side in ("restriction", "induction"):
        for vertex in range(d.size):
            rec = series_recursion(d, side, vertex, 20)
            stream = series_cramer(d, side, vertex).coefficients(21)
            brute = [brute_force_multiplicity(d, side, vertex, k) for k in range(21)]
            assert rec == stream == brute


def test_relation_checks():
    r = corollary_relation_check(normal_pair("E6^2"))
    assert r.kind == "main"
    assert [x[1] for x in r.relations] == ["long", "long", "long", "short", "short"]
    r = corollary_relation_check(normal_pair("D4^3"))
    assert [x[2] for x in r.relations] == [1, 1, 3]
    r = corollary_relation_check(normal_pair("A2^2"))
    assert r.kind == "special"
    for name, n in [("A2n-1^2", 4), ("Dn+1^2", 4), ("A2n^2", 4)]:
        corollary_relation_check(normal_pair(name, n))
    with pytest.raises(DomainError):
        corollary_relation_check(normal_pair("S4A4"))


def test_root_lengths():
    d = fusion_matrices(normal_pair("E6^2"))
    assert root_lengths(d.cartanB) == ["long", "long", "long", "short", "short"]
    d = fusion_matrices(normal_pair("Dn+1^2", 4))
    assert root_lengths(d.cartanB) == ["long", "short", "short", "short", "long"]


def test_rational_series_properties():
    s = RationalSeries(IntPoly([2, -4, -6]), IntPoly([2, -4, -6]))
    assert s.numerator == IntPoly([1]) and s.denominator == IntPoly([1])
    s = RationalSeries(IntPoly([0, 1]) * IntPoly([1, 1]), IntPoly([1, -1]) * IntPoly([1, 1]))
    assert s.numerator == IntPoly([0, 1])
    assert s.denominator == IntPoly([1, -1])
    assert s.coefficients(5) == [0, 1, 1, 1, 1]
    assert s == RationalSeries(IntPoly([0, 1]), IntPoly([1, -1]))
    assert s.scaled(3).coefficients(3) == [0, 3, 3]
    # reading coefficients leaves nothing behind
    assert s.coefficient(7) == 1 and s.coefficients(0) == []
    assert set(vars(s)) == {"numerator", "denominator"}
    with pytest.raises(DomainError):
        RationalSeries(IntPoly([1]), IntPoly([0, 1]))


def test_stream_properties_nonnegative_and_normalized():
    for name, n in [("A2n-1^2", 5), ("E6^2", None)]:
        d = fusion_matrices(normal_pair(name, n))
        for side in ("restriction", "induction"):
            for v in range(d.size):
                s = series_cramer(d, side, v)
                assert s.denominator[0] == 1
                assert s.numerator[0] == (1 if v == 0 else 0)
                assert all(c >= 0 for c in s.coefficients(20))


@pytest.mark.parametrize("name,n", [("A2n-1^2", 4), ("A2n^2", 3), ("E6^2", None), ("S4A4", None)])
def test_brute_force_series_matches_single_k(name, n):
    d = fusion_matrices(normal_pair(name, n))
    for side in ("restriction", "induction"):
        series = brute_force_series(d, side, 9)
        assert series == [
            [brute_force_multiplicity(d, side, vertex, k) for k in range(10)]
            for vertex in range(d.size)
        ]
    with pytest.raises(DomainError, match="tensor power 21 exceeds the bound 20"):
        brute_force_series(d, "restriction", 25)


def test_generic_pair_has_no_index_correspondence_relations():
    from mckay_slodowy.groups import family, pair_from_groups

    # the groups of A2^2, but built as a generic pair: no family key to go by
    p = pair_from_groups(family("binary_dihedral", 2), family("cyclic", 2))
    p.default_v_label = "delta_1"
    assert p.family is None
    with pytest.raises(DomainError, match="only stated for"):
        corollary_relation_check(p)


def test_a_fresh_fusion_datum_runs_faddeev_leverrier_once_per_side(monkeypatch):
    # the characteristic identity (from verify_pair and from the spectrum
    # check) and every closed form read one memoised run per side
    runs = []
    real = mckay.faddeev_leverrier
    monkeypatch.setattr(mckay, "faddeev_leverrier", lambda mat: runs.append(mat) or real(mat))
    pair = normal_pair("Dn+1^2", 3)
    data = mckay._fusion_matrices.__wrapped__(pair, default_module(pair))  # outside the memo
    for _ in range(2):
        characteristic_identity_check(data)
        spectrum_exponents_check(data)
        for side in SIDES:
            for vertex in range(data.size):
                series_cramer(data, side, vertex)
    assert len(runs) == 2


def test_every_side_reader_rejects_a_bad_side_with_one_text():
    data = fusion_matrices(normal_pair("A2^2"))
    readers = [
        lambda: data.side("bogus"),
        lambda: mckay.side_recurrence(data, "bogus"),
        lambda: mckay.graph(data, "bogus"),
        lambda: series_cramer(data, "bogus", 0),
        lambda: series_recursion(data, "bogus", 0, 3),
        lambda: brute_force_series(data, "bogus", 3),
    ]
    for read in readers:
        with pytest.raises(DomainError) as exc:
            read()
        assert str(exc.value) == "side must be one of ('restriction', 'induction')"


def test_a_side_is_its_matrix_basis_and_module():
    pair = normal_pair("Dn+1^2", 3)
    data = fusion_matrices(pair)
    assert SIDES == ("restriction", "induction")
    assert data.side("restriction") == (data.A, data.rbasis, restrict(pair, data.V).function)
    assert data.side("induction") == (data.B, data.ibasis, data.V.base)


def test_the_self_duality_of_a_module_is_checked_once():
    # every series call needs V = V*; the check reads V's values once per V
    poincare._require_self_dual.cache_clear()
    data = fusion_matrices(normal_pair("A2n^2", 3))
    for side in SIDES:
        for vertex in range(data.size):
            series_cramer(data, side, vertex)
            series_recursion(data, side, vertex, 4)
        brute_force_series(data, side, 4)
    denominator_product(data.pair, data.V)
    info = poincare._require_self_dual.cache_info()
    assert info.misses == 1 and info.hits


def _e6_restriction():
    return fusion_matrices(normal_pair("E6^2")), "restriction"


# (call, text) on the restriction side of E6^2 (size 5, series 1, 0, 1, 0, 2, ...):
# each once returned a wrong answer or raised a bare IndexError/ValueError
BAD_SERIES_ARGUMENTS = [
    (lambda d, s: brute_force_multiplicity(d, s, -1, 4), "vertex -1 out of range for size 5"),
    (lambda d, s: brute_force_multiplicity(d, s, 5, 4), "vertex 5 out of range for size 5"),
    (lambda d, s: brute_force_multiplicity(d, s, True, 4), "vertex True out of range for size 5"),
    (lambda d, s: brute_force_multiplicity(d, s, 0, -1), "k must be a non-negative integer, not -1"),
    (lambda d, s: brute_force_multiplicity(d, s, 0, 2.0), "k must be a non-negative integer, not 2.0"),
    (lambda d, s: brute_force_multiplicity(d, s, 0, True), "k must be a non-negative integer, not True"),
    (lambda d, s: brute_force_series(d, s, -1), "K must be a non-negative integer, not -1"),
    (lambda d, s: brute_force_series(d, s, 2.5), "K must be a non-negative integer, not 2.5"),
    (lambda d, s: multiplicity_vector(d, s, -1), "k must be a non-negative integer, not -1"),
    (lambda d, s: multiplicity_vector(d, s, False), "k must be a non-negative integer, not False"),
    (lambda d, s: series_recursion(d, s, 0, -2), "K must be a non-negative integer, not -2"),
    (lambda d, s: series_recursion(d, s, 0, "3"), "K must be a non-negative integer, not '3'"),
    (lambda d, s: series_recursion(d, s, 5, 3), "vertex 5 out of range for size 5"),
    (lambda d, s: series_recursion(d, s, -1, 3), "vertex -1 out of range for size 5"),
    (lambda d, s: series_recursion(d, s, 1.0, 3), "vertex 1.0 out of range for size 5"),
    (lambda d, s: series_cramer(d, s, 5), "vertex 5 out of range for size 5"),
    (lambda d, s: series_cramer(d, s, -1), "vertex -1 out of range for size 5"),
    (lambda d, s: series_cramer(d, s, 0).coefficient(-1), "k must be a non-negative integer, not -1"),
    (lambda d, s: series_cramer(d, s, 0).coefficient(1.5), "k must be a non-negative integer, not 1.5"),
    (lambda d, s: series_cramer(d, s, 0).coefficients(-2), "count must be a non-negative integer, not -2"),
    (lambda d, s: series_cramer(d, s, 0).coefficients(True), "count must be a non-negative integer, not True"),
]


@pytest.mark.parametrize("call,message", BAD_SERIES_ARGUMENTS)
def test_a_bad_vertex_or_count_is_a_domain_error(call, message):
    with pytest.raises(DomainError) as exc:
        call(*_e6_restriction())
    assert str(exc.value) == message


def test_the_entry_points_keep_their_answers_at_the_edges():
    data, side = _e6_restriction()
    assert brute_force_multiplicity(data, side, 0, 0) == 1
    assert brute_force_multiplicity(data, side, 4, 4) == series_recursion(data, side, 4, 4)[4]
    assert brute_force_series(data, side, 0) == [[1], [0], [0], [0], [0]]
    assert multiplicity_vector(data, side, 0).values == (1, 0, 0, 0, 0)
    assert series_recursion(data, side, 0, 0) == [1]
    assert series_cramer(data, side, 0).coefficients(0) == []
    assert series_cramer(data, side, 0).coefficients(5) == [1, 0, 1, 0, 2]


@pytest.mark.parametrize("name,n", [("A2n-1^2", 3), ("Dn+1^2", 2), ("E6^2", None), ("S4A4", None)])
def test_the_denominator_identity_is_the_characteristic_identity_read_backwards(monkeypatch, name, n):
    from mckay_slodowy.errors import CheckFailure

    pair = normal_pair(name, n)
    data = fusion_matrices(pair)
    det = denominator_identity_check(pair)
    assert det == denominator_product(pair)
    assert det == IntPoly(mckay.side_recurrence(data, "induction")[0])
    # det(I - t A^T) is trimmed where A is singular; char(A) keeps t^size
    padded = det.coeffs + (0,) * (data.size + 1 - len(det.coeffs))
    assert characteristic_identity_check(data).coeffs[::-1] == padded

    real = mckay.character_product
    # one coefficient of prod (1 - chi_V(g) t) moved by one
    monkeypatch.setattr(mckay, "character_product", lambda p, V: (*real(p, V)[:-1], real(p, V)[-1] + 1))
    texts = []
    for check in (lambda: characteristic_identity_check(data), lambda: denominator_identity_check(pair)):
        with pytest.raises(CheckFailure) as exc:
            check()
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert "differs from the eigenvalue product" in texts[0]
