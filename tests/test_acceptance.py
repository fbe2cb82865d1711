"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; every tolerance is pinned here (exact unless stated otherwise).
"""
from contextlib import contextmanager

from mckay_slodowy.characters import table, table_numeric, verify_table
from mckay_slodowy.chebyshev import (
    chebyshev_identities_check,
    closed_form_check,
    spectrum_exponents_check,
)
from mckay_slodowy.cyclotomic import Cyclotomic, root_of_unity, sqrt2
from mckay_slodowy.groups import PAIRS, family, normal_pair
from mckay_slodowy.mckay import (
    eigenvector_check,
    fusion_matrices,
    graph,
    null_vector_check,
)
from mckay_slodowy.poincare import (
    brute_force_multiplicity,
    denominator_identity_check,
    series_cramer,
    series_recursion,
)
from mckay_slodowy.polynomials import IntPoly
from mckay_slodowy.verify import run_identity_fixtures

SECTION2_PAIRS = (
    [("A2n-1^2", n) for n in range(3, 9)]
    + [("Dn+1^2", n) for n in range(2, 9)]
    + [("A2n^2", n) for n in range(2, 9)]
    + [("E6^2", None), ("D4^3", None), ("A2^2", None)]
)
ALL_PAIRS = SECTION2_PAIRS + [("S4A4", None)]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: criterion {number} - {description}")
        raise
    print(f"ACCEPTANCE PASS: criterion {number} - {description}")


def test_criterion_01_character_tables():
    with criterion(1, "exact character tables for all families"):
        w, w2, r2 = root_of_unity(3), root_of_unity(3, 2), sqrt2()
        expected_T = [
            [1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, w, w2, w, w2],
            [1, 1, 1, w2, w, w2, w],
            [2, -2, 0, 1, -1, -1, 1],
            [2, -2, 0, w, -w2, -w, w2],
            [2, -2, 0, w2, -w, -w2, w],
            [3, 3, -1, 0, 0, 0, 0],
        ]
        expected_O = [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [2, -2, r2, -r2, 0, 0, 1, -1],
            [3, 3, 1, 1, -1, -1, 0, 0],
            [4, -4, 0, 0, 0, 0, -1, 1],
            [2, 2, 0, 0, 2, 0, -1, -1],
            [3, 3, -1, -1, -1, 1, 0, 0],
            [2, -2, -r2, r2, 0, 0, 1, -1],
            [1, 1, -1, -1, 1, -1, 1, 1],
        ]
        expected_S4 = [
            [1, 1, 1, 1, 1],
            [1, -1, 1, -1, 1],
            [2, 0, -1, 0, 2],
            [3, 1, 0, -1, -1],
            [3, -1, 0, 1, -1],
        ]
        expected_A4 = [
            [1, 1, 1, 1],
            [1, w, w2, 1],
            [1, w2, w, 1],
            [3, 0, 0, -1],
        ]
        for grp, expected in [
            (family("binary_tetrahedral"), expected_T),
            (family("binary_octahedral"), expected_O),
            (family("symmetric4"), expected_S4),
            (family("alternating4"), expected_A4),
        ]:
            tbl = table(grp)
            verify_table(tbl)
            got = [[Cyclotomic(v) for v in chi.values] for chi in tbl]
            want = [[Cyclotomic(v) if not isinstance(v, Cyclotomic) else v for v in row] for row in expected]
            assert got == want, grp.name
        for n in range(2, 9):
            G = family("binary_dihedral", n)
            tbl = table(G)
            verify_table(tbl)
            s = root_of_unity(4, n)
            assert s * s == Cyclotomic((-1) ** n)
            # entry-for-entry against the dihedral table with the documented +/- pinning
            for eps, lbl in ((1, "delta_0^+"), (-1, "delta_0^-")):
                assert list(tbl[lbl].values) == [Cyclotomic(1)] * (n + 1) + [Cyclotomic(eps)] * 2
            for i in range(1, n):
                row = tbl[f"delta_{i}"].values
                expect = [Cyclotomic(2), Cyclotomic(2 * (-1) ** i)]
                expect += [root_of_unity(2 * n, i * j) + root_of_unity(2 * n, -i * j) for j in range(1, n)]
                expect += [Cyclotomic(0), Cyclotomic(0)]
                assert list(row) == expect
            for eps, lbl in ((1, f"delta_{n}^+"), (-1, f"delta_{n}^-")):
                row = tbl[lbl].values
                expect = [Cyclotomic(1), Cyclotomic((-1) ** n)]
                expect += [Cyclotomic((-1) ** j) for j in range(1, n)]
                expect += [eps * s, -eps * s]
                assert list(row) == expect


def test_criterion_02_identity_lists():
    with criterion(2, "the full lists of decomposition and fusion identities hold exactly"):
        for name, n in ALL_PAIRS:
            result = run_identity_fixtures(normal_pair(name, n), name, n)
            assert result.ok, f"{name} n={n}: {result.detail}"


def test_criterion_03_dynkin_identification():
    with criterion(3, "Dynkin identification for all pairs, n = minimum..8"):
        for name, n in SECTION2_PAIRS:
            data = fusion_matrices(normal_pair(name, n))
            want = PAIRS[name].types(n)
            got = (graph(data, "restriction").dynkin_type, graph(data, "induction").dynkin_type)
            assert got == want, f"{name} n={n}: {got} != {want}"


def test_criterion_04_s4a4_numbers():
    with criterion(4, "(S_4, A_4) matrices, coefficient lists, closed forms"):
        data = fusion_matrices(normal_pair("S4A4"))
        assert data.A == ((0, 0, 1), (0, 0, 1), (1, 2, 2))
        assert data.B == ((0, 0, 1), (0, 0, 2), (1, 1, 2))
        assert series_recursion(data, "restriction", 0, 7) == [1, 0, 1, 2, 7, 20, 61, 182]
        assert series_recursion(data, "restriction", 2, 7) == [0, 1, 2, 7, 20, 61, 182, 547]
        assert series_recursion(data, "restriction", 1, 7) == [0, 0, 2, 4, 14, 40, 122, 364]
        den = IntPoly([1, -2, -3])
        s0 = series_cramer(data, "restriction", 0)
        assert (s0.numerator, s0.denominator) == (IntPoly([1, -2, -2]), den)
        s2 = series_cramer(data, "restriction", 2)
        assert (s2.numerator, s2.denominator) == (IntPoly([0, 1]), den)
        s1 = series_cramer(data, "restriction", 1)
        assert (s1.numerator, s1.denominator) == (IntPoly([0, 0, 2]), den)


def test_criterion_05_section_4_1_3_numbers():
    with criterion(5, "invariants and vertex series for (O,T), (T,D_2), (D_2,C_2)"):
        data = fusion_matrices(normal_pair("E6^2"))
        s = series_cramer(data, "restriction", 0)
        assert (s.numerator, s.denominator) == (IntPoly([1, 0, -4, 0, 1]), IntPoly([1, 0, -5, 0, 4]))
        assert s.coefficients(11)[::2] == [1, 1, 2, 6, 22, 86]
        assert s == series_cramer(data, "induction", 0)
        # the non-trivial vertices, restriction and induction sides
        assert series_recursion(data, "restriction", 1, 9)[1::2] == [1, 2, 6, 22, 86]
        assert series_recursion(data, "restriction", 2, 10)[2::2] == [1, 4, 16, 64, 256]
        assert series_recursion(data, "restriction", 3, 9)[3::2] == [2, 10, 42, 170]
        assert series_recursion(data, "restriction", 4, 10)[4::2] == [2, 10, 42, 170]
        assert series_recursion(data, "induction", 1, 9)[1::2] == [1, 2, 6, 22, 86]
        assert series_recursion(data, "induction", 2, 10)[2::2] == [1, 4, 16, 64, 256]
        assert series_recursion(data, "induction", 3, 9)[3::2] == [1, 5, 21, 85]
        assert series_recursion(data, "induction", 4, 10)[4::2] == [1, 5, 21, 85]

        data = fusion_matrices(normal_pair("D4^3"))
        s = series_cramer(data, "restriction", 0)
        assert (s.numerator, s.denominator) == (IntPoly([1, 0, -3]), IntPoly([1, 0, -4]))
        assert s.coefficients(11)[::2] == [1, 1, 4, 16, 64, 256]
        assert s == series_cramer(data, "induction", 0)
        assert series_recursion(data, "restriction", 1, 9)[1::2] == [1, 4, 16, 64, 256]
        assert series_recursion(data, "restriction", 2, 8)[2::2] == [3, 12, 48, 192]
        assert series_recursion(data, "induction", 1, 9)[1::2] == [1, 4, 16, 64, 256]
        assert series_recursion(data, "induction", 2, 8)[2::2] == [1, 4, 16, 64]

        data = fusion_matrices(normal_pair("A2^2"))
        s = series_cramer(data, "restriction", 0)
        assert (s.numerator, s.denominator) == (IntPoly([1]), IntPoly([1, 0, -4]))
        assert s.coefficients(11)[::2] == [1, 4, 16, 64, 256, 1024]
        assert s == series_cramer(data, "induction", 0)
        assert series_recursion(data, "restriction", 1, 9)[1::2] == [4, 16, 64, 256, 1024]
        assert series_recursion(data, "induction", 1, 9)[1::2] == [2, 8, 32, 128, 512]


def test_criterion_06_denominator_identity():
    with criterion(6, "det(I-tA^T) = det(I-tB^T) = character product, all pairs"):
        for name, n in ALL_PAIRS:
            denominator_identity_check(normal_pair(name, n))


def test_criterion_07_triple_equivalence():
    with criterion(7, "recursion = Cramer stream = brute force, k <= 12, all vertices"):
        for name, n in ALL_PAIRS:
            data = fusion_matrices(normal_pair(name, n))
            for side in ("restriction", "induction"):
                for vertex in range(data.size):
                    rec = series_recursion(data, side, vertex, 12)
                    stream = series_cramer(data, side, vertex).coefficients(13)
                    brute = [
                        brute_force_multiplicity(data, side, vertex, k) for k in range(13)
                    ]
                    assert rec == stream == brute, (name, n, side, vertex)


def test_criterion_08_eigenstructure():
    with criterion(8, "character vectors are exact eigenvectors; kernel null vectors"):
        for name, n in ALL_PAIRS:
            data = fusion_matrices(normal_pair(name, n))
            eigenvector_check(data)
            if name != "S4A4":
                report = null_vector_check(data)
                assert report.kernel_dims == (1, 1)
                if name in ("A2^2", "A2n^2"):
                    assert report.variant in ("transposed", "both")
                else:
                    assert report.variant in ("standard", "both")


def test_criterion_09_chebyshev_suite():
    with criterion(9, "Chebyshev identities n <= 50; closed forms for both dihedral families"):
        assert chebyshev_identities_check(50) == []
        for n in range(3, 9):
            closed_form_check("A2n-1^2", n)
        for n in range(2, 9):
            closed_form_check("Dn+1^2", n)


def test_criterion_10_exponents():
    with criterion(10, "fusion spectrum = chi_V values = 2cos exponent data (1e-9)"):
        reported = []
        for name, n in SECTION2_PAIRS:
            rep = spectrum_exponents_check(normal_pair(name, n))
            assert all(
                abs(a - b) <= 1e-9
                for a, b in zip(sorted(rep.affine_eigenvalues), sorted(rep.chi_v_values))
            )
            if rep.affine_cos_asserted:
                assert rep.affine_cos_matches, (name, n)
                assert rep.finite_cos_matches, (name, n)
            else:
                reported.append((rep.pair_name, rep.affine_type, rep.affine_cos_matches))
        # ambiguous-convention rows are reported, never silently dropped
        assert reported, "expected at least the A_{2n}^{(2)} rows to be reported"
        for pair_name, label, matched in reported:
            print(f"  reported (convention not asserted): {pair_name} {label} cos-match={matched}")


def test_criterion_11_numeric_table_agreement():
    with criterion(11, "numeric oracle tables match exact tables up to permutation"):
        groups = [family("binary_dihedral", n) for n in range(2, 9)]
        groups += [
            family("binary_tetrahedral"),
            family("binary_octahedral"),
            family("symmetric4"),
            family("alternating4"),
            family("cyclic", 6),
            family("cyclic", 48),
        ]
        for G in groups:
            assert G.order <= 48 or G.family_info[0] == "binary_dihedral"
            exact = sorted(tuple(v.to_text() for v in c.values) for c in table(G))
            numeric = sorted(tuple(v.to_text() for v in c.values) for c in table_numeric(G))
            assert exact == numeric, G.name
