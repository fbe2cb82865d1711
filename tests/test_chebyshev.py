import math
import random
import re
from fractions import Fraction

import pytest

from mckay_slodowy.chebyshev import (
    _cos_poly,
    chebyshev,
    chebyshev_additive,
    chebyshev_identities_check,
    chebyshev_product_value,
    c_family,
    closed_form_check,
    exponent_duality_holds,
    exponents_catalog,
    spectrum_exponents_check,
)
from mckay_slodowy.dynkin import catalog_for_size
from mckay_slodowy.errors import DomainError
from mckay_slodowy.groups import normal_pair
from mckay_slodowy.polynomials import IntPoly, char_poly


def test_base_cases():
    assert chebyshev("first", 0).poly == IntPoly([1])
    assert chebyshev("first", 1).poly == IntPoly([0, 1])
    assert chebyshev("second", 0).poly == IntPoly([1])
    assert chebyshev("second", 1).poly == IntPoly([0, 2])


def test_one_recursion_step():
    # U_2 = 2t(2t) - 1
    assert chebyshev("second", 2).poly == IntPoly([-1, 0, 4])
    assert chebyshev("first", 2).poly == IntPoly([-1, 0, 2])


def test_cosine_defining_property():
    rng = random.Random(3)
    for _ in range(50):
        theta = rng.uniform(0, math.pi)
        n = rng.randrange(0, 15)
        # exact Horner at the rational closest to cos(theta)
        x = Fraction(math.cos(theta))
        val = float(chebyshev("first", n).poly(x))
        assert abs(val - math.cos(n * theta)) < 1e-10


def test_additive_forms_exactly_n5():
    # independent expansion on both sides at n = 5
    assert chebyshev("first", 5).poly == chebyshev_additive("first", 5)
    assert chebyshev_additive("first", 5) == IntPoly([0, 5, 0, -20, 0, 16])
    assert chebyshev("second", 5).poly == chebyshev_additive("second", 5)


def test_t1_identity():
    # T_1 = U_1 - t U_0 = 2t - t = t
    u1, u0 = chebyshev("second", 1).poly, chebyshev("second", 0).poly
    assert u1 - IntPoly([0, 1]) * u0 == chebyshev("first", 1).poly


def test_product_form_numeric_n8():
    poly = chebyshev("first", 8).poly
    got = chebyshev_product_value("first", 8, 0.3)
    assert abs(got - float(poly(Fraction(0.3)))) < 1e-9


def test_identity_suite_clean_to_50():
    assert chebyshev_identities_check(50) == []
    with pytest.raises(DomainError):
        chebyshev_identities_check(1)


BAD_ARGUMENTS = [
    # (once a TypeError, a ChebyshevPoly of degree True, the zero polynomial,
    # and 0.25)
    (chebyshev, ("first", 2.5), "degree must be an integer, not 2.5"),
    (chebyshev, ("second", True), "degree must be an integer, not True"),
    (chebyshev, ("first", -1), "degree must be non-negative"),
    (chebyshev_additive, ("first", -2), "degree must be non-negative"),
    (chebyshev_additive, ("second", 2.0), "degree must be an integer, not 2.0"),
    (chebyshev_product_value, ("first", -1, 0.3), "degree must be non-negative"),
    (chebyshev_product_value, ("second", "3", 0.3), "degree must be an integer, not '3'"),
    # the kind is checked before the degree-0 shortcut (once 1.0)
    (chebyshev_product_value, ("bogus", 0, 0.3), "kind must be 'first' or 'second'"),
    (chebyshev_additive, ("bogus", 0), "kind must be 'first' or 'second'"),
    (c_family, (2.5,), "index must be an integer, not 2.5"),
    (c_family, (False,), "index must be an integer, not False"),
    (c_family, (-1,), "index must be non-negative"),
    (chebyshev_identities_check, (2.5,), "n_max must be an integer, not 2.5"),
    (chebyshev_identities_check, (1,), "n_max must be at least 2"),
]


@pytest.mark.parametrize("fn,args,message", BAD_ARGUMENTS)
def test_the_entry_points_reject_a_bad_integer_argument(fn, args, message):
    with pytest.raises(DomainError) as exc:
        fn(*args)
    assert str(exc.value) == message


def test_c_family_values():
    assert c_family(0) == IntPoly([1])
    assert c_family(1) == IntPoly([1, 0, -2])
    assert c_family(2) == IntPoly([1, 0, -3])  # c_2 = c_1 - t^2 c_0
    # the binomial form 2^(1-4) sum C(4, 2i) (1-4t^2)^i expands to c_3
    base = IntPoly([1, 0, -4])
    acc = IntPoly()
    for i, coef in ((0, 1), (1, 6), (2, 1)):
        acc = acc + coef * base**i
    expected = IntPoly([c // 8 for c in acc.coeffs])
    assert c_family(3) == expected == IntPoly([1, 0, -4, 0, 2])


def test_c_family_sign_pattern():
    # coefficients alternate in sign in t^2 and start at 1
    for n in range(51):
        c = c_family(n)
        assert c[0] == 1
        for k, coef in enumerate(c.coeffs):
            if k % 2 == 1:
                assert coef == 0
            elif coef:
                assert (coef > 0) == (k % 4 == 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_dn(n):
    report = closed_form_check("Dn+1^2", n)
    assert report.numerator == c_family(n - 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_form_a2n_minus_1(n):
    report = closed_form_check("A2n-1^2", n)
    assert report.denominator[0] == 1


def test_closed_form_smallest_case():
    # (D_2, C_4): invariants (1-2t^2)/(1-4t^2)
    report = closed_form_check("Dn+1^2", 2)
    assert report.series.numerator == IntPoly([1, 0, -2])
    assert report.series.denominator == IntPoly([1, 0, -4])


def test_closed_form_a5_a7_denominators():
    # n = 3: the lone cosine factor is 1 - 2cos(pi/2)t = 1, so the whole
    # denominator collapses to 1 - 4t^2
    report = closed_form_check("A2n-1^2", 3)
    assert report.denominator == IntPoly([1, 0, -4])
    # n = 4: (1 - 2cos(pi/3)t)(1 - 2cos(2pi/3)t) = 1 - t^2
    report = closed_form_check("A2n-1^2", 4)
    assert report.denominator == IntPoly([1, 0, -4]) * IntPoly([1, 0, -1])


def test_exponents_catalog_rows():
    g2 = exponents_catalog("G_2^(1)")
    assert (set(g2.exponents), g2.coxeter) == ({0, 1, 2}, 2)
    d43 = exponents_catalog("D_4^(3)")
    assert (set(d43.exponents), d43.coxeter) == ({0, 1, 2}, 2)
    f4 = exponents_catalog("F_4^(1)")
    assert (set(f4.exponents), f4.coxeter) == ({0, 2, 3, 4, 6}, 6)
    e62 = exponents_catalog("E_6^(2)")
    assert (set(e62.exponents), e62.coxeter) == ({0, 2, 3, 4, 6}, 6)
    fin = exponents_catalog("F_4")
    assert (set(fin.exponents), fin.coxeter) == ({1, 5, 7, 11}, 12)
    a11 = exponents_catalog("A_1^(1)")
    assert (set(a11.exponents), a11.coxeter) == ({0, 1}, 1)
    a22 = exponents_catalog("A_2^(2)")
    assert (set(a22.exponents), a22.coxeter) == ({0, 2}, 2)
    # shared rows
    c3 = exponents_catalog("C_3^(1)")
    d42 = exponents_catalog("D_4^(2)")
    assert c3.exponents == d42.exponents == (0, 1, 2, 3)
    assert c3.coxeter == d42.coxeter == 3
    b3 = exponents_catalog("B_3^(1)")
    a52 = exponents_catalog("A_5^(2)")
    assert sorted(b3.exponents) == sorted(a52.exponents) == [0, 1, 1, 2]
    b4 = exponents_catalog("B_4^(1)")
    assert sorted(b4.exponents) == [0, 2, 3, 4, 6]
    assert b4.coxeter == 6
    with pytest.raises(DomainError):
        exponents_catalog("Z_9^(4)")


BELOW_FIRST_RANK = [
    "B_0^(1)", "B_1^(1)", "C_0^(1)", "A_0^(2)", "A_1^(2)", "D_1^(2)", "D_0^(2)",
    "A_0", "B_0", "C_0", "D_0", "D_1",
]
OUTSIDE_ONE_ROW = ["F_3^(1)", "F_5^(1)", "G_3^(1)", "E_5^(2)", "D_5^(3)", "F_3", "G_1", "E_5", "E_9"]


@pytest.mark.parametrize("label", BELOW_FIRST_RANK + OUTSIDE_ONE_ROW)
def test_exponents_reject_ranks_outside_a_row(label):
    # these used to print rows such as "exponents [-1], Coxeter number -2"
    with pytest.raises(DomainError):
        exponents_catalog(label)


def test_lowest_ranks_keep_their_rows():
    # the low-rank coincidences B_2 = C_2, C_1 = A_1, A_3^(2) = D_3^(2)
    assert exponents_catalog("B_2^(1)").exponents == exponents_catalog("C_2^(1)").exponents == (0, 1, 2)
    assert exponents_catalog("C_1^(1)").exponents == exponents_catalog("A_1^(1)").exponents == (0, 1)
    assert exponents_catalog("A_3^(2)").exponents == exponents_catalog("D_3^(2)").exponents
    assert exponents_catalog("D_2^(2)").coxeter == 1
    assert (exponents_catalog("D_2").exponents, exponents_catalog("B_1").coxeter) == ((1, 1), 2)


def test_exponent_duality_all_rows():
    labels = ["A_1^(1)", "A_2^(2)", "G_2^(1)", "D_4^(3)", "F_4^(1)", "E_6^(2)"]
    labels += [f"C_{l}^(1)" for l in range(2, 9)]
    labels += [f"D_{l+1}^(2)" for l in range(2, 9)]
    labels += [f"B_{l}^(1)" for l in range(3, 9)]
    labels += [f"A_{2*l}^(2)" for l in range(2, 9)]
    labels += [f"A_{2*l-1}^(2)" for l in range(3, 9)]
    for lbl in labels:
        data = exponents_catalog(lbl)
        assert exponent_duality_holds(data), lbl
        # the exponent count equals the number of affine nodes
        import re

        m = re.fullmatch(r"([A-G])_(\d+)\^\((\d)\)", lbl)
        letter, sub, twist = m.group(1), int(m.group(2)), int(m.group(3))
        if twist == 1:
            nodes = sub + 1
        elif lbl == "A_2^(2)":
            nodes = 2
        elif letter == "A":
            nodes = (sub + 1) // 2 + 1 if sub % 2 else sub // 2 + 1
        elif letter == "D" and twist == 2:
            nodes = sub
        else:
            nodes = {"E_6^(2)": 5, "D_4^(3)": 3}[lbl]
        assert len(data.exponents) == nodes, lbl


def test_the_catalog_table_checks_itself():
    # every catalog label up to 13 nodes, also ranks no pair realises: the
    # exponent row is the spectrum of the diagram, and the finite row that of
    # the diagram with node 0 deleted
    with_data = 0
    for size in range(2, 14):
        for label, A in catalog_for_size(size):
            try:
                data = exponents_catalog(label)
            except DomainError:
                assert re.fullmatch(r"A_([2-9]|\d\d+)\^\(1\)|D_\d+\^\(1\)|E_[678]\^\(1\)", label), label
                continue
            with_data += 1
            assert char_poly(A) == _cos_poly(data.exponents, data.coxeter), label
            finite = [row[1:] for row in A[1:]]
            assert char_poly(finite) == _cos_poly(data.finite_exponents, data.finite_coxeter), label
    assert with_data == 59


PAIR_CASES = (
    [("A2n-1^2", n) for n in range(3, 9)]
    + [("Dn+1^2", n) for n in range(2, 9)]
    + [("A2n^2", n) for n in range(2, 9)]
    + [("E6^2", None), ("D4^3", None), ("A2^2", None)]
)


@pytest.mark.parametrize("name,n", PAIR_CASES)
def test_spectrum_exponents(name, n):
    report = spectrum_exponents_check(normal_pair(name, n))
    # the chi_V side always matches the eigenvalues
    assert all(
        abs(a - b) <= 1e-9
        for a, b in zip(sorted(report.affine_eigenvalues), sorted(report.chi_v_values))
    )
    if report.affine_cos_asserted:
        assert report.affine_cos_matches and report.finite_cos_matches


def test_spectrum_specific_values():
    r = spectrum_exponents_check(normal_pair("D4^3"))
    assert [round(x) for x in sorted(r.affine_eigenvalues)] == [-2, 0, 2]
    r = spectrum_exponents_check(normal_pair("E6^2"))
    assert [round(x) for x in sorted(r.affine_eigenvalues)] == [-2, -1, 0, 1, 2]
    # finite part of E_6^(2) is F_4: 2cos(m pi/12) for m in {1,5,7,11}
    expected = sorted(2 * math.cos(m * math.pi / 12) for m in (1, 5, 7, 11))
    assert all(abs(a - b) < 1e-9 for a, b in zip(sorted(r.finite_eigenvalues), expected))
    r = spectrum_exponents_check(normal_pair("A2^2"))
    assert [round(x) for x in sorted(r.affine_eigenvalues)] == [-2, 2]
    with pytest.raises(DomainError):
        spectrum_exponents_check(normal_pair("S4A4"))
