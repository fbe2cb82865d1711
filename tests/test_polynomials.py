from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mckay_slodowy.errors import CheckFailure
from mckay_slodowy.polynomials import (
    IntPoly,
    char_poly,
    det_poly,
    faddeev_leverrier,
    identity_minus_t,
    poly_gcd,
)


def test_basic_arithmetic():
    p = IntPoly([1, 2]) * IntPoly([1, -2])
    assert p == IntPoly([1, 0, -4])
    assert p.degree == 2
    assert (p - p).is_zero()
    assert IntPoly([0, 1]) ** 3 == IntPoly([0, 0, 0, 1])
    assert p(2) == 1 - 16
    assert p(Fraction(1, 2)) == 0


def _generic_horner(poly, x):
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=30),
    st.one_of(
        st.fractions(),
        st.integers(min_value=-50, max_value=50).map(Fraction),
        st.floats(min_value=-1, max_value=1).map(Fraction),
    ),
)
@example([], Fraction(-3, 7))
@example([5], Fraction(0))
@example([0, 0, 3], Fraction(0))
@example([-1, 2, -3, 4], Fraction(-1))
@example([-1, 2, -3, 4], Fraction(0.3))
def test_a_fraction_argument_gets_the_generic_horner_value(coeffs, x):
    p = IntPoly(coeffs)
    got, want = p(x), _generic_horner(p, x)
    assert got == want
    assert type(got) is type(want)


def test_exact_division():
    a = IntPoly([1, -3]) * IntPoly([2, 5, 1])
    assert a.divmod_exact(IntPoly([1, -3])) == IntPoly([2, 5, 1])
    with pytest.raises(ArithmeticError):
        IntPoly([1, 1, 1]).divmod_exact(IntPoly([1, 1]))


def test_gcd():
    a = IntPoly([1, -3]) * IntPoly([1, 1])
    b = IntPoly([1, 1]) * IntPoly([2, 4])
    assert poly_gcd(a, b) == IntPoly([1, 1])
    # gcd with zero returns the other argument up to sign normalization
    g = poly_gcd(IntPoly(), a)
    assert g == a or g == -a
    assert g.coeffs[-1] > 0


def test_determinant_small():
    # det(I - t A^T) for the quaternion-pair fusion matrix
    A = [[0, 4], [1, 0]]
    assert det_poly(identity_minus_t(A, transpose=True)) == IntPoly([1, 0, -4])
    assert char_poly(A) == IntPoly([-4, 0, 1])
    assert det_poly([]) == IntPoly([1])


_entry = st.integers(min_value=-3, max_value=3)


@st.composite
def poly_matrices(draw, size):
    return [
        [IntPoly([draw(_entry), draw(_entry)]) for _ in range(size)]
        for _ in range(size)
    ]


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 12 x 12: generic ones, singular ones (the
    last row a sum of earlier rows, or zero) and nilpotent ones (strictly
    upper triangular, then permuted)."""
    r = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["generic", "singular", "nilpotent"]))
    a = [[draw(_entry) for _ in range(r)] for _ in range(r)]
    if kind == "singular":
        a[-1] = [sum(col) for col in zip(*a[: min(2, r - 1)])] if r > 1 else [0]
    elif kind == "nilpotent":
        perm = draw(st.permutations(range(r)))
        upper = [[a[i][j] if i < j else 0 for j in range(r)] for i in range(r)]
        a = [[upper[perm[i]][perm[j]] for j in range(r)] for i in range(r)]
    return kind, a


@settings(max_examples=25, deadline=None)
@given(integer_matrices(), st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=3))
def test_adjugate_agrees_with_bareiss(kind_and_matrix, vertices):
    # Faddeev-LeVerrier against Bareiss: det(I - tA), and the Cramer numerators
    # det(I - tA with column v replaced by e_0) = adj(I - tA)[v][0]
    kind, a = kind_and_matrix
    r = len(a)
    coeffs, mats = faddeev_leverrier(a)
    full = identity_minus_t(a)
    assert IntPoly(coeffs) == det_poly(full)
    for v in sorted({v % r for v in vertices}):
        replaced = [
            [IntPoly.const(int(i == 0)) if j == v else full[i][j] for j in range(r)]
            for i in range(r)
        ]
        assert IntPoly([b[v][0] for b in mats]) == det_poly(replaced)
    # det(tI - A), and nilpotent matrices have det(I - tA) = 1
    t_minus_a = [[IntPoly([-a[i][j], int(i == j)]) for j in range(r)] for i in range(r)]
    assert char_poly(a) == det_poly(t_minus_a)
    if kind == "nilpotent":
        assert coeffs == [1] + [0] * r


def test_faddeev_leverrier_rejects_non_integral_traces():
    # a Fraction entry breaks the exact division by k
    with pytest.raises(CheckFailure):
        faddeev_leverrier([[Fraction(1, 2), 0], [0, 0]])


@settings(max_examples=20, deadline=None)
@given(poly_matrices(4))
def test_determinant_transpose_invariant(m):
    mt = [[m[j][i] for j in range(len(m))] for i in range(len(m))]
    assert det_poly(m) == det_poly(mt)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_entry, min_size=1, max_size=5),
    st.lists(_entry, min_size=1, max_size=5),
    st.lists(_entry, min_size=1, max_size=4),
)
def test_gcd_divides_both(a, b, c):
    pa, pb, pc = IntPoly(a), IntPoly(b), IntPoly(c)
    x, y = pa * pc, pb * pc
    g = poly_gcd(x, y)
    if x.is_zero() and y.is_zero():
        assert g.is_zero()
        return
    assert x.is_zero() or x.divmod_exact(g) * g == x
    assert y.is_zero() or y.divmod_exact(g) * g == y
