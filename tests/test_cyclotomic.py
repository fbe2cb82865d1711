import cmath
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay_slodowy.cyclotomic import (
    Cyclotomic,
    _canonical_cached,
    cyclotomic_polynomial,
    euler_phi,
    from_terms,
    reduce_mod_phi,
    root_of_unity,
    sqrt2,
    sqrt_minus1,
    unlift,
)

from oracles import (
    canonical_value,
    from_fractions,
    linear_combination,
    orbit_canonical,
    solve_inverse,
    weighted_dot,
)


def brute_product_mod_phi8(a, b):
    """Independent oracle: multiply two coefficient vectors in Q(zeta_8) as raw
    polynomials and reduce modulo Phi_8 = x^4 + 1 by hand."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    # x^4 = -1
    reduced = [0, 0, 0, 0]
    for k, c in enumerate(prod):
        q, r = divmod(k, 4)
        reduced[r] += c * (-1) ** q
    return reduced


def test_root_of_unity_identity():
    assert root_of_unity(1, 0) == 1


def test_root_of_unity_zeta4_squares_to_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == -1
    assert sqrt_minus1() == i


def test_sqrt2_from_zeta8():
    s = root_of_unity(8, 1) + root_of_unity(8, -1)
    assert s == sqrt2()
    assert s * s == 2


def test_primitive_cube_roots_sum():
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1


def test_sqrt2_square_matches_brute_force_reduction():
    # zeta_8^{-1} = -zeta_8^3 in the power basis
    vec = [0, 1, 0, -1]
    expected = brute_product_mod_phi8(vec, vec)
    assert expected == [2, 0, 0, 0]
    assert sqrt2() * sqrt2() == 2


def test_conductor_lowering_examples():
    assert root_of_unity(12, 3) == root_of_unity(4, 1)
    assert root_of_unity(12, 3).conductor == 4
    assert root_of_unity(6, 1).conductor == 3  # Q(zeta_6) = Q(zeta_3)
    assert root_of_unity(8, 4) == -1


def test_to_complex_values():
    assert Cyclotomic(1).to_complex() == pytest.approx(1.0)
    z4 = root_of_unity(4).to_complex()
    assert abs(z4 - 1j) < 1e-14
    s = sqrt2().to_complex()
    assert abs(s - math.sqrt(2)) < 1e-12  # host sqrt as independent oracle
    assert abs(s.imag) < 1e-14


def test_division_and_inverse():
    x = root_of_unity(5, 2) + Fraction(1, 3)
    assert x * x.inverse() == 1
    assert (x * x) / x == x
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(0).inverse()


def test_rational_round_trip():
    x = root_of_unity(7, 3)
    y = x + x.conj() + (-x - x.conj()) + Fraction(5, 2)
    assert y.is_rational()
    assert y.to_rational() == Fraction(5, 2)


def test_serialization_round_trip():
    x = root_of_unity(12, 1) + Fraction(2, 3) * root_of_unity(12, 5)
    assert Cyclotomic.from_text(x.to_text()) == x
    assert Cyclotomic.from_json(x.to_json()) == x
    assert x.to_text().startswith("cyc(")


def test_a_rational_value_hashes_as_the_number_it_equals():
    for value in (2, -7, Fraction(5, 2), 0):
        x = Cyclotomic(value)
        assert x == value and hash(x) == hash(value)
        assert x in {value} and value in {x}
    half = root_of_unity(3) + root_of_unity(3, 2) + Fraction(3, 2)  # = 1/2
    assert half in {Fraction(1, 2)} and {half: "v"}[Fraction(1, 2)] == "v"


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", "2"])
def test_a_float_or_a_string_is_no_cyclotomic_value(bad):
    # Cyclotomic(0.1) once stored 3602879701896397/36028797018963968 and
    # Cyclotomic("1/3") read 1/3, while Cyclotomic(1) + 0.5 was a TypeError
    with pytest.raises(TypeError):
        Cyclotomic(bad)


@pytest.mark.parametrize("bad", ["cyc(0)[5]", "cyc(-3)[1, 2]"])
def test_from_text_rejects_a_conductor_below_one(bad):
    with pytest.raises(ValueError, match="conductor must be a positive integer"):
        Cyclotomic.from_text(bad)


@pytest.mark.parametrize("n", [0, -2])
def test_from_json_rejects_a_conductor_below_one(n):
    with pytest.raises(ValueError, match="conductor must be a positive integer"):
        Cyclotomic.from_json({"conductor": n, "coeffs": ["1", "2"]})


def test_a_rational_literal_at_a_huge_conductor_never_builds_phi_n():
    # zeta_n^0 = 1 for every n; building Phi_100000 took seconds
    start = time.perf_counter()
    assert Cyclotomic.from_text("cyc(100000)[1]") == 1
    assert Cyclotomic.from_json({"conductor": 100000, "coeffs": ["1"]}) == 1
    assert Cyclotomic.from_text("cyc(1000000)[-2/3, 0, 0]") == Fraction(-2, 3)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (12, [0, 0, 0, 1]),
        (10, [0, 0, 1]),
        (4, [0, 0, 0, 0, 1]),
        (6, [0, 0, 0, Fraction(5, 3)]),
        (8, [0, 1, 0, 0, 0, 0, 0, 1]),
        (9, [2, 0, 0, 1, 0, 0, -1]),
        (1, [1, 2]),
        (6, []),
    ],
)
def test_a_literal_is_read_at_the_conductor_its_indices_allow(n, coeffs):
    expected = sum((c * root_of_unity(n, j) for j, c in enumerate(coeffs)), Cyclotomic(0))
    text = f"cyc({n})[{', '.join(map(str, coeffs))}]"
    assert Cyclotomic.from_text(text) == expected
    json_data = {"conductor": n, "coeffs": [str(c) for c in coeffs]}
    assert Cyclotomic.from_json(json_data) == expected


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_polynomial(105)) == euler_phi(105) + 1


_SMALL = st.integers(min_value=-4, max_value=4)


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    c = draw(_SMALL)
    d = draw(_SMALL)
    return c * root_of_unity(n, k) + Cyclotomic(d)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15]),
            st.integers(min_value=0, max_value=14),
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_inverse_mixed_conductors(terms):
    x = sum((c * root_of_unity(n, k % n) for n, k, c in terms), Cyclotomic(0))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert x * inv == 1
    assert inv.inverse() == x
    assert abs(x.to_complex() * inv.to_complex() - 1) < 1e-9


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_conjugation_involution(x):
    assert x.conj().conj() == x
    norm = (x * x.conj()).to_complex()
    assert abs(norm.imag) < 1e-10


@settings(max_examples=40, deadline=None)
@given(cyclotomics())
def test_norm_positivity(x):
    if x.is_zero():
        return
    n = x.conductor
    prod = Cyclotomic(1)
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            prod = prod * x.galois(k)
    assert prod.is_rational()
    assert prod.to_rational() != 0


@settings(max_examples=40, deadline=None)
@given(cyclotomics())
def test_lowering_idempotent_and_numerically_stable(x):
    # re-canonicalizing the canonical form changes nothing
    again = unlift(x.conductor, x.den, list(x.ints))
    assert again == x
    # the un-lowered embedding evaluates to the same complex number
    m = x.conductor * 2
    raised = x._embedded(m)
    direct = sum(
        complex(Fraction(c, x.den)) * cmath.exp(2j * cmath.pi * j / m) for j, c in enumerate(raised)
    )
    scale = 1 + sum(abs(c) for c in x.coeffs)
    assert abs(direct - x.to_complex()) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_to_complex_is_multiplicative(x, y):
    # double-precision arithmetic as an oracle for the exact product
    got = (x * y).to_complex()
    want = x.to_complex() * y.to_complex()
    assert abs(got - want) < 1e-9 * (1 + abs(want))


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def field_values(draw):
    """Values of mixed conductor with arbitrary, often non-integral, rational
    coefficients on the power basis."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    total = Cyclotomic(0)
    for j in range(euler_phi(n)):
        total = total + draw(_COEFF) * root_of_unity(n, j)
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(min_value=-5, max_value=12), _COEFF),
            field_values(),
            field_values(),
        ),
        max_size=5,
    )
)
def test_weighted_dot_matches_naive_sum(terms):
    naive = Cyclotomic(0)
    for w, x, y in terms:
        naive = naive + w * x * y.conj()
    weights, xs, ys = zip(*terms) if terms else ((), (), ())
    got = weighted_dot(weights, xs, ys)
    assert got == naive
    assert got.conductor == naive.conductor and got.coeffs == naive.coeffs


def test_weighted_dot_accepts_rationals():
    assert weighted_dot([2, 3], [1, Fraction(1, 2)], [root_of_unity(4), 4]) == 6 - 2 * root_of_unity(4)
    assert weighted_dot([], [], []) == 0


@settings(max_examples=40, deadline=None)
@given(field_values(), field_values())
def test_inverse_matches_the_galois_norm_product(x, y):
    # the library inverts by the Galois norm, the oracle by a linear solve
    x = x * y + x
    if x.is_zero():
        return
    inv = x.inverse()
    assert _same(inv, solve_inverse(x))
    assert all(type(c) is Fraction for c in inv.coeffs)
    assert x * inv == 1


def _same(a, b):
    return a.conductor == b.conductor and a.coeffs == b.coeffs and hash(a) == hash(b)


@settings(max_examples=60, deadline=None)
@given(field_values(), _COEFF)
def test_rational_scaling_matches_raw(x, r):
    want = from_fractions(x.conductor, [c * r for c in x.coeffs])
    for got in (x * r, r * x, x * Cyclotomic(r), Cyclotomic(r) * x):
        assert _same(got, want)
        assert all(type(c) is Fraction for c in got.coeffs)
    assert _same(-x, from_fractions(x.conductor, [-c for c in x.coeffs]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-5, max_value=5), field_values()), max_size=4))
def test_rational_results_match_raw(terms):
    # a value plus all its Galois conjugates sums to a rational (the trace)
    xs = []
    for _, x in terms:
        n = x.conductor
        xs += [x.galois(k) for k in range(1, n + 1) if math.gcd(k, n) == 1]
    ones = [1] * len(xs)
    m = math.lcm(1, *(x.conductor for x in xs))
    acc = [Fraction(0)] * euler_phi(m)
    for x in xs:
        acc = [a + Fraction(b, x.den) for a, b in zip(acc, x._embedded(m))]
    want = from_fractions(m, acc)
    assert want.is_rational()
    den = math.lcm(1, *(a.denominator for a in acc))
    summed = unlift(m, 1, reduce_mod_phi(m, [int(a * den) for a in acc])) * Fraction(1, den)
    for got in (weighted_dot(ones, xs, ones), linear_combination(ones, xs), summed):
        assert _same(got, want)
        assert all(type(c) is Fraction for c in got.coeffs)
    weights = [w for w, _ in terms]
    combo = sum((w * x for w, x in terms), Cyclotomic(0))
    assert _same(linear_combination(weights, [x for _, x in terms]), combo)


def _trace(x):
    n = x.conductor
    return sum((x.galois(k) for k in range(1, n + 1) if math.gcd(k, n) == 1), Cyclotomic(0))


@settings(max_examples=80, deadline=None)
@given(field_values(), field_values(), _COEFF)
def test_a_value_is_integers_over_one_least_denominator(x, y, r):
    z = x * y + r
    values = [x, y, x + y, x - y, x * y, z, x * r, x.conj(), _trace(x), _trace(x * y), x * x.conj()]
    values += [z.inverse()] if z else []
    for v in values:
        assert type(v.den) is int and v.den > 0
        assert all(type(c) is int for c in v.ints) and len(v.ints) == euler_phi(v.conductor)
        assert math.gcd(v.den, *v.ints) == 1
        # coeffs are the coordinates over D, and D is their least common denominator
        assert [c * v.den for c in v.coeffs] == list(v.ints)
        assert v.den == math.lcm(*(c.denominator for c in v.coeffs))
        assert v.terms_at(v.conductor, v.den) == tuple((j, c) for j, c in enumerate(v.ints) if c)
        if v.is_rational():
            q = v.to_rational()
            assert type(q) is Fraction and v == q and hash(v) == hash(q) and q in {v}


def _root_cases(m):
    """A few exponents per conductor m: the primitive root, its inverse, and
    powers sharing a factor with m."""
    return sorted({1, m - 1, m // 2 + 1, 7 * m // 11, m // 3} | (set(range(m)) if m <= 24 else set()))


@pytest.mark.parametrize("m", range(1, 201))
def test_roots_of_unity_are_built_in_canonical_form(m):
    # root_of_unity and unlift lower +-zeta_m^k as they lower any value, one
    # projection per prime; the oracle lowers the reduced vector of x^k step
    # by step through the Galois-fixed subfields
    for k in _root_cases(m):
        x_k = [0] * (k + 1)
        x_k[k] = 1
        vec = [int(c) for c in reduce_mod_phi(m, x_k)]
        for sign in (1, -1):
            want = canonical_value(*orbit_canonical(m, [Fraction(sign * c) for c in vec]))
            signed = [sign * c for c in vec]
            for got in (sign * root_of_unity(m, k), root_of_unity(m, k + m) * sign,
                        unlift(m, 1, signed), unlift(m, 3, [3 * c for c in signed])):
                assert _same(got, want), (m, k, sign)
                assert all(type(c) is Fraction for c in got.coeffs)


def _subfield_value(n, d, rng):
    """A random value of Q(zeta_d), d | n, on the power basis at conductor n."""
    vec = [Fraction(0)] * n
    for j in range(euler_phi(d)):
        vec[j * (n // d)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return tuple(reduce_mod_phi(n, vec))


@pytest.mark.parametrize("n", [*range(1, 121), *random.Random(0).sample(range(121, 301), 12)])
def test_lowering_matches_the_galois_orbit_oracle(n):
    # a value from each divisor's subfield, and one with every coefficient
    # nonzero, which lies in no proper subfield unless n = 2 mod 4
    rng = random.Random(n)
    values = [_subfield_value(n, d, rng) for d in range(1, n + 1) if n % d == 0]
    values.append(tuple(Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)) for _ in range(euler_phi(n))))
    for coeffs in values:
        # over the lcm of the denominators the coordinates are coprime to it
        den = math.lcm(1, *(c.denominator for c in coeffs))
        got_n, got_den, got_ints = _canonical_cached.__wrapped__(n, den, tuple(int(c * den) for c in coeffs))
        assert (got_n, tuple(Fraction(c, got_den) for c in got_ints)) == orbit_canonical(n, coeffs), coeffs
        assert all(type(c) is int for c in (got_den, *got_ints)) and math.gcd(got_den, *got_ints) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 20, 24, 30]),
    st.integers(min_value=1, max_value=12),
    st.lists(st.tuples(st.integers(min_value=0, max_value=90), st.integers(min_value=-6, max_value=6)), max_size=8),
)
def test_from_terms_matches_the_fraction_oracle(m, den, terms):
    # unreduced terms over any D, with repeated exponents and exponents past
    # m; the oracle keeps x^a for a >= m and leaves it to the division by
    # Phi_m, which divides x^m - 1
    vec = [Fraction(0)] * (1 + max((a for a, _ in terms), default=0))
    for a, u in terms:
        vec[a] += Fraction(u, den)
    got = from_terms(m, den, terms)
    assert _same(got, from_fractions(m, vec))
    assert all(type(c) is int for c in (got.den, *got.ints)) and math.gcd(got.den, *got.ints) == 1


def test_unlift_of_other_values_matches_raw():
    half = unlift(8, 2, [1, 1, 0, 0])  # (1 + zeta_8) / 2
    assert _same(half, canonical_value(*orbit_canonical(8, [Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)])))
    assert _same(unlift(12, 1, [0, 0, 0, 0]), Cyclotomic(0))
    assert _same(unlift(5, 1, [2, 0, 0, 0]), Cyclotomic(2))


def test_reduce_mod_phi_keeps_a_short_integer_vector_integral():
    # padding a vector shorter than phi(n) used to add Fraction(0)s, which
    # made unlift's gcd raise TypeError
    reduced = reduce_mod_phi(12, [0, 1])
    assert reduced == [0, 1, 0, 0] and all(type(c) is int for c in reduced)
    assert _same(unlift(12, 1, reduce_mod_phi(12, [0, 1])), root_of_unity(12))
    assert _same(unlift(12, 2, reduce_mod_phi(12, [1, 1])), (1 + root_of_unity(12)) / 2)


def pretty_oracle(x):
    """The display r*z{n}^k of a single root of unity by trial products with
    zeta_n^-k, k = 1..n-1, as pretty once found it; None for any other value."""
    n = x.conductor
    for k in range(1, n):
        q = x * root_of_unity(n, -k)
        if q.is_rational():
            r = q.to_rational()
            head = "" if r == 1 else ("-" if r == -1 else f"{r}*")
            return head + f"z{n}" + (f"^{k}" if k > 1 else "")
    return None


def test_pretty_reads_a_root_of_unity_without_a_product(monkeypatch):
    values = [
        r * root_of_unity(n, k)
        for n in range(3, 25)
        for k in range(1, n)
        for r in (1, -1, Fraction(-3, 2))
    ]
    values = [x for x in values if not x.is_rational()]
    values += [x + 1 for x in values[::7]] + [sqrt2(), 1 + sqrt_minus1()]
    want = [pretty_oracle(x) for x in values]

    def product(*args):
        raise AssertionError("pretty multiplied a Cyclotomic")

    monkeypatch.setattr(Cyclotomic, "__mul__", product)
    monkeypatch.setattr(Cyclotomic, "__rmul__", product)
    for x, w in zip(values, want):
        got = x.pretty()
        if w is None:  # a sum over the power basis, two terms at least
            assert " + " in got or " - " in got, got
        else:
            assert got == w
