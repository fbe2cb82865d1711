"""The lifted class functions against the kernels they replaced, kept here as
oracles: induction by one linear_combination per class, products and powers
of chi_V as Cyclotomic products, sums, scalars and conjugates value by value,
and the eigenvector check row by row on Cyclotomic values; fusion
coefficients read off constituents against the linear solve; the born-lifted
cyclic and binary dihedral tables against the value-built ones.  The
brute-force series has its Cyclotomic-power oracle in test_poincare."""
from fractions import Fraction
from itertools import islice

import pytest

from mckay_slodowy import cyclotomic, groups
from mckay_slodowy.characters import ClassFunction, _lifted_combination, induce, inner_product, restrict, table
from mckay_slodowy.cyclotomic import root_of_unity
from mckay_slodowy.errors import CheckFailure
from mckay_slodowy.groups import PAIR_N_MIN, family, normal_pair, pair_from_groups
from mckay_slodowy.mckay import (
    SIDES,
    FusionData,
    _solve_in_basis,
    eigenvector_check,
    fusion_matrices,
    induction_basis,
    restriction_basis,
)
from mckay_slodowy.poincare import _powers, series_cramer
from oracles import (
    binary_dihedral_table_values,
    cyclic_table_values,
    linear_combination,
    solve_exact,
    weighted_dot,
)

FIXED = [("E6^2", None), ("D4^3", None), ("A2^2", None), ("S4A4", None)]
SEVEN = [("A2n-1^2", 3), ("Dn+1^2", 3), ("A2n^2", 3)] + FIXED
SMALL = [(name, n) for name, low in PAIR_N_MIN.items() for n in range(low, 6)] + FIXED


def induce_oracle(pair, phi):
    """Ind phi as canonical values: (1/|N|) * one linear_combination per G-class."""
    scale = Fraction(1, pair.N.order)
    return tuple(
        scale * linear_combination(counts.values(), [phi.values[nc] for nc in counts])
        for counts in pair.induction_profile()
    )


def fusion_oracle(data):
    """(A, B) with each V * member a list of Cyclotomic products."""
    pair, V = data.pair, data.V
    v_res = [V.values[gc] for gc in pair.n_class_to_g_class]
    out = []
    for group, chi_v, basis in ((pair.N, v_res, data.rbasis), (pair.G, V.values, data.ibasis)):
        tbl = table(group)
        cols = [
            solve_exact(
                list(zip(*basis.mult_vectors)),
                tbl.decompose(ClassFunction(group, [a * b for a, b in zip(chi_v, member.values)])),
            )
            for member in basis.members
        ]
        out.append(tuple(zip(*cols)))
    return tuple(out)


def eigenvector_oracle(data):
    """The eigenvector check on Cyclotomic values, one linear_combination per row."""
    pair = data.pair
    d = data.V.degree
    k = data.size
    At = [[data.A[j][i] for j in range(k)] for i in range(k)]
    Bt = [[data.B[j][i] for j in range(k)] for i in range(k)]
    eigenvalues = []
    for gc in pair.upsilonN:
        lam = d - data.V.values[gc]
        eigenvalues.append(lam)
        nc = pair.g_class_with_n_values(gc)
        v = [m.values[nc] for m in data.rbasis.members]
        w = [m.values[gc] for m in data.ibasis.members]
        for i in range(k):
            if d * v[i] - linear_combination(At[i], v) != lam * v[i]:
                raise CheckFailure(f"restriction eigenvector fails at class {gc}, row {i}")
            if d * w[i] - linear_combination(Bt[i], w) != lam * w[i]:
                raise CheckFailure(f"induction eigenvector fails at class {gc}, row {i}")
    return eigenvalues


@pytest.mark.parametrize("name,n", SMALL)
def test_induced_values_match_the_linear_combination_oracle(name, n):
    pair = normal_pair(name, n)
    for phi in table(pair.N):
        dec = induce(pair, phi)
        assert dec.function.values == induce_oracle(pair, phi.base)
        assert dec.degree == dec.function.values[0].to_integer()
    ibasis = induction_basis(pair)
    assert ibasis.degrees == tuple(m.values[0].to_integer() for m in ibasis.members)


@pytest.mark.parametrize("name,n", SEVEN)
def test_fusion_matrices_match_the_cyclotomic_products(name, n):
    data = fusion_matrices(normal_pair(name, n))
    assert (data.A, data.B) == fusion_oracle(data)


def _oracle_coefficients(vectors, target):
    """The coefficients of target in the vectors by the linear solve, or None
    when they are not non-negative integers."""
    try:
        sol = solve_exact(list(zip(*vectors)), target)
    except ValueError:
        return None
    if any(c.denominator != 1 or c < 0 for c in sol):
        return None
    return tuple(sol)


@pytest.mark.parametrize("name,n", SMALL)
def test_fusion_coefficients_read_off_constituents_match_the_linear_solve(name, n):
    # every (side, member) target, and each target with one entry moved by
    # one: the read raises exactly where the solve has no non-negative
    # integer solution, and agrees with it everywhere else
    data = fusion_matrices(normal_pair(name, n))
    raised = 0
    for side in SIDES:
        _, basis, chi_v = data.side(side)
        tbl = table(chi_v.group)
        for member in basis.members:
            target = tbl.decompose(chi_v * member)
            assert _solve_in_basis(basis.mult_vectors, target) == _oracle_coefficients(
                basis.mult_vectors, target
            )
            for i in range(len(target)):
                for delta in (1, -1):
                    moved = list(target)
                    moved[i] += delta
                    want = _oracle_coefficients(basis.mult_vectors, moved)
                    if want is None:
                        raised += 1
                        with pytest.raises(CheckFailure):
                            _solve_in_basis(basis.mult_vectors, moved)
                    else:
                        assert _solve_in_basis(basis.mult_vectors, moved) == want
    assert raised


@pytest.mark.parametrize("name,n", SEVEN)
def test_lifted_powers_read_back_as_cyclotomic_powers(name, n):
    G = normal_pair(name, n).G
    chi = table(G)[1].base
    for k, power in enumerate(islice(_powers(chi), 6)):
        assert power.values == tuple(v**k for v in chi.values)
    assert (chi * chi).values == tuple(v * v for v in chi.values)


@pytest.mark.parametrize("name,n", SMALL)
def test_eigenvector_check_matches_the_row_by_row_oracle(name, n):
    data = fusion_matrices(normal_pair(name, n))
    assert eigenvector_check(data) == eigenvector_oracle(data)


@pytest.mark.parametrize("name,n", SEVEN)
def test_a_perturbed_fusion_matrix_fails_the_eigenvector_check(name, n):
    data = fusion_matrices(normal_pair(name, n))
    # one more copy of member 0 in V * member 0: the identity class already fails
    fields = {key: getattr(data, key) for key in data._fields}
    for field, side in (("A", "restriction"), ("B", "induction")):
        M = [list(row) for row in getattr(data, field)]
        M[0][0] += 1
        bad = FusionData(**{**fields, field: tuple(map(tuple, M))})
        with pytest.raises(CheckFailure, match=f"{side} eigenvector fails at class 0, row 0"):
            eigenvector_check(bad)
        with pytest.raises(CheckFailure, match=f"{side} eigenvector fails"):
            eigenvector_oracle(bad)


def _counting_unlift(monkeypatch):
    real, calls = cyclotomic.unlift, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    # characters reaches it through cyclotomic.from_terms
    for module in (cyclotomic, groups):
        monkeypatch.setattr(module, "unlift", counting)
    return calls


def test_series_cramer_materialises_no_induced_value(monkeypatch):
    G, N = family("binary_dihedral", 10), family("cyclic", 10)
    for chi in (*table(G), *table(N)):
        chi.values  # rows are born lifted; their values are read here, before counting
    pair = pair_from_groups(G, N)  # a new pair, so nothing is cached for it yet
    pair.default_v_label = "delta_1"
    calls = _counting_unlift(monkeypatch)
    data = fusion_matrices(pair)
    series_cramer(data, "induction", 1)
    assert calls == []
    # reading a member's values materialises them: one unlift per class
    assert data.ibasis.members[1].values[0] == data.ibasis.degrees[1]
    assert len(calls) == len(G.classes)
    data.ibasis.members[1].values
    assert len(calls) == len(G.classes)


@pytest.mark.parametrize(
    "name,n",
    [("cyclic", n) for n in range(2, 61)] + [("binary_dihedral", n) for n in range(2, 41)],
)
def test_born_lifted_tables_match_the_value_built_oracle(name, n):
    want = {"cyclic": cyclic_table_values, "binary_dihedral": binary_dihedral_table_values}[name](n)
    tbl = table(family(name, n))
    assert tbl.labels == [lbl for lbl, _ in want]
    for chi, (_, values) in zip(tbl, want):
        assert chi.values == tuple(values)


def _fresh(name, n):
    """A family group built anew, outside the family memo, so no table of it
    exists yet and none of its values has been read."""
    return groups._family_cached.__wrapped__(name, n, groups._max_order(None))


def test_the_compute_path_reads_no_table_value(monkeypatch):
    G, N = _fresh("binary_dihedral", 10), _fresh("cyclic", 10)
    pair = pair_from_groups(G, N)
    calls = _counting_unlift(monkeypatch)
    gt, nt = table(G), table(N)
    V = gt["delta_1"]
    data = fusion_matrices(pair, V)
    assert data.rbasis is restriction_basis(pair) and data.ibasis is induction_basis(pair)
    # memoising _fusion_matrices on V hashes V, which reads V's own row
    assert len(calls) == len(G.classes)
    V.values
    assert len(calls) == len(G.classes)
    assert all(chi.base._values is None for chi in (*gt, *nt) if chi is not V)
    # a row, as the Character or as its base, is one memo entry
    for tbl, memoised in ((gt, restrict), (nt, induce)):
        for chi in tbl:
            assert memoised(pair, chi) is memoised(pair, chi) is memoised(pair, chi.base)
    assert len(calls) == len(G.classes)


def test_table_degrees_are_read_once_per_table(monkeypatch):
    G, N = _fresh("binary_dihedral", 9), _fresh("cyclic", 9)
    data = fusion_matrices(pair_from_groups(G, N), table(G)["delta_1"])
    calls = _counting_unlift(monkeypatch)
    first = data.rbasis.degrees, data.ibasis.degrees
    # class 0 of each row of the two tables, once
    read = len(calls)
    assert 0 < read <= len(table(G)) + len(table(N))
    for _ in range(10):
        assert (data.rbasis.degrees, data.ibasis.degrees) == first
    assert len(calls) == read and table(G).degrees is table(G).degrees


def test_fusion_data_hashes_by_identity():
    data = fusion_matrices(normal_pair("E6^2"))
    assert hash(data) == object.__hash__(data)
    copy = FusionData(**{key: getattr(data, key) for key in data._fields})
    assert data == data and data != copy


def _stretched(f, s, t):
    """f again, lifted at s*m over t*D: the same values in a non-minimal form."""
    m, den, cols = f.lifted()
    return ClassFunction.from_lifted(
        f.group, s * m, t * den, [tuple((s * a, t * u) for a, u in terms) for terms in cols]
    )


def test_sums_scalars_and_conjugates_build_no_value(monkeypatch):
    tbl = table(family("binary_dihedral", 5))
    f, g = _stretched(tbl[2].base, 2, 3), _stretched(tbl[3].base, 3, 2)
    w = root_of_unity(3)
    for chi in tbl:
        chi.values  # rows are born lifted; their values are read here, before counting
    calls = _counting_unlift(monkeypatch)
    results = [f + g, 3 * f, f * Fraction(1, 2), f * w, w * f, f.conj(), _lifted_combination((2, -1), (f, g))]
    assert calls == []
    # reading the results builds their values, one unlift per class
    assert results[0].values == tuple(a + b for a, b in zip(tbl[2].values, tbl[3].values))
    assert len(calls) == len(tbl)
    calls.clear()
    # the inner product reduces and unlifts once
    assert inner_product(f, g) == 0 and inner_product(f, f) == 1
    assert len(calls) == 2


def _operands(tbl):
    """Each row with the next one, the first of them lifted at a non-minimal
    (m, D)."""
    k = len(tbl)
    return [(_stretched(tbl[i].base, 2, 3), tbl[(i + 1) % k].base) for i in range(k)]


@pytest.mark.parametrize("name,n", SMALL)
def test_lifted_arithmetic_matches_the_value_oracles(name, n):
    pair = normal_pair(name, n)
    w, half = root_of_unity(3), Fraction(1, 2)
    for group in (pair.G, pair.N):
        tbl = table(group)
        sizes = group.class_sizes()
        for f, g in _operands(tbl):
            a, b = f.values, g.values
            assert (f + g).values == tuple(linear_combination((1, 1), xy) for xy in zip(a, b))
            assert _lifted_combination((2, -3), (f, g)).values == tuple(
                linear_combination((2, -3), xy) for xy in zip(a, b)
            )
            assert (3 * f).values == tuple(linear_combination((3,), (x,)) for x in a)
            assert (f * half).values == tuple(x * half for x in a)
            assert (f * w).values == (w * f).values == tuple(x * w for x in a)
            assert f.conj().values == tuple(x.conj() for x in a)
            assert (f * g.conj()).values == tuple(x * y.conj() for x, y in zip(a, b))
            want = weighted_dot(sizes, a, b) * Fraction(1, group.order)
            assert inner_product(f, g) == want


@pytest.mark.parametrize("bad", ["3", 2.5, None])
def test_a_scalar_that_is_no_number_is_a_type_error(bad):
    # a string would otherwise reach the constant function through Fraction("3")
    f = table(family("cyclic", 4))[1].base
    with pytest.raises(TypeError):
        f * bad
    with pytest.raises(TypeError):
        bad * f
