"""The catalog of named groups and distinguished pairs, pinned from outside:
every family's class labels, the printed classes and tables of the two
permutation groups, and the exact error text of each catalog entry point."""
import pytest

from mckay_slodowy.chebyshev import closed_form_check
from mckay_slodowy.cli import run
from mckay_slodowy.errors import ClosureBoundExceeded, DomainError
from mckay_slodowy.groups import family, normal_pair
from mckay_slodowy.poincare import corollary_relation_check
from mckay_slodowy.verify import default_pair_arguments, verify_all, verify_pair

CLASS_LABELS = {
    ("cyclic", 2): ["1", "z"],
    ("cyclic", 3): ["1", "z", "z^2"],
    ("cyclic", 4): ["1", "z", "z^2", "z^3"],
    ("cyclic", 5): ["1", "z", "z^2", "z^3", "z^4"],
    ("binary_dihedral", 2): ["1", "-1", "x", "y", "yx"],
    ("binary_dihedral", 3): ["1", "-1", "x", "x^2", "y", "yx"],
    ("binary_dihedral", 4): ["1", "-1", "x", "x^2", "x^3", "y", "yx"],
    ("binary_dihedral", 5): ["1", "-1", "x", "x^2", "x^3", "x^4", "y", "yx"],
    ("binary_tetrahedral", None): ["1", "-1", "x", "z", "z^2", "-z", "-z^2"],
    ("binary_octahedral", None): ["1", "-1", "u", "-u", "y", "uy", "z", "-z"],
    ("symmetric4", None): ["1", "(12)", "(123)", "(1234)", "(12)(34)"],
    ("alternating4", None): ["1", "(123)", "(132)", "(12)(34)"],
}


@pytest.mark.parametrize("name,n", sorted(CLASS_LABELS, key=str))
def test_family_class_labels(name, n):
    assert family(name, n).class_labels == CLASS_LABELS[name, n]


PRINTED = {
    ("group", "symmetric4"): [
        "S_4: order 24, 5 conjugacy classes",
        "  class        1  size   1  rep Permutation(1, 2, 3, 4)",
        "  class     (12)  size   6  rep Permutation(2, 1, 3, 4)",
        "  class    (123)  size   8  rep Permutation(2, 3, 1, 4)",
        "  class   (1234)  size   6  rep Permutation(2, 3, 4, 1)",
        "  class (12)(34)  size   3  rep Permutation(2, 1, 4, 3)",
    ],
    ("group", "alternating4"): [
        "A_4: order 12, 4 conjugacy classes",
        "  class        1  size   1  rep Permutation(1, 2, 3, 4)",
        "  class    (123)  size   4  rep Permutation(2, 3, 1, 4)",
        "  class    (132)  size   4  rep Permutation(3, 1, 2, 4)",
        "  class (12)(34)  size   3  rep Permutation(2, 1, 4, 3)",
    ],
    ("chartable", "symmetric4"): [
        "chi \\ g  1  (12)  (123)  (1234)  (12)(34)",
        "|class|  1  6     8      6       3       ",
        "rho_0^+  1  1     1      1       1       ",
        "rho_0^-  1  -1    1      -1      1       ",
        "rho_1    2  0     -1     0       2       ",
        "rho_2^+  3  1     0      -1      -1      ",
        "rho_2^-  3  -1    0      1       -1      ",
    ],
    ("chartable", "alternating4"): [
        "chi \\ g  1  (123)  (132)  (12)(34)",
        "|class|  1  4      4      3       ",
        "phi_0    1  1      1      1       ",
        "phi_1    1  z3     z3^2   1       ",
        "phi_2    1  z3^2   z3     1       ",
        "phi_3    3  0      0      -1      ",
    ],
}


@pytest.mark.parametrize("command,name", sorted(PRINTED))
def test_permutation_group_text(capsys, command, name):
    assert run([command, name]) == 0
    assert capsys.readouterr().out == "\n".join(PRINTED[command, name]) + "\n"


FAMILY_CHOICES = (
    "('cyclic', 'binary_dihedral', 'binary_tetrahedral', 'binary_octahedral', "
    "'symmetric4', 'alternating4')"
)
PAIR_CHOICES = "('A2n-1^2', 'Dn+1^2', 'A2n^2', 'E6^2', 'D4^3', 'A2^2', 'S4A4')"

ERRORS = [
    # unknown name
    (family, ("bogus",), {}, DomainError, f"unknown family 'bogus'; choose from {FAMILY_CHOICES}"),
    (normal_pair, ("bogus",), {}, DomainError, f"unknown pair 'bogus'; choose from {PAIR_CHOICES}"),
    (verify_pair, ("bogus",), {}, DomainError, f"unknown pair 'bogus'; choose from {PAIR_CHOICES}"),
    (closed_form_check, ("bogus", 3), {}, DomainError, "closed forms are stated for A2n-1^2 and Dn+1^2"),
    # a missing n
    (family, ("cyclic",), {}, DomainError, "cyclic requires n >= 2"),
    (family, ("binary_dihedral",), {}, DomainError, "binary_dihedral requires n >= 2"),
    (normal_pair, ("A2n-1^2",), {}, DomainError, "pair A2n-1^2 requires n >= 3"),
    (normal_pair, ("A2n^2",), {}, DomainError, "pair A2n^2 requires n >= 2"),
    (verify_pair, ("A2n-1^2",), {}, DomainError, "pair A2n-1^2 requires n"),
    (verify_pair, ("Dn+1^2",), {}, DomainError, "pair Dn+1^2 requires n"),
    # n below the minimum
    (family, ("cyclic", 1), {}, DomainError, "cyclic requires n >= 2"),
    (family, ("binary_dihedral", 1), {}, DomainError, "binary_dihedral requires n >= 2"),
    (normal_pair, ("A2n-1^2", 2), {}, DomainError, "pair A2n-1^2 requires n >= 3"),
    (normal_pair, ("Dn+1^2", 1), {}, DomainError, "pair Dn+1^2 requires n >= 2"),
    (verify_pair, ("A2n-1^2", 2), {}, DomainError, "pair A2n-1^2 requires n >= 3"),
    (closed_form_check, ("A2n-1^2", 2), {}, DomainError, "A2n-1^2 requires n >= 3"),
    (closed_form_check, ("Dn+1^2", 1), {}, DomainError, "Dn+1^2 requires n >= 2"),
    # n given where none is taken
    (family, ("symmetric4", 3), {}, DomainError, "family symmetric4 takes no n"),
    (family, ("binary_octahedral", 2), {}, DomainError, "family binary_octahedral takes no n"),
    (normal_pair, ("E6^2", 3), {}, DomainError, "pair E6^2 takes no n"),
    (normal_pair, ("S4A4", 3), {}, DomainError, "pair S4A4 takes no n"),
    (verify_pair, ("S4A4", 3), {}, DomainError, "pair S4A4 takes no n"),
    # an order above the bound
    (family, ("cyclic", 20), {"max_order": 12}, ClosureBoundExceeded,
     "cyclic has order 20, above the bound of 12 elements"),
    (family, ("binary_octahedral",), {"max_order": 47}, ClosureBoundExceeded,
     "binary_octahedral has order 48, above the bound of 47 elements"),
    (normal_pair, ("Dn+1^2", 10), {"max_order": 12}, ClosureBoundExceeded,
     "binary_dihedral has order 40, above the bound of 12 elements"),
    (normal_pair, ("E6^2",), {"max_order": 30}, ClosureBoundExceeded,
     "binary_octahedral has order 48, above the bound of 30 elements"),
    # a pair with no closed form, or no relations
    (closed_form_check, ("A2n^2", 3), {}, DomainError, "closed forms are stated for A2n-1^2 and Dn+1^2"),
    (closed_form_check, ("E6^2", None), {}, DomainError, "closed forms are stated for A2n-1^2 and Dn+1^2"),
    (closed_form_check, ("S4A4", None), {}, DomainError, "closed forms are stated for A2n-1^2 and Dn+1^2"),
    (lambda: corollary_relation_check(normal_pair("S4A4")), (), {}, DomainError,
     "index-correspondence relations are only stated for "
     "('A2n-1^2', 'Dn+1^2', 'E6^2', 'D4^3', 'A2^2', 'A2n^2')"),
    # a non-integer n ("3" once raised TypeError at `n < n_min`)
    (closed_form_check, ("A2n-1^2", "3"), {}, DomainError, "n must be an integer, not '3'"),
    (closed_form_check, ("A2n-1^2", 3.0), {}, DomainError, "n must be an integer, not 3.0"),
    # a non-integer k_max or n_max (once a TypeError, or a FAILed check with
    # islice's ValueError as its detail), and the range texts they keep
    (verify_pair, ("E6^2",), {"k_max": 2.5}, DomainError, "k_max must be an integer, not 2.5"),
    (verify_pair, ("E6^2",), {"k_max": True}, DomainError, "k_max must be an integer, not True"),
    (verify_pair, ("E6^2",), {"k_max": 21}, DomainError, "k_max must be in 0..20, got 21"),
    (verify_all, (), {"n_max": 2.5}, DomainError, "n_max must be an integer, not 2.5"),
    (verify_all, (), {"n_max": "8"}, DomainError, "n_max must be an integer, not '8'"),
    (verify_all, (), {"k_max": 2.5}, DomainError, "k_max must be an integer, not 2.5"),
    (verify_all, (), {"n_max": 1}, DomainError, "n_max must be at least 2, got 1"),
    (verify_all, (), {"k_max": -1}, DomainError, "k_max must be in 0..20, got -1"),
    # default_pair_arguments checks n_max itself (2.5 was a TypeError; -3, 1
    # and True returned only the four fixed pairs)
    (default_pair_arguments, (2.5,), {}, DomainError, "n_max must be an integer, not 2.5"),
    (default_pair_arguments, (True,), {}, DomainError, "n_max must be an integer, not True"),
    (default_pair_arguments, ("8",), {}, DomainError, "n_max must be an integer, not '8'"),
    (default_pair_arguments, (1,), {}, DomainError, "n_max must be at least 2, got 1"),
    (default_pair_arguments, (-3,), {}, DomainError, "n_max must be at least 2, got -3"),
]


@pytest.mark.parametrize("fn,args,kwargs,error,message", ERRORS)
def test_catalog_error_text(fn, args, kwargs, error, message):
    with pytest.raises(error) as exc:
        fn(*args, **kwargs)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_closed_form_check_names_a_missing_n():
    # a missing n once reached `n < 3` and raised TypeError
    with pytest.raises(DomainError, match=r"^A2n-1\^2 requires n >= 3$"):
        closed_form_check("A2n-1^2", None)


@pytest.mark.parametrize("build,name,n", [
    (family, "cyclic", 11),
    (family, "binary_dihedral", 11),
    (normal_pair, "Dn+1^2", 7),
    (normal_pair, "A2n^2", 7),
])
def test_a_non_integer_n_is_a_domain_error_cold_and_warm(build, name, n):
    # n is checked before the memoised lookup: a float equal to a cached n
    # used to return the cached result, an uncached one raised TypeError deep
    # in the closure, and a string raised TypeError at `n < n_min`
    bad = (float(n), n + 0.5, str(n), True)
    for state in ("cold", "warm"):
        for value in bad:
            with pytest.raises(DomainError) as exc:
                build(name, value)
            assert str(exc.value) == f"n must be an integer, not {value!r}", state
        build(name, n)


@pytest.mark.parametrize("name,n", [("A2n^2", 2.0), ("Dn+1^2", "3"), ("A2n-1^2", 3.5)])
def test_verify_pair_rejects_a_non_integer_n(name, n):
    with pytest.raises(DomainError, match="^n must be an integer, not "):
        verify_pair(name, n)
