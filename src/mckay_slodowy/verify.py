"""The verification suite behind `verify`: the full lists of restriction,
induction and fusion identities of the distinguished pairs, plus the
structural checks (orthogonality, reciprocity, Dynkin identification, null
vectors, denominators, series equivalences, exponents), packaged as named
pass/fail results.
"""
from __future__ import annotations

from .characters import frobenius_check, induce, restrict, table, table_numeric, verify_table
from .chebyshev import (
    chebyshev_identities_check,
    closed_form_check,
    exponent_duality_holds,
    exponents_catalog,
    spectrum_exponents_check,
)
from .dynkin import FAMILIES
from .errors import CheckFailure, DomainError
from .groups import PAIR_NAMES, PAIRS, NormalPair, normal_pair
from .mckay import (
    SIDES,
    characteristic_identity_check,
    eigenvector_check,
    fusion_matrices,
    graph,
    null_vector_check,
)
from .poincare import (
    DEFAULT_BRUTE_FORCE_BOUND,
    brute_force_series,
    corollary_relation_check,
    denominator_identity_check,
    invariants_series_check,
    series_cramer,
    series_recursion,
)
from .record import Record


class CheckResult(Record):
    name: str
    ok: bool
    detail: str = ""


def _acc(*pairs) -> dict[str, int]:
    out: dict[str, int] = {}
    for label, mult in pairs:
        out[label] = out.get(label, 0) + mult
    return out


def identity_fixtures(family_name: str, n: int | None) -> list[tuple]:
    """The decomposition and fusion identities of one pair, as
    records ("restrict"|"induce", source label, {target label: mult}) and
    ("fuse_res"|"fuse_ind", member origin label, {member origin label: coeff}).

    Generic chain rules are emitted for the parameter range in which their
    indices name distinct basis members; at the degenerate sizes the merged
    forms are emitted instead.
    """
    fx: list[tuple] = []
    if family_name == "A2n-1^2":
        M, m = 2 * (n - 1), n - 1
        sg = "+" if n % 2 == 1 else "-"  # sign pairing under the i^n convention
        op = "-" if sg == "+" else "+"
        fx += [
            ("restrict", "delta_0^+", _acc(("delta_0^+", 1))),
            ("restrict", "delta_0^-", _acc(("delta_0^-", 1))),
            ("restrict", f"delta_{M}^+", _acc((f"delta_0^{sg}", 1))),
            ("restrict", f"delta_{M}^-", _acc((f"delta_0^{op}", 1))),
            ("restrict", f"delta_{n - 1}", _acc((f"delta_{m}^+", 1), (f"delta_{m}^-", 1))),
            ("induce", "delta_0^+", _acc(("delta_0^+", 1), (f"delta_{M}^{sg}", 1))),
            ("induce", "delta_0^-", _acc(("delta_0^-", 1), (f"delta_{M}^{op}", 1))),
            ("induce", f"delta_{m}^+", _acc((f"delta_{n - 1}", 1))),
            ("induce", f"delta_{m}^-", _acc((f"delta_{n - 1}", 1))),
        ]
        for i in range(1, n - 1):
            fx.append(("restrict", f"delta_{i}", _acc((f"delta_{i}", 1))))
            fx.append(("restrict", f"delta_{M - i}", _acc((f"delta_{i}", 1))))
            fx.append(("induce", f"delta_{i}", _acc((f"delta_{i}", 1), (f"delta_{M - i}", 1))))
        fx += [
            ("fuse_res", "delta_0^+", _acc(("delta_1", 1))),
            ("fuse_res", "delta_0^-", _acc(("delta_1", 1))),
            ("fuse_res", "delta_1", _acc(("delta_0^+", 1), ("delta_0^-", 1), ("delta_2", 1))),
            ("fuse_res", f"delta_{n - 1}", _acc((f"delta_{n - 2}", 2))),
            ("fuse_ind", "delta_0^+", _acc(("delta_1", 1))),
            ("fuse_ind", "delta_0^-", _acc(("delta_1", 1))),
            ("fuse_ind", f"delta_{m}^+", _acc((f"delta_{n - 2}", 1))),
        ]
        for i in range(2, n - 1):
            fx.append(
                ("fuse_res", f"delta_{i}", _acc((f"delta_{i - 1}", 1), (f"delta_{i + 1}", 1)))
            )
        if n >= 4:
            fx.append(
                ("fuse_ind", "delta_1", _acc(("delta_0^+", 1), ("delta_0^-", 1), ("delta_2", 1)))
            )
            fx.append(
                (
                    "fuse_ind",
                    f"delta_{n - 2}",
                    _acc((f"delta_{n - 3}", 1), (f"delta_{m}^+", 2)),
                )
            )
            for i in range(2, n - 2):
                fx.append(
                    ("fuse_ind", f"delta_{i}", _acc((f"delta_{i - 1}", 1), (f"delta_{i + 1}", 1)))
                )
        else:  # n == 3: the two generic rules merge
            fx.append(
                (
                    "fuse_ind",
                    "delta_1",
                    _acc(("delta_0^+", 1), ("delta_0^-", 1), (f"delta_{m}^+", 2)),
                )
            )
        return fx

    if family_name == "Dn+1^2":
        fx += [
            ("restrict", "delta_0^+", _acc(("xi_0", 1))),
            ("restrict", "delta_0^-", _acc(("xi_0", 1))),
            ("restrict", f"delta_{n}^+", _acc((f"xi_{n}", 1))),
            ("restrict", f"delta_{n}^-", _acc((f"xi_{n}", 1))),
            ("induce", "xi_0", _acc(("delta_0^+", 1), ("delta_0^-", 1))),
            ("induce", f"xi_{n}", _acc((f"delta_{n}^+", 1), (f"delta_{n}^-", 1))),
        ]
        for i in range(1, n):
            fx.append(("restrict", f"delta_{i}", _acc((f"xi_{i}", 1), (f"xi_{2 * n - i}", 1))))
            fx.append(("induce", f"xi_{i}", _acc((f"delta_{i}", 1))))
            fx.append(("induce", f"xi_{2 * n - i}", _acc((f"delta_{i}", 1))))
        fx += [
            ("fuse_res", "delta_0^+", _acc(("delta_1", 1))),
            ("fuse_res", f"delta_{n}^+", _acc((f"delta_{n - 1}", 1))),
            ("fuse_ind", "xi_0", _acc(("xi_1", 2))),
            ("fuse_ind", "xi_1", _acc(("xi_0", 1), ("xi_2", 1))),
            ("fuse_ind", f"xi_{n}", _acc((f"xi_{n - 1}", 2))),
        ]
        if n >= 3:
            fx.append(("fuse_res", "delta_1", _acc(("delta_0^+", 2), ("delta_2", 1))))
            fx.append(
                ("fuse_res", f"delta_{n - 1}", _acc((f"delta_{n - 2}", 1), (f"delta_{n}^+", 2)))
            )
            fx.append(("fuse_ind", f"xi_{n - 1}", _acc((f"xi_{n - 2}", 1), (f"xi_{n}", 1))))
        else:  # n == 2: the two end rules merge on the restriction side
            fx.append(("fuse_res", "delta_1", _acc(("delta_0^+", 2), ("delta_2^+", 2))))
        for i in range(2, n - 1):
            fx.append(("fuse_res", f"delta_{i}", _acc((f"delta_{i - 1}", 1), (f"delta_{i + 1}", 1))))
            fx.append(("fuse_ind", f"xi_{i}", _acc((f"xi_{i - 1}", 1), (f"xi_{i + 1}", 1))))
        return fx

    if family_name == "A2n^2":
        fx += [
            ("restrict", "delta_0^+", _acc(("xi_0", 1))),
            ("restrict", "delta_0^-", _acc(("xi_0", 1))),
            ("restrict", f"delta_{2 * n}^+", _acc(("xi_0", 1))),
            ("restrict", f"delta_{2 * n}^-", _acc(("xi_0", 1))),
            (
                "induce",
                "xi_0",
                _acc(
                    ("delta_0^+", 1),
                    ("delta_0^-", 1),
                    (f"delta_{2 * n}^+", 1),
                    (f"delta_{2 * n}^-", 1),
                ),
            ),
        ]
        for i in range(1, n + 1):
            expected = _acc((f"xi_{i}", 1), (f"xi_{2 * n - i}", 1))
            fx.append(("restrict", f"delta_{i}", expected))
            if i < n:
                fx.append(("restrict", f"delta_{2 * n - i}", expected))
            ind_expected = _acc((f"delta_{i}", 1), (f"delta_{2 * n - i}", 1))
            fx.append(("induce", f"xi_{i}", ind_expected))
            if i < n:
                fx.append(("induce", f"xi_{2 * n - i}", ind_expected))
        fx += [
            ("fuse_res", "delta_0^+", _acc(("delta_1", 1))),
            ("fuse_res", "delta_1", _acc(("delta_0^+", 2), ("delta_2", 1))),
            ("fuse_res", f"delta_{n}", _acc((f"delta_{n - 1}", 2))),
            ("fuse_ind", "xi_0", _acc(("xi_1", 2))),
            ("fuse_ind", "xi_1", _acc(("xi_0", 1), ("xi_2", 1))),
            ("fuse_ind", f"xi_{n}", _acc((f"xi_{n - 1}", 2))),
        ]
        if n >= 3:
            fx.append(("fuse_res", f"delta_{n - 1}", _acc((f"delta_{n - 2}", 1), (f"delta_{n}", 1))))
            fx.append(("fuse_ind", f"xi_{n - 1}", _acc((f"xi_{n - 2}", 1), (f"xi_{n}", 1))))
        for i in range(2, n - 1):
            fx.append(("fuse_res", f"delta_{i}", _acc((f"delta_{i - 1}", 1), (f"delta_{i + 1}", 1))))
            fx.append(("fuse_ind", f"xi_{i}", _acc((f"xi_{i - 1}", 1), (f"xi_{i + 1}", 1))))
        return fx

    if family_name == "E6^2":
        for t, targets in [
            ("tau_0", [("omega_0^+", 1), ("omega_0^-", 1)]),
            ("tau_1", [("omega_1^+", 1), ("omega_1^-", 1)]),
            ("tau_2", [("omega_2^+", 1), ("omega_2^-", 1)]),
            ("tau_1'", [("omega_3", 1)]),
            ("tau_1''", [("omega_3", 1)]),
            ("tau_0'", [("omega_4", 1)]),
            ("tau_0''", [("omega_4", 1)]),
        ]:
            fx.append(("induce", t, _acc(*targets)))
        for o, targets in [
            ("omega_0^+", [("tau_0", 1)]),
            ("omega_0^-", [("tau_0", 1)]),
            ("omega_1^+", [("tau_1", 1)]),
            ("omega_1^-", [("tau_1", 1)]),
            ("omega_2^+", [("tau_2", 1)]),
            ("omega_2^-", [("tau_2", 1)]),
            ("omega_3", [("tau_1'", 1), ("tau_1''", 1)]),
            ("omega_4", [("tau_0'", 1), ("tau_0''", 1)]),
        ]:
            fx.append(("restrict", o, _acc(*targets)))
        fx += [
            ("fuse_res", "omega_0^+", _acc(("omega_1^+", 1))),
            ("fuse_res", "omega_1^+", _acc(("omega_0^+", 1), ("omega_2^+", 1))),
            ("fuse_res", "omega_2^+", _acc(("omega_1^+", 1), ("omega_3", 1))),
            ("fuse_res", "omega_3", _acc(("omega_2^+", 2), ("omega_4", 1))),
            ("fuse_res", "omega_4", _acc(("omega_3", 1))),
            ("fuse_ind", "tau_0", _acc(("tau_1", 1))),
            ("fuse_ind", "tau_1", _acc(("tau_0", 1), ("tau_2", 1))),
            ("fuse_ind", "tau_2", _acc(("tau_1", 1), ("tau_1'", 2))),
            ("fuse_ind", "tau_1'", _acc(("tau_2", 1), ("tau_0'", 1))),
            ("fuse_ind", "tau_0'", _acc(("tau_1'", 1))),
        ]
        return fx

    if family_name == "D4^3":
        fx += [
            ("induce", "delta_0^+", _acc(("tau_0", 1), ("tau_0'", 1), ("tau_0''", 1))),
            ("induce", "delta_1", _acc(("tau_1", 1), ("tau_1'", 1), ("tau_1''", 1))),
            ("induce", "delta_2^+", _acc(("tau_2", 1))),
            ("induce", "delta_2^-", _acc(("tau_2", 1))),
            ("induce", "delta_0^-", _acc(("tau_2", 1))),
            ("restrict", "tau_0", _acc(("delta_0^+", 1))),
            ("restrict", "tau_0'", _acc(("delta_0^+", 1))),
            ("restrict", "tau_0''", _acc(("delta_0^+", 1))),
            ("restrict", "tau_1", _acc(("delta_1", 1))),
            ("restrict", "tau_1'", _acc(("delta_1", 1))),
            ("restrict", "tau_1''", _acc(("delta_1", 1))),
            ("restrict", "tau_2", _acc(("delta_2^+", 1), ("delta_0^-", 1), ("delta_2^-", 1))),
            ("fuse_res", "tau_0", _acc(("tau_1", 1))),
            ("fuse_res", "tau_1", _acc(("tau_0", 1), ("tau_2", 1))),
            ("fuse_res", "tau_2", _acc(("tau_1", 3))),
            ("fuse_ind", "delta_0^+", _acc(("delta_1", 1))),
            ("fuse_ind", "delta_1", _acc(("delta_0^+", 1), ("delta_2^+", 3))),
            ("fuse_ind", "delta_2^+", _acc(("delta_1", 1))),
        ]
        return fx

    if family_name == "A2^2":
        fx += [
            ("restrict", "delta_0^+", _acc(("xi_0", 1))),
            ("restrict", "delta_0^-", _acc(("xi_0", 1))),
            ("restrict", "delta_2^+", _acc(("xi_0", 1))),
            ("restrict", "delta_2^-", _acc(("xi_0", 1))),
            ("restrict", "delta_1", _acc(("xi_1", 2))),
            (
                "induce",
                "xi_0",
                _acc(("delta_0^+", 1), ("delta_0^-", 1), ("delta_2^+", 1), ("delta_2^-", 1)),
            ),
            ("induce", "xi_1", _acc(("delta_1", 2))),
            ("fuse_res", "delta_0^+", _acc(("delta_1", 1))),
            ("fuse_res", "delta_1", _acc(("delta_0^+", 4))),
            ("fuse_ind", "xi_0", _acc(("xi_1", 2))),
            ("fuse_ind", "xi_1", _acc(("xi_0", 2))),
        ]
        return fx

    if family_name == "S4A4":
        fx += [
            ("induce", "phi_0", _acc(("rho_0^+", 1), ("rho_0^-", 1))),
            ("induce", "phi_1", _acc(("rho_1", 1))),
            ("induce", "phi_2", _acc(("rho_1", 1))),
            ("induce", "phi_3", _acc(("rho_2^+", 1), ("rho_2^-", 1))),
            ("restrict", "rho_0^+", _acc(("phi_0", 1))),
            ("restrict", "rho_0^-", _acc(("phi_0", 1))),
            ("restrict", "rho_1", _acc(("phi_1", 1), ("phi_2", 1))),
            ("restrict", "rho_2^+", _acc(("phi_3", 1))),
            ("restrict", "rho_2^-", _acc(("phi_3", 1))),
            ("fuse_res", "rho_0^+", _acc(("rho_2^+", 1))),
            ("fuse_res", "rho_1", _acc(("rho_2^+", 2))),
            ("fuse_res", "rho_2^+", _acc(("rho_0^+", 1), ("rho_2^+", 2), ("rho_1", 1))),
            ("fuse_ind", "phi_0", _acc(("phi_3", 1))),
            ("fuse_ind", "phi_1", _acc(("phi_3", 1))),
            ("fuse_ind", "phi_3", _acc(("phi_0", 1), ("phi_3", 2), ("phi_1", 2))),
        ]
        return fx

    raise DomainError(f"no fixtures for pair family {family_name!r}")


def _identity_row(pair: NormalPair, family_name: str, n: int | None):
    """The title and the check of the pair's decomposition/fusion identities;
    the check lists every failing record, in fixture order."""
    data = fusion_matrices(pair)
    gt, nt = table(pair.G), table(pair.N)
    fusion_sides = dict(zip(("fuse_res", "fuse_ind"), SIDES))
    fixtures = identity_fixtures(family_name, n)

    def check():
        failures = []
        for kind, source, expected in fixtures:
            try:
                if kind == "restrict":
                    got = restrict(pair, gt[source]).as_label_dict()
                elif kind == "induce":
                    got = induce(pair, nt[source]).as_label_dict()
                elif kind in fusion_sides:
                    M, basis, _ = data.side(fusion_sides[kind])
                    # a member by the first irreducible it comes from
                    origin = [table(getattr(pair, basis.origin_group)).labels[o[0]] for o in basis.origins]
                    j = basis.index_of_origin(source)
                    got = {origin[i]: M[i][j] for i in range(data.size) if M[i][j]}
                    expected = {origin[basis.index_of_origin(lbl)]: m for lbl, m in expected.items()}
                else:
                    raise DomainError(kind)
                if got != expected:
                    failures.append(f"{kind} {source}: expected {expected}, got {got}")
            except (CheckFailure, DomainError, KeyError, ValueError) as exc:
                failures.append(f"{kind} {source}: {exc}")
        if failures:
            raise CheckFailure("; ".join(failures))

    return f"{pair.name} decomposition/fusion identities ({len(fixtures)})", check


def run_identity_fixtures(pair: NormalPair, family_name: str, n: int | None) -> CheckResult:
    return _wrap(*_identity_row(pair, family_name, n))


def _wrap(name: str, fn, detail: str = "") -> CheckResult:
    """The one runner: fn fails by raising CheckFailure or DomainError (their
    text is the detail), ValueError or ArithmeticError (its type and text), or
    by returning False; otherwise it passes.  `detail` is the row's own text,
    shown unless an exception replaced it."""
    try:
        ok = fn() is not False
    except (CheckFailure, DomainError) as exc:
        return CheckResult(name, False, str(exc))
    except (ValueError, ArithmeticError) as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, ok, detail)


def verify_pair(family_name: str, n: int | None = None, k_max: int = 12) -> list[CheckResult]:
    """Run the full battery of checks on one pair: one row per check, in
    report order, each (applies, title, check[, detail]) and run by `_wrap`.
    Titles that show computed values are computed before any row runs."""
    _check_k_max(k_max)
    if family_name not in PAIR_NAMES:
        raise DomainError(f"unknown pair {family_name!r}; choose from {PAIR_NAMES}")
    row = PAIRS[family_name]
    if row.n_min is not None and n is None:
        raise DomainError(f"pair {family_name} requires n")
    pair = normal_pair(family_name, n)
    data = fusion_matrices(pair)
    px = pair.name
    want = row.types(n)
    got = (graph(data, "restriction").dynkin_type, graph(data, "induction").dynkin_type)
    affine = want[0] != "unrecognized"
    checks = [
        (True, f"{px} exact character tables", lambda: (
            verify_table(table(pair.G)), verify_table(table(pair.N)))),
        (True, f"{px} exhaustive normality", pair.exhaustive_normality_check),
        (True, f"{px} Frobenius reciprocity", lambda: frobenius_check(pair)),
        (True, f"{px} basis sizes equal |Upsilon(N)| = {len(pair.upsilonN)}",
         lambda: data.size == len(pair.upsilonN)),
        (True, *_identity_row(pair, family_name, n)),
        (True, f"{px} Dynkin types ({got[0]}, {got[1]})", lambda: got == want,
         f"expected ({want[0]}, {want[1]})"),
        (affine, f"{px} null vectors", lambda: null_vector_check(data)),
        (True, f"{px} eigenvector structure", lambda: eigenvector_check(data)),
        (True, f"{px} characteristic polynomial identity",
         lambda: characteristic_identity_check(data)),
        (True, f"{px} denominator identity", lambda: denominator_identity_check(pair)),
        (True, f"{px} series triple equivalence (k <= {k_max})",
         lambda: triple_equivalence_check(data, k_max)),
        (True, f"{px} invariants series equality", lambda: invariants_series_check(pair)),
        (row.relation, f"{px} index-correspondence relations",
         lambda: corollary_relation_check(pair)),
        (affine, f"{px} spectrum exponents", lambda: spectrum_exponents_check(data)),
        (row.closed_form, f"{px} closed-form invariants",
         lambda: closed_form_check(family_name, n)),
        *((grp.order <= 48, f"{px} numeric table agreement for {grp.name}",
           lambda g=grp: numeric_table_agreement(g)) for grp in (pair.G, pair.N)),
    ]
    return [_wrap(*check) for applies, *check in checks if applies]


def _check_k_max(k_max: int) -> None:
    if type(k_max) is not int:
        raise DomainError(f"k_max must be an integer, not {k_max!r}")
    if not 0 <= k_max <= DEFAULT_BRUTE_FORCE_BOUND:
        raise DomainError(f"k_max must be in 0..{DEFAULT_BRUTE_FORCE_BOUND}, got {k_max}")


def triple_equivalence_check(data, k_max: int) -> None:
    """The first k_max + 1 multiplicities of every vertex on both sides agree
    when computed three independent ways: the recursion iterates vectors,
    c_k = M^T c_(k-1); the Cramer closed form comes from the Faddeev-LeVerrier
    matrix recurrence and its traces; the brute force decomposes chi_V^k into
    irreducibles once per k and dots the multiplicities with each vertex's
    constituent vector."""
    for side in SIDES:
        brute_side = brute_force_series(data, side, k_max)
        for vertex in range(data.size):
            rec = series_recursion(data, side, vertex, k_max)
            closed = series_cramer(data, side, vertex).coefficients(k_max + 1)
            brute = brute_side[vertex]
            if not (rec == closed == brute):
                raise CheckFailure(
                    f"{data.pair.name} {side} vertex {vertex}: recursion {rec}, "
                    f"closed form {closed}, brute force {brute}"
                )


def numeric_table_agreement(group) -> None:
    exact = table(group)
    numeric = table_numeric(group)
    rows_exact = sorted(tuple(v.to_text() for v in c.values) for c in exact)
    rows_numeric = sorted(tuple(v.to_text() for v in c.values) for c in numeric)
    if rows_exact != rows_numeric:
        raise CheckFailure(f"numeric table for {group.name} differs from the exact table")


def default_pair_arguments(n_max: int = 8) -> list[tuple[str, int | None]]:
    if type(n_max) is not int:
        raise DomainError(f"n_max must be an integer, not {n_max!r}")
    if n_max < 2:
        raise DomainError(f"n_max must be at least 2, got {n_max}")
    out: list[tuple[str, int | None]] = []
    for name, row in PAIRS.items():
        if row.n_min is None:
            out.append((name, None))
        else:
            out.extend((name, n) for n in range(row.n_min, n_max + 1))
    return out


def verify_all(n_max: int = 8, k_max: int = 12) -> list[CheckResult]:
    """Every fixture and invariant for the default parameter ranges."""
    _check_k_max(k_max)
    results: list[CheckResult] = []
    for name, n in default_pair_arguments(n_max):
        results.extend(verify_pair(name, n, k_max=k_max))

    def chebyshev_suite():
        fails = chebyshev_identities_check(50)
        if fails:
            raise CheckFailure("; ".join(f"{f.identity} at n={f.n}" for f in fails))

    def duality():
        # every catalog label with exponent data, up to rank 8
        labels = [
            row.label(n)
            for row in FAMILIES
            if row.exponents
            for n in range(row.ranks[0], min(row.ranks[1], 8) + 1)
        ]
        for lbl in labels:
            if not exponent_duality_holds(exponents_catalog(lbl)):
                raise CheckFailure(f"exponent duality fails for {lbl}")

    results.append(_wrap("Chebyshev identity suite (n <= 50)", chebyshev_suite))
    results.append(_wrap("exponent duality across the catalog", duality))
    return results


def summarize(results: list[CheckResult]) -> tuple[int, int]:
    passed = sum(1 for r in results if r.ok)
    return passed, len(results) - passed
