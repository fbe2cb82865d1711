"""Command-line front end: groups, character tables, McKay-Slodowy pairs,
Poincare series, Chebyshev data, exponents, and the verification suite.

Exit codes: 0 success, 1 domain error (bad names/ranges) or any other
ValueError/ArithmeticError (reported on one line), 2 verification failure,
64 usage error.  A reader that closes standard output early (as in `| head`)
ends the run quietly with 0: the rest of the output is discarded.  The CLI
process prints integers of any length: it lifts Python's limit on int -> str
conversion, which long series would otherwise hit.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .characters import table, table_numeric
from .chebyshev import chebyshev, exponents_catalog
from .errors import CheckFailure, DomainError
from .groups import FAMILY_NAMES, PAIR_NAMES, family, normal_pair
from .mckay import SIDES, fusion_matrices, graph
from .poincare import DEFAULT_BRUTE_FORCE_BOUND, series_cramer, series_recursion
from .verify import summarize, verify_all, verify_pair

USAGE_EXIT = 64
# a bound on time: U_2000 takes about 2 s, U_4000 about 8.5 s
MAX_CHEBYSHEV_DEGREE = 2000
PAIR_ACTIONS = ("show", "poincare")
_SIDE_NAMES = {"res": "restriction", "ind": "induction"}

_UNICODE_MAP = [
    ("delta", "δ"),
    ("tau", "τ"),
    ("omega", "ω"),
    ("rho", "ρ"),
    ("phi", "φ"),
    ("xi", "ξ"),
    ("chi", "χ"),
    ("^+", "⁺"),
    ("^-", "⁻"),
]
_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _unicodify(label: str) -> str:
    out = label
    for src, dst in _UNICODE_MAP:
        out = out.replace(src, dst)
    if "_" in out:
        head, _, tail = out.partition("_")
        digits = "".join(ch for ch in tail if ch.isdigit())
        rest = tail[len(digits):]
        if digits:
            out = head + digits.translate(_SUBSCRIPTS) + rest
    return out


def _int_between(low: int, high: int | None = None):
    """argparse type for an int in low..high (no upper end when high is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


_positive_int = _int_between(1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _build_parser() -> _Parser:
    p = _Parser(prog="mckay-slodowy", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="build a family group and print its classes")
    g.add_argument("family", choices=FAMILY_NAMES)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--json", action="store_true")

    c = sub.add_parser("chartable", help="print an exact character table")
    c.add_argument("family", choices=FAMILY_NAMES)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--numeric", action="store_true", help="use the numeric oracle")
    c.add_argument("--json", action="store_true")
    c.add_argument("--unicode", action="store_true")

    pr = sub.add_parser("pair", help="McKay-Slodowy data of a distinguished pair")
    pr.add_argument("name", choices=PAIR_NAMES)
    pr.add_argument("action", nargs="?", default=None, choices=PAIR_ACTIONS)
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--side", choices=_SIDE_NAMES, default="res")
    pr.add_argument("--vertex", type=int, default=0)
    pr.add_argument("--terms", type=_positive_int, default=10)
    pr.add_argument("--closed-form", action="store_true")
    pr.add_argument("--dot", action="store_true", help="emit the graph in DOT form")
    pr.add_argument("--json", action="store_true")
    pr.add_argument("--unicode", action="store_true")

    po = sub.add_parser("poincare", help="multiplicity series of a pair vertex")
    po.add_argument("--pair", required=True, choices=PAIR_NAMES)
    po.add_argument("--n", type=int, default=None)
    po.add_argument("--side", choices=_SIDE_NAMES, default="res")
    po.add_argument("--vertex", type=int, default=0)
    po.add_argument("--terms", type=_positive_int, default=10)
    po.add_argument("--closed-form", action="store_true")
    po.add_argument("--json", action="store_true")

    ch = sub.add_parser("chebyshev", help="Chebyshev polynomial coefficients")
    ch.add_argument("kind", choices=("T", "U"))
    ch.add_argument("degree", type=_int_between(0, MAX_CHEBYSHEV_DEGREE))
    ch.add_argument("--json", action="store_true")

    ex = sub.add_parser("exponents", help="exponents and Coxeter number of a Dynkin type")
    ex.add_argument("--type", required=True, dest="type_label")
    ex.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--pair", choices=PAIR_NAMES, default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--all", action="store_true")
    v.add_argument("--n-max", type=_int_between(2), default=8)
    v.add_argument("--k-max", type=_int_between(0, DEFAULT_BRUTE_FORCE_BOUND), default=12)
    v.add_argument("--json", action="store_true")
    return p


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_group(args) -> int:
    G = family(args.family, args.n)
    if args.json:
        _emit_json(G.to_json())
        return 0
    print(f"{G.name}: order {G.order}, {len(G.classes)} conjugacy classes")
    labels = G.class_labels or [str(i) for i in range(len(G.classes))]
    for lbl, rep, cls in zip(labels, G.class_reps, G.classes):
        print(f"  class {lbl:>8}  size {len(cls):>3}  rep {G.elements[rep]!r}")
    return 0


def _value_str(v, unicode_labels: bool) -> str:
    body = v.pretty()
    if unicode_labels and not v.is_rational():
        import re

        body = re.sub(
            r"z(\d+)", lambda m: "ζ" + m.group(1).translate(_SUBSCRIPTS), body
        )
    return body


def _cmd_chartable(args) -> int:
    G = family(args.family, args.n)
    tbl = table_numeric(G) if args.numeric else table(G)
    if args.json:
        _emit_json(tbl.to_json())
        return 0
    class_labels = G.class_labels or [str(i) for i in range(len(G.classes))]
    if args.unicode:
        class_labels = [_unicodify(x) for x in class_labels]
    rows = []
    for chi in tbl:
        lbl = _unicodify(chi.label) if args.unicode else chi.label
        rows.append([lbl] + [_value_str(v, args.unicode) for v in chi.values])
    header = ["chi \\ g"] + list(class_labels)
    sizes = ["|class|"] + [str(s) for s in G.class_sizes()]
    widths = [
        max(len(r[i]) for r in [header, sizes] + rows) for i in range(len(header))
    ]
    for row in [header, sizes] + rows:
        print("  ".join(x.ljust(w) for x, w in zip(row, widths)))
    return 0


def _pair_payload(data, unicode_labels: bool) -> dict:
    payload = data.to_json()
    for side in SIDES:
        payload[f"dynkin_{side}"] = graph(data, side).dynkin_type
    if unicode_labels:
        payload["restriction_labels"] = [_unicodify(x) for x in payload["restriction_labels"]]
        payload["induction_labels"] = [_unicodify(x) for x in payload["induction_labels"]]
    return payload


def _cmd_pair(args) -> int:
    pair = normal_pair(args.name, args.n)
    data = fusion_matrices(pair)
    if args.action == "poincare":
        return _poincare_output(
            data,
            args.side,
            args.vertex,
            args.terms,
            args.closed_form,
            args.json,
        )
    if args.dot:
        print(graph(data, _SIDE_NAMES[args.side]).to_dot())
        return 0
    if args.json:
        _emit_json(_pair_payload(data, args.unicode))
        return 0
    payload = _pair_payload(data, args.unicode)
    print(f"pair {pair.name}: |G| = {pair.G.order}, |N| = {pair.N.order}, index {pair.index}")
    print(f"  |Upsilon(N)| = {len(pair.upsilonN)}")
    print(f"  restriction basis: {payload['restriction_labels']} degrees {payload['restriction_degrees']}")
    print(f"  induction basis:   {payload['induction_labels']} degrees {payload['induction_degrees']}")
    print(f"  A = {payload['A']}")
    print(f"  B = {payload['B']}")
    print(f"  Dynkin: restriction {payload['dynkin_restriction']}, induction {payload['dynkin_induction']}")
    return 0


def _poincare_output(data, side, vertex, terms, closed_form, as_json) -> int:
    series = series_cramer(data, _SIDE_NAMES[side], vertex)
    coeffs = series_recursion(data, _SIDE_NAMES[side], vertex, max(terms - 1, 0))
    payload = {"coefficients": coeffs}
    if closed_form:
        payload.update(series.to_json())
    if as_json:
        _emit_json(payload)
        return 0
    if closed_form:
        print(f"({series.numerator.pretty()}) / ({series.denominator.pretty()})")
    print("coefficients:", " ".join(str(c) for c in coeffs))
    return 0


def _cmd_poincare(args) -> int:
    pair = normal_pair(args.pair, args.n)
    data = fusion_matrices(pair)
    return _poincare_output(data, args.side, args.vertex, args.terms, args.closed_form, args.json)


def _cmd_chebyshev(args) -> int:
    kind = "first" if args.kind == "T" else "second"
    poly = chebyshev(kind, args.degree).poly
    if args.json:
        _emit_json({"kind": args.kind, "degree": args.degree, "coefficients": list(poly.coeffs)})
        return 0
    print(f"{args.kind}_{args.degree}(t) = {poly.pretty()}")
    print("coefficients:", list(poly.coeffs))
    return 0


def _cmd_exponents(args) -> int:
    data = exponents_catalog(args.type_label)
    if args.json:
        _emit_json(
            {
                "type": data.type_label,
                "exponents": list(data.exponents),
                "coxeter": data.coxeter,
                "finite_type": data.finite_type,
                "finite_exponents": list(data.finite_exponents or ()),
                "finite_coxeter": data.finite_coxeter,
            }
        )
        return 0
    print(f"{data.type_label}: exponents {list(data.exponents)}, Coxeter number {data.coxeter}")
    if data.finite_type and data.finite_type != data.type_label:
        print(
            f"  finite part {data.finite_type}: exponents {list(data.finite_exponents)}, "
            f"Coxeter number {data.finite_coxeter}"
        )
    return 0


def _cmd_verify(args) -> int:
    if args.pair is not None:
        results = verify_pair(args.pair, args.n, k_max=args.k_max)
    elif args.all:
        results = verify_all(n_max=args.n_max, k_max=args.k_max)
    else:
        raise DomainError("verify requires --pair NAME or --all")
    passed, failed = summarize(results)
    if args.json:
        _emit_json(
            {
                "results": [
                    {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
                ],
                "passed": passed,
                "failed": failed,
                "ok": failed == 0,
            }
        )
    else:
        for r in results:
            mark = "PASS" if r.ok else "FAIL"
            detail = f"  [{r.detail}]" if (r.detail and not r.ok) else ""
            print(f"{mark}  {r.name}{detail}")
        print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 2


_COMMANDS = {
    "group": _cmd_group,
    "chartable": _cmd_chartable,
    "pair": _cmd_pair,
    "poincare": _cmd_poincare,
    "chebyshev": _cmd_chebyshev,
    "exponents": _cmd_exponents,
    "verify": _cmd_verify,
}


def _parse(parser: _Parser, argv: list[str] | None) -> argparse.Namespace:
    args, extras = parser.parse_known_args(argv)
    # argparse fills the optional `pair` action only from the positionals
    # before the first option; `pair NAME --n 3 poincare` leaves it as an extra
    if args.command == "pair" and args.action is None:
        args.action = extras.pop(0) if extras[:1] and extras[0] in PAIR_ACTIONS else "show"
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = _parse(parser, argv)
    use_json = getattr(args, "json", False)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        _report_error("domain error", exc, use_json)
        return 1
    except CheckFailure as exc:
        _report_error("verification failure", exc, use_json)
        return 2
    except (ValueError, ArithmeticError) as exc:
        _report_error(type(exc).__name__, exc, use_json)
        return 1


def _report_error(kind: str, exc: Exception, use_json: bool) -> None:
    if use_json:
        print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
    else:
        print(f"{kind}: {exc}", file=sys.stderr)


def main() -> None:
    if hasattr(sys, "set_int_max_str_digits"):  # the limit exists from 3.11 (and 3.10.7)
        sys.set_int_max_str_digits(0)
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at exit
        # cannot fail again (the recipe in the Python signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
