"""Seeded inputs and reference values for the three benchmark workloads.

Nothing here imports mckay_slodowy.  The references come from the paper's
table of distinguished pairs (group orders, diagram types, node counts), from
the README's worked example, and from small computations written out below,
so a check never compares the library against itself.
"""
from __future__ import annotations

import random

WORKLOADS = ("verify-battery", "fusion-sweep", "cli-cold")

PAIR_N_MIN = {"A2n-1^2": 3, "Dn+1^2": 2, "A2n^2": 2}
FIXED_PAIRS = ("E6^2", "D4^3", "A2^2", "S4A4")
DIHEDRAL_PAIRS = tuple(PAIR_N_MIN)

# verify-battery: every pair family with n up to this bound, one fresh
# process per round, so groups are shared across pairs as in `verify --all`.
VERIFY_N_MAX = 5
VERIFY_N_MAX_TINY = 3
VERIFY_K_MAX = 12

# Number of checks verify_pair returns per (pair, n) in this range.  Every
# pair gets 12 structural checks; the dihedral, E6^2, D4^3 and A2^2 pairs add
# null vectors, index-correspondence relations and spectrum exponents; the two
# families with binomial closed forms add one more; each group of order <= 48
# adds a numeric-table agreement check (all groups in this range qualify).
EXPECTED_CHECKS = {
    ("A2n-1^2", 3): 17, ("A2n-1^2", 4): 17, ("A2n-1^2", 5): 17,
    ("Dn+1^2", 2): 17, ("Dn+1^2", 3): 17, ("Dn+1^2", 4): 17, ("Dn+1^2", 5): 17,
    ("A2n^2", 2): 16, ("A2n^2", 3): 16, ("A2n^2", 4): 16, ("A2n^2", 5): 16,
    ("E6^2", None): 16, ("D4^3", None): 16, ("A2^2", None): 16, ("S4A4", None): 13,
}

# fusion-sweep: pairs of the three dihedral families with distinct n and no
# group shared between them, up to |G| = 64.  An odd count keeps the pooled
# median on one pair whatever the number of rounds.  The set is the same for
# every seed, so that seeds change only the order of work and run-to-run
# spread measures the program, not the sample.  (At |G| = 104 one pair takes
# 6-11 s on a 2-core shared VM and swings by 20 % from run to run, which a
# 35 s run cannot average out.)
FUSION_SWEEP = (("A2n-1^2", 9), ("A2n^2", 7), ("A2n^2", 5), ("Dn+1^2", 6), ("Dn+1^2", 4))
FUSION_SWEEP_TINY = (("A2n-1^2", 4), ("Dn+1^2", 3), ("A2n^2", 2))
SERIES_TERMS = 12

# cli-cold: the seven pairs at their smallest common size.
CLI_N = 3

# README example: `pair E6^2 poincare --vertex 0 --closed-form`.
E6_VERTEX0 = {
    "coefficients": [1, 0, 1, 0, 2, 0, 6, 0, 22, 0, 86],
    "numerator": [1, 0, -4, 0, 1],
    "denominator": [1, 0, -5, 0, 4],
}
E6_EXPONENTS = [0, 2, 3, 4, 6]


def paper_types(name: str, n: int | None) -> tuple[str, str]:
    """(restriction, induction) diagram of a pair, from the paper's table.
    The (S4, A4) graphs carry loops and lie outside the affine catalog."""
    if name == "A2n-1^2":
        return f"A_{2 * n - 1}^(2)", f"B_{n}^(1)"
    if name == "Dn+1^2":
        return f"D_{n + 1}^(2)", f"C_{n}^(1)"
    if name == "A2n^2":
        return f"A_{2 * n}^(2)", f"C_{n}^(1)"
    return {
        "E6^2": ("E_6^(2)", "F_4^(1)"),
        "D4^3": ("D_4^(3)", "G_2^(1)"),
        "A2^2": ("A_2^(2)", "A_1^(1)"),
        "S4A4": ("unrecognized", "unrecognized"),
    }[name]


def node_count(name: str, n: int | None) -> int:
    """|Upsilon(N)|, the number of G-classes meeting N: the node count of
    the pair's diagrams (n + 1 for the three dihedral families)."""
    if name in PAIR_N_MIN:
        return n + 1
    return {"E6^2": 5, "D4^3": 3, "A2^2": 2, "S4A4": 3}[name]


def pair_groups(name: str, n: int | None) -> tuple[tuple[str, int | None, int], ...]:
    """((family, parameter, order) of G, same of N)."""
    if name == "A2n-1^2":
        return ("binary_dihedral", 2 * (n - 1), 8 * (n - 1)), ("binary_dihedral", n - 1, 4 * (n - 1))
    if name == "Dn+1^2":
        return ("binary_dihedral", n, 4 * n), ("cyclic", 2 * n, 2 * n)
    if name == "A2n^2":
        return ("binary_dihedral", 2 * n, 8 * n), ("cyclic", 2 * n, 2 * n)
    return {
        "E6^2": (("binary_octahedral", None, 48), ("binary_tetrahedral", None, 24)),
        "D4^3": (("binary_tetrahedral", None, 24), ("binary_dihedral", 2, 8)),
        "A2^2": (("binary_dihedral", 2, 8), ("cyclic", 2, 2)),
        "S4A4": (("symmetric4", None, 24), ("alternating4", None, 12)),
    }[name]


# -- plans --------------------------------------------------------------------


def verify_plan(seed: int, tiny: bool = False) -> list[tuple[str, int | None]]:
    n_max = VERIFY_N_MAX_TINY if tiny else VERIFY_N_MAX
    args = [(name, n) for name, lo in PAIR_N_MIN.items() for n in range(lo, n_max + 1)]
    args += [(name, None) for name in FIXED_PAIRS]
    random.Random(seed).shuffle(args)
    return args


def fusion_plan(seed: int, tiny: bool = False) -> list[tuple[str, int, list[tuple[str, int]]]]:
    """[(pair, n, [(side, vertex), ...])] in seeded order."""
    rng = random.Random(seed)
    pairs = list(FUSION_SWEEP_TINY if tiny else FUSION_SWEEP)
    rng.shuffle(pairs)
    out = []
    for name, n in pairs:
        vertices = [(side, v) for side in ("restriction", "induction") for v in range(node_count(name, n))]
        rng.shuffle(vertices)
        out.append((name, n, vertices))
    return out


def _n_argv(name: str) -> list[str]:
    # goes after the optional `poincare` action: the CLI's parser does not
    # take that action once an option has been given
    return ["--n", str(CLI_N)] if name in PAIR_N_MIN else []


def _n_of(name: str) -> int | None:
    return CLI_N if name in PAIR_N_MIN else None


def cli_block(rng: random.Random, tiny: bool = False) -> list[dict]:
    """One block of requests: per pair one heavy request (`pair` or a
    closed-form Poincare series), one `chartable` of G or N, and one
    `exponents` or `chebyshev`.  Each block has the same composition, so
    blocks cost about the same whatever the seed."""
    names = ("E6^2", "A2^2", "S4A4") if tiny else DIHEDRAL_PAIRS + FIXED_PAIRS
    block = []
    for name in names:
        n = _n_of(name)
        if name == "E6^2":  # the README example, so its values are checked in every block
            argv = ["pair", "E6^2", "poincare", "--vertex", "0", "--terms", "11", "--closed-form"]
            block.append({"kind": "poincare", "argv": argv, "pair": name, "side": "res", "vertex": 0, "terms": 11})
        elif rng.random() < 0.5:
            block.append({"kind": "pair", "argv": ["pair", name, *_n_argv(name)], "pair": name})
        else:
            side = rng.choice(("res", "ind"))
            vertex = rng.randrange(node_count(name, n))
            terms = rng.randint(6, 16)
            opts = ["--side", side, "--vertex", str(vertex), "--terms", str(terms), "--closed-form"]
            if rng.random() < 0.5:
                argv = ["pair", name, "poincare", *_n_argv(name), *opts]
            else:
                argv = ["poincare", "--pair", name, *_n_argv(name), *opts]
            block.append({"kind": "poincare", "argv": argv, "pair": name, "side": side, "vertex": vertex, "terms": terms})
        fam, param, order = rng.choice(pair_groups(name, n))
        argv = ["chartable", fam] + ([] if param is None else ["--n", str(param)])
        block.append({"kind": "chartable", "argv": argv, "order": order})
        types = [t for t in paper_types(name, n) if t != "unrecognized"]
        if types and rng.random() < 0.5:
            label = rng.choice(types)
            block.append({"kind": "exponents", "argv": ["exponents", "--type", label], "type": label, "nodes": node_count(name, n)})
        else:
            kind, degree = rng.choice("TU"), rng.randint(0, 40)
            block.append({"kind": "chebyshev", "argv": ["chebyshev", kind, str(degree)], "cheb": kind, "degree": degree})
    rng.shuffle(block)
    for req in block:
        req["argv"] = req["argv"] + ["--json"]
    return block


# -- reference computations ---------------------------------------------------


def recursion_series(M: list[list[int]], vertex: int, terms: int) -> list[int]:
    """Coefficients of m^vertex: c_0 = e_0, c_k = M^T c_(k-1), read at vertex."""
    size = len(M)
    c = [1] + [0] * (size - 1)
    out = [c[vertex]]
    for _ in range(terms - 1):
        c = [sum(M[j][i] * c[j] for j in range(size)) for i in range(size)]
        out.append(c[vertex])
    return out


def expand_series(num: list[int], den: list[int], terms: int) -> list[int] | None:
    """Power-series coefficients of num/den (den[0] must be 1), or None."""
    if not den or den[0] != 1:
        return None
    out = []
    for k in range(terms):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc)
    return out


def chebyshev_coefficients(kind: str, degree: int) -> list[int]:
    """Ascending coefficients of T_degree or U_degree by the three-term recurrence."""
    prev, cur = [1], ([0, 1] if kind == "T" else [0, 2])
    if degree == 0:
        return prev
    for _ in range(degree - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


# -- checks -------------------------------------------------------------------
# Each returns None when the output is right, or a one-line reason.


def check_verify(name: str, n: int | None, results: list[list]) -> str | None:
    """results: [[check name, ok], ...] from verify_pair."""
    want = EXPECTED_CHECKS.get((name, n))
    if len(results) != want:
        return f"{len(results)} checks, expected {want}"
    bad = [r[0] for r in results if r[1] is not True]
    return f"failed checks: {bad}" if bad else None


def check_fusion(name: str, n: int, out: dict) -> str | None:
    """out: types, size, upsilon, A, B, series {"side vertex": closed form}."""
    want = paper_types(name, n)
    if tuple(out["types"]) != want:
        return f"types {out['types']}, expected {list(want)}"
    nodes = node_count(name, n)
    if out["size"] != nodes or out["upsilon"] != nodes:
        return f"basis size {out['size']}, |Upsilon(N)| {out['upsilon']}, expected {nodes}"
    if len(out["series"]) != 2 * nodes:
        return f"{len(out['series'])} series, expected {2 * nodes}"
    for key, series in out["series"].items():
        side, vertex = key.split()
        M = out["A"] if side == "restriction" else out["B"]
        closed = expand_series(series["numerator"], series["denominator"], SERIES_TERMS)
        rec = recursion_series(M, int(vertex), SERIES_TERMS)
        if closed != rec:
            return f"{key}: closed form {closed} differs from recursion {rec}"
    return None


def _degree_of(text: str) -> int | None:
    # rational character values print as cyc(1)[k]
    if text.startswith("cyc(1)[") and text.endswith("]"):
        try:
            return int(text[len("cyc(1)["):-1])
        except ValueError:
            return None
    return None


def check_cli(req: dict, payload) -> str | None:
    """payload: the parsed JSON the request printed."""
    kind = req["kind"]
    if kind == "pair":
        name = req["pair"]
        got = (payload.get("dynkin_restriction"), payload.get("dynkin_induction"))
        if got != paper_types(name, _n_of(name)):
            return f"types {got}"
        nodes = node_count(name, _n_of(name))
        if len(payload.get("A", [])) != nodes or len(payload.get("B", [])) != nodes:
            return f"fusion matrices are not {nodes} x {nodes}"
        return None
    if kind == "poincare":
        coeffs = payload.get("coefficients")
        if not isinstance(coeffs, list) or len(coeffs) != req["terms"]:
            return f"coefficients {coeffs}"
        if expand_series(payload.get("numerator", []), payload.get("denominator", []), req["terms"]) != coeffs:
            return "closed form does not expand to the coefficients"
        if (req["pair"], req["side"], req["vertex"], req["terms"]) == ("E6^2", "res", 0, 11):
            for key, want in E6_VERTEX0.items():
                if payload.get(key) != want:
                    return f"{key} {payload.get(key)}, README gives {want}"
        return None
    if kind == "chartable":
        values, sizes = payload.get("values", []), payload.get("class_sizes", [])
        degrees = [_degree_of(row[0]) for row in values] if values else []
        if None in degrees or len(values) != len(sizes):
            return "table is not square or has a non-integer degree"
        if sum(d * d for d in degrees) != req["order"] or sum(sizes) != req["order"]:
            return f"degrees {degrees} and class sizes do not match |G| = {req['order']}"
        return None
    if kind == "exponents":
        exps, h = payload.get("exponents"), payload.get("coxeter")
        if payload.get("type") != req["type"] or not isinstance(exps, list) or not isinstance(h, int):
            return f"malformed answer {payload}"
        if len(exps) != req["nodes"] or 0 not in exps:
            return f"exponents {exps} for a diagram with {req['nodes']} nodes"
        if sorted(h - m for m in exps) != sorted(exps):
            return f"exponents {exps} are not symmetric under m -> {h} - m"
        if req["type"] == "E_6^(2)" and exps != E6_EXPONENTS:
            return f"exponents {exps}, README gives {E6_EXPONENTS}"
        return None
    if kind == "chebyshev":
        want = chebyshev_coefficients(req["cheb"], req["degree"])
        return None if payload.get("coefficients") == want else f"coefficients differ from {want}"
    return f"unknown request kind {kind}"
