"""Span tracing and cache counters, installed from outside the library.

A wrapper replaces a function at every name the callers look it up by: each
loaded module of the package whose namespace holds the original gets the
wrapper, and a method is replaced on its class.  Spans stay in memory as
(name, start, end, parent) and are written out when the round ends.  A
layer's self time is the duration of its spans minus the part their child
spans cover.
"""
from __future__ import annotations

import functools
import os
import sys
import time

PACKAGE = "mckay_slodowy"

# Wrapped functions, as "module.attribute" or "module.Class.method".
TARGETS = (
    "groups.family",
    "groups.generate",
    "groups.normal_pair",
    "groups.NormalPair.exhaustive_normality_check",
    "groups.NormalPair.induction_profile",
    "characters.table",
    "characters.table_numeric",
    "characters.induce",
    "characters.restrict",
    "characters.verify_table",
    "characters.frobenius_check",
    "mckay.restriction_basis",
    "mckay.induction_basis",
    "mckay.fusion_matrices",
    "mckay.graph",
    "mckay.null_vector_check",
    "mckay.eigenvector_check",
    "mckay.characteristic_identity_check",
    "dynkin.identify",
    "poincare.brute_force_multiplicity",
    "poincare.series_cramer",
    "poincare.series_recursion",
    "poincare.denominator_product",
    "poincare.denominator_identity_check",
    "poincare.invariants_series_check",
    "poincare.corollary_relation_check",
    "polynomials.det_poly",
    "polynomials.char_poly",
    "chebyshev.closed_form_check",
    "chebyshev.spectrum_exponents_check",
    "chebyshev.chebyshev_identities_check",
    "verify.verify_pair",
)

# The span a traced CLI request runs under.
CLI_ROOT = "cli.run"

# Per-layer self time: metric -> the spans it sums.
SELF_TIMES = {
    "groups.closure_s": ("groups.family", "groups.generate"),
    "groups.pair_s": ("groups.normal_pair",),
    "groups.induction_profile_s": ("groups.NormalPair.induction_profile",),
    "groups.normality_s": ("groups.NormalPair.exhaustive_normality_check",),
    "characters.table_s": ("characters.table",),
    "characters.oracle_s": ("characters.table_numeric",),
    "characters.induce_restrict_s": ("characters.induce", "characters.restrict"),
    "characters.checks_s": ("characters.verify_table", "characters.frobenius_check"),
    "mckay.bases_s": ("mckay.restriction_basis", "mckay.induction_basis"),
    "mckay.fusion_s": ("mckay.fusion_matrices",),
    "mckay.checks_s": (
        "mckay.null_vector_check",
        "mckay.eigenvector_check",
        "mckay.characteristic_identity_check",
    ),
    "dynkin.identify_s": ("mckay.graph", "dynkin.identify"),
    "poincare.brute_s": ("poincare.brute_force_multiplicity",),
    "poincare.cramer_s": ("poincare.series_cramer",),
    "poincare.recursion_s": ("poincare.series_recursion",),
    "poincare.checks_s": (
        "poincare.denominator_product",
        "poincare.denominator_identity_check",
        "poincare.invariants_series_check",
        "poincare.corollary_relation_check",
    ),
    "polynomials.det_s": ("polynomials.det_poly", "polynomials.char_poly"),
    "chebyshev.checks_s": (
        "chebyshev.closed_form_check",
        "chebyshev.spectrum_exponents_check",
        "chebyshev.chebyshev_identities_check",
    ),
    "verify.self_s": ("verify.verify_pair",),
    "cli.self_s": (CLI_ROOT,),
}

# Call counts: metric -> span.
CALLS = {
    "characters.oracle_calls": "characters.table_numeric",
    "poincare.brute_calls": "poincare.brute_force_multiplicity",
}

# Counters read off a span's result: span -> (metric, function of the result).
RESULT_COUNTERS = {"groups.generate": ("groups.elements_built", lambda group: group.order)}

SPAN_METRICS = (*SELF_TIMES, *CALLS, *(metric for metric, _ in RESULT_COUNTERS.values()))
CACHE_METRICS = (
    "groups.family_cache_hit_ratio",
    "groups.family_cache_lookups",
    "cyclotomic.canonical_hit_ratio",
    "cyclotomic.canonical_lookups",
    "cyclotomic.mul_cache_entries",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, int] = {}
        self.installed: set[str] = {CLI_ROOT}  # opened by cli_request.py, not wrapped
        self._stack: list[int] = []

    def call(self, name: str, fn, /, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            metric, measure = counter
            self.counters[metric] = self.counters.get(metric, 0) + measure(result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a missing one is left out, and the
        metrics built only from missing targets read as absent."""
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for target in TARGETS:
            mod_name, *path = target.split(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner = mod
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                continue
            wrapper = self.wrap(target, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
            else:
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
            self.installed.add(target)

    def metrics(self) -> dict[str, float | int | None]:
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            own[name] = own.get(name, 0.0) + (end - start) - inner
            calls[name] = calls.get(name, 0) + 1
        out: dict[str, float | int | None] = {}
        for metric, names in SELF_TIMES.items():
            present = [n for n in names if n in self.installed]
            out[metric] = sum(own.get(n, 0.0) for n in present) if present else None
        for metric, name in CALLS.items():
            out[metric] = calls.get(name, 0) if name in self.installed else None
        for span, (metric, _) in RESULT_COUNTERS.items():
            out[metric] = self.counters.get(metric, 0) if span in self.installed else None
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write("%s %.9f %.9f %d\n" % tuple(span))


# -- caches ---------------------------------------------------------------------
# Read-only views of the library's caches.  A cache that no longer exists
# reads as None (absent), never as zero.


def _lru(module: str, name: str):
    fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), name, None)
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None


def cache_snapshot() -> dict:
    cyc = sys.modules.get(f"{PACKAGE}.cyclotomic")
    mul = getattr(cyc, "_MUL_CACHE", None)
    family = _lru("groups", "_family_cached")
    canonical = _lru("cyclotomic", "_canonical_cached")
    return {
        "family": None if family is None else (family.hits, family.misses),
        "canonical": None if canonical is None else (canonical.hits, canonical.misses),
        "mul_entries": None if mul is None else len(mul),
    }


def cache_delta(before: dict, after: dict) -> dict:
    """{"family": [hits, lookups] | None, "canonical": same, "mul_entries": n | None}."""
    out = {"mul_entries": after["mul_entries"]}
    for key in ("family", "canonical"):
        if before[key] is None or after[key] is None:
            out[key] = None
        else:
            hits = after[key][0] - before[key][0]
            out[key] = [hits, hits + after[key][1] - before[key][1]]
    return out


def merge_cache_deltas(deltas: list[dict]) -> dict:
    """Sum hits and lookups over processes; the largest table size wins."""
    out = {}
    for key in ("family", "canonical"):
        parts = [d[key] for d in deltas]
        out[key] = None if None in parts else [sum(p[0] for p in parts), sum(p[1] for p in parts)]
    sizes = [d["mul_entries"] for d in deltas]
    out["mul_entries"] = None if None in sizes else max(sizes)
    return out


def cache_metrics(delta: dict) -> dict[str, float | int | None]:
    out: dict[str, float | int | None] = {}
    for key, prefix in (("family", "groups.family_cache"), ("canonical", "cyclotomic.canonical")):
        hits, lookups = delta[key] or (None, None)
        out[prefix + "_hit_ratio"] = hits / lookups if lookups else None
        out[prefix + "_lookups"] = lookups
    out["cyclotomic.mul_cache_entries"] = delta["mul_entries"]
    return out


def cyclotomic_self_time(profile) -> float:
    """Total self time of the cyclotomic module's functions in a cProfile run."""
    import pstats

    suffix = os.path.join(PACKAGE, "cyclotomic.py")
    stats = pstats.Stats(profile).stats
    return sum(tt for (filename, _, _), (_, _, tt, _, _) in stats.items() if filename.endswith(suffix))
