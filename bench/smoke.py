"""Smoke test of the benchmark at its smallest sizes.

    python3 bench/smoke.py

Every workload runs once untraced and once traced with --tiny.  Each run
must print every metric BENCHMARK.json names, with its unit, both on its own
line and in the final JSON.  A cache that is gone must read as absent.  Then
one expected value is made wrong on purpose, and the run must count a failed
operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracing
import workloads


def run_tiny(workload: str, trace: int) -> tuple[int, dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, lines = run_tiny(workload, trace)
            where = f"{workload} --trace {trace}"
            assert code == 0 and result["correct"] and result["failed"] == 0, f"{where}: {result}"
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{where}: metrics {got}, expected {want}"
            printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) > 2}
            for name, unit in want.items():
                assert printed.get(name) == unit, f"{where}: {name} not printed with unit {unit}"
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), f"{where}: {result}"
            print(f"ok  {where}")

    gone = {"family": None, "canonical": None, "mul_entries": None}
    absent = tracing.cache_metrics(tracing.cache_delta(gone, gone))
    assert absent == dict.fromkeys(tracing.CACHE_METRICS), absent
    print("ok  a removed cache reads as absent, not zero")

    workloads.E6_VERTEX0["coefficients"] = workloads.E6_VERTEX0["coefficients"][:-1] + [87]
    code, result, lines = run_tiny("cli-cold", 0)
    ratio = next(line.split()[1] for line in lines if line.startswith("failed_ratio"))
    assert code == 1 and not result["correct"] and result["failed"] > 0, result
    assert float(ratio) > 0, ratio
    print(f"ok  a wrong expected value gives failed_ratio {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
