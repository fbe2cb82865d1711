"""Benchmark of the mckay_slodowy library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the library is imported from ./src,
never from an installed copy, and nothing is read or written outside the
checkout (temporary files and the full result go to .bench_out/).

Workloads (see bench/README.md for why each was chosen):

  verify-battery  verify_pair(name, n, k_max=12) for every pair family, n <= 5
  fusion-sweep    normal_pair -> fusion_matrices -> graph -> series_cramer
  cli-cold        short `python -m mckay_slodowy.cli ... --json` requests

Load comes from this one process as a closed loop with one client: each
operation starts after the previous one ends, and at most one child process
runs at a time.  A round is the workload's fixed set of operations, run in
fresh processes; rounds repeat until the next one would end after --seconds.
Every operation has a timeout, and every output is checked against the
references in workloads.py.

With --trace 0 the last line of stdout carries the end-to-end metrics, with
--trace 1 the per-layer metrics of tracing.py; the lines before it give the
same numbers for people, with the provenance of the run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A run must end within 180 s; stop starting work well before that.
HARD_LIMIT_S = 165.0
# Set-up is probed this many times before the rounds and once after each
# untraced round, so its median spans the whole run.
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
CLI_TIMEOUT_S = 60.0  # per request; worker.py times out the other operations

# -X importtime rows: metric -> module
IMPORT_METRICS = {
    "cli.import_s": "mckay_slodowy.cli",
    "cli.import_numpy_s": "numpy",
    "cli.import_networkx_s": "networkx",
}

END_TO_END = {"setup_s": "s", "run_s": "s", "op_s.p50": "s", "op_s.p90": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Child:
    code: int | None  # None when it was killed at its timeout
    seconds: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Round:
    mode: str
    run_s: float
    op_seconds: list[float] = field(default_factory=list)
    maxrss_mb: float = 0.0
    caches: dict | None = None
    layers: dict | None = None
    cyclotomic_self_s: float | None = None


class Bench:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.deadline = self.started + HARD_LIMIT_S
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)  # also creates OUT
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        for var in ("MSC_MAX_GROUP_ORDER", "PYTHONPROFILEIMPORTTIME", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.cli_rng = random.Random(args.seed)

    # -- child processes ------------------------------------------------------

    def spawn(self, argv: list[str], timeout: float) -> Child:
        """Run one child to completion or to its timeout, whichever is first;
        either way it has ended when this returns."""
        timeout = min(timeout, self.deadline - time.monotonic())
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            finished = bool(poller.poll(max(timeout, 0.0) * 1000))
            seconds = time.monotonic() - start
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            proc.returncode if finished else None,
            seconds,
            usage.ru_maxrss / 1024,
            out_path.read_bytes(),
            err_path.read_bytes(),
        )

    def fail(self, where: str, reason: str) -> None:
        self.failures.append(f"{where}: {reason}")

    # -- set-up -----------------------------------------------------------------

    def setup_probe(self) -> float:
        """Seconds from interpreter launch to `import mckay_slodowy` returning."""
        code = "import time, mckay_slodowy; print(time.monotonic(), mckay_slodowy.__file__)"
        start = time.monotonic()
        child = self.spawn([sys.executable, "-c", code], 60.0)
        if child.code != 0:
            raise SystemExit(f"bench: importing mckay_slodowy failed:\n{child.stderr.decode(errors='replace')}")
        stamp, path = child.stdout.decode().split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"bench: mckay_slodowy was imported from {path.strip()}, not from {SRC}")
        return float(stamp) - start

    def importtime_probe(self) -> dict[str, float]:
        """Cumulative import times from `python -X importtime`; a module that
        is not imported at all took 0 s."""
        child = self.spawn([sys.executable, "-X", "importtime", "-c", "import mckay_slodowy.cli"], 60.0)
        cumulative = {}
        for line in child.stderr.decode(errors="replace").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        if child.code != 0:
            return dict.fromkeys(IMPORT_METRICS)
        return {key: cumulative.get(module, 0.0) for key, module in IMPORT_METRICS.items()}

    # -- rounds -------------------------------------------------------------------

    def compute_round(self, mode: str) -> Round:
        wl, seed, tiny = self.args.workload, self.args.seed, self.args.tiny
        if wl == "verify-battery":
            plan = [(f"verify_pair({name}, {n})", name, n) for name, n in workloads.verify_plan(seed, tiny)]
        else:
            plan = [(f"pipeline({name}, {n})", name, n) for name, n, _ in workloads.fusion_plan(seed, tiny)]
        out_path = self.tmp / "round.jsonl"
        out_path.unlink(missing_ok=True)
        budget = self.deadline - time.monotonic()
        argv = [sys.executable, str(BENCH / "worker.py"), wl, str(seed), mode, str(out_path), str(budget)]
        child = self.spawn(argv + (["--tiny"] if tiny else []), budget)
        lines = _json_lines(out_path)
        spans = Path(f"{out_path}.spans")
        if spans.exists():
            shutil.move(spans, OUT / f"{wl}.spans")
        by_op = {x["op"]: x for x in lines if "op" in x}
        summary = next((x["summary"] for x in lines if "summary" in x), None)
        rnd = Round(mode, summary["run_s"] if summary else child.seconds, maxrss_mb=child.maxrss_mb)
        if summary:
            rnd.caches, rnd.layers = summary["caches"], summary["layers"]
            rnd.cyclotomic_self_s = summary["cyclotomic_self_s"]
        lost = "timeout" if child.code is None else f"worker exited {child.code}: {_tail(child.stderr)}"
        for i, (label, name, n) in enumerate(plan):
            self.attempted += 1
            line = by_op.get(i)
            if line is None:
                self.fail(label, lost)
                continue
            rnd.op_seconds.append(line["seconds"])
            if line["error"]:
                self.fail(label, line["error"])
                continue
            if wl == "verify-battery":
                reason = workloads.check_verify(name, n, line["output"])
            else:
                reason = workloads.check_fusion(name, n, line["output"])
            if reason:
                self.fail(label, f"wrong output: {reason}")
        return rnd

    def cli_round(self, mode: str, block: list[dict]) -> Round:
        done = []
        start = time.monotonic()
        for i, req in enumerate(block):
            report = self.tmp / f"request-{i}.json"
            if mode == "plain":
                argv = [sys.executable, "-m", "mckay_slodowy.cli", *req["argv"]]
            else:
                argv = [sys.executable, str(BENCH / "cli_request.py"), mode, str(report), *req["argv"]]
            done.append((req, report, self.spawn(argv, CLI_TIMEOUT_S)))
        rnd = Round(mode, time.monotonic() - start)
        rnd.maxrss_mb = max(child.maxrss_mb for _, _, child in done)
        reports = []
        for req, report, child in done:
            self.attempted += 1
            rnd.op_seconds.append(child.seconds)
            label = " ".join(req["argv"])
            if child.code is None:
                self.fail(label, "timeout")
                continue
            if child.code != 0:
                self.fail(label, f"exit {child.code}: {_tail(child.stderr)}")
                continue
            try:
                payload = json.loads(child.stdout)
            except ValueError:
                self.fail(label, "output is not JSON")
                continue
            reason = workloads.check_cli(req, payload)
            if reason:
                self.fail(label, f"wrong output: {reason}")
            if mode != "plain":
                reports.append(json.loads(report.read_text()))
        if mode == "spans":
            with open(OUT / "cli-cold.spans", "w") as fh:
                for req, report, _ in done:
                    spans = Path(f"{report}.spans")
                    if spans.exists():
                        fh.write(f"# {' '.join(req['argv'])}\n{spans.read_text()}")
        if reports:
            rnd.caches = tracing.merge_cache_deltas([r["caches"] for r in reports])
            if mode == "spans":
                rnd.layers = {
                    k: None if any(r["layers"][k] is None for r in reports) else sum(r["layers"][k] for r in reports)
                    for k in reports[0]["layers"]
                }
            else:
                rnd.cyclotomic_self_s = sum(r["cyclotomic_self_s"] for r in reports)
        return rnd

    def rounds(self) -> list[Round]:
        """Cycles of rounds until the next cycle would end after --seconds.  A
        traced cycle is an untraced round, a span round and a profile round on
        the same inputs, so the first two give the tracing overhead."""
        modes = ("plain", "spans", "profile") if self.args.trace else ("plain",)
        window_end = time.monotonic() + self.args.seconds
        out: list[Round] = []
        while True:
            cycle_start = time.monotonic()
            block = workloads.cli_block(self.cli_rng, self.args.tiny) if self.args.workload == "cli-cold" else None
            for mode in modes:
                out.append(self.cli_round(mode, block) if block else self.compute_round(mode))
            if not self.args.trace and time.monotonic() < self.deadline - 10:
                self.setups.append(self.setup_probe())
            now = time.monotonic()
            if now + (now - cycle_start) > window_end or now >= self.deadline:
                return out

    # -- provenance ---------------------------------------------------------------

    def provenance(self) -> dict:
        commit = None  # a checkout made without git history has none; the source hash still tells commits apart
        if (ROOT / ".git").exists():
            try:
                commit = subprocess.run(
                    ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
                ).stdout.strip() or None
            except (OSError, subprocess.SubprocessError):
                pass
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        versions = {}
        for dist in ("numpy", "networkx"):
            try:
                versions[dist] = metadata.version(dist)
            except metadata.PackageNotFoundError:
                versions[dist] = None
        wl, seed, tiny = self.args.workload, self.args.seed, self.args.tiny
        if wl == "verify-battery":
            sizes = {"pairs": [[name, n] for name, n in workloads.verify_plan(seed, tiny)], "k_max": workloads.VERIFY_K_MAX}
        elif wl == "fusion-sweep":
            sizes = {"pairs": [[name, n] for name, n, _ in workloads.fusion_plan(seed, tiny)], "series_terms": workloads.SERIES_TERMS}
        else:
            sizes = {"requests_per_block": len(workloads.cli_block(random.Random(seed), tiny)), "pair_n": workloads.CLI_N}
        return {
            "commit": commit,
            "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "numpy": versions["numpy"],
            "networkx": versions["networkx"],
            "workload": wl,
            "seed": seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "tiny": tiny,
            "sizes": sizes,
        }


def _json_lines(path: Path) -> list[dict]:
    """The complete lines of a worker's report; a worker killed mid-write
    leaves a partial last line."""
    out = []
    for line in path.read_text().splitlines() if path.exists() else []:
        try:
            out.append(json.loads(line))
        except ValueError:
            break
    return out


def _tail(data: bytes) -> str:
    lines = data.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds: list[Round], setups: list[float]) -> tuple[dict, dict]:
    ops = [s for r in rounds for s in r.op_seconds]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.run_s for r in rounds),
        "op_s.p50": _percentile(ops, 50) if ops else None,
        "op_s.p90": _percentile(ops, 90) if ops else None,
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in rounds),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh imports",
        "run_s": f"median of {len(rounds)} rounds",
        "op_s.p50": f"of {len(ops)} operations",
        "op_s.p90": f"of {len(ops)} operations",
        "peak_rss_mb": f"median over {len(rounds)} rounds of the largest process",
    }
    return values, notes


def per_layer(rounds: list[Round], imports: list[dict]) -> tuple[dict, dict]:
    """Medians over the traced rounds that reported; a metric whose function
    or cache is gone in any of them reads as absent."""
    def median(values: list) -> float | None:
        return None if not values or None in values else statistics.median(values)

    plain = [r for r in rounds if r.mode == "plain"]
    spans = [r for r in rounds if r.mode == "spans" and r.layers is not None]
    profiled = [r for r in rounds if r.mode == "profile" and r.cyclotomic_self_s is not None]
    values = {key: median([r.layers[key] for r in spans]) for key in tracing.SPAN_METRICS}
    caches = [tracing.cache_metrics(r.caches) for r in spans]
    values.update({key: median([c[key] for c in caches]) for key in tracing.CACHE_METRICS})
    values["cyclotomic.self_s"] = median([r.cyclotomic_self_s for r in profiled])
    for key in IMPORT_METRICS:
        values[key] = median([i[key] for i in imports])
    values["trace.run_s"] = median([r.run_s for r in spans])
    untraced = median([r.run_s for r in plain])
    values["trace.overhead_s"] = None if values["trace.run_s"] is None else values["trace.run_s"] - untraced
    notes = {key: f"median of {len(spans)} traced rounds" for key in values}
    notes["cyclotomic.self_s"] = f"cProfile self time, median of {len(profiled)} rounds"
    for key in IMPORT_METRICS:
        notes[key] = f"python -X importtime, median of {len(imports)}"
    notes["trace.overhead_s"] = f"traced minus untraced run_s ({len(spans)} and {len(plain)} rounds)"
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "mckay_slodowy" / "__init__.py").is_file():
        print(f"bench: no mckay_slodowy sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        bench.setup_probe()  # compiles the bytecode on a fresh checkout
        if not args.trace:
            bench.setups = [bench.setup_probe() for _ in range(1 if args.tiny else SETUP_PROBES)]
        imports = [bench.importtime_probe() for _ in range(1 if args.tiny else IMPORTTIME_PROBES)] if args.trace else []
        rounds = bench.rounds()
        provenance = bench.provenance()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)

    if args.trace:
        values, notes = per_layer(rounds, imports)
    else:
        values, notes = end_to_end(rounds, bench.setups)
    failed = len(bench.failures)
    values["failed_ratio"] = failed / bench.attempted
    notes["failed_ratio"] = f"{failed} of {bench.attempted} operations failed"

    print(f"provenance {json.dumps(provenance)}")
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    for key, value in values.items():
        unit = END_TO_END.get(key) or unit_of(key)
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{key:34} {shown:>12} {unit:6} {notes.get(key, '')}")

    declared = END_TO_END if not args.trace else {k: unit_of(k) for k in values}
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in declared.items()},
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples = {"setup_s": bench.setups, "rounds": [vars(r) for r in rounds]}
    record.write_text(json.dumps({"provenance": provenance, "failures": bench.failures, "result": result, "samples": samples}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
