"""One round of verify-battery or fusion-sweep in a fresh interpreter.

Usage (run.py starts it; PYTHONPATH must point at the checkout's src):

    python bench/worker.py WORKLOAD SEED MODE OUT_FILE BUDGET_S [--tiny]

MODE is `plain` (timing only), `spans` (wrappers from tracing.py) or
`profile` (cProfile, for the cyclotomic self time).  Each operation's result
is appended to OUT_FILE as one JSON line as soon as it finishes, so a round
cut short still reports what it did; the last line summarises the round.
Outputs are checked by run.py, not here.
"""
from __future__ import annotations

import json
import signal
import sys
import time

import tracing
import workloads

OP_TIMEOUT_S = 120.0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its timeout."""


def _alarm(signum, frame):
    raise OpTimeout


def verify_op(ms, name, n):
    results = ms.verify_pair(name, n, k_max=workloads.VERIFY_K_MAX)
    return lambda: [[r.name, r.ok] for r in results]


def fusion_op(ms, name, n, vertices):
    pair = ms.normal_pair(name, n)
    data = ms.fusion_matrices(pair)
    types = (ms.graph(data, "restriction").dynkin_type, ms.graph(data, "induction").dynkin_type)
    series = {f"{side} {v}": ms.series_cramer(data, side, v) for side, v in vertices}
    return lambda: {
        "types": list(types),
        "size": data.size,
        "upsilon": len(pair.upsilonN),
        "A": [list(r) for r in data.A],
        "B": [list(r) for r in data.B],
        "series": {k: s.to_json() for k, s in series.items()},
    }


def main(argv: list[str]) -> int:
    workload, seed, mode, out_path, budget = argv[:5]
    tiny = "--tiny" in argv[5:]
    deadline = time.monotonic() + float(budget)
    import mckay_slodowy as ms

    if workload == "verify-battery":
        ops = [(verify_op, (name, n)) for name, n in workloads.verify_plan(int(seed), tiny)]
    else:
        ops = [(fusion_op, args) for args in workloads.fusion_plan(int(seed), tiny)]

    tracer = profile = None
    if mode == "spans":
        tracer = tracing.Tracer()
        tracer.install()
    elif mode == "profile":
        import cProfile

        profile = cProfile.Profile()
    signal.signal(signal.SIGALRM, _alarm)
    caches_before = tracing.cache_snapshot()
    with open(out_path, "w") as out:
        round_start = time.perf_counter()
        for i, (op, args) in enumerate(ops):
            timeout = min(OP_TIMEOUT_S, deadline - time.monotonic())
            if timeout <= 0:
                break  # run.py records the operations never started as timeouts
            error = output = None
            if profile is not None:
                profile.enable()
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                report = op(ms, *args)
            except OpTimeout:
                error = "timeout"
            except Exception as exc:  # any failure of the library is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                seconds = time.perf_counter() - start
                if profile is not None:
                    profile.disable()
            if error is None:
                try:
                    output = report()
                except Exception as exc:
                    error = f"reading the result: {type(exc).__name__}: {exc}"
            line = {"op": i, "seconds": seconds, "error": error, "output": output}
            out.write(json.dumps(line) + "\n")
            out.flush()
        run_s = time.perf_counter() - round_start
        summary = {
            "run_s": run_s,
            "caches": tracing.cache_delta(caches_before, tracing.cache_snapshot()),
            "layers": tracer.metrics() if tracer else None,
            "cyclotomic_self_s": tracing.cyclotomic_self_time(profile) if profile else None,
        }
        out.write(json.dumps({"summary": summary}) + "\n")
    if tracer is not None:
        tracer.dump(f"{out_path}.spans")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
