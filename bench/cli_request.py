"""One traced or profiled CLI request in a fresh interpreter.

Usage (run.py starts it; PYTHONPATH must point at the checkout's src):

    python bench/cli_request.py MODE REPORT_FILE CLI_ARG...

Runs `mckay_slodowy.cli.run(CLI_ARGS)` under the span wrappers (MODE
`spans`) or cProfile (MODE `profile`), writes what it measured to
REPORT_FILE as JSON and exits with the CLI's exit code.  The CLI's own
output goes to stdout and stderr as usual.
"""
from __future__ import annotations

import json
import sys

import tracing


def main(argv: list[str]) -> int:
    mode, report_path, cli_args = argv[0], argv[1], argv[2:]
    from mckay_slodowy import cli

    tracer = tracing.Tracer()
    profile = None
    if mode == "spans":
        tracer.install()
    else:
        import cProfile

        profile = cProfile.Profile()
    before = tracing.cache_snapshot()
    if profile is not None:
        profile.enable()
    try:
        code = tracer.call(tracing.CLI_ROOT, cli.run, cli_args)
    except SystemExit as exc:  # argparse usage errors exit from inside run()
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if profile is not None:
            profile.disable()
    sys.stdout.flush()
    report = {
        "caches": tracing.cache_delta(before, tracing.cache_snapshot()),
        "layers": tracer.metrics() if mode == "spans" else None,
        "cyclotomic_self_s": tracing.cyclotomic_self_time(profile) if profile else None,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    if mode == "spans":
        tracer.dump(report_path + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
