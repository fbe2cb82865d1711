"""Byte identity of the CLI's output: the SHA-256 and length of stdout, and
the exit code, of requests over every family, every pair and the full
verification, as JSON and as text, pinned in golden_cli.json.

Any change to a printed value, label, order or layout fails here.  The table
is rewritten from the tree on the path by

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from mckay_slodowy.cli import run
from mckay_slodowy.groups import FAMILIES, PAIRS

GOLDEN = Path(__file__).with_name("golden_cli.json")
REFERENCE = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def cases() -> list[list[str]]:
    out = []
    for name, row in FAMILIES.items():
        for n in [None] if row.n_min is None else range(max(row.n_min, 2), 9):
            sized = [name] + ([] if n is None else ["--n", str(n)])
            out += [["group", *sized, "--json"], ["chartable", *sized, "--json"]]
            out += [["chartable", *sized], ["chartable", *sized, "--unicode"]]
            if row.order(n) <= 48:
                out.append(["chartable", *sized, "--numeric", "--json"])
    for name, row in PAIRS.items():
        for n in [None] if row.n_min is None else sorted({row.n_min, 5}):
            sized = [] if n is None else ["--n", str(n)]
            out += [["pair", name, *sized, "--json"], ["pair", name, *sized]]
            for side in ("res", "ind"):
                out.append(["pair", name, *sized, "--dot", "--side", side])
                closed = ["poincare", "--pair", name, *sized, "--side", side, "--closed-form"]
                out += [[*closed, "--json"], closed]
    out += [["verify", "--all", "--json"], ["verify", "--all"]]
    return out


def fingerprint(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    data = buf.getvalue().encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "exit": code}


def test_the_golden_table_covers_every_case():
    assert sorted(REFERENCE) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_is_byte_identical(argv):
    assert fingerprint(argv) == REFERENCE[" ".join(argv)]


if __name__ == "__main__":
    table = {" ".join(argv): fingerprint(argv) for argv in cases()}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
