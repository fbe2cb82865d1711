"""The benchmark's tracer reads the library from outside, by name: a wrapped
function or a cache that is renamed away turns its metric into null.  These
guards fail first, in the tier-1 run."""
import importlib
import importlib.util
from pathlib import Path

import mckay_slodowy  # noqa: F401  (loads every module the targets name)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_the_package():
    tracing = _tracing()
    for target in tracing.TARGETS:
        mod_name, *path = target.split(".")
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in path:
            assert hasattr(owner, part), target
            owner = getattr(owner, part)
        assert callable(owner), target


def test_every_traced_cache_exists():
    snapshot = _tracing().cache_snapshot()
    assert None not in snapshot.values(), snapshot
