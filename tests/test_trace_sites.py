"""Every site the benchmark's tracer wraps must still exist.

bench/tracing.py names its sites as "module:attribute.path" strings and
skips one that no longer resolves, so a refactor that deletes or renames a
wrapped name would otherwise only show up as a layer reading 0 calls.
This reads that file's LAYERS and changes nothing under bench/.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("djunta_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses looks its defining module up in sys.modules.
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_trace_site_resolves():
    tracing = _load_tracing()
    missing = []
    for layer in tracing.LAYERS:
        for site in layer.sites:
            try:
                tracing._resolve(site)
            except (ImportError, AttributeError):
                missing.append(f"{layer.name}: {site}")
    assert not missing, "trace sites gone:\n" + "\n".join(missing)
