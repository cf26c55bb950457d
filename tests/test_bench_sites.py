"""Every function the benchmark's tracer wraps still exists in tarepair.

``bench/tracing.py`` patches module attributes by name, so a refactor that
drops or renames one of them breaks the traced benchmark run; this test
reports it instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_site_resolves():
    sites = _sites()
    assert sites
    missing = []
    for span, uses in sites.items():
        for module_name, attribute in uses:
            target = importlib.import_module(f"tarepair.{module_name}")
            for part in attribute.split("."):
                target = getattr(target, part, None)
                if target is None:
                    break
            if not callable(target):
                missing.append((span, module_name, attribute))
    assert missing == []
