"""Every function the benchmark's tracer wraps still exists in tarepair, and
its counters read what those functions return.

``bench/tracing.py`` patches module attributes by name, so a refactor that
drops or renames one of them breaks the traced benchmark run; these tests
report it instead.
"""

import importlib
import importlib.util
from pathlib import Path

from tarepair import admissibility, checker, load_bundled_model

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    sites = _tracing().SITES
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


def test_tracer_counters_equal_the_results_they_read():
    net, prop = load_bundled_model()
    with _tracing().Tracer() as tracer:
        untimed = admissibility.build_untimed(net)
        verdict = checker.check(net, prop)
        admissible = admissibility.check_admissible(net, net)
    assert not verdict.safe and admissible.equal
    spans = ("admissibility.build_untimed", "checker.check", "admissibility.check_admissible")
    assert [tracer.calls[name] for name in spans] == [1, 1, 1]
    metrics = tracer.metrics()
    assert metrics["admissibility.untimed_states"] == untimed.n_states > 0
    assert metrics["checker.states_explored"] == verdict.states_explored > 0
