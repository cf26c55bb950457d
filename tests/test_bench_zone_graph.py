"""The benchmark's zone-graph gates, run in pytest.

Every item of the ``check_fischer`` workload (Fischer N=3, its
target-process mutants, and N=4) must reproduce the verdict, the number of
explored states and the diagnostic trace recorded in
``bench/golden/check_fischer.json``; every item of ``admissible_fischer``
must reproduce its verdict and witness, and the untimed automata their
total state count. A change to the zone engine that alters the zone graph
fails here rather than in ``bench/run.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from tarepair import admissibility

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1


def _workloads():
    sys.path.insert(0, str(BENCH))  # workloads.py imports bench/fischer.py
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_check_fischer_matches_golden_records():
    workloads = _workloads()
    workload = workloads.setup_check_fischer(SEED)
    golden = json.loads((BENCH / "golden" / "check_fischer.json").read_text(encoding="utf-8"))
    want = workloads.golden_records(workload, golden)
    assert len(workload.items) == 19
    for item in workload.items:
        assert item.run() == want[item.key], item.key


def test_admissible_fischer_matches_golden_records(monkeypatch):
    # The twin of the admissible_fischer gate: 17 mutants, each compared
    # with the original, so 34 untimed automata per pass.
    workloads = _workloads()
    workload = workloads.setup_admissible_fischer(SEED)
    golden = json.loads((BENCH / "golden" / "admissible_fischer.json").read_text(encoding="utf-8"))
    want = workloads.golden_records(workload, golden)
    built = []
    build_untimed = admissibility.build_untimed

    def counted(*args, **kwargs):
        ua = build_untimed(*args, **kwargs)
        built.append(ua.n_states)
        return ua

    monkeypatch.setattr(admissibility, "build_untimed", counted)
    assert len(workload.items) == 17
    for item in workload.items:
        assert item.run() == want[item.key], item.key
    assert len(built) == 34
    assert sum(built) == 17_211
