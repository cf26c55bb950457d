"""The benchmark's zone-graph gate, run in pytest.

Every item of the ``check_fischer`` workload (Fischer N=3, its
target-process mutants, and N=4) must reproduce the verdict, the number of
explored states and the diagnostic trace recorded in
``bench/golden/check_fischer.json``. A change to the zone engine that
alters the zone graph fails here rather than in ``bench/run.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

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
