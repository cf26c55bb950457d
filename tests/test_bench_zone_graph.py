"""The benchmark's zone-graph gates, run in pytest.

Every item of the ``check_fischer`` workload (Fischer N=3, its
target-process mutants, and N=4) must reproduce the verdict, the number of
explored states and the diagnostic trace recorded in
``bench/golden/check_fischer.json``; every item of ``admissible_fischer``
must reproduce its verdict and witness, and the full untimed automata of
its pairs their total state count. A change to the zone engine that alters
the zone graph fails here rather than in ``bench/run.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from tarepair import admissibility
from tarepair.model import max_constant

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
    # with the original on the fly, so two zone graphs per item.
    workloads = _workloads()
    workload = workloads.setup_admissible_fischer(SEED)
    golden = json.loads((BENCH / "golden" / "admissible_fischer.json").read_text(encoding="utf-8"))
    want = workloads.golden_records(workload, golden)
    graphs = []

    class Recorded(admissibility.ZoneGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    monkeypatch.setattr(admissibility, "ZoneGraph", Recorded)
    assert len(workload.items) == 17
    full = []
    equal = 0
    for item in workload.items:
        graphs.clear()
        record = item.run()
        assert record == want[item.key], item.key
        # The full untimed automata of the pair at the shared k.
        original, mutant = item.context["original"], item.context["mutant"]
        k = max(max_constant(original), max_constant(mutant))
        pair = [admissibility.build_untimed(original, k).n_states, admissibility.build_untimed(mutant, k).n_states]
        full += pair
        # The on-the-fly check discovers the full graphs on an equal pair, no more on the others.
        lazy = [g.n_states for g in graphs[:2]]
        if record["equal"]:
            equal += 1
            assert lazy == pair, item.key
        else:
            assert lazy[0] <= pair[0] and lazy[1] <= pair[1], item.key
    assert len(full) == 34
    assert sum(full) == 17_211
    assert equal == 5
