"""The benchmark's own tests; run from the repository root:

    PYTHONPATH=src python3 bench/selftest.py

1. The Fischer generator: every document parses with no diagnostics, the
   same arguments give byte-identical JSON, the seed picks the permutation
   deterministically, and the unmutated instance is safe.
2. Two traced runs of each workload with the same seed give exactly the
   same count metrics, pass the correctness gate, fail no item and cover at
   least 90% of the traced wall time with layer self time.
3. Without ``src/tarepair`` next to it the benchmark exits non-zero and
   prints nothing on stdout.

Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import fischer  # noqa: E402
from tarepair import checker, modelio  # noqa: E402
from tarepair.model import validate  # noqa: E402

COUNT_SUFFIXES = (".calls", "checker.states_explored", "admissibility.untimed_states", "orchestrator.candidates")


def test_generator() -> None:
    for n in range(1, len(fischer.CONSTANTS) + 1):
        for perm in range(len(fischer.permutations(n))):
            text = fischer.fischer(n, perm)
            assert text == fischer.fischer(n, perm), f"n={n} perm={perm}: output not byte-stable"
            network, prop = modelio.parse_model(text)
            assert validate(network, prop) == [], f"n={n} perm={perm}: {validate(network, prop)}"
            if n <= 3 or perm == 0:
                assert checker.check(network, prop).safe, f"n={n} perm={perm}: unmutated instance unsafe"
    assert fischer.draw_permutation(3, 7) == fischer.draw_permutation(3, 7)
    assert len({fischer.draw_permutation(3, s) for s in range(20)}) > 1, "seed does not vary the instance"


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counts_repeat() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["name"].endswith(COUNT_SUFFIXES)]
    for w in spec["workloads"]:
        first, second = traced_run(w["name"], 3), traced_run(w["name"], 3)
        for run in (first, second):
            assert run["correct"] and run["failed"] == 0, f"{w['name']}: {run}"
            assert run["metrics"]["trace.coverage"]["value"] >= 0.9, f"{w['name']}: coverage below 90%"
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{w['name']}: {name} differs between traced runs: {a} != {b}"
        print(f"ok {w['name']}: {len(counts)} count metrics repeat exactly")


def test_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "bench/run.py", "--workload", "check_fischer", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)


if __name__ == "__main__":
    for test in (test_generator, test_refuses_without_program, test_counts_repeat):
        test()
        print(f"ok {test.__name__}", flush=True)
