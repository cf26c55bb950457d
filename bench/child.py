"""One workload run in a fresh process; prints its result as one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. Set-up (interpreter start, imports, model loading, Fischer
generation, mutant enumeration) is timed from ``--spawned-at``, the parent's
``time.monotonic()`` just before it started this process; on Linux that clock
is shared by all processes. ``--setup-only`` exits right after set-up.

Without ``--trace`` the child repeats passes over the workload's items until
the next pass would end past ``--seconds``, with at least one pass. With
``--trace`` it first runs one untraced pass as the reference for the tracing
overhead, then traced passes for the rest of the window. The correctness
gate runs after the measured phase, on the outputs of every pass.

End-to-end times are scaled to a nominal CPU with ``calibration.py``; the
unscaled ones are reported beside them as ``raw_wall_s`` and
``raw_setup_s``. Traced runs are not scaled.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import calibration
import workloads
from tracing import Tracer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_pass(workload, sampler=None) -> dict:
    """Run every item once; returns the wall time and the per-item outcomes.

    With a ``calibration.SpeedSampler`` running, ``item_s`` leaves out the
    calibration rounds and ``scaled_s`` holds the times on the nominal CPU.
    """
    records: dict[str, dict | None] = {}
    errors: dict[str, str] = {}
    item_s: dict[str, float] = {}
    scaled_s: dict[str, float] = {}
    for item in workload.items:
        item_start = time.perf_counter()
        try:
            records[item.key] = item.run()
        except Exception:  # a failing item is recorded and the run goes on
            records[item.key] = None
            errors[item.key] = traceback.format_exc(limit=3)
        item_end = time.perf_counter()
        if sampler is None:
            item_s[item.key] = item_end - item_start
        else:
            item_s[item.key], scaled_s[item.key] = sampler.item_times(item_start, item_end)
    return {
        "wall_s": sum(item_s.values()),
        "item_s": item_s,
        "scaled_s": scaled_s,
        "records": records,
        "errors": errors,
    }


def run_window(workload, seconds: float, tracer=None, sampler=None) -> list[dict]:
    """Passes until the next one would end past ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if tracer is not None:
            tracer.reset()
            with tracer:
                one = run_pass(workload)
            one["layers"] = tracer.metrics()
            one["self_s"] = tracer.total_self_s()
        else:
            one = run_pass(workload, sampler)
        one["elapsed_s"] = time.perf_counter() - pass_start
        passes.append(one)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["elapsed_s"] for p in passes) > seconds:
            return passes


def gate(workload, passes: list[dict]) -> tuple[list[str], int]:
    """Compare every pass's records with the reference; run the oracles once."""
    golden = json.loads((GOLDEN_DIR / f"{workload.name}.json").read_text(encoding="utf-8"))
    want = workloads.golden_records(workload, golden)
    problems: list[str] = []
    for p in passes:
        for key, err in p["errors"].items():
            problems.append(f"{key}: raised\n{err}")
        for item in workload.items:
            got = p["records"][item.key]
            if got is not None and got != want.get(item.key):
                problems.append(f"{item.key}: output differs from the reference")
    oracle_checks = 0
    regions_of: dict = {}
    for item in workload.items:
        record = passes[0]["records"][item.key]
        if record is None:
            continue
        found, made = workloads.oracle_problems(workload, item, record, regions_of)
        problems.extend(found)
        oracle_checks += made
    return problems, oracle_checks


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            workload = workloads.SETUP[args.workload](args.seed)
        setup_layers = tracer.metrics()
    else:
        workload = workloads.SETUP[args.workload](args.seed)
    raw_setup_s = time.monotonic() - args.spawned_at
    setup_s = raw_setup_s * calibration.speed([calibration.calibration_round() for _ in range(5)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    if tracer is None:
        with calibration.SpeedSampler() as sampler:
            passes = run_window(workload, args.seconds, sampler=sampler)
    else:
        reference = run_pass(workload)
        passes = [reference]
        traced = run_window(workload, args.seconds - reference["wall_s"], tracer)
        passes += traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, oracle_checks = gate(workload, passes)
    attempted = len(passes) * len(workload.items)
    failed = sum(len(p["errors"]) for p in passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": len(passes),
        "items_per_pass": len(workload.items),
        "oracle_checks": oracle_checks,
        "pass_walls": [p["wall_s"] for p in passes],
    }
    if tracer is None:
        # A pass made of each item's median time: a burst of load from
        # elsewhere on the machine that slows one pass does not move it.
        def median_pass(times: str) -> float:
            return sum(statistics.median(p[times][item.key] for p in passes) for item in workload.items)

        result["wall_s"] = median_pass("scaled_s")
        result["raw_wall_s"] = median_pass("item_s")
        result["items_per_s"] = attempted / sum(sum(p["scaled_s"].values()) for p in passes)
        result["setup_s"] = setup_s
        result["raw_setup_s"] = raw_setup_s
        result["peak_rss_mb"] = peak_rss_mb
    else:
        # median_low keeps counts whole: they repeat exactly from pass to pass.
        layers = {
            key: statistics.median_low(p["layers"][key] for p in traced) for key in traced[0]["layers"]
        }
        for key in ("seeding.seed.calls", "seeding.seed.self_s", "seeding.mutants", "modelio.parse_model.calls", "modelio.parse_model.self_s"):
            layers[key] = setup_layers[key]
        traced_wall = statistics.median_low(p["wall_s"] for p in traced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - reference["wall_s"]
        layers["trace.coverage"] = statistics.median_low(p["self_s"] / p["wall_s"] for p in traced)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
