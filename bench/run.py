"""Benchmark entry point: one workload run, result as the last stdout line.

    python3 bench/run.py --workload check_fischer --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in a fresh,
single-threaded child process (``child.py``) against the checkout's ``src``.
With ``--trace 0`` the result carries the end-to-end metrics named in
``BENCHMARK.json``; ``setup_s`` is the median over the measured child and
nine set-up-only children, started after one warm-up child that fills the
bytecode cache. With ``--trace 1`` it carries the per-layer metrics from a
traced child. Exit code 0 means a result was printed; any other code means
the run could not be made, and nothing was printed on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def _spawn(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so the counters, repeat exactly
    cmd = [sys.executable, str(BENCH / "child.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tarepair" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a tarepair checkout (src/tarepair or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            out = _spawn([*common, "--seconds", str(args.seconds), "--trace", "1"], CHILD_TIMEOUT_S)
            values = out["layers"]
            wanted = spec["per_layer"]
        else:
            setups = []
            for probe in range(SETUP_PROBES + 1):
                s = _spawn([*common, "--seconds", "0", "--setup-only"], 30)
                if probe:  # the first probe only warms the bytecode cache
                    setups.append(s)
            out = _spawn([*common, "--seconds", str(args.seconds)], deadline - time.monotonic())
            setups.append(out)
            for key in ("setup_s", "raw_setup_s"):
                out[key] = statistics.median(s[key] for s in setups)
            values = out
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for problem in out["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    raw = f", unscaled wall_s {out['raw_wall_s']:.3f}, setup_s {out['raw_setup_s']:.3f}" if "raw_wall_s" in out else ""
    print(
        f"# {args.workload} seed={args.seed}: {out['passes']} passes x {out['items_per_pass']} items, "
        f"{out['oracle_checks']} oracle checks, correct={out['correct']}, "
        f"pass walls {[round(w, 3) for w in out['pass_walls']]}{raw}"
    )
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
