"""Write the reference outputs the correctness gate compares against.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/make_golden.py

Run it on the commit whose outputs are the reference (the reports are
byte-deterministic, so any later commit must reproduce them). It covers
every input a seed can draw: all permutations of the Fischer constant table
for N=3 and N=4, and the fixed campaign mutants. For the campaign it also
runs the full ``seeding.campaign`` once, stores its CSV and text, and checks
that each single-mutant item reports the same line as the full campaign.
Takes about five minutes.
"""

from __future__ import annotations

import json
from pathlib import Path

import fischer
import workloads
from tarepair import modelio, seeding

OUT = Path(__file__).resolve().parent / "golden"


def campaign_golden() -> dict:
    network, prop = workloads.load_client_db()
    full = seeding.campaign(network, prop, model_name="client_db")
    lines = set(full.to_text().splitlines())
    wl = workloads.setup_campaign(0)
    items = {}
    for item in wl.items:
        record = item.run()
        mutant_line = record["text"].splitlines()[-1]
        if mutant_line not in lines:
            raise SystemExit(f"{item.key}: {mutant_line!r} is not in the full campaign report")
        items[item.key] = record
    return {"full_csv": full.to_csv(), "full_text": full.to_text(), "items": dict(sorted(items.items()))}


def check_golden() -> dict:
    n3 = {}
    for perm in range(len(fischer.permutations(3))):
        network, prop, mutants = workloads.fischer_instance(3, perm)
        records = {"n3": workloads.check_item(network, prop)()}
        for m in mutants:
            records[f"n3.{m.description}"] = workloads.check_item(m.network, prop)()
        n3[str(perm)] = records
    n4 = {}
    for perm in range(len(fischer.permutations(4))):
        network, prop = modelio.parse_model(fischer.fischer(4, perm))
        n4[str(perm)] = workloads.check_item(network, prop)()
    return {"n3": n3, "n4": n4}


def admissible_golden() -> dict:
    n3 = {}
    for perm in range(len(fischer.permutations(3))):
        network, _prop, mutants = workloads.fischer_instance(3, perm)
        n3[str(perm)] = {m.description: workloads.admissible_item(network, m.network)() for m in mutants}
    return {"n3": n3}


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, make in (
        ("check_fischer", check_golden),
        ("admissible_fischer", admissible_golden),
        ("campaign_client_db", campaign_golden),
    ):
        (OUT / f"{name}.json").write_text(json.dumps(make(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {OUT / name}.json", flush=True)


if __name__ == "__main__":
    main()
