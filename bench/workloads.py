"""The benchmark's three workloads: set-up, one item, and the correctness gate.

Each workload has a fixed list of items. A pass runs every item once, one
at a time (closed loop, one client); the child process repeats passes for
the measured window. Items are chosen so that every seed does the same
amount of work, which keeps run-to-run spread down to the machine's own:

- ``campaign_client_db``: ``seeding.campaign`` on the bundled ``client_db``
  model, one mutant per call, over ten fixed mutants (the first safe and the
  first violating mutant of each mutation kind). The full campaign takes
  about a minute and does not fit a run; its violating mutants each cost
  about the same, so ten of them stand for the whole. The seed orders the
  items.
- ``check_fischer``: ``checker.check`` on a seeded Fischer instance with
  N=3, on its target-process mutants, and on a seeded N=4 instance.
- ``admissible_fischer``: ``admissibility.check_admissible(original,
  mutant)`` on the same N=3 mutants, with no shared cache.

The Fischer target process is the one holding constant-table row 0. Its
mutants map onto each other under the isomorphism between seeds, so each
seed explores the same zone graphs. Bound-kind mutants are left out to fit
two passes of ``admissible_fischer`` into one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import fischer
from tarepair import admissibility, checker, encoder, modelio, regions, seeding
from tarepair.model import indexed_constraints, max_constant

WORKLOADS = ("campaign_client_db", "check_fischer", "admissible_fischer")

# Indices into seeding.seed(client_db): the first safe and the first
# violating mutant of each mutation kind (bound, operator, clockref, reset,
# urgent), in seeding order.
CAMPAIGN_MUTANTS = (0, 2, 21, 20, 44, 47, 66, 62, 91, 90)

# Budget of the region-automaton cross-check of admissibility verdicts.
REGION_BUDGET = 20_000


@dataclass
class Item:
    key: str  # names the item in the golden file
    run: object  # zero-argument callable returning the item's output record
    context: dict = field(default_factory=dict)  # what the gate needs beyond the record


@dataclass
class Workload:
    name: str
    items: list[Item]
    golden_key: dict  # selects the golden records for this seed's inputs


def load_client_db():
    import tarepair

    return modelio.parse_model(tarepair.bundled_model_path("client_db").read_text(encoding="utf-8"))


def campaign_item(network, prop, mutant):
    def run():
        # campaign() enumerates its mutants through seeding.seed; hand it
        # this one mutant so each call is one item of the closed loop.
        saved = seeding.seed
        seeding.seed = lambda _network, _kinds: [mutant]
        try:
            result = seeding.campaign(network, prop, kinds=(mutant.kind,), model_name="client_db")
        finally:
            seeding.seed = saved
        return {"csv": result.to_csv(), "text": result.to_text()}

    return run


def setup_campaign(seed: int) -> Workload:
    network, prop = load_client_db()
    mutants = seeding.seed(network)
    picks = list(CAMPAIGN_MUTANTS)
    random.Random(seed).shuffle(picks)
    items = [
        Item(f"mutant{i}", campaign_item(network, prop, mutants[i]))
        for i in picks
    ]
    return Workload("campaign_client_db", items, {})


def _owner(network, mutant) -> int:
    anchor = mutant.edit.modifications[0].anchor
    if anchor[0] == "constraint":
        return indexed_constraints(network)[anchor[1]].automaton
    return anchor[1]


def fischer_instance(n: int, perm: int):
    """(network, prop, target-process mutants) of one seeded Fischer instance."""
    network, prop = modelio.parse_model(fischer.fischer(n, perm))
    target = fischer.target_process(n, perm)
    mutants = [
        m for m in seeding.seed(network) if m.kind != "bound" and _owner(network, m) == target
    ]
    return network, prop, mutants


def check_item(network, prop):
    def run():
        verdict = checker.check(network, prop)
        trace = None if verdict.trace is None else [[list(p) for p in step] for step in verdict.trace.steps]
        return {"safe": verdict.safe, "states": verdict.states_explored, "trace": trace}

    return run


def setup_check_fischer(seed: int) -> Workload:
    p3, p4 = fischer.draw_permutation(3, seed), fischer.draw_permutation(4, seed)
    network, prop, mutants = fischer_instance(3, p3)
    big, big_prop = modelio.parse_model(fischer.fischer(4, p4))
    items = [Item("n3", check_item(network, prop), {"network": network, "prop": prop})]
    items += [
        Item(f"n3.{m.description}", check_item(m.network, prop), {"network": m.network, "prop": prop})
        for m in mutants
    ]
    items.append(Item("n4", check_item(big, big_prop), {"network": big, "prop": big_prop}))
    return Workload("check_fischer", items, {"n3": str(p3), "n4": str(p4)})


def admissible_item(original, mutant):
    def run():
        verdict = admissibility.check_admissible(original, mutant)
        return {"equal": verdict.equal, "witness": None if verdict.witness is None else list(verdict.witness)}

    return run


def setup_admissible_fischer(seed: int) -> Workload:
    p3 = fischer.draw_permutation(3, seed)
    network, _prop, mutants = fischer_instance(3, p3)
    items = [
        Item(m.description, admissible_item(network, m.network), {"original": network, "mutant": m.network})
        for m in mutants
    ]
    return Workload("admissible_fischer", items, {"n3": str(p3)})


SETUP = {
    "campaign_client_db": setup_campaign,
    "check_fischer": setup_check_fischer,
    "admissible_fischer": setup_admissible_fischer,
}


def golden_records(workload: Workload, golden: dict) -> dict[str, dict]:
    """The reference record of every item, keyed like ``Item.key``."""
    if workload.name == "campaign_client_db":
        return golden["items"]
    if workload.name == "check_fischer":
        out = dict(golden["n3"][workload.golden_key["n3"]])
        out["n4"] = golden["n4"][workload.golden_key["n4"]]
        return out
    return golden["n3"][workload.golden_key["n3"]]


def oracle_problems(workload: Workload, item: Item, record: dict, regions_of: dict) -> tuple[list[str], int]:
    """Independent-engine checks of one item's record: (problems, checks made).

    A violated Fischer trace must be feasible and violating in the LRA trace
    encoding. An admissibility verdict must match the region automaton's,
    where both region automata fit ``REGION_BUDGET``. ``regions_of`` keeps
    the original's region automaton across the items of one gate.
    """
    if workload.name == "check_fischer":
        if record["safe"]:
            return [], 0
        ctx = item.context
        stt = checker.stt_from_moves(ctx["network"], [[tuple(p) for p in step] for step in record["trace"]])
        enc = encoder.encode(ctx["network"], stt, ctx["prop"])
        if not (encoder.feasible(enc) and encoder.violating(enc)):
            return [f"{item.key}: LRA does not confirm the violating trace"], 1
        return [], 1
    if workload.name == "admissible_fischer":
        original, mutant = item.context["original"], item.context["mutant"]
        k = max(max_constant(original), max_constant(mutant))
        try:
            if (id(original), k) not in regions_of:
                regions_of[id(original), k] = regions.build_region_untimed(original, k, state_budget=REGION_BUDGET)
            ra = regions_of[id(original), k]
            rb = regions.build_region_untimed(mutant, k, state_budget=REGION_BUDGET)
        except checker.Exhausted:
            return [], 0
        oracle = admissibility.equivalent(ra, rb)
        got = (record["equal"], record["witness"])
        want = (oracle.equal, None if oracle.witness is None else list(oracle.witness))
        if got != want:
            return [f"{item.key}: region oracle gives {want}, zone engine {got}"], 1
        return [], 1
    return [], 0
