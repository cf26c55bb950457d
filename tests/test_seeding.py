"""Mutant enumeration goldens and campaign column invariants."""

import json
import math
from collections import Counter
from fractions import Fraction as F

from tarepair import bundled_model_path, load_bundled_model, orchestrator, seeding
from tarepair.model import indexed_constraints
from tarepair.modelio import parse_model, serialize_model
from tarepair.seeding import bound_deltas, campaign, model_max_bound, seed
from tarepair.variations import RepairKind


def test_max_model_bound_excludes_property():
    net, _ = load_bundled_model()
    assert model_max_bound(net) == 2  # the property's x <= 4 does not count


def test_bound_delta_set():
    assert bound_deltas(4) == [F(-10), F(-1), F(1), F(1), F(4)]
    for m in range(2001):
        assert bound_deltas(m) == [F(-10), F(-1), F(1), F(math.ceil(F(m, 10))), F(m)], m


def test_bound_delta_is_exact_for_a_bound_past_float_precision():
    # M = 10**17 + 1: ceil(0.1 * M) in floating point gives 10**16, not 10**16 + 1.
    doc = json.loads(bundled_model_path("oneclock").read_text(encoding="utf-8"))
    doc["automata"][0]["locations"][0]["invariant"] = ["c <= 100000000000000001"]
    net, _ = parse_model(json.dumps(doc))
    assert model_max_bound(net) == 100000000000000001
    assert bound_deltas(model_max_bound(net))[3] == 10**16 + 1
    descriptions = [m.description for m in seed(net, kinds=("bound",))]
    assert "seed bound #0: 100000000000000001 -> 110000000000000002" in descriptions
    assert "seed bound #0: 100000000000000001 -> 110000000000000001" not in descriptions


def test_bundle_mutant_counts_golden():
    # Hand-derived for the bundled model (M = 2, bounds {1, 2}):
    # bound: b=2 -> {0,1,3,4} (4 mutants), b=1 -> {0,2,3} (3); constraints
    # with bound 2: #0, #2; bound 1: #1, #3, #4, #5 => 2*4 + 4*3 = 20.
    # operator: 6 constraints * 4 = 24; clockref: 6 * (4-1) = 18;
    # reset: 7 transitions * 4 clocks = 28; urgency: 7 locations.
    net, _ = load_bundled_model()
    counts = Counter(m.kind for m in seed(net))
    assert counts == {"bound": 20, "operator": 24, "clockref": 18, "reset": 28, "urgent": 7}
    assert sum(counts.values()) == 97


def test_bound_mutants_clamp_and_dedup():
    net, _ = load_bundled_model()
    bound_ms = [m for m in seed(net, kinds=("bound",)) if "#2" in m.description]
    news = [m.edit.modifications[0].new.bound for m in bound_ms]
    assert news == [F(0), F(1), F(3), F(4)]


def test_operator_mutants_exclude_identity():
    net, _ = load_bundled_model()
    ops = [m for m in seed(net, kinds=("operator",)) if "#4" in m.description]
    assert len(ops) == 4
    assert all("GE ->" in m.description for m in ops)


def test_single_clock_automaton_has_no_clock_swaps():
    net, _ = load_bundled_model("oneclock")
    assert seed(net, kinds=("clockref",)) == []


def test_every_mutant_differs_by_exactly_one_edit():
    net, prop = load_bundled_model()
    base = serialize_model(net, prop)
    refs = indexed_constraints(net)
    for m in seed(net):
        text = serialize_model(m.network, prop)
        assert text != base
        # structural diff: exactly one constraint/reset/urgency differs
        diffs = 0
        refs2 = indexed_constraints(m.network)
        for a, b in zip(refs, refs2):
            if a.atom != b.atom:
                diffs += 1
        for (ai, auto), auto2 in zip(enumerate(net.automata), m.network.automata):
            if auto.urgent != auto2.urgent:
                diffs += 1
            for t1, t2 in zip(auto.transitions, auto2.transitions):
                if t1.resets != t2.resets:
                    diffs += 1
        assert diffs == 1, m.description


def test_campaign_columns_and_invariants():
    net, prop = load_bundled_model("pair_sync")
    result = campaign(net, prop, model_name="pair_sync")
    total = result.total()
    assert total.seeded == len(seed(net))
    for row in result.rows.values():
        assert row.violating <= row.seeded
        assert row.solved <= row.violating
        assert row.admissible <= row.repairs
    csv = result.to_csv()
    assert csv.splitlines()[0] == "kind,Sd,T,Ln,R,A,S,O,Vr,Cn"


def test_campaign_records_a_contract_violation_and_goes_on(monkeypatch):
    # The first contract re-check of the campaign fails: that mutant's line
    # names the analysis it stopped, and every other line is unchanged.
    net, prop = load_bundled_model()
    default = campaign(net, prop, kinds=("bound",), model_name="client_db")
    calls = []

    def fails_first(*args):
        calls.append(args)
        return (True, len(calls) == 1)

    monkeypatch.setattr(orchestrator, "replay", fails_first)
    result = campaign(net, prop, kinds=("bound",), model_name="client_db")
    assert result.contract_violations == 1 and default.contract_violations == 0
    changed = [(a, b) for a, b in zip(default.mutant_results, result.mutant_results) if a != b]
    assert len(result.mutant_results) == len(default.mutant_results) == 20
    assert len(changed) == 1
    (_, _, before), (_, _, after) = changed[0]
    assert after.startswith("violated (trace length ") and after.endswith("; contract violation: bound")
    # the stopped run's candidates are not counted
    assert after != before + "; contract violation: bound"


def test_campaign_gives_each_violating_mutant_one_context(monkeypatch):
    # Every kind's repair run on one mutant gets the same RepairContext, and
    # no two mutants share one.
    net, prop = load_bundled_model()
    default = campaign(net, prop, kinds=("bound",), model_name="client_db")
    caches = []  # per run: (mutant network, its context)
    real = seeding.run

    def recorded(network, *args, **kwargs):
        caches.append((network, kwargs["context"]))
        return real(network, *args, **kwargs)

    monkeypatch.setattr(seeding, "run", recorded)
    result = campaign(net, prop, kinds=("bound",), model_name="client_db")
    assert result.mutant_results == default.mutant_results
    per_mutant = {}
    for network, cache in caches:
        per_mutant.setdefault(id(network), []).append(cache)
    assert len(per_mutant) == result.total().violating == 12
    assert all(len(runs) == 5 and all(c is runs[0] for c in runs) for runs in per_mutant.values())
    assert len({id(runs[0]) for runs in per_mutant.values()}) == 12


def test_campaign_repairs_each_violating_mutant_with_every_kind_in_order(monkeypatch):
    net, prop = load_bundled_model("oneclock")
    kinds = []  # per repair run: its kind
    real = seeding.run

    def recorded(network, prop, kind, **kwargs):
        kinds.append(kind)
        return real(network, prop, kind, **kwargs)

    monkeypatch.setattr(seeding, "run", recorded)
    total = campaign(net, prop, model_name="oneclock").total()
    assert total.seeded > total.violating > 0
    assert kinds == list(RepairKind) * total.violating  # and none for a safe mutant


def test_safe_mutants_counted_in_sd_not_t():
    net, prop = load_bundled_model("safe_idle")
    result = campaign(net, prop, kinds=("bound",), model_name="safe_idle")
    row = result.rows["bound"]
    assert row.seeded > 0
    outcomes = [o for _, _, o in result.mutant_results]
    assert outcomes.count("safe") == row.seeded - row.violating


def test_urgency_adding_mutants_soft_expectation(capsys):
    # Making locations urgent restricts time budgets; for an upper-bound
    # reachability property this tends not to create violations in a model
    # that was safe to begin with. Reported, not asserted (the client/db
    # example starts out violating, so its mutants inherit the trace).
    from tarepair.checker import check

    for name in ("safe_idle", "client_db"):
        net, prop = load_bundled_model(name)
        violating = []
        for m in seed(net, kinds=("urgent",)):
            added = any(mod.new for mod in m.edit.modifications)
            if added and not check(m.network, prop).safe:
                violating.append(m.description)
        print(f"{name}: urgency-adding mutants with a trace: {len(violating)}")
