"""Mutant enumeration goldens and campaign column invariants."""

from collections import Counter
from fractions import Fraction as F

from tarepair import load_bundled_model
from tarepair.model import indexed_constraints
from tarepair.modelio import serialize_model
from tarepair.seeding import bound_deltas, campaign, model_max_bound, seed


def test_max_model_bound_excludes_property():
    net, _ = load_bundled_model()
    assert model_max_bound(net) == 2  # the property's x <= 4 does not count


def test_bound_delta_set():
    assert bound_deltas(4) == [F(-10), F(-1), F(1), F(1), F(4)]


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


def test_campaign_empty_kind_selection_still_counts_seeds():
    net, prop = load_bundled_model("oneclock")
    result = campaign(net, prop, repair_kinds=(), model_name="oneclock")
    total = result.total()
    assert total.repairs == 0 and total.seeded > 0
    assert total.violating > 0  # checking still happens


def test_safe_mutants_counted_in_sd_not_t():
    net, prop = load_bundled_model("safe_idle")
    result = campaign(net, prop, kinds=("bound",), repair_kinds=(), model_name="safe_idle")
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
