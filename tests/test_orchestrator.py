"""Repair loop behavior: candidates, blocking, application, determinism."""

import importlib.util
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest

from tarepair import admissibility, encoder, load_bundled_model, lra, maxsmt, orchestrator
from tarepair.checker import SymbolicTimedTrace, check, replay
from tarepair.encoder import encode, feasible, violating
from tarepair.maxsmt import HardConstraint
from tarepair.model import AtomicClockConstraint, Op, indexed_constraints, validate
from tarepair.modelio import parse_model, serialize_model
from tarepair.seeding import seed
from tarepair.variations import vary
from tarepair.orchestrator import (
    AnchorMismatch,
    Modification,
    RepairCandidate,
    RepairContext,
    RepairKind,
    _candidate_from_assignment,
    apply_candidate,
    run,
)

from conftest import every_reset_toggle, loop_model, reset_toggles

VIOLATING = ("client_db", "oneclock", "urgent_hop", "pair_sync")


def test_bound_run_contains_the_w_repair():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.BOUND)
    hits = [
        (cand, adm)
        for cand, adm in zip(rr.candidates, rr.admissible)
        if any(m.anchor == ("constraint", 2) and m.new.bound == 1 for m in cand.modifications)
    ]
    assert len(hits) == 1
    cand, adm = hits[0]
    assert adm and len(cand.modifications) == 1
    assert cand.modifications[0].old.bound == 2


def test_urgency_run_two_inadmissible_candidates():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.URGENT)
    assert len(rr.candidates) == 2
    descs = [cand.describe_modifications()[0] for cand in rr.candidates]
    assert descs == ["make client.serReceiving urgent", "make db.reqAwaiting urgent"]
    assert rr.admissible == [False, False]
    assert all(wit for wit in rr.witnesses)


def test_operator_run_dominance_filter():
    # w >= 1 admits <, <= and = as trace repairs; = permits no realization
    # that <= does not, so only < and <= are emitted.
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.OPERATOR)
    news = [m.new.op for cand in rr.candidates for m in cand.modifications]
    assert news == [Op.LT, Op.LE]
    assert rr.admissible == [True, True]


def test_reset_run_named_candidates():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.RESET)
    descs = [cand.describe_modifications()[0] for cand in rr.candidates]
    assert descs == [
        "add reset of x on db transition 1 (step 1)",
        "remove reset of y on db transition 1 (step 1)",
        "add reset of x on client transition 1 (step 2)",
        "remove reset of z on client transition 1 (step 2)",
    ]
    assert rr.admissible == [True, True, True, True]


def test_safe_model_yields_empty_run():
    net, prop = load_bundled_model("safe_idle")
    rr = run(net, prop, RepairKind.BOUND)
    assert rr.candidates == [] and rr.reason == "no-violation-found"


def test_candidate_counts_nondecreasing_and_sets_distinct():
    for name in VIOLATING:
        net, prop = load_bundled_model(name)
        for kind in RepairKind:
            rr = run(net, prop, kind)
            counts = [len(c.modifications) for c in rr.candidates]
            assert counts == sorted(counts), (name, kind)
            mods = [tuple((m.anchor, m.new) for m in c.modifications) for c in rr.candidates]
            assert len(mods) == len(set(mods)), (name, kind)


def test_semantic_contract_for_every_candidate():
    for name in VIOLATING:
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        for kind in RepairKind:
            rr = run(net, prop, kind, tdt=verdict.trace)
            for cand in rr.candidates:
                repaired = apply_candidate(net, cand)
                sys = encode(repaired, verdict.trace, prop)
                assert feasible(sys), (name, kind, cand.describe_modifications())
                assert not violating(sys), (name, kind, cand.describe_modifications())


def test_apply_then_revert_restores_document():
    net, prop = load_bundled_model()
    original = serialize_model(net, prop)
    for kind in RepairKind:
        rr = run(net, prop, kind)
        for cand in rr.candidates:
            repaired = apply_candidate(net, cand)
            assert serialize_model(repaired, prop) != original
            reverted = tuple(
                Modification(m.anchor, m.new, m.old, f"revert {m.description}")
                for m in cand.modifications
            )
            restored = apply_candidate(repaired, RepairCandidate(cand.kind, reverted, cand.assignment))
            assert serialize_model(restored, prop) == original


def test_apply_detects_anchor_mismatch():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.BOUND)
    cand = rr.candidates[0]
    repaired = apply_candidate(net, cand)
    with pytest.raises(AnchorMismatch):
        apply_candidate(repaired, cand)  # old value no longer matches


def test_operator_application_text():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.OPERATOR)
    lt = next(c for c in rr.candidates if c.modifications[0].new.op == Op.LT)
    repaired = apply_candidate(net, lt)
    text = serialize_model(repaired, prop)
    assert "w < 1" in text and "w >= 1" not in text


def test_bound_application_text():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.BOUND)
    w = next(c for c in rr.candidates if c.modifications[0].anchor == ("constraint", 2))
    text = serialize_model(apply_candidate(net, w), prop)
    assert "w <= 1" in text


def test_runs_deterministic():
    net, prop = load_bundled_model()
    for kind in RepairKind:
        a = run(net, prop, kind)
        b = run(net, prop, kind)
        assert [c.modifications for c in a.candidates] == [c.modifications for c in b.candidates]
        assert a.admissible == b.admissible and a.witnesses == b.witnesses


def test_one_context_serves_every_kind(monkeypatch):
    # The runs of every kind on one trace, given one RepairContext, read as
    # with a context each, and build fewer zone graphs of the original.
    built = []

    class Recorded(admissibility.ZoneGraph):
        def __init__(self, network, *args, **kwargs):
            super().__init__(network, *args, **kwargs)
            built.append(network)

    monkeypatch.setattr(admissibility, "ZoneGraph", Recorded)
    originals = [0, 0]  # graphs of the original: a context per run, one context
    for name in VIOLATING:
        net, prop = load_bundled_model(name)
        tdt = check(net, prop).trace
        results = []
        for side, shared in enumerate((False, True)):
            built.clear()
            context = RepairContext(net, prop, tdt) if shared else None
            runs = [run(net, prop, kind, tdt=tdt, context=context) for kind in RepairKind]
            results.append([(r.candidates, r.admissible, r.witnesses, r.reason) for r in runs])
            originals[side] += sum(network is net for network in built)
        assert results[0] == results[1], name
    assert originals == [13, 7]


def test_run_rejects_a_context_of_another_network_property_or_trace():
    net, prop = load_bundled_model()
    context = RepairContext(net, prop)
    other_net, other_prop = load_bundled_model("oneclock")
    prefix = SymbolicTimedTrace(context.trace.steps[:1], context.trace.locations[:2])
    for args, tdt in (((other_net, prop), None), ((net, other_prop), None), ((net, prop), prefix)):
        with pytest.raises(ValueError, match="another network, property or trace"):
            run(*args, RepairKind.BOUND, tdt=tdt, context=context)
    shared = run(net, prop, RepairKind.BOUND, tdt=context.trace, context=context)
    assert shared.candidates == run(net, prop, RepairKind.BOUND).candidates


def test_max_repairs_cap():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.CLOCKREF, max_repairs=1)
    assert len(rr.candidates) == 1 and rr.reason == "budget"


def test_clockref_run_includes_receive_window_swap():
    # Exchanging clock z in z <= 2 with clock y is an admissible repair.
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.CLOCKREF)
    y = net.clock_names.index("y")
    hit = [
        adm
        for cand, adm in zip(rr.candidates, rr.admissible)
        if len(cand.modifications) == 1
        and cand.modifications[0].anchor == ("constraint", 0)
        and cand.modifications[0].new.clock == y
    ]
    assert hit == [True]


def test_qe_budget_timeout_recorded():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.BOUND, qe_budget=3)
    assert rr.reason == "qe-timeout" and rr.timeouts == 1 and rr.candidates == []


@pytest.mark.parametrize("name", ["client_db", "oneclock", "urgent_hop", "pair_sync"])
def test_discrete_kinds_make_no_lra_call_in_the_search(name, monkeypatch):
    # Their search decides by difference logic, so no QE budget can run out:
    # a budget of one atom gives the default budget's candidates and reason.
    # Neither the initial violation check nor the contract re-check calls
    # lra either, so a whole run makes no LRA call.
    net, prop = load_bundled_model(name)
    kinds = ("operator", "clockref", "reset", "urgent")
    default = {kind: run(net, prop, kind) for kind in kinds}

    def forbidden(*args, **kwargs):
        raise AssertionError("the run called lra")

    monkeypatch.setattr(maxsmt, "is_satisfiable", forbidden)
    monkeypatch.setattr(maxsmt, "eliminate", forbidden)
    monkeypatch.setattr(encoder, "is_satisfiable", forbidden)
    monkeypatch.setattr(orchestrator, "is_satisfiable", forbidden)
    for kind in kinds:
        tight = run(net, prop, kind, qe_budget=1)
        assert tight.candidates == default[kind].candidates and tight.reason == default[kind].reason, kind
        assert tight.admissible == default[kind].admissible, kind
        assert tight.timeouts == 0, kind


def test_contract_violation_stops_the_run(monkeypatch):
    # A candidate that fails the re-check is not emitted: the run stops
    # there with its reason, and the candidates before it stay.
    net, prop = load_bundled_model()
    default = run(net, prop, RepairKind.OPERATOR)
    assert len(default.candidates) >= 2
    calls = []

    def fails_second(*args):
        calls.append(args)
        return (True, len(calls) == 2)

    monkeypatch.setattr(orchestrator, "replay", fails_second)
    rr = run(net, prop, RepairKind.OPERATOR)
    assert rr.reason == "contract-violation" and rr.timeouts == 0
    assert rr.candidates == default.candidates[:1] and rr.admissible == default.admissible[:1]
    assert rr.rejected == default.candidates[1]
    monkeypatch.setattr(orchestrator, "replay", lambda *args: (False, False))
    for kind in RepairKind:
        rr = run(net, prop, kind)
        assert (rr.reason, rr.candidates, rr.admissible) == ("contract-violation", [], []), kind
        assert rr.rejected is not None, kind


@lru_cache(maxsize=None)
def _replay_cases():
    """(network, property, trace) of the 59 violating mutants of the client_db
    campaign, the four violating bundled models and both loop models."""
    net, prop = load_bundled_model()
    models = [(m.network, prop) for m in seed(net)]
    models += [load_bundled_model(name) for name in VIOLATING]
    models += [parse_model(loop_model()), parse_model(loop_model(("x", "y", "z"), "!@a.L1 || z <= 2"))]
    cases = []
    for network, phi in models:
        verdict = check(network, phi, 4_000)
        if not verdict.safe:
            cases.append((network, phi, verdict.trace))
    assert len(cases) == 59 + 4 + 2
    return tuple(cases)


def _lra_contract(network, prop, stt):
    """(feasible, violating) of a trace by LRA on its encoding: the reference."""
    sys = encode(network, stt, prop)
    return feasible(sys), violating(sys)


def test_replay_agrees_with_lra_on_every_candidate(monkeypatch):
    # The contract re-check against the LRA decision of the re-encoded
    # model, on every candidate of every kind and on each unrepaired model.
    # The runs re-check by LRA, so their candidates do not depend on replay.
    monkeypatch.setattr(orchestrator, "replay", _lra_contract)
    candidates = 0
    for network, phi, trace in _replay_cases():
        models = [network]
        for kind in RepairKind:
            rr = run(network, phi, kind, tdt=trace)
            assert rr.reason != "contract-violation", (kind, rr.rejected)
            models += [apply_candidate(network, cand) for cand in rr.candidates]
            candidates += len(rr.candidates)
        for model in models:
            assert replay(model, phi, trace) == _lra_contract(model, phi, trace)
        assert replay(network, phi, trace) == (True, True)
    assert candidates == 841


def test_non_violating_supplied_trace_is_rejected_gracefully():
    from tarepair.checker import stt_from_moves

    net, prop = load_bundled_model()
    stub = stt_from_moves(net, [((0, 0), (1, 0))])  # only the request handshake
    rr = run(net, prop, RepairKind.BOUND, tdt=stub)
    assert rr.candidates == [] and rr.reason == "trace-not-violating"


def test_reset_run_on_repeated_transition():
    # t0 fires at steps 0 and 1; removing its reset of x edits both steps,
    # which the per-step flip alone does not describe.
    net, prop = parse_model(loop_model())
    rr = run(net, prop, RepairKind.RESET)
    descs = [cand.describe_modifications() for cand in rr.candidates]
    assert descs == [["add reset of y on a transition 1 (step 2)"]]
    assert rr.admissible == [True]
    assert rr.reason == "exhausted"


def test_reset_flips_of_one_transition_yield_one_candidate():
    # Adding the reset of z at step 0 or at step 1 is the same edit of t0,
    # and its description names both steps where t0 fires.
    net, prop = parse_model(loop_model(("x", "y", "z"), "!@a.L1 || z <= 2"))
    rr = run(net, prop, RepairKind.RESET)
    descs = [cand.describe_modifications() for cand in rr.candidates]
    assert descs == [
        ["add reset of z on a transition 0 (steps 0, 1)"],
        ["add reset of z on a transition 1 (step 2)"],
    ]


def test_reset_variables_are_per_transition_on_a_shared_step():
    # Seeding w's reset onto client.t0 makes step 0 fire two transitions
    # that both reset w: each removal is its own variable, and the run is
    # the one a per-(clock, step) flip gave.
    net, prop = load_bundled_model()
    mutant = seed(net)[65]
    assert mutant.description == "seed reset: add w on client.t0"
    trace = check(mutant.network, prop).trace
    sys = encode(mutant.network, trace, prop)
    vs = vary(sys, "reset")
    w = net.clock_names.index("w")
    assert [v.description for v in vs.variables if v.anchor[2] == w] == [
        "remove reset of w on client transition 0 (step 0)",
        "remove reset of w on db transition 0 (step 0)",
    ]
    # Adding w's reset at step 1 or 2 is no variable: no row reads w after step 1.
    assert [a for a, live in reset_toggles(sys).items() if a[2] == w and not live] == [(1, 1, w), (0, 1, w)]
    rr = run(mutant.network, prop, RepairKind.RESET, tdt=trace)
    assert [cand.describe_modifications() for cand in rr.candidates] == [
        ["add reset of x on db transition 1 (step 1)"],
        ["remove reset of y on db transition 1 (step 1)"],
        ["add reset of x on client transition 1 (step 2)"],
        ["remove reset of z on client transition 1 (step 2)"],
    ]
    assert rr.reason == "exhausted" and (rr.variable_count, rr.constraint_count) == (36, 44)


def test_bound_repair_keeps_strict_lower_bounds_at_or_above_zero():
    # With y >= 2 made y > 2, v = -3 means y > -1 (always true), but the
    # applied bound is clamped to y > 0, which breaks the repair contract.
    net, prop = parse_model(loop_model())
    y_ge_2 = indexed_constraints(net)[2].atom
    y_gt_2 = AtomicClockConstraint(y_ge_2.clock, Op.GT, y_ge_2.bound)
    edit = RepairCandidate(RepairKind.OPERATOR, (Modification(("constraint", 2), y_ge_2, y_gt_2, "y > 2"),), ())
    mutant = apply_candidate(net, edit)
    rr = run(mutant, prop, RepairKind.BOUND)
    assert rr.candidates
    for cand in rr.candidates:
        assert dict(cand.assignment)["v2"] >= -2


def _fischer(n, perm):
    """Fischer's protocol from the benchmark's generator, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "fischer.py"
    spec = importlib.util.spec_from_file_location("bench_fischer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return parse_model(module.fischer(n, perm))


def test_reset_variables_toggle_only_declared_clocks():
    # Each Fischer process declares its own clock only, and the id automaton
    # none. A toggle of another automaton's clock edits no valid model.
    net, prop = _fischer(3, 0)
    mutant = next(m for m in seed(net, kinds=("operator",)) if m.description == "seed operator #1: GT -> LT")
    trace = check(mutant.network, prop).trace
    sys = encode(mutant.network, trace, prop)
    automata = mutant.network.automata
    # Six toggles, two of them dead, whose edits are checked all the same.
    assert len(vary(sys, "reset").variables) == 4
    vs = every_reset_toggle(sys)
    assert len(vs.variables) == len(trace) == 6
    for var in vs.variables:
        ai, _, clock = var.anchor
        assert clock in automata[ai].clocks, var.description
        flip = {v.name: v.zero for v in vs.variables} | {var.name: True}
        repaired = apply_candidate(mutant.network, _candidate_from_assignment(HardConstraint(vs), RepairKind.RESET, flip))
        assert [d for d in validate(repaired, prop) if not d.startswith("warning:")] == [], var.description


@pytest.mark.parametrize(
    "prop, groups, expected",
    [
        (
            "(!@a.L1 || y <= 2) && (x <= 1 || y < 3)",
            [4, 3],
            [
                (
                    [
                        "constraint #0 (a.L0 invariant: x <= 1): bound 1 -> 2/3 (v = -1/3)",
                        "constraint #1 (a transition 0 guard: x >= 1): bound 1 -> 0 (v = -1)",
                    ],
                    {"v0": F(-1, 3), "v1": F(-1), "v2": F(0)},
                )
            ],
        ),
        (
            "!@a.L1 || (y <= 2 && x <= 0)",
            [3, 3],
            [
                (
                    [
                        "constraint #0 (a.L0 invariant: x <= 1): bound 1 -> 0 (v = -1)",
                        "constraint #1 (a transition 0 guard: x >= 1): bound 1 -> 0 (v = -1)",
                        "constraint #2 (a transition 1 guard: y >= 2): bound 2 -> 0 (v = -2)",
                    ],
                    {"v0": F(-1), "v1": F(-1), "v2": F(-2)},
                )
            ],
        ),
    ],
    ids=["conjunction-of-disjunctions", "disjunction-under-location"],
)
def test_bound_run_with_a_multi_disjunct_negated_property(prop, groups, expected):
    # One choice group per disjunct of the negated property; the first run
    # falls back to a rational model in sampling.
    net, prop = parse_model(loop_model(prop=prop))
    trace = check(net, prop).trace
    hard = HardConstraint(vary(encode(net, trace, prop), "bound"))
    assert [len(group) for group in hard.formula[1]] == groups
    rr = run(net, prop, RepairKind.BOUND, tdt=trace)
    got = [(c.describe_modifications(), dict(c.assignment)) for c in rr.candidates]
    assert got == expected and rr.admissible == [True] and rr.reason == "exhausted"


def test_bound_run_prunes_the_product_of_its_choice_groups(monkeypatch):
    # Four groups of 6, 4, 6 and 4 alternatives make 576 combinations per
    # query; solving every one cost this run 81,752 conjunctions. The
    # prefix-pruned search finds the same candidate with far fewer.
    net, prop = parse_model(loop_model(prop="!@a.L1 || (y <= 2 && x <= 0) || y == 7"))
    trace = check(net, prop).trace
    hard = HardConstraint(vary(encode(net, trace, prop), "bound"))
    assert [len(group) for group in hard.formula[1]] == [6, 4, 6, 4]
    solves = []
    real = lra._solve_conjunction
    monkeypatch.setattr(lra, "_solve_conjunction", lambda *args: solves.append(args) or real(*args))
    rr = run(net, prop, RepairKind.BOUND, tdt=trace)
    got = [(c.describe_modifications(), dict(c.assignment)) for c in rr.candidates]
    assert got == [
        (
            [
                "constraint #0 (a.L0 invariant: x <= 1): bound 1 -> 7/2 (v = 5/2)",
                "constraint #2 (a transition 1 guard: y >= 2): bound 2 -> 7 (v = 5)",
            ],
            {"v0": F(5, 2), "v1": F(0), "v2": F(5)},
        )
    ]
    assert rr.admissible == [True] and rr.reason == "exhausted"
    assert len(solves) <= 1_208
