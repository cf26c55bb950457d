"""Untimed-language construction and equivalence, with the region oracle."""

import json
from fractions import Fraction as F

import pytest

from conftest import no_run_model, scaled_model
from tarepair import admissibility, bundled_model_path, load_bundled_model, orchestrator, seeding
from tarepair.admissibility import (
    EMPTY_LANGUAGE,
    Equivalence,
    ZoneGraph,
    accepts,
    build_untimed,
    check_admissible,
    equivalent,
)
from tarepair.checker import Exhausted, check
from tarepair.model import desugar_urgency, max_constant
from tarepair.modelio import parse_model
from tarepair.regions import build_region_untimed
from test_bench_zone_graph import _workloads

CORPUS = ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle")


def test_single_location_no_transitions():
    net, _ = load_bundled_model("safe_idle")
    ua = build_untimed(net)
    assert ua.n_states == 1 and all(not e for e in ua.edges)


def test_running_example_language_contains_req_ser():
    net, _ = load_bundled_model()
    ua = build_untimed(net)
    assert accepts(ua, ("req", "ser"))
    assert accepts(ua, ("req", "ser", "ack"))
    assert not accepts(ua, ("ser",))
    assert not accepts(ua, ("req", "req"))


def test_equivalence_reflexive_on_corpus():
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        ua = build_untimed(net)
        assert equivalent(ua, ua).equal, name


def test_equivalence_symmetric_verdicts():
    net, _ = load_bundled_model()
    other = parse_model(
        json.dumps(
            {
                "automata": [
                    {
                        "name": "solo",
                        "initial": "s",
                        "clocks": ["t"],
                        "locations": [{"name": "s", "invariant": []}, {"name": "e", "invariant": []}],
                        "transitions": [
                            {"source": "s", "target": "e", "sync": "req!", "guard": [], "resets": []}
                        ],
                    },
                    {
                        "name": "peer",
                        "initial": "p",
                        "clocks": ["t"],
                        "locations": [{"name": "p", "invariant": []}],
                        "transitions": [
                            {"source": "p", "target": "p", "sync": "req?", "guard": [], "resets": []}
                        ],
                    },
                ],
                "channels": ["req"],
                "property": "t <= 99",
            }
        )
    )[0]
    a, b = build_untimed(net), build_untimed(other)
    ab, ba = equivalent(a, b), equivalent(b, a)
    assert ab.equal == ba.equal == False
    assert ab.witness == ba.witness  # shortest difference is the same word


def test_witness_accepted_by_exactly_one_side():
    net, prop = load_bundled_model()
    from tarepair.orchestrator import RepairKind, run

    rr = run(net, prop, RepairKind.URGENT)
    from tarepair.orchestrator import apply_candidate

    for cand, adm, wit in zip(rr.candidates, rr.admissible, rr.witnesses):
        assert not adm and wit
        repaired = apply_candidate(net, cand)
        ua, ub = build_untimed(net), build_untimed(repaired)
        assert accepts(ua, wit) != accepts(ub, wit)


def test_desugared_network_has_same_language():
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        sugar = build_untimed(net, visible_internal=True)
        plain = build_untimed(desugar_urgency(net), visible_internal=True)
        assert equivalent(sugar, plain).equal, name


def test_zone_language_equals_region_language_on_corpus():
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        ua = build_untimed(net, visible_internal=True)
        ra = build_region_untimed(net, visible_internal=True)
        assert equivalent(ua, ra).equal, name


def test_admissibility_shared_extrapolation_constant():
    # A repaired model with a larger constant must not look spuriously different.
    net, prop = load_bundled_model()
    from tarepair.model import AtomicClockConstraint, indexed_constraints
    from tarepair.orchestrator import Modification, RepairCandidate, RepairKind, apply_candidate
    from fractions import Fraction

    ref = indexed_constraints(net)[2]  # w <= 2
    cand = RepairCandidate(
        RepairKind.BOUND,
        (
            Modification(
                ("constraint", 2),
                ref.atom,
                AtomicClockConstraint(ref.atom.clock, ref.atom.op, Fraction(9)),
                "loosen w <= 2 to w <= 9",
            ),
        ),
        (),
    )
    loosened = apply_candidate(net, cand)
    verdict = check_admissible(net, loosened)
    # the language is unchanged: transmission still possible, all handshakes live
    assert verdict.equal


@pytest.mark.parametrize(
    "old, new, equal", [('"w <= 2"', '"w <= 3/2"', True), ('"z >= 1"', '"z >= 5/2"', False)]
)
def test_rational_repair_admissibility_matches_doubled_copies(old, new, equal):
    net, prop = load_bundled_model()
    text = bundled_model_path("client_db").read_text(encoding="utf-8")
    assert old in text
    repaired, _ = parse_model(text.replace(old, new))
    verdict = check_admissible(net, repaired)
    doubled = check_admissible(scaled_model(net, prop, 2)[0], scaled_model(repaired, prop, 2)[0])
    assert verdict == doubled
    assert verdict.equal == equal


def test_network_without_a_run_has_the_empty_language():
    bad, prop = parse_model(no_run_model())
    assert check(bad, prop).safe  # vacuously: no reachable state
    ua = build_untimed(bad)
    assert ua == EMPTY_LANGUAGE and not accepts(ua, ()) and not accepts(ua, ("req",))
    # The same network with the invariant on the other clock also has no run.
    other, _ = parse_model(no_run_model().replace('"x >= 1"', '"y >= 1"'))
    assert check_admissible(bad, other) == Equivalence(True)
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        assert accepts(build_untimed(net), ())
        assert check_admissible(net, bad) == check_admissible(bad, net) == Equivalence(False, ()), name


def test_region_oracle_agrees_on_the_empty_language():
    bad, _ = parse_model(no_run_model())
    rb = build_region_untimed(bad, visible_internal=True)
    assert rb == EMPTY_LANGUAGE
    assert equivalent(rb, build_untimed(bad, visible_internal=True)) == Equivalence(True)
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        ua, ra = build_untimed(net, visible_internal=True), build_region_untimed(net, visible_internal=True)
        assert equivalent(ra, rb) == equivalent(ua, rb) == Equivalence(False, ()), name


# The on-the-fly check against the full zone graphs (differential oracle).


def _shared_k(a, b):
    return max(max_constant(a), max_constant(b))


def _assert_matches_full_graphs(pairs):
    """``check_admissible`` equals ``equivalent`` of the full untimed automata
    at the shared k, for every (name, original, repaired) of ``pairs``; one
    ``original_cache`` per original serves all its pairs, fresh on the first."""
    caches, full = {}, {}

    def untimed(network, k):
        if (id(network), k) not in full:
            full[id(network), k] = build_untimed(network, k)
        return full[id(network), k]

    for name, a, b in pairs:
        k = _shared_k(a, b)
        want = equivalent(untimed(a, k), untimed(b, k))
        assert check_admissible(a, b, original_cache=caches.setdefault(id(a), {})) == want, name


def _both_ways(name, a, b):
    """The pair in both directions: each side once the original."""
    return [(name, a, b), (f"{name} (reversed)", b, a)]


def _fischer():
    workloads = _workloads()
    network, _ = workloads.modelio.parse_model(workloads.fischer.fischer(3, workloads.fischer.draw_permutation(3, 1)))
    return network


def test_on_the_fly_check_matches_full_graphs_on_fischer_mutants():
    network = _fischer()
    mutants = seeding.seed(network)
    assert len(mutants) == 77
    _assert_matches_full_graphs(p for m in mutants for p in _both_ways(m.description, network, m.network))


def test_on_the_fly_check_matches_full_graphs_on_bundled_mutants():
    pairs = []
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        pairs += [p for m in seeding.seed(net) for p in _both_ways(f"{name}: {m.description}", net, m.network)]
    assert len(pairs) > 200
    _assert_matches_full_graphs(pairs)


def _repair_candidates():
    """(name, original, repaired, kind) of every candidate of every kind on the corpus."""
    out = []
    for name in CORPUS:
        net, prop = load_bundled_model(name)
        for kind in orchestrator.RepairKind:
            for i, cand in enumerate(orchestrator.run(net, prop, kind).candidates):
                out.append((f"{name} {kind.value} {i}", net, orchestrator.apply_candidate(net, cand), kind))
    return out


def test_on_the_fly_check_matches_full_graphs_on_repair_candidates():
    candidates = _repair_candidates()
    assert len(candidates) == 21
    _assert_matches_full_graphs(p for c in candidates for p in _both_ways(*c[:3]))
    # Bound repairs may make constants rational; the region oracle scales them.
    # Every bound candidate's region automaton fits the default budget.
    bound = [c for c in candidates if c[3] == orchestrator.RepairKind.BOUND]
    assert len(bound) == 6
    for name, a, b, _ in bound:
        k = _shared_k(a, b)
        assert check_admissible(a, b) == equivalent(build_region_untimed(a, k), build_region_untimed(b, k)), name


def test_on_the_fly_check_matches_full_graphs_with_visible_internal_moves():
    net, _ = load_bundled_model("urgent_hop")
    others = [desugar_urgency(net), net] + [m.network for m in seeding.seed(net)]
    differ = 0
    for other in others:
        k = _shared_k(net, other)
        lazy = equivalent(ZoneGraph(net, k, visible_internal=True), ZoneGraph(other, k, visible_internal=True))
        full = equivalent(build_untimed(net, k, visible_internal=True), build_untimed(other, k, visible_internal=True))
        assert lazy == full
        differ += not lazy.equal
    assert differ > 0


def test_region_oracle_scales_rational_constants():
    net, prop = load_bundled_model()
    text = bundled_model_path("client_db").read_text(encoding="utf-8")
    for old, new in (('"w <= 2"', '"w <= 3/2"'), ('"z >= 1"', '"z >= 5/2"')):
        repaired, _ = parse_model(text.replace(old, new))
        k = _shared_k(net, repaired)
        doubled = scaled_model(repaired, prop, 2)[0]
        ra = build_region_untimed(repaired, k, visible_internal=True)
        assert equivalent(ra, build_region_untimed(doubled, 2 * k, visible_internal=True)).equal
        assert equivalent(ra, build_untimed(repaired, k, visible_internal=True)).equal
        regions = equivalent(build_region_untimed(net, k), build_region_untimed(repaired, k))
        assert check_admissible(net, repaired) == regions


# Budget semantics: Exhausted only when the states the check needs exceed it.


def test_budget_counts_only_the_states_the_check_needs(monkeypatch):
    network = _fischer()
    mutant = next(m for m in seeding.seed(network) if m.description.endswith("operator #0: LE -> EQ"))
    assert build_untimed(network).n_states == 355
    monkeypatch.setattr(admissibility, "UNTIMED_STATE_BUDGET", 100)
    assert check_admissible(network, mutant.network) == Equivalence(False, ("zero1",))
    with pytest.raises(Exhausted):
        check_admissible(network, network)  # an equal pair expands both graphs in full
    with pytest.raises(Exhausted):
        build_untimed(network)
