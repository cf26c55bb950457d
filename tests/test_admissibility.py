"""Untimed-language construction and equivalence, with the region oracle."""

import json
from fractions import Fraction as F

import pytest

from conftest import no_run_model, scaled_model
from tarepair import bundled_model_path, load_bundled_model
from tarepair.admissibility import (
    EMPTY_LANGUAGE,
    Equivalence,
    accepts,
    build_untimed,
    check_admissible,
    equivalent,
)
from tarepair.checker import check
from tarepair.model import desugar_urgency
from tarepair.modelio import parse_model
from tarepair.regions import build_region_untimed

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
