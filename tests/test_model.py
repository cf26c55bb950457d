"""Domain type invariants, validation diagnostics, and urgency desugaring."""

from fractions import Fraction

import pytest

from tarepair import load_bundled_model
from tarepair.model import (
    AtomicClockConstraint,
    Op,
    PropertyExpr,
    PropKind,
    SyncKind,
    TimedAutomaton,
    TimedAutomatonNetwork,
    Transition,
    desugar_urgency,
    dnf_size,
    indexed_constraints,
    max_constant,
    prop_nnf,
    prop_to_dnf,
    validate,
)


def single_automaton(transitions, invariants, urgent=frozenset(), n_locs=2, clocks=frozenset({0})):
    return TimedAutomatonNetwork(
        (
            TimedAutomaton(
                name="proc",
                location_names=tuple(f"l{i}" for i in range(n_locs)),
                initial=0,
                invariants=invariants,
                urgent=urgent,
                transitions=transitions,
                clocks=clocks,
            ),
        ),
        ("c",),
        (),
    )


def test_validate_accepts_bundled_models():
    for name in ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle"):
        net, prop = load_bundled_model(name)
        assert validate(net, prop) == []


def test_validate_flags_unknown_transition_endpoint():
    t = Transition(0, 5, (), None, SyncKind.INTERNAL, frozenset())
    net = single_automaton((t,), ((), ()))
    diags = validate(net)
    assert len(diags) == 1
    assert "transitions[0]" in diags[0] and "target" in diags[0]


def test_validate_flags_unresolved_location_predicate():
    net = single_automaton((), ((), ()))
    prop = PropertyExpr.of_location(0, 9)
    diags = validate(net, prop)
    assert diags == ["property: unresolved location predicate"]


def test_validate_is_pure_and_idempotent():
    net, prop = load_bundled_model()
    assert validate(net, prop) == validate(net, prop) == []


def test_validate_warns_on_unmatched_send():
    t = Transition(0, 1, (), 0, SyncKind.SEND, frozenset())
    net = TimedAutomatonNetwork(
        (
            TimedAutomaton("a", ("l0", "l1"), 0, ((), ()), frozenset(), (t,), frozenset({0})),
        ),
        ("c",),
        ("ch",),
    )
    diags = validate(net)
    assert len(diags) == 1 and diags[0].startswith("warning:")


def test_atomic_constraint_rejects_negative_bound():
    with pytest.raises(ValueError):
        AtomicClockConstraint(0, Op.LE, Fraction(-1))


def test_desugar_identity_without_urgent_locations():
    net, _ = load_bundled_model()
    assert desugar_urgency(net) is net


def test_desugar_counts_fresh_clock_resets_and_invariant():
    # One urgent location with two incoming transitions: one fresh clock,
    # two added resets, one added invariant atom.
    t0 = Transition(0, 1, (), None, SyncKind.INTERNAL, frozenset())
    t1 = Transition(2, 1, (), None, SyncKind.INTERNAL, frozenset())
    net = single_automaton((t0, t1), ((), (), ()), urgent=frozenset({1}), n_locs=3)
    out = desugar_urgency(net)
    assert out.n_clocks == net.n_clocks + 1
    auto = out.automata[0]
    p = out.n_clocks - 1
    assert all(p in t.resets for t in auto.transitions)
    assert sum(len(inv) for inv in auto.invariants) == 1
    atom = auto.invariants[1][0]
    assert atom.clock == p and atom.op == Op.EQ and atom.bound == 0
    assert not auto.urgent


def test_desugar_urgent_initial_location_not_deadlocked():
    # The fresh clock starts at 0, so the p=0 invariant holds initially and
    # the first transition stays firable.
    from tarepair.checker import check
    from tarepair.modelio import parse_property

    t0 = Transition(0, 1, (), None, SyncKind.INTERNAL, frozenset())
    net = single_automaton((t0,), ((), ()), urgent=frozenset({0}))
    out = desugar_urgency(net)
    prop = parse_property("!@proc.l1", out)
    verdict = check(out, prop)
    assert not verdict.safe and len(verdict.trace) == 1


def test_constraint_indexing_is_document_order():
    net, _ = load_bundled_model()
    refs = indexed_constraints(net)
    texts = [(r.index, net.automata[r.automaton].name, r.kind) for r in refs]
    assert texts == [
        (0, "client", "invariant"),
        (1, "client", "guard"),
        (2, "db", "invariant"),
        (3, "db", "invariant"),
        (4, "db", "guard"),
        (5, "db", "guard"),
    ]


def test_max_constant_includes_property():
    net, prop = load_bundled_model()
    assert max_constant(net) == 2
    assert max_constant(net, prop) == 4


def test_prop_to_dnf_negation():
    net, prop = load_bundled_model()
    bad = prop_to_dnf(prop.negate())
    # not(x <= 4 or not @client.serReceiving) == x > 4 and @client.serReceiving
    assert len(bad) == 1
    lits = bad[0]
    assert len(lits) == 2
    atom_lits = [l for l in lits if l.atom is not None]
    loc_lits = [l for l in lits if l.atom is None]
    assert atom_lits[0].atom.op == Op.GT and atom_lits[0].atom.bound == 4
    assert loc_lits[0].positive and loc_lits[0].location == 2


def test_dnf_size_counts_the_disjuncts_of_prop_to_dnf():
    net, prop = load_bundled_model()
    x, y = (PropertyExpr.of_atom(AtomicClockConstraint(c, Op.LE, Fraction(1))) for c in (0, 1))
    exact = PropertyExpr.of_atom(AtomicClockConstraint(0, Op.EQ, Fraction(1)))
    false = PropertyExpr(PropKind.FALSE)
    cases = [
        prop,
        PropertyExpr.disj(*(PropertyExpr.conj(x, y) for _ in range(5))),
        PropertyExpr.conj(exact, PropertyExpr.disj(x, false), PropertyExpr(PropKind.TRUE)),
        PropertyExpr.disj(PropertyExpr.conj(x, false), exact).negate(),
    ]
    for p in cases:
        for e in (p, p.negate()):
            assert dnf_size(prop_nnf(e)) == len(prop_to_dnf(e))
