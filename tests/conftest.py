"""Shared generators for randomized oracles (deterministic seeds only)."""

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

from tarepair import bundled_model_path
from tarepair.lra import Rel
from tarepair.model import AtomicClockConstraint
from tarepair.modelio import parse_model
from tarepair.variations import VariationVariable, VariedSystem, vary_resets


def atom_text(atom) -> str:
    """A ``LinearAtom`` printed as ``sum rel const``, e.g. ``d1 + d2 <= 4``."""
    if not atom.coeffs:
        lhs = "0"
    else:
        parts = []
        for v, c in atom.coeffs:
            if c == 1:
                parts.append(f"+ {v}")
            elif c == -1:
                parts.append(f"- {v}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{v}")
        lhs = " ".join(parts).lstrip("+ ")
    return f"{lhs} {atom.rel.value} {atom.const}"


def reset_toggles(sys) -> dict[tuple[int, int, int], bool]:
    """Every (automaton, transition, clock) reset toggle the trace offers, in
    the order ``vary_resets`` gives its variables, and whether it is live.

    A toggle is dead when no row of the trace system or of the negated
    property reads its clock after the first step where its transition
    fires. Written apart from ``vary_resets``, as the reference that its
    enumeration and its filter of dead toggles are compared against.
    """
    automata, steps = sys.network.automata, sys.stt.steps
    last_read = {}
    for row in itertools.chain(sys.atoms, *sys.negated_property):
        last_read[row.clock] = max(last_read.get(row.clock, -1), row.step)
    toggles = {}
    for move in steps:
        for c in range(sys.network.n_clocks):
            declaring = [(ai, ti) for ai, ti in move if c in automata[ai].clocks]
            resetting = [(ai, ti) for ai, ti in declaring if c in automata[ai].transitions[ti].resets]
            for ai, ti in resetting or declaring[:1]:
                first = next(j for j, other in enumerate(steps) if (ai, ti) in other)
                toggles.setdefault((ai, ti, c), last_read.get(c, -1) > first)
    return toggles


def every_reset_toggle(sys) -> VariedSystem:
    """The reset kind's varied system with a variable for every offered
    toggle: ``vary_resets``'s own for the live ones, and one built directly
    for each dead one."""
    live = {v.anchor: v for v in vary_resets(sys).variables}
    variables = tuple(
        live.get(a) or VariationVariable("rv{}_{}_{}".format(*a), a, (False, True), False, f"dead reset toggle {a}")
        for a in reset_toggles(sys)
    )
    return VariedSystem(sys, "reset", variables)


def random_single_ta(rng: random.Random, max_clocks=3, max_const=3, max_locs=4):
    """Random one-automaton network with integral constants.

    Internal transitions only; the language oracles observe them
    (``alphabet_equivalence.observed``) so every transition contributes to
    the untimed language.
    """
    n_clocks = rng.randint(1, max_clocks)
    n_locs = rng.randint(2, max_locs)
    clocks = [f"c{i}" for i in range(n_clocks)]
    locations = []
    for li in range(n_locs):
        inv = []
        if rng.random() < 0.4:
            inv.append(f"{rng.choice(clocks)} <= {rng.randint(1, max_const)}")
        locations.append({"name": f"l{li}", "invariant": inv})
    transitions = []
    for _ in range(rng.randint(1, 2 * n_locs)):
        src, tgt = rng.randrange(n_locs), rng.randrange(n_locs)
        guard = []
        if rng.random() < 0.6:
            op = rng.choice(["<=", ">=", "<", ">", "="])
            guard.append(f"{rng.choice(clocks)} {op} {rng.randint(0, max_const)}")
        transitions.append(
            {
                "source": f"l{src}",
                "target": f"l{tgt}",
                "guard": guard,
                "resets": [c for c in clocks if rng.random() < 0.25],
            }
        )
    doc = {
        "automata": [
            {
                "name": "p",
                "initial": "l0",
                "clocks": clocks,
                "locations": locations,
                "transitions": transitions,
            }
        ],
        "channels": [],
        "property": f"{clocks[0]} <= {rng.randint(0, max_const)}",
    }
    return parse_model(json.dumps(doc))


def loop_model(clocks=("x", "y"), prop="!@a.L1 || y <= 2"):
    """One automaton whose shortest violation fires the same transition twice.

    L0 (invariant x <= 1) loops on t0 (guard x >= 1, reset x) and leaves on
    t1 (guard y >= 2) for the urgent L1, so the diagnostic trace is t0, t0,
    t1. Returns the JSON document text.
    """
    doc = {
        "automata": [
            {
                "name": "a",
                "initial": "L0",
                "clocks": list(clocks),
                "locations": [
                    {"name": "L0", "invariant": ["x <= 1"]},
                    {"name": "L1", "urgent": True, "invariant": []},
                ],
                "transitions": [
                    {"source": "L0", "target": "L0", "guard": ["x >= 1"], "resets": ["x"]},
                    {"source": "L0", "target": "L1", "guard": ["y >= 2"], "resets": []},
                ],
            }
        ],
        "channels": [],
        "property": prop,
    }
    return json.dumps(doc)


def two_receiver_model():
    """One send that two receivers can take from the initial location vector.

    ``s`` sends ``go`` into the urgent ``b``. Receiver ``r1`` takes it
    under ``x >= 3`` and keeps x; receiver ``r2`` takes it under
    ``x <= 1`` and resets x. Only the handshake with ``r2`` reaches the
    violation (``s`` in ``b`` with x below 1). Returns the JSON text.
    """

    def receiver(name, guard, resets):
        transition = {"source": "p", "target": "q", "sync": "go?", "guard": guard, "resets": resets}
        return {
            "name": name,
            "initial": "p",
            "clocks": ["x", "y"],
            "locations": [{"name": "p", "invariant": []}, {"name": "q", "invariant": []}],
            "transitions": [transition],
        }

    sender = {
        "name": "s",
        "initial": "a",
        "clocks": ["x", "y"],
        "locations": [{"name": "a", "invariant": []}, {"name": "b", "urgent": True, "invariant": []}],
        "transitions": [{"source": "a", "target": "b", "sync": "go!", "guard": [], "resets": []}],
    }
    doc = {
        "automata": [sender, receiver("r1", ["x >= 3"], []), receiver("r2", ["x <= 1"], ["x"])],
        "channels": ["go"],
        "property": "!@s.b || x >= 1",
    }
    return json.dumps(doc)


def no_run_model():
    """The bundled client_db with invariant x >= 1 on the client's initial
    location, which the initial valuation x = 0 violates: the network has no
    run. Returns the JSON document text."""
    text = bundled_model_path("client_db").read_text(encoding="utf-8")
    initial = '{"name": "reqCreating", "urgent": false, "invariant": []}'
    assert initial in text
    return text.replace(initial, '{"name": "reqCreating", "urgent": false, "invariant": ["x >= 1"]}')


def scaled_model(network, prop, factor):
    """Copy of a network and property with every constant multiplied by ``factor``."""

    def atom(a):
        return AtomicClockConstraint(a.clock, a.op, a.bound * factor)

    def expr(e):
        return replace(e, atom=e.atom and atom(e.atom), children=tuple(expr(c) for c in e.children))

    automata = tuple(
        replace(
            auto,
            invariants=tuple(tuple(atom(a) for a in inv) for inv in auto.invariants),
            transitions=tuple(replace(t, guard=tuple(atom(a) for a in t.guard)) for t in auto.transitions),
        )
        for auto in network.automata
    )
    return replace(network, automata=automata), expr(prop)


def holds(atom, valuation):
    """Does a linear atom hold at ``valuation``, a value for each of its variables?"""
    lhs = sum((c * valuation[v] for v, c in atom.coeffs), Fraction(0))
    if atom.rel == Rel.LT:
        return lhs < atom.const
    if atom.rel == Rel.LE:
        return lhs <= atom.const
    return lhs == atom.const
