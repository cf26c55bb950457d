"""Shared generators for randomized oracles (deterministic seeds only)."""

import json
import random
from dataclasses import replace
from fractions import Fraction

from tarepair import bundled_model_path
from tarepair.lra import Rel
from tarepair.model import AtomicClockConstraint
from tarepair.modelio import parse_model


def random_single_ta(rng: random.Random, max_clocks=3, max_const=3, max_locs=4):
    """Random one-automaton network with integral constants.

    Internal transitions only; language oracles run with visible internal
    labels so every transition contributes to the untimed language.
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
