"""Reference encoding of urgency for the language tests.

``desugar_urgency`` replaces each urgent flag by a fresh clock and an
invariant, the standard encoding of urgent locations; the tests check that
the zone and region engines give the encoded network the language of the
one with flags. It is kept here, not in ``tarepair.model``, because only
tests call it.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from tarepair.model import AtomicClockConstraint, Op, TimedAutomatonNetwork


def desugar_urgency(network: TimedAutomatonNetwork) -> TimedAutomatonNetwork:
    """Remove urgent flags by the standard encoding.

    Every automaton with urgent locations gets a fresh clock p that is
    reset on each transition entering an urgent location, and each urgent
    location gets the invariant p = 0. An urgent initial location needs no
    extra reset: the fresh clock starts at 0.
    """
    if all(not a.urgent for a in network.automata):
        return network
    clock_names = list(network.clock_names)
    new_automata = []
    for auto in network.automata:
        if not auto.urgent:
            new_automata.append(auto)
            continue
        p = len(clock_names)
        base = f"_p_{auto.name}"
        name = base
        k = 0
        while name in clock_names:
            k += 1
            name = f"{base}{k}"
        clock_names.append(name)
        zero = AtomicClockConstraint(p, Op.EQ, Fraction(0))
        invariants = tuple(
            inv + (zero,) if li in auto.urgent else inv for li, inv in enumerate(auto.invariants)
        )
        transitions = tuple(
            replace(t, resets=t.resets | {p}) if t.target in auto.urgent else t
            for t in auto.transitions
        )
        new_automata.append(
            replace(
                auto,
                invariants=invariants,
                transitions=transitions,
                urgent=frozenset(),
                clocks=auto.clocks | {p},
            )
        )
    return TimedAutomatonNetwork(tuple(new_automata), tuple(clock_names), network.channel_names)
