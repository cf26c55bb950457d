"""Zone-based reachability checking with shortest diagnostic traces.

Exploration is a breadth-first search over (location vector, extrapolated
zone) states, so a Violated verdict carries a trace of minimal transition
count. Enabled moves are enumerated in lexicographic (automaton index,
transition index) order, which makes the reported trace deterministic.
Urgency is enforced directly: when any current location is urgent, the
delay closure is skipped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import dbm
from .model import (
    DnfLiteral,
    SafetyProperty,
    SyncKind,
    TimedAutomatonNetwork,
    constant_scale,
    max_constant,
    prop_to_dnf,
)


class Exhausted(Exception):
    """State budget exceeded before the search finished."""


@dataclass(frozen=True)
class SymbolicTimedTrace:
    """Action sequence of a diagnostic trace plus the visited location vectors.

    ``steps[j]`` holds the transitions fired together at step j as sorted
    (automaton, transition) pairs; ``locations`` has length len(steps) + 1.
    """

    steps: tuple[tuple[tuple[int, int], ...], ...]
    locations: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Verdict:
    safe: bool
    trace: SymbolicTimedTrace | None = None
    states_explored: int = 0


class MoveIndex:
    """The moves of one network, indexed by location; built once per exploration.

    ``outgoing[ai][li]`` lists ``(ti, channel)`` for the internal (channel
    None) and send transitions leaving location li of automaton ai, and
    ``receivers[ai][li]`` maps a channel to the receive transitions leaving
    li, both in transition order.
    """

    def __init__(self, network: TimedAutomatonNetwork) -> None:
        self.outgoing: list[list[list[tuple[int, int | None]]]] = []
        self.receivers: list[list[dict[int, list[int]]]] = []
        for auto in network.automata:
            outgoing = [[] for _ in range(auto.n_locations)]
            receivers = [{} for _ in range(auto.n_locations)]
            for ti, t in enumerate(auto.transitions):
                if t.sync == SyncKind.RECEIVE:
                    receivers[t.source].setdefault(t.channel, []).append(ti)
                else:
                    outgoing[t.source].append((ti, t.channel if t.sync == SyncKind.SEND else None))
            self.outgoing.append(outgoing)
            self.receivers.append(receivers)

    def enabled(self, locvec: tuple[int, ...]):
        """Structurally enabled moves from a location vector, in deterministic order.

        Moves come in lexicographic (automaton, transition) order of the
        internal or sending transition, then of the receiver. Internal moves
        yield one (automaton, transition) pair; handshakes yield the sender
        pair followed by the receiver pair.
        """
        receivers = self.receivers
        for ai, li in enumerate(locvec):
            for ti, channel in self.outgoing[ai][li]:
                if channel is None:
                    yield ((ai, ti),)
                    continue
                for aj, lj in enumerate(locvec):
                    if aj != ai:
                        for tj in receivers[aj][lj].get(channel, ()):
                            yield ((ai, ti), (aj, tj))

    def fires(self, locvec: tuple[int, ...], step: tuple[tuple[int, int], ...]) -> bool:
        """Is ``step``, as sorted (automaton, transition) pairs, one enabled move?"""
        return any(tuple(sorted(move)) == step for move in self.enabled(locvec))


def move_label(network: TimedAutomatonNetwork, move) -> str | None:
    """Channel name of a handshake move; None for internal (silent) moves."""
    t = network.automata[move[0][0]].transitions[move[0][1]]
    return None if t.channel is None else network.channel_names[t.channel]


def _invariant_atoms(network: TimedAutomatonNetwork, locvec) -> list:
    return [a for ai, li in enumerate(locvec) for a in network.automata[ai].invariants[li]]


def _is_urgent_vector(network: TimedAutomatonNetwork, locvec) -> bool:
    return any(li in network.automata[ai].urgent for ai, li in enumerate(locvec))


def successor(network: TimedAutomatonNetwork, locvec, zone, move, k: int):
    """Symbolic successor under one move, or None if disabled."""
    z = zone
    resets: set[int] = set()
    newvec = list(locvec)
    for ai, ti in move:
        t = network.automata[ai].transitions[ti]
        z = dbm.and_atoms(z, t.guard)
        if dbm.is_empty(z):
            return None
        resets |= t.resets
        newvec[ai] = t.target
    z = dbm.reset_many(z, resets)
    invariants = _invariant_atoms(network, newvec)
    z = dbm.and_atoms(z, invariants)
    if dbm.is_empty(z):
        return None
    if not _is_urgent_vector(network, newvec):
        z = dbm.and_atoms(dbm.up(z), invariants)
    z = dbm.extrapolate(z, k)
    return tuple(newvec), z


def initial_state(network: TimedAutomatonNetwork, k: int, scale: int):
    """Initial symbolic state; ``scale`` is the zones' (``model.constant_scale``)."""
    locvec = tuple(a.initial for a in network.automata)
    invariants = _invariant_atoms(network, locvec)
    z = dbm.and_atoms(dbm.zero_zone(network.n_clocks, scale), invariants)
    if dbm.is_empty(z):
        raise ValueError("initial state violates its own invariants")
    if not _is_urgent_vector(network, locvec):
        z = dbm.and_atoms(dbm.up(z), invariants)
    return locvec, dbm.extrapolate(z, k)


def _violates(network, locvec, zone, bad_dnf: list[list[DnfLiteral]]) -> bool:
    for disjunct in bad_dnf:
        ok = True
        atoms = []
        for lit in disjunct:
            if lit.atom is not None:
                atoms.append(lit.atom)
            elif (locvec[lit.automaton] == lit.location) != lit.positive:
                ok = False
                break
        if ok and dbm.intersects(zone, atoms):
            return True
    return False


DEFAULT_STATE_BUDGET = 20_000


def check(
    network: TimedAutomatonNetwork,
    prop: SafetyProperty,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Verdict:
    """Decide invariance of ``prop``; a violation yields a shortest trace.

    The verdict is Safe iff no reachable symbolic state intersects the
    negated property. Raises Exhausted past ``state_budget`` states.
    """
    k = max_constant(network, prop)
    bad = prop_to_dnf(prop.negate())
    try:
        init = initial_state(network, k, constant_scale(network, prop))
    except ValueError:
        # The initial state violates its own invariants: no reachable
        # states, so the property holds vacuously.
        return Verdict(True, None, 0)
    moves = MoveIndex(network)
    parents: dict = {init: None}
    queue = deque([init])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > state_budget:
            raise Exhausted(f"state budget of {state_budget} exceeded")
        locvec, zone = state
        if _violates(network, locvec, zone, bad):
            steps = []
            cur = state
            while parents[cur] is not None:
                prev, move = parents[cur]
                steps.append(move)
                cur = prev
            steps.reverse()
            locations = [tuple(a.initial for a in network.automata)]
            for move in steps:
                vec = list(locations[-1])
                for ai, ti in move:
                    vec[ai] = network.automata[ai].transitions[ti].target
                locations.append(tuple(vec))
            trace = SymbolicTimedTrace(
                tuple(tuple(sorted(m)) for m in steps), tuple(locations)
            )
            return Verdict(False, trace, explored)
        for move in moves.enabled(locvec):
            nxt = successor(network, locvec, zone, move, k)
            if nxt is None or nxt in parents:
                continue
            parents[nxt] = (state, move)
            queue.append(nxt)
    return Verdict(True, None, explored)


def stt_from_moves(network: TimedAutomatonNetwork, moves) -> SymbolicTimedTrace:
    """Build an STT from a raw move list, replaying location vectors.

    Raises ValueError for a step that is no enabled move: one internal
    transition, or one matching send/receive pair, leaving the current
    location vector.
    """
    index = MoveIndex(network)
    steps = tuple(tuple(sorted(m)) for m in moves)
    locations = [tuple(a.initial for a in network.automata)]
    for j, step in enumerate(steps):
        if not index.fires(locations[-1], step):
            raise ValueError(f"step {j} is no enabled move of the network")
        vec = list(locations[-1])
        for ai, ti in step:
            vec[ai] = network.automata[ai].transitions[ti].target
        locations.append(tuple(vec))
    return SymbolicTimedTrace(steps, tuple(locations))
