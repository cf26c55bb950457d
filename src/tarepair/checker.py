"""Zone-based reachability checking with shortest diagnostic traces.

Exploration is a breadth-first search over (location vector, extrapolated
zone) states, so a Violated verdict carries a trace of minimal transition
count. Enabled moves are enumerated in lexicographic (automaton index,
transition index) order, which makes the reported trace deterministic.
Urgency is enforced directly: when any current location is urgent, the
delay closure is skipped. A ``MoveTable`` compiles each location vector's
moves once per exploration, and ``dbm.post`` computes each successor.
``replay`` walks one given trace the same way: the repair loop's contract
re-check, which shares no encoding with the search's trace system.
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


class MoveTable:
    """The moves of one network compiled for one exploration at ``k`` and ``scale``.

    ``moves(locvec)`` lists, once per location vector and in
    ``MoveIndex.enabled`` order, a tuple per enabled move: the move, its
    label, the target vector, the guard as raw ``dbm.atom_edges``, the
    sorted reset matrix indices, and the target's invariant edges and
    whether it may delay (no location of it is urgent): the arguments of
    ``dbm.post`` for that move.
    """

    def __init__(self, network: TimedAutomatonNetwork, k: int, scale: int) -> None:
        self.network = network
        self.k = k
        self.scale = scale
        self._index = MoveIndex(network)
        self._transitions = [
            [
                (t.target, tuple(e for a in t.guard for e in dbm.atom_edges(a, scale)), t.resets)
                for t in auto.transitions
            ]
            for auto in network.automata
        ]
        self._vectors: dict[tuple[int, ...], tuple[tuple, bool]] = {}
        self._moves: dict[tuple[int, ...], list[tuple]] = {}

    def _vector(self, locvec: tuple[int, ...]) -> tuple[tuple, bool]:
        """(invariant edges, may delay) of one location vector."""
        entry = self._vectors.get(locvec)
        if entry is None:
            autos = self.network.automata
            invariants = tuple(
                e
                for ai, li in enumerate(locvec)
                for a in autos[ai].invariants[li]
                for e in dbm.atom_edges(a, self.scale)
            )
            delay = not any(li in autos[ai].urgent for ai, li in enumerate(locvec))
            entry = self._vectors[locvec] = (invariants, delay)
        return entry

    def moves(self, locvec: tuple[int, ...]) -> list[tuple]:
        """The compiled enabled moves of one location vector."""
        entries = self._moves.get(locvec)
        if entries is None:
            entries = self._moves[locvec] = []
            for move in self._index.enabled(locvec):
                target = list(locvec)
                guard: tuple = ()
                resets: set[int] = set()
                for ai, ti in move:
                    tgt, edges, clocks = self._transitions[ai][ti]
                    target[ai] = tgt
                    guard += edges
                    resets |= clocks
                target = tuple(target)
                invariants, delay = self._vector(target)
                label = move_label(self.network, move)
                entries.append((move, label, target, guard, sorted(c + 1 for c in resets), invariants, delay))
        return entries

    def initial_state(self):
        """The initial symbolic state, or None where the initial valuation
        violates the initial locations' invariants (the network has no run)."""
        locvec = tuple(a.initial for a in self.network.automata)
        invariants, delay = self._vector(locvec)
        zone = dbm.post(dbm.zero_zone(self.network.n_clocks, self.scale), (), (), invariants, delay, self.k)
        return None if zone is None else (locvec, zone)


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
    table = MoveTable(network, k, constant_scale(network, prop))
    init = table.initial_state()
    if init is None:
        # No reachable states, so the property holds vacuously.
        return Verdict(True, None, 0)
    parents: dict = {init: None}
    queue = deque([init])
    explored = 0
    post = dbm.post
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
        for move, _label, target, guard, resets, invariants, delay in table.moves(locvec):
            z = post(zone, guard, resets, invariants, delay, k)
            if z is None:
                continue
            nxt = (target, z)
            if nxt in parents:
                continue
            parents[nxt] = (state, move)
            queue.append(nxt)
    return Verdict(True, None, explored)


def replay(network: TimedAutomatonNetwork, prop: SafetyProperty, stt: SymbolicTimedTrace) -> tuple[bool, bool]:
    """(feasible, violating) of a trace, replayed on ``network`` with zones.

    Walks only the trace's steps with ``dbm.post``, reading the visited
    location vectors from ``stt``, so it compiles just the fired
    transitions' guards and the visited vectors' invariants. The trace is
    feasible when every successor is non-empty, and violating when the
    final zone, the clock values after the last delay, meets the negated
    property at the final locations. Every atom is diagonal-free, so
    extrapolation at ``k = max_constant(network, prop)`` changes neither
    the emptiness of a successor nor the meet with the property.
    """
    k = max_constant(network, prop)
    scale = constant_scale(network, prop)
    automata = network.automata

    def settle(locvec):
        """The arguments of ``dbm.post`` after the discrete part of a step into ``locvec``."""
        invariants = tuple(
            e for ai, li in enumerate(locvec) for a in automata[ai].invariants[li] for e in dbm.atom_edges(a, scale)
        )
        return invariants, not any(li in automata[ai].urgent for ai, li in enumerate(locvec))

    zone = dbm.post(dbm.zero_zone(network.n_clocks, scale), (), (), *settle(stt.locations[0]), k)
    for move, locvec in zip(stt.steps, stt.locations[1:]):
        if zone is None:
            break
        transitions = [automata[ai].transitions[ti] for ai, ti in move]
        guard = tuple(e for t in transitions for a in t.guard for e in dbm.atom_edges(a, scale))
        resets = sorted({c + 1 for t in transitions for c in t.resets})
        zone = dbm.post(zone, guard, resets, *settle(locvec), k)
    if zone is None:
        return False, False
    return True, _violates(network, stt.locations[-1], zone, prop_to_dnf(prop.negate()))


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
