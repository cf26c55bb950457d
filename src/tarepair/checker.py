"""Zone-based reachability checking with shortest diagnostic traces.

Exploration is a breadth-first search over (location vector, extrapolated
zone) states, so a Violated verdict carries a trace of minimal transition
count. Enabled moves are enumerated in lexicographic (automaton index,
transition index) order, which makes the reported trace deterministic; a
send finds its partners among the automata that receive on its channel
(``MoveIndex``). Urgency is enforced directly: when any current location is
urgent, the delay closure is skipped. A ``MoveTable`` compiles each
location vector's moves once per exploration, each from pieces compiled
once per table on first use (a transition's target, guard edges, resets
and label; a location's invariant edges), and gives each distinct zone and
each distinct location vector of its pool one small int id. The explorers
key their visited states and the memos by (vector id, zone id), so a
zone's raw bounds are hashed once per successor computed, not on every
lookup. ``MoveTable.post`` computes the successor of each zone under each
distinct compiled step once, in two memoized stages. The first memo, one
per step, serves a zone the step has seen: interleavings of independent
processes reach the same zone at location vectors whose moves compile to
the same step. On a miss, ``dbm.jump`` applies the guard and the resets,
and a second memo, shared by every step with the same target invariants
and delay, serves the jumped zone's ``dbm.settle`` (invariants, delay,
extrapolation): a reset forgets a clock, so different zones meet after it.
A table extrapolates at one constant k (classic) or at per-clock lower and
upper bounds (Extra⁺_LU, see ``dbm``). A table may share another's pool of
zones, vectors and both memos (``MoveTable``'s ``share``) when both
extrapolate alike, as the two zone graphs of one admissibility check do: a
repair leaves most steps as they were, so the repaired network's table
also takes the share's compiled moves: each move that fires no edited
transition and enters no changed location. ``check`` keeps a table of its
own, at classic k, serves memo hits inline and calls the miss half of
``post`` itself. It tests the property when a state is generated,
deciding the negated property's location literals once per location
vector (``PropertyExpr.negated_atoms_at``), and reports in
``states_explored`` the rank at which a dequeue-time search would have
reached the violating state.
An id means something only inside its pool: no verdict or trace carries
one, and ``check`` maps vector ids back to vectors only to build a trace.
``replay``, the repair loop's contract re-check, walks one given trace
with no table: each step that ``is_enabled`` accepts goes straight to
``dbm.jump`` and ``dbm.settle`` at the same classic k, since a trace takes
each successor once. It shares no encoding with the search's trace system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import dbm
from .model import (
    SafetyProperty,
    SyncKind,
    TimedAutomatonNetwork,
    constant_scale,
    max_constant,
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
    None) and send transitions leaving location li of automaton ai, in
    transition order. ``receivers[channel]`` lists ``(aj, by_location)`` for
    each automaton aj that receives on the channel, in automaton order:
    ``by_location[lj]`` holds aj's receive transitions on it that leave lj,
    in transition order.
    """

    def __init__(self, network: TimedAutomatonNetwork) -> None:
        self.outgoing: list[list[list[tuple[int, int | None]]]] = []
        self.receivers: list[list[tuple[int, list[list[int]]]]] = [[] for _ in network.channel_names]
        for ai, auto in enumerate(network.automata):
            outgoing = [[] for _ in range(auto.n_locations)]
            receives: dict[int, list[list[int]]] = {}  # channel -> per location: receive transitions
            for ti, t in enumerate(auto.transitions):
                if t.sync == SyncKind.RECEIVE:
                    if t.channel not in receives:
                        receives[t.channel] = [[] for _ in range(auto.n_locations)]
                    receives[t.channel][t.source].append(ti)
                else:
                    outgoing[t.source].append((ti, t.channel if t.sync == SyncKind.SEND else None))
            self.outgoing.append(outgoing)
            for channel, by_location in receives.items():
                self.receivers[channel].append((ai, by_location))

    def enabled(self, locvec: tuple[int, ...]):
        """Structurally enabled moves from a location vector, in deterministic order.

        Moves come in lexicographic (automaton, transition) order of the
        internal or sending transition, then of the receiver. Internal moves
        yield one (automaton, transition) pair; handshakes yield the sender
        pair followed by the receiver pair. A send reads only the automata
        that receive on its channel.
        """
        receivers = self.receivers
        for ai, li in enumerate(locvec):
            for ti, channel in self.outgoing[ai][li]:
                if channel is None:
                    yield ((ai, ti),)
                    continue
                for aj, by_location in receivers[channel]:
                    if aj != ai:
                        for tj in by_location[locvec[aj]]:
                            yield ((ai, ti), (aj, tj))


def is_enabled(network: TimedAutomatonNetwork, locvec: tuple[int, ...], step) -> bool:
    """Is ``step``, sorted (automaton, transition) pairs, a move that
    ``MoveIndex.enabled`` lists at ``locvec``: one internal transition, or
    a send and a receive on one channel by two automata, each leaving its
    automaton's location there?"""
    transitions = []
    for ai, ti in step:
        if not (0 <= ai < len(network.automata) and 0 <= ti < len(network.automata[ai].transitions)):
            return False
        t = network.automata[ai].transitions[ti]
        if t.source != locvec[ai]:
            return False
        transitions.append(t)
    if len(step) == 1:
        return transitions[0].sync == SyncKind.INTERNAL
    if len(step) != 2 or step[0][0] >= step[1][0]:  # two automata, sorted
        return False
    syncs = {t.sync for t in transitions}
    return syncs == {SyncKind.SEND, SyncKind.RECEIVE} and transitions[0].channel == transitions[1].channel


def move_label(network: TimedAutomatonNetwork, move) -> str | None:
    """Channel name of a handshake move; None for internal (silent) moves."""
    t = network.automata[move[0][0]].transitions[move[0][1]]
    return None if t.channel is None else network.channel_names[t.channel]


_UNSEEN = object()


class _StepMemo(dict):
    """One step's memo, from a zone's id to its successor's id, None where the
    successor is empty. ``settled`` is the memo of ``dbm.settle`` that the
    step shares with every step of the same (invariants, delay): from a
    jumped zone's raw bounds to its successor's id, or None."""

    __slots__ = ("settled",)


class MoveTable:
    """The moves of one network compiled for one exploration at ``k`` and ``scale``.

    A pool interns zones and location vectors: ``zones`` lists each
    distinct zone once, and its index there is the zone's id; ``vectors``
    does the same for location vectors and their vector ids. Both ids are
    ints that mean something only inside the pool. The initial zero zone
    and each ``dbm.settle`` result are interned once, and so is each
    vector a move enters, so the explorers key their memos and visited
    states by (vector id, zone id) and hash a zone's raw bounds once per
    successor computed.

    ``moves(vid)`` lists, once per location vector and in
    ``MoveIndex.enabled`` order, a tuple per enabled move: the move, its
    label, the target's vector id, its step and the step's memo. The step holds
    the arguments of ``dbm.jump`` and ``dbm.settle`` after the zone: the
    guard as raw ``dbm.atom_edges``, the sorted reset matrix indices, the
    target's invariant edges and whether it may delay (no location of it is
    urgent).
    Each step is put together from pieces compiled once per table, on first
    use: a transition's target, guard edges, sorted reset indices and label,
    and a location's invariant edges; a handshake joins the sender's piece
    and the receiver's. Moves that compile to equal steps share one memo, a
    dict from a zone's id to its successor's id, for the pool's lifetime;
    steps with equal (invariants, delay) share one memo of ``dbm.settle``,
    from a jumped zone's raw bounds to its successor's id. All zones of one
    pool share its clock count and scale, so the raw bounds alone key both
    the interning and the settle memos.

    ``k`` selects the extrapolation: an int is the constant of classic
    extrapolation, and a pair of per-clock (L, U) int tuples selects
    Extra⁺_LU, which ``dbm.settle`` takes as ``dbm.lu_thresholds`` at
    ``scale``.

    ``share``, another table, lends its pool (zones, vectors and memos) and
    its thresholds to this one when both have the same clock count, scale and
    ``k`` (for Extra⁺_LU the same (L, U) tuples, so the same raw
    thresholds): ``dbm.jump`` and ``dbm.settle`` are then functions of the
    raw bounds and the step alone, so a step both networks compile is
    computed once for both. Otherwise this table starts its own pool; a raw
    bound means a different constant at another scale. A table that shares
    the pool of a network of the same structure (repairs change no
    automaton, location, transition source, target, sync or channel, nor a
    channel name) also takes its ``MoveIndex`` and the edits of each
    automaton that is not the same object in both networks
    (``_dirty_locations``): the transitions whose guard or resets differ
    and the locations whose invariant or urgency differs. A move's step
    reads the pieces of the transitions it fires and the invariants and
    urgency of the vector it enters, so a move that fires no edited
    transition and enters no changed location compiles to the share's
    entry. ``moves`` returns the share's list itself at a location vector
    where no move can read an edit (no location of it is changed, nor the
    source of an edited transition or of one entering a changed location),
    and elsewhere a list of the share's entries with each move that reads
    an edit compiled again. Its entries name their targets by vector ids of
    the pool both tables use.
    """

    def __init__(
        self, network: TimedAutomatonNetwork, k, scale: int, share: MoveTable | None = None
    ) -> None:
        self.network = network
        self.k = k
        self.scale = scale
        # Per transition and per location, the pieces of the steps, compiled on first use.
        self._transitions: list[list[tuple | None]] = [[None] * len(auto.transitions) for auto in network.automata]
        self._invariants: list[list[tuple | None]] = [[None] * auto.n_locations for auto in network.automata]
        self._vectors: dict[tuple[int, ...], tuple[int, tuple, bool]] = {}  # vector -> (id, invariant edges, may delay)
        self._moves: dict[int, list[tuple]] = {}  # vector id -> its compiled moves
        self._share: MoveTable | None = None  # the table whose compiled moves this one reuses
        self._edited: frozenset[tuple[int, int]] = frozenset()  # (automaton, transition) edited
        self._changed: list[tuple[int, frozenset[int]]] = []  # (automaton, locations changed)
        self._dirty: list[tuple[int, frozenset[int]]] = []  # (automaton, locations an edit is read at)
        shape = (network.n_clocks, scale, k)
        if share is not None and (share.network.n_clocks, share.scale, share.k) == shape:
            self._extrapolation = share._extrapolation  # the last argument of dbm.settle
            self.zones: list[dbm.DifferenceBoundMatrix] = share.zones  # id -> zone
            self._zone_ids: dict[tuple[int, ...], int] = share._zone_ids  # raw bounds -> id
            self.vectors: list[tuple[int, ...]] = share.vectors  # vector id -> location vector
            self._vector_ids: dict[tuple[int, ...], int] = share._vector_ids  # location vector -> id
            self._memos: dict[tuple, _StepMemo] = share._memos  # step -> its memo
            self._settled: dict[tuple, dict] = share._settled  # (invariants, delay) -> its memo
            dirty = _dirty_locations(share.network, network)
        else:
            self._extrapolation = k if type(k) is int else dbm.lu_thresholds(k, scale)
            self.zones, self._zone_ids, self._memos, self._settled = [], {}, {}, {}
            self.vectors, self._vector_ids = [], {}
            dirty = None
        if dirty is None:
            self._index = MoveIndex(network)
        else:
            self._index, self._share = share._index, share
            self._edited = frozenset((ai, ti) for ai, edited, _ in dirty for ti in edited)
            self._changed = [(ai, changed) for ai, _, changed in dirty if changed]
            for ai, edited, changed in dirty:
                transitions = network.automata[ai].transitions
                sources = {transitions[ti].source for ti in edited}
                sources.update(t.source for t in transitions if t.target in changed)
                self._dirty.append((ai, changed | sources))

    def _intern(self, zone: dbm.DifferenceBoundMatrix | None) -> int | None:
        """The id of ``zone`` in the pool, added on first sight; None for None."""
        if zone is None:
            return None
        zid = self._zone_ids.get(zone.m)
        if zid is None:
            zid = self._zone_ids[zone.m] = len(self.zones)
            self.zones.append(zone)
        return zid

    def post(self, zid: int, step: tuple, memo: _StepMemo) -> int | None:
        """The id of the extrapolated successor of zone ``zid`` under ``step``,
        None where it is empty; computed once per zone and kept in ``step``'s
        ``memo``, and settled once per jumped zone and kept in
        ``memo.settled``."""
        z = memo.get(zid, _UNSEEN)
        return self._miss(zid, step, memo) if z is _UNSEEN else z

    def _miss(self, zid: int, step: tuple, memo: _StepMemo) -> int | None:
        """``post`` for a zone ``memo`` has not seen: computes the successor
        and keeps it in ``memo``."""
        guard, resets, invariants, delay = step
        zone = self.zones[zid]
        jumped = dbm.jump(zone, guard, resets)
        if jumped is None:
            z = None
        else:
            key = tuple(jumped)
            settled = memo.settled
            z = settled.get(key, _UNSEEN)
            if z is _UNSEEN:
                z = settled[key] = self._intern(dbm.settle(zone, jumped, invariants, delay, self._extrapolation))
        memo[zid] = z
        return z

    def _memo(self, step: tuple) -> _StepMemo:
        """The pool's memo of ``step``, made on first use."""
        memo = self._memos.get(step)
        if memo is None:
            memo = self._memos[step] = _StepMemo()
            memo.settled = self._settled.setdefault(step[2:], {})
        return memo

    def _transition(self, ai: int, ti: int) -> tuple:
        """(target, guard edges, sorted reset matrix indices, label) of transition
        ti of automaton ai, compiled into ``_transitions``."""
        t = self.network.automata[ai].transitions[ti]
        piece = self._transitions[ai][ti] = (
            t.target,
            tuple(e for a in t.guard for e in dbm.atom_edges(a, self.scale)),
            tuple(sorted([c + 1 for c in t.resets])) if t.resets else (),
            None if t.channel is None else self.network.channel_names[t.channel],
        )
        return piece

    def _vector(self, locvec: tuple[int, ...]) -> tuple[int, tuple, bool]:
        """(vector id, invariant edges, may delay) of one location vector: its
        id in the pool, added on first sight, the concatenated invariant
        edges of its locations, and whether none of them is urgent."""
        entry = self._vectors.get(locvec)
        if entry is None:
            autos = self.network.automata
            compiled = self._invariants
            invariants, delay = (), True
            for ai, li in enumerate(locvec):
                edges = compiled[ai][li]
                if edges is None:
                    edges = compiled[ai][li] = tuple(
                        e for a in autos[ai].invariants[li] for e in dbm.atom_edges(a, self.scale)
                    )
                invariants += edges
                if li in autos[ai].urgent:
                    delay = False
            vid = self._vector_ids.get(locvec)
            if vid is None:
                vid = self._vector_ids[locvec] = len(self.vectors)
                self.vectors.append(locvec)
            entry = self._vectors[locvec] = (vid, invariants, delay)
        return entry

    def compile(self, locvec: tuple[int, ...], move) -> tuple:
        """The ``moves`` entry of one enabled move from ``locvec``."""
        target = list(locvec)
        ai, ti = move[0]
        tgt, guard, resets, label = self._transitions[ai][ti] or self._transition(ai, ti)
        target[ai] = tgt
        if len(move) == 2:  # a handshake: the receiver's piece after the sender's
            aj, tj = move[1]
            tgt, edges, clocks, _ = self._transitions[aj][tj] or self._transition(aj, tj)
            target[aj] = tgt
            guard += edges
            if clocks:
                resets = tuple(sorted({*resets, *clocks})) if resets else clocks
        vid, invariants, delay = self._vector(tuple(target))
        step = (guard, resets, invariants, delay)
        return move, label, vid, step, self._memo(step)

    def moves(self, vid: int) -> list[tuple]:
        """The compiled enabled moves of the location vector of id ``vid``. With
        a share: its list where no location of the vector is dirty, and
        elsewhere its entries with each move that fires an edited transition
        or enters a changed location compiled again."""
        entries = self._moves.get(vid)
        if entries is None:
            locvec = self.vectors[vid]
            if self._share is None:
                entries = [self.compile(locvec, move) for move in self._index.enabled(locvec)]
            elif not any(locvec[ai] in dirty for ai, dirty in self._dirty):
                entries = self._share.moves(vid)
            else:
                edited, changed, vectors = self._edited, self._changed, self.vectors
                entries = []
                for entry in self._share.moves(vid):
                    move = entry[0]
                    if (
                        move[0] in edited
                        or move[-1] in edited
                        or changed and any(vectors[entry[2]][ai] in locations for ai, locations in changed)
                    ):
                        entry = self.compile(locvec, move)
                    entries.append(entry)
            self._moves[vid] = entries
        return entries

    def initial_state(self):
        """The initial symbolic state as (vector id, zone id), or None where the
        initial valuation violates the initial locations' invariants (the
        network has no run)."""
        vid, invariants, delay = self._vector(tuple(a.initial for a in self.network.automata))
        zero = self._intern(dbm.zero_zone(self.network.n_clocks, self.scale))
        step = ((), (), invariants, delay)
        zid = self.post(zero, step, self._memo(step))
        return None if zid is None else (vid, zid)


def _dirty_locations(original: TimedAutomatonNetwork, network: TimedAutomatonNetwork):
    """Per automaton of ``network`` that is not the same object in
    ``original``, what its edits change in the compiled moves: the
    transitions whose guard or resets differ, and the locations whose
    invariant or urgency differs. Listed as (automaton, edited transitions,
    changed locations) where either is non-empty; None when the two
    networks differ in structure (automata, locations, any transition's
    source, target, sync or channel, or the channel names), which repairs
    never change."""
    if original.channel_names != network.channel_names or len(original.automata) != len(network.automata):
        return None
    out = []
    for ai, (a, b) in enumerate(zip(original.automata, network.automata)):
        if a is b:
            continue
        if a.n_locations != b.n_locations or len(a.transitions) != len(b.transitions):
            return None
        changed = frozenset(
            li
            for li in range(b.n_locations)
            if a.invariants[li] != b.invariants[li] or (li in a.urgent) != (li in b.urgent)
        )
        edited = set()
        for ti, (ta, tb) in enumerate(zip(a.transitions, b.transitions)):
            if (ta.source, ta.target, ta.sync, ta.channel) != (tb.source, tb.target, tb.sync, tb.channel):
                return None
            if ta.guard != tb.guard or ta.resets != tb.resets:
                edited.add(ti)
        if edited or changed:
            out.append((ai, frozenset(edited), changed))
    return out


DEFAULT_STATE_BUDGET = 20_000


def check(
    network: TimedAutomatonNetwork,
    prop: SafetyProperty,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Verdict:
    """Decide invariance of ``prop``; a violation yields a shortest trace.

    The verdict is Safe iff no reachable symbolic state intersects the
    negated property. The property is tested once per state, when the state
    is generated: the initial state before the search, and each successor
    when it is first reached. Breadth-first search dequeues states in the
    order it generates them, so the first violating state generated is the
    first one the search would dequeue, and its trace is a shortest one.
    ``states_explored`` is what a search that tests each state when it is
    dequeued would count: on a Violated verdict the violating state's rank
    in breadth-first order (this search stops when it generates the state,
    before it dequeues the states still queued ahead of it), and on a Safe
    verdict every reachable state. Raises Exhausted once that count passes
    ``state_budget``.
    """
    k = max_constant(network, prop)
    table = MoveTable(network, k, constant_scale(network, prop))
    init = table.initial_state()
    if init is None:
        # No reachable states, so the property holds vacuously.
        return Verdict(True, None, 0)
    vectors, zones = table.vectors, table.zones
    parents: dict = {init: None}  # (vector id, zone id) -> (parent state, move)
    hits_at: dict[int, tuple] = {}  # vector id -> prop.negated_atoms_at(its vector)

    def violates(vid: int, zid: int) -> bool:
        hits = hits_at.get(vid)
        if hits is None:
            hits = hits_at[vid] = prop.negated_atoms_at(vectors[vid])
        return bool(hits) and any(dbm.intersects(zones[zid], atoms) for atoms in hits)

    def violated(state, rank: int) -> Verdict:
        if rank > state_budget:
            raise Exhausted(f"state budget of {state_budget} exceeded")
        path = [state]  # the states from here back to the initial one
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]][0])
        path.reverse()
        steps = tuple(tuple(sorted(parents[s][1])) for s in path[1:])
        return Verdict(False, SymbolicTimedTrace(steps, tuple(vectors[s[0]] for s in path)), rank)

    if violates(*init):
        return violated(init, 1)
    queue = deque([init])
    explored = 0
    moves, miss = table.moves, table._miss
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > state_budget:
            raise Exhausted(f"state budget of {state_budget} exceeded")
        zid = state[1]
        for move, _label, target, step, memo in moves(state[0]):
            z = memo.get(zid, _UNSEEN)
            if z is _UNSEEN:
                z = miss(zid, step, memo)
            if z is None:
                continue
            nxt = (target, z)
            if nxt in parents:
                continue
            parents[nxt] = (state, move)
            if violates(target, z):
                return violated(nxt, explored + len(queue) + 1)
            queue.append(nxt)
    return Verdict(True, None, explored)


def replay(network: TimedAutomatonNetwork, prop: SafetyProperty, stt: SymbolicTimedTrace) -> tuple[bool, bool]:
    """(feasible, violating) of a trace, replayed on ``network`` with zones.

    Walks only the trace's steps, each straight through ``dbm.jump`` and
    ``dbm.settle`` (no ``MoveTable``, no memo: every successor is computed
    once, as the trace takes it), and raises ValueError at the first step
    that is no enabled move (``is_enabled``). The trace is feasible when
    every successor is non-empty, and violating when the final zone, the
    clock values after the last delay, meets the negated property at the
    final locations. Every atom is diagonal-free, so extrapolation at ``k =
    max_constant(network, prop)`` changes neither the emptiness of a
    successor nor the meet with the property.
    """
    k = max_constant(network, prop)
    scale = constant_scale(network, prop)
    autos = network.automata

    def settled(zone, jumped, locvec):
        invariants = [
            e for ai, li in enumerate(locvec) for a in autos[ai].invariants[li] for e in dbm.atom_edges(a, scale)
        ]
        delay = not any(li in autos[ai].urgent for ai, li in enumerate(locvec))
        return dbm.settle(zone, jumped, invariants, delay, k)

    locvec = tuple(a.initial for a in autos)
    zone = dbm.zero_zone(network.n_clocks, scale)
    zone = settled(zone, list(zone.m), locvec)
    for j, step in enumerate(stt.steps):
        if zone is None:
            return False, False
        if not is_enabled(network, locvec, step):
            raise ValueError(f"step {j} is no enabled move of the network")
        target = list(locvec)
        guard, resets = [], set()
        for ai, ti in step:
            t = autos[ai].transitions[ti]
            target[ai] = t.target
            guard.extend(e for a in t.guard for e in dbm.atom_edges(a, scale))
            resets.update(c + 1 for c in t.resets)
        locvec = tuple(target)
        jumped = dbm.jump(zone, guard, sorted(resets))
        zone = None if jumped is None else settled(zone, jumped, locvec)
    if zone is None:
        return False, False
    return True, any(dbm.intersects(zone, atoms) for atoms in prop.negated_atoms_at(locvec))


def stt_from_moves(network: TimedAutomatonNetwork, moves) -> SymbolicTimedTrace:
    """Build an STT from a raw move list, replaying location vectors.

    Raises ValueError for a step that is no enabled move: one internal
    transition, or one matching send/receive pair, leaving the current
    location vector.
    """
    steps = tuple(tuple(sorted(m)) for m in moves)
    locations = [tuple(a.initial for a in network.automata)]
    for j, step in enumerate(steps):
        if not is_enabled(network, locations[-1], step):
            raise ValueError(f"step {j} is no enabled move of the network")
        vec = list(locations[-1])
        for ai, ti in step:
            vec[ai] = network.automata[ai].transitions[ti].target
        locations.append(tuple(vec))
    return SymbolicTimedTrace(steps, tuple(locations))
