"""Untimed-language equivalence of networks (the admissibility test).

A repair is admissible iff the repaired network has the same untimed
language as the network it was computed for. The language is the
prefix-closed set of channel-action sequences observable in runs: every
state accepts, internal transitions are silent and removed by
epsilon-closure. A zone graph is extrapolated by Extra⁺_LU (Behrmann,
Bouyer, Larsen & Pelánek, STTT 2006) at per-clock lower and upper bounds at
least its network's own (``TimedAutomatonNetwork.clock_bounds``): the
abstraction comes from a time-abstract simulation, so it keeps the untimed
language, and far fewer zones tell the same runs apart than under one
constant k for every clock. The two graphs of a check take the per-clock
maximum of both networks' bounds (``shared_bounds``), so that they can
share one pool. A network whose initial valuation violates its initial
invariants has no run, so its language is empty: it does not even contain
the empty word.

The check runs on the fly: ``equivalent`` searches two ``ZoneGraph``s,
which expand a state on the first query for its successors, so an unequal
pair stops at a shortest witness and only an equal pair expands both graphs
in full. Each subset pair reads its states' successors once, grouped by
label, and visits only the labels that leave one of its subsets.
``Exhausted`` thus means that the states the check needs exceed
``UNTIMED_STATE_BUDGET``. ``build_untimed`` expands a graph in full.

There is one automaton type, ``UntimedAutomaton``: per state, a map from
each label leaving it to its targets. A ``ZoneGraph`` is one filled on
demand; it keys its states by (location vector, zone id), the id of the
zone in its ``MoveTable``'s pool, and ids never leave the graph.

A repair edits one constraint, reset or urgency flag, so the two networks
compile almost every move to the same step. The repaired graph of
``check_admissible`` therefore shares the original's pool of zones and of
step and settle memos (``MoveTable``'s ``share``), which serves a step of
either graph once.
The table shares only at the same clock count, scale and bounds: a raw
bound means another constant at another scale. The pool lives as long as
the original's graph: one check, or one ``original_cache`` (a repair run's,
or one shared by every kind's run on the same network).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .checker import Exhausted, MoveTable
from .model import TimedAutomatonNetwork, constant_scale

SILENT = None  # edge label of internal moves


class UntimedAutomaton:
    """Finite automaton over action labels; all states accepting.

    ``expand(s)`` maps each label leaving state ``s`` to its targets, in
    edge order. State 0 is initial; with no states the automaton accepts no
    word at all, not even the empty one.
    """

    initial = 0

    def __init__(self, by_label: list[dict[str | None, list[int]]]) -> None:
        self._by_label = by_label  # per state: label -> targets

    @property
    def n_states(self) -> int:
        return len(self._by_label)

    def successors(self, state: int, label: str | None) -> list[int]:
        return self.expand(state).get(label, [])

    def expand(self, state: int) -> dict[str | None, list[int]]:
        """The successors of ``state`` by label."""
        return self._by_label[state]


# Most states a zone graph may discover; past it ``ZoneGraph`` raises Exhausted.
UNTIMED_STATE_BUDGET = 5_000


class ZoneGraph(UntimedAutomaton):
    """The Extra⁺_LU zone graph of a network, expanded on demand.

    ``bounds`` is the per-clock (L, U) pair of int tuples the zones are
    extrapolated at, by default the network's own ``clock_bounds``; any
    bounds at least those give the same language. States are (location
    vector, zone id) keys numbered in discovery order, the initial one 0;
    there are none when the network has no run. The first ``expand`` of a
    state builds its label map: each of its moves in ``MoveTable`` order
    takes its successor's id from ``MoveTable.post``. A move's label is its
    channel name; an internal move is silent, or with ``visible_internal``
    named "auto.tN" after its transition. ``share``, another graph, passes
    its ``table`` to this one's ``MoveTable``, which reuses its pool of
    zones and memos where clock count, scale and bounds match.
    """

    def __init__(
        self,
        network: TimedAutomatonNetwork,
        bounds: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
        visible_internal: bool = False,
        share: ZoneGraph | None = None,
    ) -> None:
        self.network = network
        self.visible_internal = visible_internal
        bounds = network.clock_bounds if bounds is None else bounds
        self.table = MoveTable(network, bounds, constant_scale(network), None if share is None else share.table)
        init = self.table.initial_state()
        self._keys = [] if init is None else [init]  # per state: (location vector, zone id in the pool)
        self._ids = {key: sid for sid, key in enumerate(self._keys)}
        super().__init__([None] * len(self._keys))  # None until expanded

    def expand(self, sid: int) -> dict[str | None, list[int]]:
        """The successors of state ``sid`` by label, computed on the first call."""
        out = self._by_label[sid]
        if out is not None:
            return out
        locvec, zid = self._keys[sid]
        out = {}
        post = self.table.post
        for move, label, target, step, memo in self.table.moves(locvec):
            z = post(zid, step, memo)
            if z is None:
                continue
            nxt = (target, z)
            tid = self._ids.get(nxt)
            if tid is None:
                if len(self._keys) >= UNTIMED_STATE_BUDGET:
                    raise Exhausted(f"zone graph exceeded {UNTIMED_STATE_BUDGET} states")
                tid = self._ids[nxt] = len(self._keys)
                self._keys.append(nxt)
                self._by_label.append(None)
            if label is None and self.visible_internal:
                ai, ti = move[0]
                label = f"{self.network.automata[ai].name}.t{ti}"
            out.setdefault(label, []).append(tid)
        self._by_label[sid] = out
        return out


def build_untimed(
    network: TimedAutomatonNetwork,
    bounds: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    visible_internal: bool = False,
) -> ZoneGraph:
    """The zone graph at ``bounds`` (``ZoneGraph``), edges labeled by channel,
    expanded in full.

    ``visible_internal`` names internal moves "auto.tN" instead of silencing
    them; the language oracles use this to compare transition structure.
    """
    graph = ZoneGraph(network, bounds, visible_internal)
    sid = 0
    while sid < graph.n_states:  # expanding a state appends the states it discovers
        graph.expand(sid)
        sid += 1
    return graph


def _closure(ua: UntimedAutomaton, states) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    successors = ua.successors
    while stack:
        for t in successors(stack.pop(), SILENT):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def _start(ua: UntimedAutomaton) -> frozenset[int]:
    """States reached by the empty word; none for an automaton without states."""
    return _closure(ua, frozenset([ua.initial])) if ua.n_states else frozenset()


def _label_targets(ua: UntimedAutomaton, states: frozenset[int]) -> dict[str, set[int]]:
    """The targets of each visible label leaving ``states``, before closure."""
    out: dict[str, set[int]] = {}
    expand = ua.expand
    for s in states:
        for label, targets in expand(s).items():
            if label is SILENT:
                continue
            if label in out:
                out[label].update(targets)
            else:
                out[label] = set(targets)
    return out


@dataclass(frozen=True)
class Equivalence:
    equal: bool
    witness: tuple[str, ...] | None = None  # accepted by exactly one side


# State pairs that equivalent() visits before it gives up.
PAIR_BUDGET = 200_000


def equivalent(a: UntimedAutomaton, b: UntimedAutomaton) -> Equivalence:
    """Language equality via on-the-fly determinization and pairwise search.

    ``a`` and ``b`` are ``UntimedAutomaton``s, such as ``ZoneGraph``s. Both
    languages are prefix closed with every state accepting, so the
    languages differ exactly when some word is extendable in one automaton
    and dead in the other; breadth-first pairing returns a shortest such
    word as the witness. Each pair visits, in sorted order, the labels that
    leave either subset: a label that leaves only one of them ends the
    word, and only a label both take is closed into a successor pair.
    """
    start = (_start(a), _start(b))
    if bool(start[0]) != bool(start[1]):
        return Equivalence(False, ())  # exactly one side has no run
    seen = {start}
    queue: deque = deque([(start, ())])
    visited = 0
    while queue:
        (pa, pb), word = queue.popleft()
        visited += 1
        if visited > PAIR_BUDGET:
            raise Exhausted(f"equivalence check exceeded {PAIR_BUDGET} state pairs")
        ma, mb = _label_targets(a, pa), _label_targets(b, pb)
        for label in sorted(ma.keys() | mb.keys()):
            if label not in ma or label not in mb:
                return Equivalence(False, word + (label,))
            pair = (_closure(a, ma[label]), _closure(b, mb[label]))
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (label,)))
    return Equivalence(True)


def shared_bounds(original: TimedAutomatonNetwork, repaired: TimedAutomatonNetwork):
    """The (L, U) bounds of each graph of ``check_admissible``, (original's,
    repaired's): per clock, the larger of the two networks' ``clock_bounds``
    for both, so that they can share a pool; each network's own where the
    clock counts differ, and then they share nothing."""
    own, other = original.clock_bounds, repaired.clock_bounds
    if own == other:
        return own, own
    (la, ua), (lb, ub) = own, other
    if len(la) != len(lb):
        return own, other
    both = tuple(map(max, la, lb)), tuple(map(max, ua, ub))
    return both, both


def check_admissible(
    original: TimedAutomatonNetwork,
    repaired: TimedAutomatonNetwork,
    original_cache: dict[tuple, ZoneGraph] | None = None,
) -> Equivalence:
    """Admissibility check of a repaired network, on the fly, at ``shared_bounds``.

    The repaired graph shares the original's pool of memos (``ZoneGraph``'s
    ``share``) where their scales and bounds match, so a successor both
    graphs take is computed once. ``original_cache`` keeps the original's
    ``ZoneGraph`` per (L, U) bounds across the candidates of one network's
    repair runs, so the states each check expands, and the successors its
    move table (and each earlier repaired graph) has computed, serve the
    next.
    """
    bounds, repaired_bounds = shared_bounds(original, repaired)
    if original_cache is not None and bounds in original_cache:
        ga = original_cache[bounds]
    else:
        ga = ZoneGraph(original, bounds)
        if original_cache is not None:
            original_cache[bounds] = ga
    return equivalent(ga, ZoneGraph(repaired, repaired_bounds, share=ga))
