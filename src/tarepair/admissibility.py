"""Untimed-language equivalence of networks (the admissibility test).

A repair is admissible iff the repaired network has the same untimed
language as the network it was computed for. The language is the
prefix-closed set of channel-action sequences observable in runs: every
state accepts, internal transitions are silent and removed by
epsilon-closure. Both zone graphs use one shared extrapolation constant so
their abstractions are comparable. A network whose initial valuation
violates its initial invariants has no run, so its language is empty: it
does not even contain the empty word.

The check runs on the fly: ``equivalent`` searches two ``ZoneGraph``s,
which expand a state on the first query for its successors, so an unequal
pair stops at a shortest witness and only an equal pair expands both graphs
in full. ``Exhausted`` thus means that the states the check needs exceed
``UNTIMED_STATE_BUDGET``. ``build_untimed`` expands a graph in full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from . import dbm
from .checker import Exhausted, MoveTable
from .model import TimedAutomatonNetwork, constant_scale, max_constant

SILENT = None  # edge label of internal moves


@dataclass(frozen=True)
class UntimedAutomaton:
    """Finite automaton over action labels; all states accepting.

    With no states it is ``EMPTY_LANGUAGE``, which accepts no word at all.
    """

    n_states: int
    initial: int
    alphabet: tuple[str, ...]
    edges: tuple[tuple[tuple[str | None, int], ...], ...]  # per state: (label, target)

    @cached_property
    def _by_label(self) -> tuple[dict[str | None, list[int]], ...]:
        return tuple(_group(out) for out in self.edges)

    def successors(self, state: int, label: str | None) -> list[int]:
        return self._by_label[state].get(label, [])


def _group(edges) -> dict[str | None, list[int]]:
    """Edge targets by label, each list in edge order."""
    out: dict[str | None, list[int]] = {}
    for label, target in edges:
        out.setdefault(label, []).append(target)
    return out


EMPTY_LANGUAGE = UntimedAutomaton(0, 0, (), ())

# Most states a zone graph may discover; past it ``ZoneGraph`` raises Exhausted.
UNTIMED_STATE_BUDGET = 5_000


class ZoneGraph:
    """The k-extrapolated zone graph of a network, expanded on demand.

    States are (location vector, zone) pairs numbered in discovery order,
    the initial one 0; there are none when the network has no run. The
    first ``successors`` query of a state expands it: each of its moves in
    ``MoveTable`` order goes through ``dbm.post`` once, and the targets are
    kept in ``edges`` and grouped by label. ``alphabet`` holds every label a
    move can carry, reachable or not: the channel names and, with
    ``visible_internal``, the name "auto.tN" of each internal transition.
    """

    initial = 0

    def __init__(self, network: TimedAutomatonNetwork, k: int, visible_internal: bool = False) -> None:
        self.network = network
        self.k = k
        self.visible_internal = visible_internal
        self._table = MoveTable(network, k, constant_scale(network))
        init = self._table.initial_state()
        self.states = [] if init is None else [init]
        self._ids = {state: sid for sid, state in enumerate(self.states)}
        self.edges: list[list[tuple[str | None, int]] | None] = [None] * len(self.states)
        self._by_label: list[dict[str | None, list[int]] | None] = [None] * len(self.states)
        labels = {
            network.channel_names[t.channel] if t.channel is not None else f"{a.name}.t{ti}"
            for a in network.automata
            for ti, t in enumerate(a.transitions)
            if t.channel is not None or visible_internal
        }
        self.alphabet = tuple(sorted(labels))

    @property
    def n_states(self) -> int:
        """States discovered so far."""
        return len(self.states)

    def successors(self, state: int, label: str | None) -> list[int]:
        return self.expand(state).get(label, [])

    def expand(self, sid: int) -> dict[str | None, list[int]]:
        """The successors of state ``sid`` by label, computed on the first call."""
        out = self._by_label[sid]
        if out is not None:
            return out
        locvec, zone = self.states[sid]
        edges = []
        for move, label, target, guard, resets, invariants, delay in self._table.moves(locvec):
            z = dbm.post(zone, guard, resets, invariants, delay, self.k)
            if z is None:
                continue
            nxt = (target, z)
            tid = self._ids.get(nxt)
            if tid is None:
                if len(self.states) >= UNTIMED_STATE_BUDGET:
                    raise Exhausted(f"zone graph exceeded {UNTIMED_STATE_BUDGET} states")
                tid = self._ids[nxt] = len(self.states)
                self.states.append(nxt)
                self.edges.append(None)
                self._by_label.append(None)
            if label is None and self.visible_internal:
                ai, ti = move[0]
                label = f"{self.network.automata[ai].name}.t{ti}"
            edges.append((label, tid))
        self.edges[sid] = edges
        out = self._by_label[sid] = _group(edges)
        return out


def build_untimed(
    network: TimedAutomatonNetwork,
    k: int | None = None,
    visible_internal: bool = False,
) -> UntimedAutomaton:
    """The full zone graph with k-extrapolation, edges labeled by channel.

    ``visible_internal`` names internal moves "auto.tN" instead of silencing
    them; the language oracles use this to compare transition structure.
    States keep the zone graph's discovery numbering, and the alphabet is
    the labels on its edges.
    """
    graph = ZoneGraph(network, max_constant(network) if k is None else k, visible_internal)
    if not graph.n_states:
        return EMPTY_LANGUAGE
    sid = 0
    while sid < graph.n_states:  # expanding a state appends the states it discovers
        graph.expand(sid)
        sid += 1
    edges = tuple(tuple(out) for out in graph.edges)
    alphabet = sorted({lab for out in edges for lab, _ in out if lab is not None})
    return UntimedAutomaton(len(edges), 0, tuple(alphabet), edges)


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
    """States reached by the empty word; none for the empty language."""
    return _closure(ua, frozenset([ua.initial])) if ua.n_states else frozenset()


def _post(ua: UntimedAutomaton, states: frozenset[int], label: str) -> frozenset[int]:
    successors = ua.successors
    out = set()
    for s in states:
        out.update(successors(s, label))
    return _closure(ua, out) if out else frozenset()


def accepts(ua: UntimedAutomaton, word) -> bool:
    """Is the label sequence a prefix of some run (subset simulation)?"""
    cur = _start(ua)
    for label in word:
        cur = _post(ua, cur, label)
        if not cur:
            return False
    return bool(cur)


@dataclass(frozen=True)
class Equivalence:
    equal: bool
    witness: tuple[str, ...] | None = None  # accepted by exactly one side


# State pairs that equivalent() visits before it gives up.
PAIR_BUDGET = 200_000


def equivalent(a, b) -> Equivalence:
    """Language equality via on-the-fly determinization and pairwise search.

    ``a`` and ``b`` are ``UntimedAutomaton``s or ``ZoneGraph``s. Both
    languages are prefix closed with every state accepting, so the
    languages differ exactly when some word is extendable in one automaton
    and dead in the other; breadth-first pairing returns a shortest such
    word as the witness. A label neither side takes is skipped.
    """
    alphabet = sorted(set(a.alphabet) | set(b.alphabet))
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
        for label in alphabet:
            na, nb = _post(a, pa, label), _post(b, pb, label)
            if bool(na) != bool(nb):
                return Equivalence(False, word + (label,))
            if not na:
                continue
            pair = (na, nb)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (label,)))
    return Equivalence(True)


def check_admissible(
    original: TimedAutomatonNetwork,
    repaired: TimedAutomatonNetwork,
    original_cache: dict[int, ZoneGraph] | None = None,
) -> Equivalence:
    """Shared-constant admissibility check of a repaired network, on the fly.

    ``original_cache`` keeps the original's ``ZoneGraph`` per extrapolation
    constant across the candidates of one repair run, so the states each
    check expands serve the next.
    """
    k = max(max_constant(original), max_constant(repaired))
    if original_cache is not None and k in original_cache:
        ga = original_cache[k]
    else:
        ga = ZoneGraph(original, k)
        if original_cache is not None:
            original_cache[k] = ga
    return equivalent(ga, ZoneGraph(repaired, k))
