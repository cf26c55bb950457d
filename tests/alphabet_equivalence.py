"""Reference pair search for the differential tests in ``test_admissibility``.

This is the ``equivalent`` that ``tarepair.admissibility`` replaced, kept
with its subset helpers: each subset pair posts every label of the union
alphabet on both sides, present or not. The replaced ``ZoneGraph`` carried
that alphabet itself; ``alphabet`` rebuilds it here from the graph's
network, every label a move can carry, reachable or not, so a graph
expanded in part has its whole alphabet. ``accepts``, word membership by
the same subset simulation, serves the tests alone.

``observed`` makes a network's internal moves visible, so that the
language tests compare transition structure and not channel traffic alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from tarepair.admissibility import PAIR_BUDGET, SILENT, Equivalence, ZoneGraph
from tarepair.checker import Exhausted
from tarepair.model import SyncKind, TimedAutomaton, TimedAutomatonNetwork, Transition


def observed(network: TimedAutomatonNetwork) -> TimedAutomatonNetwork:
    """The network with each internal transition N of automaton A turned into a
    send on a fresh channel "A.tN", which a clockless one-location observer,
    appended last, receives on a self-loop. Every move keeps its place in
    ``MoveIndex.enabled`` order and its zones, so the graph of the result is
    the network's, state for state, with the internal moves labelled "A.tN"."""
    channels = list(network.channel_names)
    automata = []
    for auto in network.automata:
        transitions = []
        for ti, t in enumerate(auto.transitions):
            if t.channel is None:
                t = replace(t, channel=len(channels), sync=SyncKind.SEND)
                channels.append(f"{auto.name}.t{ti}")
            transitions.append(t)
        automata.append(replace(auto, transitions=tuple(transitions)))
    fresh = range(len(network.channel_names), len(channels))
    observer = TimedAutomaton(
        "observer",
        ("watching",),
        0,
        ((),),
        frozenset(),
        tuple(Transition(0, 0, (), c, SyncKind.RECEIVE, frozenset()) for c in fresh),
        frozenset(),
    )
    return TimedAutomatonNetwork((*automata, observer), network.clock_names, tuple(channels))


def alphabet(ua) -> tuple[str, ...]:
    """An ``UntimedAutomaton``'s alphabet: the visible labels on its edges,
    sorted; for a ``ZoneGraph``, which may be expanded in part, the names of
    its network's channels."""
    if not isinstance(ua, ZoneGraph):
        return tuple(sorted({label for s in range(ua.n_states) for label in ua.expand(s) if label is not None}))
    network = ua.network
    channels = {t.channel for a in network.automata for t in a.transitions if t.channel is not None}
    return tuple(sorted(network.channel_names[c] for c in channels))


def _closure(ua, states) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    successors = ua.successors
    while stack:
        for t in successors(stack.pop(), SILENT):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def _start(ua) -> frozenset[int]:
    return _closure(ua, frozenset([ua.initial])) if ua.n_states else frozenset()


def _post(ua, states: frozenset[int], label: str) -> frozenset[int]:
    successors = ua.successors
    out = set()
    for s in states:
        out.update(successors(s, label))
    return _closure(ua, out) if out else frozenset()


def accepts(ua, word) -> bool:
    """Is the label sequence a prefix of some run (subset simulation)?"""
    cur = _start(ua)
    for label in word:
        cur = _post(ua, cur, label)
        if not cur:
            return False
    return bool(cur)


def equivalent(a, b) -> Equivalence:
    """Language equality by breadth-first pairing over the whole alphabet."""
    labels = sorted(set(alphabet(a)) | set(alphabet(b)))
    start = (_start(a), _start(b))
    if bool(start[0]) != bool(start[1]):
        return Equivalence(False, ())
    seen = {start}
    queue: deque = deque([(start, ())])
    visited = 0
    while queue:
        (pa, pb), word = queue.popleft()
        visited += 1
        if visited > PAIR_BUDGET:
            raise Exhausted(f"equivalence check exceeded {PAIR_BUDGET} state pairs")
        for label in labels:
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
