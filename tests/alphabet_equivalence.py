"""Reference pair search for the differential tests in ``test_admissibility``.

This is the ``equivalent`` that ``tarepair.admissibility`` replaced, kept
with its subset helpers: each subset pair posts every label of the union
alphabet on both sides, present or not. The replaced ``ZoneGraph`` carried
that alphabet itself; ``alphabet`` rebuilds it here from the graph's
network, every label a move can carry, reachable or not.
"""

from __future__ import annotations

from collections import deque

from tarepair.admissibility import PAIR_BUDGET, SILENT, Equivalence, ZoneGraph
from tarepair.checker import Exhausted


def alphabet(ua) -> tuple[str, ...]:
    """An ``UntimedAutomaton``'s own alphabet; for a ``ZoneGraph``, which may
    be expanded in part, the channel names and, with ``visible_internal``,
    each "auto.tN"."""
    if not isinstance(ua, ZoneGraph):
        return ua.alphabet
    labels = {
        ua.network.channel_names[t.channel] if t.channel is not None else f"{a.name}.t{ti}"
        for a in ua.network.automata
        for ti, t in enumerate(a.transitions)
        if t.channel is not None or ua.visible_internal
    }
    return tuple(sorted(labels))


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
