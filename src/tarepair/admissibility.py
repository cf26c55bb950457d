"""Untimed-language equivalence of networks (the admissibility test).

A repair is admissible iff the repaired network has the same untimed
language as the network it was computed for. The language is the
prefix-closed set of channel-action sequences observable in runs: every
state accepts, internal transitions are silent and removed by
epsilon-closure. Both automata are built with one shared extrapolation
constant so their abstractions are comparable. A network whose initial
valuation violates its initial invariants has no run, so its language is
empty: it does not even contain the empty word.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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

    def successors(self, state: int, label: str | None) -> list[int]:
        return [t for lab, t in self.edges[state] if lab == label]


EMPTY_LANGUAGE = UntimedAutomaton(0, 0, (), ())

# Most states an untimed automaton may have; past it ``build_untimed`` raises Exhausted.
UNTIMED_STATE_BUDGET = 5_000


def build_untimed(
    network: TimedAutomatonNetwork,
    k: int | None = None,
    visible_internal: bool = False,
) -> UntimedAutomaton:
    """Full zone graph with k-extrapolation, edges labeled by channel.

    ``visible_internal`` names internal moves "auto.tN" instead of silencing
    them; the language oracles use this to compare transition structure.
    """
    if k is None:
        k = max_constant(network)
    table = MoveTable(network, k, constant_scale(network))
    init = table.initial_state()
    if init is None:
        return EMPTY_LANGUAGE
    ids = {init: 0}
    order = [init]
    edges: list[list[tuple[str | None, int]]] = [[]]
    queue = deque([init])
    post = dbm.post
    while queue:
        state = queue.popleft()
        sid = ids[state]
        locvec, zone = state
        for move, label, target, guard, resets, invariants, delay in table.moves(locvec):
            z = post(zone, guard, resets, invariants, delay, k)
            if z is None:
                continue
            nxt = (target, z)
            if nxt not in ids:
                if len(ids) >= UNTIMED_STATE_BUDGET:
                    raise Exhausted(f"untimed automaton exceeded {UNTIMED_STATE_BUDGET} states")
                ids[nxt] = len(order)
                order.append(nxt)
                edges.append([])
                queue.append(nxt)
            if label is None and visible_internal:
                ai, ti = move[0]
                label = f"{network.automata[ai].name}.t{ti}"
            edges[sid].append((label, ids[nxt]))
    alphabet = sorted({lab for out in edges for lab, _ in out if lab is not None})
    return UntimedAutomaton(len(order), 0, tuple(alphabet), tuple(tuple(e) for e in edges))


def _closure(ua: UntimedAutomaton, states: frozenset[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(states)
    while stack:
        s = stack.pop()
        for t in ua.successors(s, SILENT):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def _start(ua: UntimedAutomaton) -> frozenset[int]:
    """States reached by the empty word; none for the empty language."""
    return _closure(ua, frozenset([ua.initial])) if ua.n_states else frozenset()


def _post(ua: UntimedAutomaton, states: frozenset[int], label: str) -> frozenset[int]:
    out = set()
    for s in states:
        out.update(ua.successors(s, label))
    return _closure(ua, frozenset(out))


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


def equivalent(a: UntimedAutomaton, b: UntimedAutomaton) -> Equivalence:
    """Language equality via on-the-fly determinization and pairwise search.

    Both languages are prefix closed with every state accepting, so the
    languages differ exactly when some word is extendable in one automaton
    and dead in the other; breadth-first pairing returns a shortest such
    word as the witness.
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
    original_cache: dict[int, UntimedAutomaton] | None = None,
) -> Equivalence:
    """Shared-constant admissibility check of a repaired network.

    ``original_cache`` memoizes the original's automaton per extrapolation
    constant across the candidates of one repair run.
    """
    k = max(max_constant(original), max_constant(repaired))
    if original_cache is not None and k in original_cache:
        ua = original_cache[k]
    else:
        ua = build_untimed(original, k)
        if original_cache is not None:
            original_cache[k] = ua
    ub = build_untimed(repaired, k)
    return equivalent(ua, ub)
