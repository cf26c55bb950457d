"""Region automaton construction, the classic finite quotient of a TA's
state space. Serves as an independent oracle for the zone-graph untimed
language: both constructions must accept the same label sequences.

A region records, per clock, the integer part capped at the maximal
constant k, whether the fractional part is zero, and the ordering of the
nonzero fractional parts. Delay steps walk the region successor chain and
appear as silent edges. Regions need integer constants, so a network
with rational constants is first scaled by ``model.constant_scale``, with
k scaled to match: stretching time by a constant factor keeps the untimed
language.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .admissibility import EMPTY_LANGUAGE, UntimedAutomaton
from .checker import Exhausted, MoveIndex, move_label
from .model import AtomicClockConstraint, Op, TimedAutomatonNetwork, constant_scale, max_constant


@dataclass(frozen=True)
class Region:
    """One clock region: capped integer parts and fractional ordering.

    ints[c] is the integer part of clock c, or None when the clock has
    passed k. zero_fracs holds uncapped clocks with fractional part zero;
    frac_order groups uncapped clocks by equal nonzero fraction, ascending.
    """

    ints: tuple[int | None, ...]
    zero_fracs: frozenset[int]
    frac_order: tuple[frozenset[int], ...]

    def satisfies(self, atom: AtomicClockConstraint) -> bool:
        n = atom.bound
        if n.denominator != 1:
            raise ValueError("region oracle needs integral constants")
        n = int(n)
        i = self.ints[atom.clock]
        if i is None:  # value strictly above k >= n
            return atom.op in (Op.GE, Op.GT)
        frac_zero = atom.clock in self.zero_fracs
        if atom.op == Op.LT:
            return i < n
        if atom.op == Op.LE:
            return i < n or (i == n and frac_zero)
        if atom.op == Op.EQ:
            return i == n and frac_zero
        if atom.op == Op.GE:
            return i > n or (i == n)  # i == n with any fraction is >= n
        return i > n or (i == n and not frac_zero)


def initial_region(n_clocks: int) -> Region:
    return Region(tuple(0 for _ in range(n_clocks)), frozenset(range(n_clocks)), ())


def delay_successor(r: Region, k: int) -> Region | None:
    """The immediate time successor, or None once every clock passed k."""
    if r.zero_fracs:
        return Region(r.ints, frozenset(), (r.zero_fracs,) + r.frac_order)
    if r.frac_order:
        group = r.frac_order[-1]
        ints = list(r.ints)
        landed = set()
        for c in group:
            ints[c] = ints[c] + 1
            if ints[c] > k:
                ints[c] = None
            else:
                landed.add(c)
        return Region(tuple(ints), frozenset(landed), r.frac_order[:-1])
    return None  # all clocks beyond k: delay loops on the same region


def reset_region(r: Region, clocks) -> Region:
    ints = list(r.ints)
    zero = set(r.zero_fracs)
    for c in clocks:
        ints[c] = 0
        zero.add(c)
    order = tuple(
        g for g in (grp - frozenset(clocks) for grp in r.frac_order) if g
    )
    return Region(tuple(ints), frozenset(zero), order)


def _satisfies_all(r: Region, atoms) -> bool:
    return all(r.satisfies(a) for a in atoms)


def _invariant_atoms(network, locvec):
    for ai, li in enumerate(locvec):
        yield from network.automata[ai].invariants[li]


def _scaled(network: TimedAutomatonNetwork, factor: int) -> TimedAutomatonNetwork:
    """The network with every constant multiplied by ``factor``."""

    def atoms(seq):
        return tuple(replace(a, bound=a.bound * factor) for a in seq)

    automata = tuple(
        replace(
            auto,
            invariants=tuple(map(atoms, auto.invariants)),
            transitions=tuple(replace(t, guard=atoms(t.guard)) for t in auto.transitions),
        )
        for auto in network.automata
    )
    return replace(network, automata=automata)


DEFAULT_REGION_BUDGET = 200_000


def build_region_untimed(
    network: TimedAutomatonNetwork,
    k: int | None = None,
    visible_internal: bool = False,
    state_budget: int = DEFAULT_REGION_BUDGET,
) -> UntimedAutomaton:
    """Region transition system with silent delay edges, as an UntimedAutomaton;
    ``EMPTY_LANGUAGE`` where the initial region violates the initial invariants."""
    if k is None:
        k = max_constant(network)
    scale = constant_scale(network)
    if scale != 1:
        network, k = _scaled(network, scale), k * scale
    locvec0 = tuple(a.initial for a in network.automata)
    r0 = initial_region(network.n_clocks)
    if not _satisfies_all(r0, _invariant_atoms(network, locvec0)):
        return EMPTY_LANGUAGE
    init = (locvec0, r0)
    moves = MoveIndex(network)
    ids = {init: 0}
    order = [init]
    edges: list[list[tuple[str | None, int]]] = [[]]
    queue = deque([init])

    def intern(state) -> int | None:
        if state in ids:
            return ids[state]
        if len(ids) >= state_budget:
            raise Exhausted(f"region automaton exceeded {state_budget} states")
        ids[state] = len(order)
        order.append(state)
        edges.append([])
        queue.append(state)
        return ids[state]

    while queue:
        state = queue.popleft()
        sid = ids[state]
        locvec, region = state
        urgent = any(li in network.automata[ai].urgent for ai, li in enumerate(locvec))
        if not urgent:
            nxt = delay_successor(region, k)
            if nxt is not None and _satisfies_all(nxt, _invariant_atoms(network, locvec)):
                edges[sid].append((None, intern((locvec, nxt))))
        for move in moves.enabled(locvec):
            ok = True
            resets: set[int] = set()
            newvec = list(locvec)
            for ai, ti in move:
                t = network.automata[ai].transitions[ti]
                if not _satisfies_all(region, t.guard):
                    ok = False
                    break
                resets |= t.resets
                newvec[ai] = t.target
            if not ok:
                continue
            r2 = reset_region(region, resets)
            if not _satisfies_all(r2, _invariant_atoms(network, tuple(newvec))):
                continue
            label = move_label(network, move)
            if label is None and visible_internal:
                ai, ti = move[0]
                label = f"{network.automata[ai].name}.t{ti}"
            edges[sid].append((label, intern((tuple(newvec), r2))))
    alphabet = sorted({lab for out in edges for lab, _ in out if lab is not None})
    return UntimedAutomaton(len(order), 0, tuple(alphabet), tuple(tuple(e) for e in edges))
