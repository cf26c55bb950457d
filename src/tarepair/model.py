"""Domain types for networks of timed automata and timed safety properties.

Clocks, locations, automata and channels are referred to by dense integer
ids scoped to their container; display names live in the owning container.
All types are immutable after construction, so networks can be shared
freely between concurrent analyses. A network derives its constraint
table, per-clock lower and upper bounds and constant scale once, and a
property its negated DNF, as ``functools.cached_property`` fields: they are
no dataclass fields, so they enter neither ``==`` nor ``hash``, and
``dataclasses.replace`` builds an object without them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .dbm import raw_constant


class Op(enum.IntEnum):
    """Comparison operators of atomic clock constraints, in canonical order."""

    LT = 0
    LE = 1
    EQ = 2
    GE = 3
    GT = 4


OP_TEXT = {Op.LT: "<", Op.LE: "<=", Op.EQ: "=", Op.GE: ">=", Op.GT: ">"}
TEXT_OP = {"<": Op.LT, "<=": Op.LE, "=": Op.EQ, "==": Op.EQ, ">=": Op.GE, ">": Op.GT}


@dataclass(frozen=True)
class AtomicClockConstraint:
    """One atom ``clock op bound``; guards and invariants are conjunctions of these."""

    clock: int
    op: Op
    bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bound", Fraction(self.bound))
        if self.bound < 0:
            raise ValueError("clock bounds must be nonnegative")

    def text(self, clock_names: list[str]) -> str:
        bound = self.bound
        btxt = str(bound.numerator) if bound.denominator == 1 else f"{bound.numerator}/{bound.denominator}"
        return f"{clock_names[self.clock]} {OP_TEXT[self.op]} {btxt}"


class SyncKind(enum.Enum):
    SEND = "!"
    RECEIVE = "?"
    INTERNAL = ""


@dataclass(frozen=True)
class Transition:
    source: int
    target: int
    guard: tuple[AtomicClockConstraint, ...]
    channel: int | None  # None for internal transitions
    sync: SyncKind
    resets: frozenset[int]


@dataclass(frozen=True)
class TimedAutomaton:
    name: str
    location_names: tuple[str, ...]
    initial: int
    invariants: tuple[tuple[AtomicClockConstraint, ...], ...]  # per location
    urgent: frozenset[int]
    transitions: tuple[Transition, ...]
    clocks: frozenset[int]  # ids into the network clock table

    @property
    def n_locations(self) -> int:
        return len(self.location_names)


@dataclass(frozen=True)
class TimedAutomatonNetwork:
    """Parallel composition of timed automata over a shared clock namespace.

    Channel synchronization is a binary handshake: one ``c!`` transition
    pairs with one ``c?`` transition of another automaton and both move in
    the same instant.
    """

    automata: tuple[TimedAutomaton, ...]
    clock_names: tuple[str, ...]
    channel_names: tuple[str, ...]

    def automaton_index(self, name: str) -> int:
        for i, a in enumerate(self.automata):
            if a.name == name:
                return i
        raise KeyError(name)

    @property
    def n_clocks(self) -> int:
        return len(self.clock_names)

    @cached_property
    def constraint_table(self) -> tuple[ConstraintRef, ...]:
        """All constraint atoms of the network in global index order."""
        out: list[ConstraintRef] = []
        for ai, auto in enumerate(self.automata):
            for li, inv in enumerate(auto.invariants):
                for pi, atom in enumerate(inv):
                    out.append(ConstraintRef(len(out), ai, "invariant", li, None, pi, atom))
            for ti, trans in enumerate(auto.transitions):
                for pi, atom in enumerate(trans.guard):
                    out.append(ConstraintRef(len(out), ai, "guard", None, ti, pi, atom))
        return tuple(out)

    @cached_property
    def clock_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per clock, (L, U): L(x) the largest constant of a ``>``, ``>=`` or ``=``
        atom on x, U(x) that of a ``<``, ``<=`` or ``=`` atom, each rounded up
        to an integer, over the network's own guards and invariants; 0 for a
        clock without such an atom. The bounds of Extra⁺_LU extrapolation."""
        lower, upper = [0] * self.n_clocks, [0] * self.n_clocks
        for ref in self.constraint_table:
            atom = ref.atom
            c = -(-atom.bound.numerator // atom.bound.denominator)
            if atom.op >= Op.EQ and c > lower[atom.clock]:
                lower[atom.clock] = c
            if atom.op <= Op.EQ and c > upper[atom.clock]:
                upper[atom.clock] = c
        return tuple(lower), tuple(upper)

    @cached_property
    def scale(self) -> int:
        """Least common multiple of the denominators of the network's own constraints."""
        return math.lcm(*(ref.atom.bound.denominator for ref in self.constraint_table))


class PropKind(enum.Enum):
    ATOM = "atom"
    LOC = "loc"
    AND = "and"
    OR = "or"
    NOT = "not"
    TRUE = "true"
    FALSE = "false"


@dataclass(frozen=True)
class PropertyExpr:
    """Boolean combination of clock atoms and location predicates ``@A.l``."""

    kind: PropKind
    atom: AtomicClockConstraint | None = None
    automaton: int | None = None
    location: int | None = None
    children: tuple["PropertyExpr", ...] = ()

    @staticmethod
    def of_atom(atom: AtomicClockConstraint) -> "PropertyExpr":
        return PropertyExpr(PropKind.ATOM, atom=atom)

    @staticmethod
    def of_location(automaton: int, location: int) -> "PropertyExpr":
        return PropertyExpr(PropKind.LOC, automaton=automaton, location=location)

    @staticmethod
    def conj(*children: "PropertyExpr") -> "PropertyExpr":
        return PropertyExpr(PropKind.AND, children=tuple(children))

    @staticmethod
    def disj(*children: "PropertyExpr") -> "PropertyExpr":
        return PropertyExpr(PropKind.OR, children=tuple(children))

    def negate(self) -> "PropertyExpr":
        return PropertyExpr(PropKind.NOT, children=(self,))

    def iter_atoms(self) -> Iterator[AtomicClockConstraint]:
        if self.kind == PropKind.ATOM:
            yield self.atom
        for c in self.children:
            yield from c.iter_atoms()

    @cached_property
    def negated_dnf(self) -> tuple[tuple[DnfLiteral, ...], ...]:
        """``prop_to_dnf`` of the negation, the states that violate the property."""
        return tuple(map(tuple, prop_to_dnf(self.negate())))

    def negated_atoms_at(self, locvec: tuple[int, ...]) -> tuple[tuple[AtomicClockConstraint, ...], ...]:
        """The clock atoms of each ``negated_dnf`` disjunct whose location
        literals hold at the location vector ``locvec``, in disjunct order.
        ``checker.check`` asks once per location vector it reaches; plain
        loops make no generator per disjunct."""
        out = []
        for disjunct in self.negated_dnf:
            for lit in disjunct:
                if lit.atom is None and (locvec[lit.automaton] == lit.location) != lit.positive:
                    break
            else:
                out.append(tuple(lit.atom for lit in disjunct if lit.atom is not None))
        return tuple(out)


# A safety property is checked as an invariant: the model satisfies the
# property iff every reachable state does.
SafetyProperty = PropertyExpr


@dataclass(frozen=True)
class ConstraintRef:
    """Position of one indexed constraint atom in the model.

    Constraints are identified by their index in document traversal order
    (per automaton: location invariants first, then transition guards),
    which is stable across parse/serialize cycles.
    """

    index: int
    automaton: int
    kind: str  # "invariant" | "guard"
    location: int | None
    transition: int | None
    atom_pos: int
    atom: AtomicClockConstraint


def indexed_constraints(network: TimedAutomatonNetwork) -> tuple[ConstraintRef, ...]:
    """All constraint atoms of the network in global index order (its ``constraint_table``)."""
    return network.constraint_table


def max_constant(network: TimedAutomatonNetwork, prop: SafetyProperty | None = None) -> int:
    """Maximal constant over the model's ``clock_bounds`` (and optionally the property).

    Used as the constant of classic zone extrapolation (``checker.check`` and
    ``replay``; the admissibility graphs use ``clock_bounds``) and of the
    region oracle; a model without constraints still gets k = 1 so
    extrapolation is well defined.
    """
    lower, upper = network.clock_bounds
    atoms = () if prop is None else prop.iter_atoms()
    return max((1, *lower, *upper, *(math.ceil(atom.bound) for atom in atoms)))


def constant_scale(network: TimedAutomatonNetwork, prop: SafetyProperty | None = None) -> int:
    """Least common multiple of the denominators of every model constant.

    Zones of one exploration store bounds as integer multiples of 1/scale
    (see ``dbm``); include the property when its atoms meet the zones.
    """
    if prop is None:
        return network.scale
    return math.lcm(network.scale, *(atom.bound.denominator for atom in prop.iter_atoms()))


def validate(network: TimedAutomatonNetwork, prop: SafetyProperty | None = None) -> list[str]:
    """Structural diagnostics; empty list iff the network and property are well formed.

    Pure and idempotent; diagnostics are returned, never raised. A send
    label with no matching receiver is a warning-level diagnostic prefixed
    with ``warning:``.
    """
    diags: list[str] = []
    n_clocks = network.n_clocks
    n_channels = len(network.channel_names)
    if len(set(network.clock_names)) != n_clocks:
        diags.append("duplicate clock names")
    if len(set(network.channel_names)) != n_channels:
        diags.append("duplicate channel names")
    names = [a.name for a in network.automata]
    if len(set(names)) != len(names):
        diags.append("duplicate automaton names")

    seen_syncs: set[tuple[int, SyncKind]] = set()
    for ai, auto in enumerate(network.automata):
        path = f"automata[{ai}]({auto.name})"
        nloc = auto.n_locations
        if len(set(auto.location_names)) != nloc:
            diags.append(f"{path}: duplicate location names")
        if not (0 <= auto.initial < nloc):
            diags.append(f"{path}: initial location id {auto.initial} out of range")
        if len(auto.invariants) != nloc:
            diags.append(f"{path}: invariant table size mismatch")
        for li in auto.urgent:
            if not (0 <= li < nloc):
                diags.append(f"{path}: urgent location id {li} out of range")
        for c in auto.clocks:
            if not (0 <= c < n_clocks):
                diags.append(f"{path}: clock id {c} out of range")
        for li, inv in enumerate(auto.invariants):
            for atom in inv:
                if atom.clock not in auto.clocks:
                    diags.append(f"{path}.locations[{li}]: invariant uses clock not declared by automaton")
        for ti, t in enumerate(auto.transitions):
            tpath = f"{path}.transitions[{ti}]"
            if not (0 <= t.source < nloc):
                diags.append(f"{tpath}: unknown source location id {t.source}")
            if not (0 <= t.target < nloc):
                diags.append(f"{tpath}: unknown target location id {t.target}")
            if t.channel is None and t.sync != SyncKind.INTERNAL:
                diags.append(f"{tpath}: sync kind without channel")
            if t.channel is not None:
                if t.sync == SyncKind.INTERNAL:
                    diags.append(f"{tpath}: channel without sync direction")
                elif not (0 <= t.channel < n_channels):
                    diags.append(f"{tpath}: unknown channel id {t.channel}")
                else:
                    seen_syncs.add((t.channel, t.sync))
            for atom in t.guard:
                if atom.clock not in auto.clocks:
                    diags.append(f"{tpath}: guard uses clock not declared by automaton")
            for c in t.resets:
                if c not in auto.clocks:
                    diags.append(f"{tpath}: reset of clock not declared by automaton")
    for ch, kind in sorted(seen_syncs, key=lambda s: (s[0], s[1].value)):
        other = SyncKind.RECEIVE if kind == SyncKind.SEND else SyncKind.SEND
        if (ch, other) not in seen_syncs:
            diags.append(
                f"warning: channel {network.channel_names[ch]} has {kind.name.lower()} "
                f"transitions but no matching {other.name.lower()}"
            )

    if prop is not None:
        diags.extend(_validate_property(network, prop))
    diags.extend(_validate_constants(network, prop))
    return diags


def _validate_constants(network: TimedAutomatonNetwork, prop: SafetyProperty | None) -> list[str]:
    """Constants whose raw zone encoding at ``constant_scale`` does not fit."""
    scale = constant_scale(network, prop)
    bounds = {ref.atom.bound for ref in network.constraint_table}
    bounds |= {atom.bound for atom in prop.iter_atoms()} if prop is not None else set()
    diags = []
    for bound in sorted(bounds):
        try:
            raw_constant(bound, scale)
        except ValueError:
            diags.append(f"constant {bound} times the constant scale {scale} is not below 2^200")
    return diags


# Most disjuncts the negated property's DNF may have; the checker meets
# every zone with each of them.
MAX_NEGATED_DISJUNCTS = 4096


def dnf_size(e: PropertyExpr) -> int:
    """Number of disjuncts ``prop_to_dnf`` gives for an NNF property, without building them."""
    if e.kind == PropKind.OR:
        return sum(dnf_size(c) for c in e.children)
    if e.kind == PropKind.AND:
        return math.prod(dnf_size(c) for c in e.children)
    return 0 if e.kind == PropKind.FALSE else 1


def _validate_property(network: TimedAutomatonNetwork, prop: PropertyExpr) -> list[str]:
    diags: list[str] = []
    disjuncts = dnf_size(prop_nnf(prop.negate()))
    if disjuncts > MAX_NEGATED_DISJUNCTS:
        diags.append(f"property: its negation has {disjuncts} disjuncts, more than {MAX_NEGATED_DISJUNCTS}")

    def walk(e: PropertyExpr) -> None:
        if e.kind == PropKind.ATOM:
            if not (0 <= e.atom.clock < network.n_clocks):
                diags.append(f"property: unresolved clock id {e.atom.clock}")
        elif e.kind == PropKind.LOC:
            if not (0 <= (e.automaton or 0) < len(network.automata)):
                diags.append("property: unresolved location predicate (unknown automaton)")
            elif not (0 <= (e.location or 0) < network.automata[e.automaton].n_locations):
                diags.append("property: unresolved location predicate")
        for c in e.children:
            walk(c)

    walk(prop)
    return diags


def negate_atom(atom: AtomicClockConstraint) -> PropertyExpr:
    """Complement of one atom as a property expression (an EQ splits in two)."""
    comp = {Op.LT: Op.GE, Op.LE: Op.GT, Op.GE: Op.LT, Op.GT: Op.LE}
    if atom.op == Op.EQ:
        return PropertyExpr.disj(
            PropertyExpr.of_atom(AtomicClockConstraint(atom.clock, Op.LT, atom.bound)),
            PropertyExpr.of_atom(AtomicClockConstraint(atom.clock, Op.GT, atom.bound)),
        )
    return PropertyExpr.of_atom(AtomicClockConstraint(atom.clock, comp[atom.op], atom.bound))


def prop_nnf(e: PropertyExpr, negated: bool = False) -> PropertyExpr:
    """Negation normal form; NOT survives only directly on location predicates."""
    if e.kind == PropKind.TRUE:
        return PropertyExpr(PropKind.FALSE) if negated else e
    if e.kind == PropKind.FALSE:
        return PropertyExpr(PropKind.TRUE) if negated else e
    if e.kind == PropKind.ATOM:
        return negate_atom(e.atom) if negated else e
    if e.kind == PropKind.LOC:
        return e.negate() if negated else e
    if e.kind == PropKind.NOT:
        return prop_nnf(e.children[0], not negated)
    kids = tuple(prop_nnf(c, negated) for c in e.children)
    kind = e.kind
    if negated:
        kind = PropKind.OR if kind == PropKind.AND else PropKind.AND
    return PropertyExpr(kind, children=kids)


@dataclass(frozen=True)
class DnfLiteral:
    """One literal of a DNF disjunct: a clock atom or a (possibly negated) location predicate."""

    atom: AtomicClockConstraint | None = None
    automaton: int | None = None
    location: int | None = None
    positive: bool = True


def prop_to_dnf(e: PropertyExpr) -> list[list[DnfLiteral]]:
    """Disjunctive normal form of an NNF property; [] means false, [[]] true."""
    e = prop_nnf(e)

    def go(x: PropertyExpr) -> list[list[DnfLiteral]]:
        if x.kind == PropKind.TRUE:
            return [[]]
        if x.kind == PropKind.FALSE:
            return []
        if x.kind == PropKind.ATOM:
            return [[DnfLiteral(atom=x.atom)]]
        if x.kind == PropKind.LOC:
            return [[DnfLiteral(automaton=x.automaton, location=x.location)]]
        if x.kind == PropKind.NOT:
            inner = x.children[0]
            return [[DnfLiteral(automaton=inner.automaton, location=inner.location, positive=False)]]
        if x.kind == PropKind.OR:
            out: list[list[DnfLiteral]] = []
            for c in x.children:
                out.extend(go(c))
            return out
        disjuncts: list[list[DnfLiteral]] = [[]]
        for c in x.children:
            child = go(c)
            disjuncts = [d + cd for d in disjuncts for cd in child]
        return disjuncts

    return go(e)
