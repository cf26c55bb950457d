"""The five variation encodings behind the repair analyses.

Each encoder introduces variation variables with a declared domain and a
"no change" value; each variable is one syntactic edit of the model:

- bound: every indexed I/G atom ``c ~ b`` becomes ``c ~ b + v`` with one
  shared rational v per constraint index (entry and exit copies share v).
  This kind alone also keeps the varied system as linear atoms over the
  delays and the v's (``VariedSystem.free_atoms``), which the MaxSMT search
  projects by quantifier elimination.
- operator: each constraint's operator ranges over the five comparison
  operators.
- clock reference: each constraint's clock ranges over the clocks of the
  owning automaton.
- resets: one boolean flip per (transition, clock) reset toggle the trace
  offers: at each step a clock is removed from every transition of the
  step that resets it, or else added on the step's first transition whose
  automaton declares the clock. A flip acts wherever its transition fires.
- urgency: one boolean flip per distinct location visited by the trace;
  a flip inverts the zero-delay obligation of every step the location is
  resident at.

``edit`` turns a non-zero value of a variable into its edit, a
``Modification``: a constraint edit replaces one indexed atom by another,
a reset or urgency edit toggles one flag. An assignment is decided by
applying its edits to the base trace system
(``TdtConstraintSystem.decide``), so setting every variable to its zero
meaning decides the unvaried system. Seeding builds each of its mutants as
one such edit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .encoder import TdtConstraintSystem, TraceAtom
from .lra import LinearAtom, Rel, comparison_atom
from .model import Op, indexed_constraints

KINDS = ("bound", "operator", "clockref", "reset", "urgent")


@dataclass(frozen=True)
class VariationVariable:
    name: str
    kind: str
    anchor: tuple
    domain: tuple | None  # None: free rational (bound variation)
    zero: object
    description: str


@dataclass(frozen=True)
class Modification:
    """One anchored syntactic edit; applying then reverting is the identity.

    The anchor names the part of the model the edit changes:

    - ``("constraint", i)``: the i-th atom of ``model.indexed_constraints``.
      ``old`` and ``new`` are whole ``AtomicClockConstraint`` atoms; a
      bound, operator or clock edit is one whose atoms differ in that field.
    - ``("reset", a, t, c)``: whether transition t of automaton a resets
      clock c. ``old`` and ``new`` are that flag.
    - ``("urgent", a, l)``: whether location l of automaton a is urgent.
      ``old`` and ``new`` are that flag.

    Applying an edit first checks that the model holds ``old`` at the anchor.
    """

    anchor: tuple
    old: object
    new: object
    description: str


class AnchorMismatch(ValueError):
    """The model no longer matches a modification's recorded old value."""


@dataclass(frozen=True)
class VariedSystem:
    """A trace system with the variation variables of one repair kind."""

    base: TdtConstraintSystem
    kind: str
    variables: tuple[VariationVariable, ...]
    free_atoms: tuple[LinearAtom, ...] = ()
    """Bound kind only: the whole system over the delays and the v's."""

    def zero_assignment(self) -> dict[str, object]:
        return {v.name: v.zero for v in self.variables}


def _indexed_trace_atoms(sys: TdtConstraintSystem) -> dict[int, list[TraceAtom]]:
    """Trace instances of each model constraint index, in document order."""
    grouped: dict[int, list[TraceAtom]] = {}
    for ta in sys.atoms:
        if ta.block in ("I", "G"):
            grouped.setdefault(ta.constraint_index, []).append(ta)
    return dict(sorted(grouped.items()))


def _constraint_description(sys: TdtConstraintSystem, idx: int) -> str:
    ref = indexed_constraints(sys.network)[idx]
    auto = sys.network.automata[ref.automaton]
    where = (
        f"{auto.name}.{auto.location_names[ref.location]} invariant"
        if ref.kind == "invariant"
        else f"{auto.name} transition {ref.transition} guard"
    )
    return f"constraint #{idx} ({where}: {ref.atom.text(list(sys.network.clock_names))})"


def vary_bounds(sys: TdtConstraintSystem) -> VariedSystem:
    """Every indexed bound b becomes b + v; one shared rational v per constraint."""
    grouped = _indexed_trace_atoms(sys)
    atoms = [la for ta in sys.atoms if ta.block not in ("I", "G") for la in sys.materialize(ta)]
    variables = []
    for idx, instances in grouped.items():
        vname = f"v{idx}"
        variables.append(
            VariationVariable(
                name=vname,
                kind="bound",
                anchor=(idx,),
                domain=None,
                zero=Fraction(0),
                description=_constraint_description(sys, idx),
            )
        )
        for ta in instances:
            coeffs = sys.atom_coeffs(ta)
            coeffs[vname] = Fraction(-1)  # lhs ~ b + v  <=>  lhs - v ~ b
            atoms.extend(comparison_atom(coeffs, ta.op, ta.bound))
        if instances[0].op == Op.GT:
            # Repaired bounds are clamped at 0. That is exact for c >= b + v,
            # but c > b + v with b + v < 0 always holds and c > 0 does not,
            # so a strict lower bound may not go below 0: -v <= b.
            atoms.append(LinearAtom.make({vname: Fraction(-1)}, Rel.LE, instances[0].bound))
    return VariedSystem(sys, "bound", tuple(variables), tuple(atoms))


def vary_operators(sys: TdtConstraintSystem) -> VariedSystem:
    """Each constraint's operator ranges over <, <=, =, >=, >; copies share the choice."""
    variables = tuple(
        VariationVariable(
            name=f"ov{idx}",
            kind="operator",
            anchor=(idx,),
            domain=tuple(Op),
            zero=instances[0].op,
            description=_constraint_description(sys, idx),
        )
        for idx, instances in _indexed_trace_atoms(sys).items()
    )
    return VariedSystem(sys, "operator", variables)


def vary_clock_refs(sys: TdtConstraintSystem) -> VariedSystem:
    """Each constraint's clock ranges over the owning automaton's clocks."""
    automata = sys.network.automata
    variables = tuple(
        VariationVariable(
            name=f"cv{idx}",
            kind="clockref",
            anchor=(idx,),
            domain=tuple(sorted(automata[instances[0].automaton].clocks)),
            zero=instances[0].clock,
            description=_constraint_description(sys, idx),
        )
        for idx, instances in _indexed_trace_atoms(sys).items()
    )
    return VariedSystem(sys, "clockref", variables)


def vary_resets(sys: TdtConstraintSystem) -> VariedSystem:
    """One boolean flip per (transition, clock) reset toggle; true applies it.

    At step j the offered toggles remove clock c from every transition of
    the step that resets it, or else add c on the step's first transition
    whose automaton declares c, so no toggle names a clock its automaton
    does not declare. Flips run step by step, then clock by clock, then
    over the step's transitions; a toggle met again at a later step keeps
    its first place and its one variable, since the edit acts wherever its
    transition fires.
    """
    automata = sys.network.automata
    steps = sys.stt.steps
    variables: dict[tuple[int, int, int], VariationVariable] = {}
    for move in steps:
        for c in range(sys.network.n_clocks):
            declaring = [(ai, ti) for ai, ti in move if c in automata[ai].clocks]
            resetting = [(ai, ti) for ai, ti in declaring if c in automata[ai].transitions[ti].resets]
            for ai, ti in resetting or declaring[:1]:
                fired = [str(j) for j, other in enumerate(steps) if (ai, ti) in other]
                where = f"step{'s' if len(fired) > 1 else ''} {', '.join(fired)}"
                variables[(ai, ti, c)] = VariationVariable(
                    name=f"rv{ai}_{ti}_{c}",
                    kind="reset",
                    anchor=(ai, ti, c),
                    domain=(False, True),
                    zero=False,
                    description=(
                        f"{'remove' if resetting else 'add'} reset of {sys.network.clock_names[c]} "
                        f"on {automata[ai].name} transition {ti} ({where})"
                    ),
                )
    return VariedSystem(sys, "reset", tuple(variables.values()))


def vary_urgency(sys: TdtConstraintSystem) -> VariedSystem:
    """One boolean flip per distinct trace location; true inverts its urgency.

    Revisited locations share a flip, so flipping one location constrains
    every step where it is resident.
    """
    automata = sys.network.automata
    visited = sorted({(ai, li) for locvec in sys.stt.locations for ai, li in enumerate(locvec)})
    variables = tuple(
        VariationVariable(
            name=f"uv{ai}_{li}",
            kind="urgent",
            anchor=(ai, li),
            domain=(False, True),
            zero=False,
            description=(
                f"make {automata[ai].name}.{automata[ai].location_names[li]} "
                f"{'non-urgent' if li in automata[ai].urgent else 'urgent'}"
            ),
        )
        for ai, li in visited
    )
    return VariedSystem(sys, "urgent", variables)


def vary(sys: TdtConstraintSystem, kind: str) -> VariedSystem:
    if kind == "bound":
        return vary_bounds(sys)
    if kind == "operator":
        return vary_operators(sys)
    if kind == "clockref":
        return vary_clock_refs(sys)
    if kind == "reset":
        return vary_resets(sys)
    if kind == "urgent":
        return vary_urgency(sys)
    raise ValueError(f"unknown repair kind {kind!r}")


def edit(vs: VariedSystem, var: VariationVariable, value) -> Modification:
    """The syntactic edit that a non-zero ``value`` of ``var`` makes to the model.

    A reset or urgency flip toggles its flag. The other kinds replace the
    indexed atom by one with the bound shifted by ``value`` (clamped at
    0), or with ``value`` as its operator or clock.
    """
    network = vs.base.network
    if var.kind == "reset":
        ai, ti, c = var.anchor
        old = c in network.automata[ai].transitions[ti].resets
        return Modification(("reset", ai, ti, c), old, not old, var.description)
    if var.kind == "urgent":
        ai, li = var.anchor
        old = li in network.automata[ai].urgent
        return Modification(("urgent", ai, li), old, not old, var.description)
    (idx,) = var.anchor
    old = indexed_constraints(network)[idx].atom
    if var.kind == "bound":
        # A lower-bound guard may be relaxed past 0; clocks never go
        # negative, so clamping to 0 applies the same constraint.
        new = replace(old, bound=max(Fraction(0), old.bound + Fraction(value)))
        change = f"bound {old.bound} -> {new.bound} (v = {Fraction(value)})"
    elif var.kind == "operator":
        new = replace(old, op=Op(value))
        change = f"operator {old.op.name} -> {new.op.name}"
    else:
        new = replace(old, clock=value)
        names = network.clock_names
        change = f"clock {names[old.clock]} -> {names[new.clock]}"
    return Modification(("constraint", idx), old, new, f"{var.description}: {change}")
