"""The five variation-extended constraint systems behind the repair analyses.

Each encoder introduces variation variables with a declared domain and a
"no change" value, and replaces the affected blocks:

- bound: every indexed I/G atom ``c ~ b`` becomes ``c ~ b + v`` with one
  shared rational v per constraint index (entry and exit copies share v).
- operator: each constraint becomes an exclusive choice over the five
  comparison operators, both invariant copies instantiated under the same
  choice.
- clock reference: each constraint's clock position ranges over the clocks
  of the owning automaton, the delay sum substituted per branch.
- resets: one boolean flip per (clock, trace step). A flip stands for the
  syntactic edit it becomes: adding the reset on the step's first
  transition, or removing it from every transition of the step that resets
  the clock. An assignment is instantiated as the trace system under the
  reset pattern that edit produces (``VariedSystem.edited_system``), so it
  has no branch groups.
- urgency: one boolean flip per distinct location visited by the trace;
  flips invert the zero-delay obligation of the location's steps.

Setting every variable to its zero meaning reproduces a system that is
equisatisfiable with the unvaried one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .encoder import TdtConstraintSystem, TraceAtom, delta_var
from .lra import LinearAtom, Rel, comparison_atom
from .model import Op

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
class BranchGroup:
    var: VariationVariable
    branches: tuple[tuple[object, tuple[LinearAtom, ...]], ...]  # (value, atoms)

    def atoms_for(self, value) -> tuple[LinearAtom, ...]:
        for v, atoms in self.branches:
            if v == value:
                return atoms
        raise KeyError(f"{value!r} not in domain of {self.var.name}")


class VariedSystem:
    """A trace system with variation variables; instantiating every variable
    at a concrete value yields a plain conjunction again."""

    def __init__(
        self,
        base: TdtConstraintSystem,
        kind: str,
        base_atoms: tuple[LinearAtom, ...],
        groups: tuple[BranchGroup, ...],
        free_atoms: tuple[LinearAtom, ...] = (),
        variables: tuple[VariationVariable, ...] | None = None,
    ):
        self.base = base
        self.kind = kind
        self.base_atoms = base_atoms
        self.groups = groups
        self.free_atoms = free_atoms  # bound variation: atoms mentioning the v's
        self.variables = variables if variables is not None else tuple(g.var for g in groups)

    def zero_assignment(self) -> dict[str, object]:
        return {v.name: v.zero for v in self.variables}

    def instantiate(self, assignment: dict[str, object]) -> list[LinearAtom]:
        """Plain conjunction under a full assignment of the variation variables.

        Reset kind: the atoms of ``edited_system``; raises ValueError for an
        assignment that is no syntactic edit.
        """
        if self.kind == "reset":
            edited = self.edited_system(assignment)
            if edited is None:
                raise ValueError("reset assignment toggles one reset twice")
            return edited.linear_atoms()
        atoms = list(self.base_atoms)
        if self.kind == "bound":
            values = {name: Fraction(val) for name, val in assignment.items()}
            atoms.extend(a.substitute(values) for a in self.free_atoms)
        else:
            for g in self.groups:
                atoms.extend(g.atoms_for(assignment[g.var.name]))
        return atoms

    def edited_system(self, assignment: dict[str, object]) -> TdtConstraintSystem | None:
        """Reset kind: the delay-only system under the reset pattern the edit produces.

        Each flip toggles the resets that ``reset_targets`` names, on every
        step where those transitions fire. None when two flips toggle the
        same (transition, clock): the two edits cancel, so the assignment
        is no repair.
        """
        base = self.base
        toggled: set[tuple[tuple[int, int], int]] = set()
        for var in self.variables:
            if assignment[var.name]:
                clock, step = var.anchor
                for target in reset_targets(base, clock, step):
                    if (target, clock) in toggled:
                        return None
                    toggled.add((target, clock))
        automata = base.network.automata
        reset_at = {}
        for j, move in enumerate(base.stt.steps):
            for c in range(base.network.n_clocks):
                reset_at[(c, j)] = any(
                    (c in automata[ai].transitions[ti].resets) != (((ai, ti), c) in toggled)
                    for ai, ti in move
                )
        return base.with_resets(reset_at)

    def variable_named(self, name: str) -> VariationVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


def _indexed_trace_atoms(sys: TdtConstraintSystem) -> dict[int, list[TraceAtom]]:
    """Trace instances of each model constraint index, in document order."""
    grouped: dict[int, list[TraceAtom]] = {}
    for ta in sys.atoms:
        if ta.block in ("I", "G"):
            grouped.setdefault(ta.constraint_index, []).append(ta)
    return dict(sorted(grouped.items()))


def _constraint_description(sys: TdtConstraintSystem, idx: int) -> str:
    from .model import indexed_constraints

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
    base = [
        la for ta in sys.atoms if ta.block not in ("I", "G") for la in sys.materialize(ta)
    ]
    free: list[LinearAtom] = []
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
            free.extend(comparison_atom(coeffs, ta.op, ta.bound))
        if instances[0].op == Op.GT:
            # Repaired bounds are clamped at 0. That is exact for c >= b + v,
            # but c > b + v with b + v < 0 always holds and c > 0 does not,
            # so a strict lower bound may not go below 0: -v <= b.
            free.append(LinearAtom.make({vname: Fraction(-1)}, Rel.LE, instances[0].bound))
    return VariedSystem(sys, "bound", tuple(base), (), tuple(free), tuple(variables))


def vary_operators(sys: TdtConstraintSystem) -> VariedSystem:
    """Each constraint's operator ranges over <, <=, =, >=, >; copies share the choice."""
    grouped = _indexed_trace_atoms(sys)
    base = [
        la for ta in sys.atoms if ta.block not in ("I", "G") for la in sys.materialize(ta)
    ]
    groups = []
    for idx, instances in grouped.items():
        var = VariationVariable(
            name=f"ov{idx}",
            kind="operator",
            anchor=(idx,),
            domain=tuple(Op),
            zero=instances[0].op,
            description=_constraint_description(sys, idx),
        )
        branches = []
        for op in Op:
            atoms: list[LinearAtom] = []
            for ta in instances:
                atoms.extend(comparison_atom(sys.atom_coeffs(ta), op, ta.bound))
            branches.append((op, tuple(atoms)))
        groups.append(BranchGroup(var, tuple(branches)))
    return VariedSystem(sys, "operator", tuple(base), tuple(groups))


def vary_clock_refs(sys: TdtConstraintSystem) -> VariedSystem:
    """Each constraint's clock position ranges over the owning automaton's clocks."""
    grouped = _indexed_trace_atoms(sys)
    base = [
        la for ta in sys.atoms if ta.block not in ("I", "G") for la in sys.materialize(ta)
    ]
    groups = []
    for idx, instances in grouped.items():
        owner = sys.network.automata[instances[0].automaton]
        var = VariationVariable(
            name=f"cv{idx}",
            kind="clockref",
            anchor=(idx,),
            domain=tuple(sorted(owner.clocks)),
            zero=instances[0].clock,
            description=_constraint_description(sys, idx),
        )
        branches = []
        for clock in sorted(owner.clocks):
            atoms: list[LinearAtom] = []
            for ta in instances:
                coeffs = sys.clock_value_coeffs(clock, ta.step, ta.copy == "exit")
                atoms.extend(comparison_atom(coeffs, ta.op, ta.bound))
            branches.append((clock, tuple(atoms)))
        groups.append(BranchGroup(var, tuple(branches)))
    return VariedSystem(sys, "clockref", tuple(base), tuple(groups))


def reset_targets(sys: TdtConstraintSystem, clock: int, step: int) -> list[tuple[int, int]]:
    """The transitions whose reset of ``clock`` the flip at ``step`` toggles.

    Adding a reset puts it on the step's first transition; removing one
    takes it off every transition of the step that resets the clock.
    """
    move = sys.stt.steps[step]
    if sys.reset_at[(clock, step)]:
        return [
            (ai, ti) for ai, ti in move if clock in sys.network.automata[ai].transitions[ti].resets
        ]
    return [move[0]]


def vary_resets(sys: TdtConstraintSystem) -> VariedSystem:
    """One boolean flip per (clock, step); true toggles the reset edit there.

    Assignments are instantiated through ``VariedSystem.edited_system``:
    delay sums under the reset pattern the edit produces, so a transition
    that fires twice is edited at both steps.
    """
    variables = []
    for j in range(sys.n):
        for c in range(sys.network.n_clocks):
            originally_reset = sys.reset_at[(c, j)]
            variables.append(
                VariationVariable(
                    name=f"rv{c}_{j}",
                    kind="reset",
                    anchor=(c, j),
                    domain=(False, True),
                    zero=False,
                    description=(
                        f"{'remove' if originally_reset else 'add'} reset of "
                        f"{sys.network.clock_names[c]} at step {j}"
                    ),
                )
            )
    return VariedSystem(sys, "reset", (), (), variables=tuple(variables))


def vary_urgency(sys: TdtConstraintSystem) -> VariedSystem:
    """One boolean flip per distinct trace location; true inverts its urgency.

    Revisited locations share a flip, so flipping one location constrains
    every step where it is resident.
    """
    base = [la for ta in sys.atoms if ta.block != "U" for la in sys.materialize(ta)]
    visited: dict[tuple[int, int], list[int]] = {}
    for j, locvec in enumerate(sys.stt.locations):
        for ai, li in enumerate(locvec):
            visited.setdefault((ai, li), []).append(j)
    groups = []
    for (ai, li), steps in sorted(visited.items()):
        auto = sys.network.automata[ai]
        urgent = li in auto.urgent
        var = VariationVariable(
            name=f"uv{ai}_{li}",
            kind="urgent",
            anchor=(ai, li),
            domain=(False, True),
            zero=False,
            description=(
                f"make {auto.name}.{auto.location_names[li]} "
                f"{'non-urgent' if urgent else 'urgent'}"
            ),
        )
        zero_delays = tuple(
            LinearAtom.make({delta_var(j): Fraction(1)}, Rel.EQ, 0) for j in steps
        )
        keep = zero_delays if urgent else ()
        flip = () if urgent else zero_delays
        groups.append(BranchGroup(var, ((False, keep), (True, flip))))
    return VariedSystem(sys, "urgent", tuple(base), tuple(groups))


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
