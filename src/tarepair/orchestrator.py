"""End-to-end repair loop: trace, variation, MaxSMT, application, admissibility.

One pass of the MaxSMT search yields the repairing sets of variation
variables, smallest first, each with its repairing value assignments
(discrete kinds; the bound kind samples one rational assignment); the
search blocks each set's variables once it is yielded. Candidates
therefore appear in non-decreasing modification count, and no modified
set repeats. Each variation variable is one syntactic edit, so distinct
assignments are distinct repairs.

Within one set, a value assignment whose repaired trace system is implied
by an already-emitted candidate's is skipped: such a repair permits no
realization the earlier one did not already permit. This keeps, e.g., a
``w = 1`` suggestion out when ``w <= 1`` was already proposed.

Every emitted candidate is re-verified against the semantic repair
contract on the repaired model's delay-only trace system (the repaired
model still realizes the trace, and no realization violates the property)
and then admissibility-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from fractions import Fraction

from .admissibility import check_admissible, DEFAULT_UNTIMED_BUDGET
from .checker import DEFAULT_STATE_BUDGET, SymbolicTimedTrace, check
from .encoder import encode, feasible, violating
from .lra import DEFAULT_QE_BUDGET, QeBudgetExceeded, conjunction, f_and, is_satisfiable
# repairing_assignments is not called here; it stays importable under this
# module's name because bench/tracing.py wraps it here.
from .maxsmt import HardConstraint, max_sat, repairing_assignments  # noqa: F401
from .model import (
    AtomicClockConstraint,
    Op,
    TimedAutomatonNetwork,
    indexed_constraints,
    validate,
)
from .variations import VariedSystem, vary


class RepairKind(enum.Enum):
    BOUND = "bound"
    OPERATOR = "operator"
    CLOCKREF = "clockref"
    RESET = "reset"
    URGENT = "urgent"


@dataclass(frozen=True)
class Modification:
    """One anchored syntactic edit; applying then reverting is the identity."""

    target: str  # "constraint" | "reset" | "urgent"
    anchor: tuple
    old: object
    new: object
    description: str


@dataclass(frozen=True)
class RepairCandidate:
    kind: RepairKind
    modifications: tuple[Modification, ...]
    assignment: tuple[tuple[str, object], ...]  # raw solver values, all variables

    def describe_modifications(self) -> list[str]:
        return [m.description for m in self.modifications]

    def inverse(self) -> "RepairCandidate":
        return RepairCandidate(
            self.kind,
            tuple(
                Modification(m.target, m.anchor, m.new, m.old, f"revert {m.description}")
                for m in self.modifications
            ),
            self.assignment,
        )


class AnchorMismatch(ValueError):
    """The model no longer matches a modification's recorded old value."""


def _replace_constraint_atom(network, idx: int, new_atom: AtomicClockConstraint, old_atom):
    ref = indexed_constraints(network)[idx]
    if ref.atom != old_atom:
        raise AnchorMismatch(
            f"constraint #{idx} is {ref.atom}, expected {old_atom}"
        )
    auto = network.automata[ref.automaton]
    if ref.kind == "invariant":
        inv = list(auto.invariants[ref.location])
        inv[ref.atom_pos] = new_atom
        invariants = list(auto.invariants)
        invariants[ref.location] = tuple(inv)
        auto = replace(auto, invariants=tuple(invariants))
    else:
        trans = auto.transitions[ref.transition]
        guard = list(trans.guard)
        guard[ref.atom_pos] = new_atom
        transitions = list(auto.transitions)
        transitions[ref.transition] = replace(trans, guard=tuple(guard))
        auto = replace(auto, transitions=tuple(transitions))
    automata = list(network.automata)
    automata[ref.automaton] = auto
    return replace(network, automata=tuple(automata))


def apply_candidate(
    network: TimedAutomatonNetwork, candidate: RepairCandidate
) -> TimedAutomatonNetwork:
    """Pure application of a candidate's modifications to the model."""
    for m in candidate.modifications:
        if m.target == "constraint":
            idx = m.anchor[1]
            ref = indexed_constraints(network)[idx]
            atom = ref.atom
            if candidate.kind == RepairKind.BOUND:
                if atom.bound != m.old:
                    raise AnchorMismatch(f"constraint #{idx} bound is {atom.bound}, expected {m.old}")
                new_atom = AtomicClockConstraint(atom.clock, atom.op, Fraction(m.new))
            elif candidate.kind == RepairKind.OPERATOR:
                if atom.op != m.old:
                    raise AnchorMismatch(f"constraint #{idx} operator is {atom.op}, expected {m.old}")
                new_atom = AtomicClockConstraint(atom.clock, m.new, atom.bound)
            else:
                if atom.clock != m.old:
                    raise AnchorMismatch(f"constraint #{idx} clock is {atom.clock}, expected {m.old}")
                new_atom = AtomicClockConstraint(m.new, atom.op, atom.bound)
            network = _replace_constraint_atom(network, idx, new_atom, atom)
        elif m.target == "reset":
            _, ai, ti, clock = m.anchor
            auto = network.automata[ai]
            trans = auto.transitions[ti]
            has = clock in trans.resets
            if has != m.old:
                raise AnchorMismatch(
                    f"reset of clock {clock} on {auto.name}.t{ti} is {has}, expected {m.old}"
                )
            resets = (trans.resets - {clock}) if has else (trans.resets | {clock})
            transitions = list(auto.transitions)
            transitions[ti] = replace(trans, resets=frozenset(resets))
            automata = list(network.automata)
            automata[ai] = replace(auto, transitions=tuple(transitions))
            network = replace(network, automata=tuple(automata))
        elif m.target == "urgent":
            _, ai, li = m.anchor
            auto = network.automata[ai]
            is_urgent = li in auto.urgent
            if is_urgent != m.old:
                raise AnchorMismatch(
                    f"urgency of {auto.name} location {li} is {is_urgent}, expected {m.old}"
                )
            urgent = (auto.urgent - {li}) if is_urgent else (auto.urgent | {li})
            automata = list(network.automata)
            automata[ai] = replace(auto, urgent=frozenset(urgent))
            network = replace(network, automata=tuple(automata))
        else:
            raise ValueError(f"unknown modification target {m.target}")
    return network


def _candidate_from_assignment(
    vs: VariedSystem, kind: RepairKind, assignment: dict[str, object]
) -> RepairCandidate:
    network = vs.base.network
    refs = indexed_constraints(network)
    mods: list[Modification] = []
    for var in vs.variables:
        value = assignment[var.name]
        if value == var.zero:
            continue
        if kind == RepairKind.BOUND:
            idx = var.anchor[0]
            old = refs[idx].atom.bound
            # A lower-bound guard may be relaxed past 0; clocks never go
            # negative, so clamping to 0 applies the same constraint.
            new = max(Fraction(0), old + Fraction(value))
            mods.append(
                Modification(
                    "constraint",
                    ("constraint", idx),
                    old,
                    new,
                    f"{var.description}: bound {old} -> {new} (v = {Fraction(value)})",
                )
            )
        elif kind == RepairKind.OPERATOR:
            idx = var.anchor[0]
            old = refs[idx].atom.op
            mods.append(
                Modification(
                    "constraint",
                    ("constraint", idx),
                    old,
                    value,
                    f"{var.description}: operator {old.name} -> {Op(value).name}",
                )
            )
        elif kind == RepairKind.CLOCKREF:
            idx = var.anchor[0]
            old = refs[idx].atom.clock
            names = network.clock_names
            mods.append(
                Modification(
                    "constraint",
                    ("constraint", idx),
                    old,
                    value,
                    f"{var.description}: clock {names[old]} -> {names[value]}",
                )
            )
        elif kind == RepairKind.RESET:
            ai, ti, clock = var.anchor
            old = clock in network.automata[ai].transitions[ti].resets
            mods.append(
                Modification("reset", ("reset", ai, ti, clock), old, not old, var.description)
            )
        else:  # URGENT
            ai, li = var.anchor
            auto = network.automata[ai]
            old = li in auto.urgent
            mods.append(
                Modification(
                    "urgent",
                    ("urgent", ai, li),
                    old,
                    not old,
                    var.description,
                )
            )
    mods.sort(key=lambda m: m.anchor)
    return RepairCandidate(kind, tuple(mods), tuple(sorted(assignment.items())))


def _entails(new_atoms, old_atoms, budget: int) -> bool:
    """Does the new conjunction imply every atom of the old one?"""
    new_conj = conjunction(new_atoms)
    for a in old_atoms:
        if is_satisfiable(f_and([new_conj, a.negated_formula()]), budget).sat:
            return False
    return True


@dataclass
class RepairRun:
    """Transcript of one repair analysis over one diagnostic trace."""

    kind: RepairKind
    trace: SymbolicTimedTrace | None
    candidates: list[RepairCandidate] = field(default_factory=list)
    admissible: list[bool] = field(default_factory=list)
    witnesses: list[tuple[str, ...] | None] = field(default_factory=list)
    reason: str = "exhausted"
    timeouts: int = 0
    variable_count: int = 0
    """The delays d0..dn plus the variation variables. The reset kind counts
    the size of an explicit-clock encoding instead, which the campaign's Vr
    column has always reported: the n+1 delays, C*(n+2) per-step clock
    variables for C clocks, and C*n reset flips, one per (clock, step). It
    does not read the number of reset variables, which is one per edit."""
    constraint_count: int = 0
    """Fixed atoms, bound-variation atoms and the atoms of every branch of
    every group. The reset kind has no groups: it counts the trace system's
    atoms plus 2*C*(n+1), the explicit-clock encoding's clock equations
    (initial values, trailing flows and both branches of each per-(clock,
    step) reset choice) that the campaign's Cn column has always counted."""
    witness_files: list[str | None] = field(default_factory=list)

    @property
    def n_admissible(self) -> int:
        return sum(1 for a in self.admissible if a)


DEFAULT_MAX_REPAIRS = 64


def run(
    network: TimedAutomatonNetwork,
    prop,
    kind: RepairKind | str,
    tdt: SymbolicTimedTrace | None = None,
    max_repairs: int = DEFAULT_MAX_REPAIRS,
    qe_budget: int = DEFAULT_QE_BUDGET,
    state_budget: int = DEFAULT_STATE_BUDGET,
    admissibility_budget: int = DEFAULT_UNTIMED_BUDGET,
) -> RepairRun:
    """Compute, apply and admissibility-check repairs of one kind.

    Without a supplied trace the model is checked first; a Safe verdict
    yields an empty run.
    """
    kind = RepairKind(kind) if not isinstance(kind, RepairKind) else kind
    problems = [d for d in validate(network, prop) if not d.startswith("warning:")]
    if problems:
        raise ValueError("; ".join(problems))
    if tdt is None:
        verdict = check(network, prop, state_budget)
        if verdict.safe:
            return RepairRun(kind, None, reason="no-violation-found")
        tdt = verdict.trace

    enc = encode(network, tdt, prop)
    runout = RepairRun(kind, tdt)
    if not violating(enc):
        # A supplied trace without violating realizations leaves nothing to
        # repair; the all-zero assignment would be a spurious empty repair.
        runout.reason = "trace-not-violating"
        return runout
    original_cache: dict = {}
    try:
        vs = vary(enc, kind.value)
        hard = HardConstraint(vs, qe_budget)
        n, clocks = vs.base.n, network.n_clocks
        if kind == RepairKind.RESET:
            runout.variable_count = n + 1 + clocks * (n + 2) + clocks * n
            runout.constraint_count = len(vs.base.linear_atoms()) + 2 * clocks * (n + 1)
        else:
            runout.variable_count = n + 1 + len(vs.variables)
            runout.constraint_count = len(vs.base_atoms) + len(vs.free_atoms) + sum(
                len(atoms) for g in vs.groups for _, atoms in g.branches
            )
        if max_repairs <= 0:
            runout.reason = "budget"
            return runout
        for _, assignments in max_sat(hard):
            emitted_atoms: list[tuple] = []
            for assignment in assignments:
                inst, _ = hard.query(assignment)
                if any(_entails(inst, prev, qe_budget) for prev in emitted_atoms):
                    continue
                candidate = _candidate_from_assignment(vs, kind, assignment)
                repaired = apply_candidate(network, candidate)
                reenc = encode(repaired, tdt, prop)
                if not feasible(reenc) or violating(reenc):
                    raise AssertionError(
                        f"semantic repair contract violated by {candidate.describe_modifications()}"
                    )
                verdict = check_admissible(
                    network, repaired, admissibility_budget, original_cache
                )
                runout.candidates.append(candidate)
                runout.admissible.append(verdict.equal)
                runout.witnesses.append(verdict.witness)
                runout.witness_files.append(None)
                emitted_atoms.append(inst)
                if len(runout.candidates) >= max_repairs:
                    runout.reason = "budget"
                    return runout
    except QeBudgetExceeded:
        runout.reason = "qe-timeout"
        runout.timeouts = 1
    return runout
