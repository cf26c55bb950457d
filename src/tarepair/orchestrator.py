"""End-to-end repair loop: trace, variation, MaxSMT, application, admissibility.

One pass of the MaxSMT search yields the repairing sets of variation
variables, smallest first, each with its repairing value assignments
(discrete kinds; the bound kind samples one rational assignment); the
search blocks each set's variables once it is yielded. Candidates
therefore appear in non-decreasing modification count, and no modified
set repeats. Each variation variable is one syntactic edit
(``variations.edit``), so distinct assignments are distinct repairs, and
``apply_candidate`` applies each edit by its anchor alone.

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

from .admissibility import check_admissible
from .checker import DEFAULT_STATE_BUDGET, SymbolicTimedTrace, check
from .encoder import encode, feasible, violating
from .lra import DEFAULT_QE_BUDGET, QeBudgetExceeded, conjunction, f_and, is_satisfiable
# repairing_assignments is not called here; it stays importable under this
# module's name because bench/tracing.py wraps it here.
from .maxsmt import HardConstraint, max_sat, repairing_assignments  # noqa: F401
from .model import AtomicClockConstraint, TimedAutomatonNetwork, indexed_constraints, validate
from .variations import AnchorMismatch, Modification, VariedSystem, edit, vary


class RepairKind(enum.Enum):
    BOUND = "bound"
    OPERATOR = "operator"
    CLOCKREF = "clockref"
    RESET = "reset"
    URGENT = "urgent"


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
                Modification(m.anchor, m.new, m.old, f"revert {m.description}")
                for m in self.modifications
            ),
            self.assignment,
        )


def _put(items: tuple, i: int, item) -> tuple:
    return items[:i] + (item,) + items[i + 1 :]


def _toggle(members: frozenset, member, m: Modification, what: str) -> frozenset:
    """``members`` with ``member`` set to ``m.new``, once it is found at ``m.old``."""
    if (member in members) != m.old:
        raise AnchorMismatch(f"{what} is {member in members}, expected {m.old}")
    return members | {member} if m.new else members - {member}


def _replace_constraint_atom(network, idx: int, new_atom: AtomicClockConstraint, old_atom):
    ref = indexed_constraints(network)[idx]
    if ref.atom != old_atom:
        raise AnchorMismatch(f"constraint #{idx} is {ref.atom}, expected {old_atom}")
    auto = network.automata[ref.automaton]
    if ref.kind == "invariant":
        inv = _put(auto.invariants[ref.location], ref.atom_pos, new_atom)
        auto = replace(auto, invariants=_put(auto.invariants, ref.location, inv))
    else:
        trans = auto.transitions[ref.transition]
        trans = replace(trans, guard=_put(trans.guard, ref.atom_pos, new_atom))
        auto = replace(auto, transitions=_put(auto.transitions, ref.transition, trans))
    return replace(network, automata=_put(network.automata, ref.automaton, auto))


def apply_candidate(
    network: TimedAutomatonNetwork, candidate: RepairCandidate
) -> TimedAutomatonNetwork:
    """Pure application of a candidate's modifications, each by its anchor."""
    for m in candidate.modifications:
        target, *where = m.anchor
        if target == "constraint":
            (idx,) = where
            network = _replace_constraint_atom(network, idx, m.new, m.old)
        elif target == "reset":
            ai, ti, clock = where
            auto = network.automata[ai]
            trans = auto.transitions[ti]
            resets = _toggle(trans.resets, clock, m, f"reset of clock {clock} on {auto.name}.t{ti}")
            auto = replace(auto, transitions=_put(auto.transitions, ti, replace(trans, resets=resets)))
            network = replace(network, automata=_put(network.automata, ai, auto))
        elif target == "urgent":
            ai, li = where
            auto = network.automata[ai]
            auto = replace(auto, urgent=_toggle(auto.urgent, li, m, f"urgency of {auto.name} location {li}"))
            network = replace(network, automata=_put(network.automata, ai, auto))
        else:
            raise ValueError(f"unknown modification target {target}")
    return network


def _candidate_from_assignment(
    vs: VariedSystem, kind: RepairKind, assignment: dict[str, object]
) -> RepairCandidate:
    mods = sorted(
        (edit(vs, var, assignment[var.name]) for var in vs.variables if assignment[var.name] != var.zero),
        key=lambda m: m.anchor,
    )
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
                inst, _ = vs.instantiate(assignment)
                if any(_entails(inst, prev, qe_budget) for prev in emitted_atoms):
                    continue
                candidate = _candidate_from_assignment(vs, kind, assignment)
                repaired = apply_candidate(network, candidate)
                reenc = encode(repaired, tdt, prop)
                if not feasible(reenc) or violating(reenc):
                    raise AssertionError(
                        f"semantic repair contract violated by {candidate.describe_modifications()}"
                    )
                verdict = check_admissible(network, repaired, original_cache=original_cache)
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
