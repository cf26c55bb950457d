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
``w = 1`` suggestion out when ``w <= 1`` was already proposed. Like the
search, this filter decides by difference logic: implication is inclusion
of the closed DBMs of ``TdtConstraintSystem.decide``.

Every emitted candidate is re-verified against the semantic repair
contract (the repaired model still realizes the trace, and no realization
violates the property) by ``checker.replay``, a zone replay of the trace
on the repaired model: an engine other than the search's difference-logic
system over the prefix times. A candidate that fails it is not emitted and
stops the run with reason ``contract-violation``. Emitted candidates are
then admissibility-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .admissibility import check_admissible
from .checker import DEFAULT_STATE_BUDGET, SymbolicTimedTrace, check, replay
# feasible, violating and is_satisfiable are not called here; they stay
# importable under this module's name because bench/tracing.py wraps them here.
from .encoder import encode, feasible, violating  # noqa: F401
from .lra import DEFAULT_QE_BUDGET, QeBudgetExceeded, is_satisfiable  # noqa: F401
# repairing_assignments is not called here; it stays importable under this
# module's name because bench/tracing.py wraps it here.
from .maxsmt import HardConstraint, max_sat, repairing_assignments  # noqa: F401
from .model import AtomicClockConstraint, Op, TimedAutomatonNetwork, indexed_constraints, validate
from .variations import AnchorMismatch, Modification, VariedSystem, vary


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


def _candidate_from_assignment(hard: HardConstraint, kind: RepairKind, assignment: dict[str, object]) -> RepairCandidate:
    """The candidate made of the edits that the hard check of ``assignment`` decided."""
    mods = sorted(hard.edits(assignment), key=lambda m: m.anchor)
    return RepairCandidate(kind, tuple(mods), tuple(sorted(assignment.items())))


def _entails(new, old) -> bool:
    """Does the new closed zone lie inside the old one?"""
    return new.empty or (new.scale == old.scale and all(a <= b for a, b in zip(new.m, old.m)))


def _sizes(vs: VariedSystem) -> tuple[int, int]:
    """``RepairRun.variable_count`` and ``constraint_count`` of a run; see there."""
    sys, n, clocks = vs.base, vs.base.n, vs.base.network.n_clocks
    if vs.kind == "reset":
        return n + 1 + clocks * (n + 2) + clocks * n, len(sys.atoms) + 2 * clocks * (n + 1)
    varied = [ta for ta in sys.atoms if ta.block in ("I", "G")]
    extra = {  # linear atoms beyond the trace system's, which has one per trace atom
        "bound": len(vs.free_atoms) - len(sys.atoms),
        "operator": (len(Op) - 1) * len(varied),
        "clockref": sum(len(sys.network.automata[ta.automaton].clocks) - 1 for ta in varied),
        "urgent": (n + 1) * len(sys.network.automata) - sum(ta.block == "U" for ta in sys.atoms),
    }
    return n + 1 + len(vs.variables), len(sys.atoms) + extra[vs.kind]


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
    """A closed form of the trace's shape, as the campaign's Cn column has
    always reported it. With #A, #U and #IG the trace system's A, U and I/G
    atoms, n steps, C clocks and N automata:

    - bound: #A + #U + #IG + one clamp atom per varied ``>`` bound;
    - operator: #A + #U + 5*#IG;
    - clockref: #A + #U + the sum over I/G atoms of their automaton's clocks;
    - reset: #A + #U + #IG + 2*C*(n+1), the explicit-clock encoding's clock
      equations (initial values, trailing flows and both branches of each
      per-(clock, step) reset choice);
    - urgent: #A + #IG + (n+1)*N."""
    witness_files: list[str | None] = field(default_factory=list)
    rejected: RepairCandidate | None = None
    """The candidate that failed the contract re-check (reason
    ``contract-violation``); it is not among ``candidates``."""

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
    if not enc.decide()[1]:
        # A supplied trace without violating realizations leaves nothing to
        # repair; the all-zero assignment would be a spurious empty repair.
        runout.reason = "trace-not-violating"
        return runout
    original_cache: dict = {}
    try:
        vs = vary(enc, kind.value)
        hard = HardConstraint(vs, qe_budget)
        runout.variable_count, runout.constraint_count = _sizes(vs)
        if max_repairs <= 0:
            runout.reason = "budget"
            return runout
        for _, assignments in max_sat(hard):
            emitted = []  # the zones of this set's candidates
            for assignment in assignments:
                zone, _ = enc.decide(hard.edits(assignment))
                if any(_entails(zone, prev) for prev in emitted):
                    continue
                candidate = _candidate_from_assignment(hard, kind, assignment)
                repaired = apply_candidate(network, candidate)
                realizable, violates = replay(repaired, prop, tdt)
                if not realizable or violates:
                    runout.reason = "contract-violation"
                    runout.rejected = candidate
                    return runout
                verdict = check_admissible(network, repaired, original_cache=original_cache)
                runout.candidates.append(candidate)
                runout.admissible.append(verdict.equal)
                runout.witnesses.append(verdict.witness)
                runout.witness_files.append(None)
                emitted.append(zone)
                if len(runout.candidates) >= max_repairs:
                    runout.reason = "budget"
                    return runout
    except QeBudgetExceeded:
        runout.reason = "qe-timeout"
        runout.timeouts = 1
    return runout
