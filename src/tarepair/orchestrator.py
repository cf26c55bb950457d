"""End-to-end repair loop: trace, variation, MaxSMT, application, admissibility.

One pass of the MaxSMT search yields the repairing sets of variation
variables, smallest first, each with the value assignments to emit
(``maxsmt.repairing_assignments``: discrete kinds give each repairing
assignment that no earlier one of the set implies, the bound kind
samples one rational assignment); the search blocks each set's
variables once it is yielded. Candidates therefore appear in
non-decreasing modification count, and no modified set repeats. Each
variation variable is one syntactic edit (``variations.edit``), so
distinct assignments are distinct repairs, and ``apply_candidate``
applies each edit by its anchor alone. The run emits what the search
yields and decides no trace system after the initial violation check.

The runs of every kind on one trace share one ``RepairContext``: the
network is validated, the trace encoded and its initial violation decided
once per trace, not once per kind, and every run's admissibility checks
read the same zone graphs of the original.

Every emitted candidate is re-verified against the semantic repair
contract (the repaired model still realizes the trace, and no realization
violates the property) by ``checker.replay``, a zone replay of the trace
on the repaired model: an engine other than the search's difference-logic
system over the prefix times. A candidate that fails it is not emitted and
stops the run with reason ``contract-violation``. Emitted candidates are
then admissibility-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .admissibility import check_admissible
from .checker import SymbolicTimedTrace, check, replay
# feasible, violating and is_satisfiable are not called here; they stay
# importable under this module's name because bench/tracing.py wraps them here.
from .encoder import encode, feasible, violating  # noqa: F401
from .lra import DEFAULT_QE_BUDGET, QeBudgetExceeded, is_satisfiable  # noqa: F401
# repairing_assignments is not called here; it stays importable under this
# module's name because bench/tracing.py wraps it here.
from .maxsmt import HardConstraint, max_sat, repairing_assignments  # noqa: F401
from .model import AtomicClockConstraint, Op, TimedAutomatonNetwork, indexed_constraints, validate
from .variations import AnchorMismatch, Modification, RepairKind, VariedSystem, vary


@dataclass(frozen=True)
class RepairCandidate:
    kind: RepairKind
    modifications: tuple[Modification, ...]
    assignment: tuple[tuple[str, object], ...]  # raw solver values, all variables

    def describe_modifications(self) -> list[str]:
        return [m.description for m in self.modifications]


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


def _sizes(vs: VariedSystem) -> tuple[int, int]:
    """``RepairRun.variable_count`` and ``constraint_count`` of a run; see there."""
    sys, n, clocks = vs.base, vs.base.n, vs.base.network.n_clocks
    rows, shape = len(sys.atoms), n + 1 + len(sys.timing()[0])  # #IG and #A + #U
    if vs.kind == "reset":
        return n + 1 + clocks * (n + 2) + clocks * n, shape + rows + 2 * clocks * (n + 1)
    if vs.kind == "bound":
        count = len(vs.free_atoms)
    elif vs.kind == "operator":
        count = shape + len(Op) * rows
    elif vs.kind == "clockref":  # each row of a variable's index, once per clock of its domain
        count = shape + sum(len(v.domain) * len(sys.by_index[v.anchor[0]]) for v in vs.variables)
    else:
        count = n + 1 + rows + (n + 1) * len(sys.network.automata)
    return n + 1 + len(vs.variables), count


@dataclass
class RepairRun:
    """Transcript of one repair analysis over one diagnostic trace."""

    kind: RepairKind
    trace: SymbolicTimedTrace | None
    candidates: list[RepairCandidate] = field(default_factory=list)
    repaired: list[TimedAutomatonNetwork] = field(default_factory=list)
    """The network each candidate makes (``apply_candidate``), in order."""
    admissible: list[bool] = field(default_factory=list)
    witnesses: list[tuple[str, ...] | None] = field(default_factory=list)
    reason: str = "exhausted"
    variable_count: int = 0
    """The delays d0..dn plus the variation variables. The reset kind counts
    the size of an explicit-clock encoding instead, which the campaign's Vr
    column has always reported: the n+1 delays, C*(n+2) per-step clock
    variables for C clocks, and C*n reset flips, one per (clock, step). It
    does not read the number of reset variables, which is one per edit."""
    constraint_count: int = 0
    """A closed form of the trace's shape, as the campaign's Cn column has
    always reported it. With n steps, #A = n+1, #U the zero-delay steps and
    #IG the trace system's rows, C clocks and N automata:

    - bound: #A + #U + #IG + one clamp atom per varied ``>`` bound;
    - operator: #A + #U + 5*#IG;
    - clockref: #A + #U + the sum over I/G atoms of their automaton's clocks;
    - reset: #A + #U + #IG + 2*C*(n+1), the explicit-clock encoding's clock
      equations (initial values, trailing flows and both branches of each
      per-(clock, step) reset choice);
    - urgent: #A + #IG + (n+1)*N."""
    rejected: RepairCandidate | None = None
    """The candidate that failed the contract re-check (reason
    ``contract-violation``); it is not among ``candidates``."""

    @property
    def timeouts(self) -> int:
        """1 when the QE budget stopped the run, else 0: the campaign's O column."""
        return 1 if self.reason == "qe-timeout" else 0

    @property
    def n_admissible(self) -> int:
        return sum(1 for a in self.admissible if a)


DEFAULT_MAX_REPAIRS = 64


class RepairContext:
    """What the repair runs of every kind on one (network, property, trace) share.

    Made once per trace, it validates the network and property (ValueError
    on an error-level diagnostic), checks the model within
    ``checker.DEFAULT_STATE_BUDGET`` when no trace is given (``trace`` is
    then None for a Safe verdict), encodes the trace as its constraint
    system (``system``) and decides whether it has a violating realization
    (``violating``). ``original_graphs`` is ``check_admissible``'s cache of
    the network's zone graphs, so every candidate of every run checks
    against the same graphs of the original and their pool of memos.
    """

    def __init__(
        self, network: TimedAutomatonNetwork, prop, trace: SymbolicTimedTrace | None = None
    ) -> None:
        problems = [d for d in validate(network, prop) if not d.startswith("warning:")]
        if problems:
            raise ValueError("; ".join(problems))
        if trace is None:
            trace = check(network, prop).trace
        self.network, self.prop, self.trace = network, prop, trace
        self.system = None if trace is None else encode(network, trace, prop)
        # The initial violation check decides the empty modified set, the
        # unedited trace, for every kind's search, which starts at one variable.
        self.violating = self.system is not None and self.system.decide()[1]
        self.original_graphs: dict = {}


def run(
    network: TimedAutomatonNetwork,
    prop,
    kind: RepairKind | str,
    tdt: SymbolicTimedTrace | None = None,
    max_repairs: int = DEFAULT_MAX_REPAIRS,
    qe_budget: int = DEFAULT_QE_BUDGET,
    context: RepairContext | None = None,
) -> RepairRun:
    """Compute, apply and admissibility-check repairs of one kind.

    Without a supplied trace the model is checked first, within
    ``checker.DEFAULT_STATE_BUDGET``; a Safe verdict yields an empty run.
    ``context`` is the ``RepairContext`` of (network, prop, tdt); callers
    that run several kinds on one trace pass one context to each run, and
    None gives this run a context of its own.
    """
    kind = RepairKind(kind) if not isinstance(kind, RepairKind) else kind
    if context is None:
        context = RepairContext(network, prop, tdt)
    elif context.network is not network or context.prop is not prop or tdt not in (None, context.trace):
        raise ValueError("the repair context is of another network, property or trace")
    if context.trace is None:
        return RepairRun(kind, None, reason="no-violation-found")
    tdt = context.trace
    runout = RepairRun(kind, tdt)
    if not context.violating:
        # A supplied trace without violating realizations leaves nothing to repair.
        runout.reason = "trace-not-violating"
        return runout
    try:
        vs = vary(context.system, kind.value)
        hard = HardConstraint(vs, qe_budget)
        runout.variable_count, runout.constraint_count = _sizes(vs)
        if max_repairs <= 0:
            runout.reason = "budget"
            return runout
        for _, assignments in max_sat(hard):
            for assignment in assignments:
                candidate = _candidate_from_assignment(hard, kind, assignment)
                repaired = apply_candidate(network, candidate)
                realizable, violates = replay(repaired, prop, tdt)
                if not realizable or violates:
                    runout.reason = "contract-violation"
                    runout.rejected = candidate
                    return runout
                verdict = check_admissible(network, repaired, original_cache=context.original_graphs)
                runout.candidates.append(candidate)
                runout.repaired.append(repaired)
                runout.admissible.append(verdict.equal)
                runout.witnesses.append(verdict.witness)
                if len(runout.candidates) >= max_repairs:
                    runout.reason = "budget"
                    return runout
    except QeBudgetExceeded:
        runout.reason = "qe-timeout"
    return runout
