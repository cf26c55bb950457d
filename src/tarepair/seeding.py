"""Mutation-based fault seeding and the benchmarking campaign around it.

Seeding enumerates every single-edit mutant of a model: clock bounds
shifted by {-10, -1, +1, +ceil(0.1*M), +M} where M is the maximal clock
bound occurring in the model (results clamped at 0, duplicates removed),
comparison operators swapped for each of the other four, referenced
clocks swapped for every other clock of the automaton, one reset toggle
per transition and clock, and one urgency toggle per location. Each
mutant is one ``Modification`` of the kind a repair analysis makes:
``apply_candidate`` builds the mutant, and the inverse of its ``edit``
restores the original.

The campaign model-checks every mutant and, for the violating ones, runs
the selected repair analyses, aggregating the table columns #Sd, #T, Ln,
#R, #A, #S, #O, #Vr, #Cn. Enumeration order is fixed and nothing draws
randomness, so campaign reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .checker import Exhausted, check
from .model import (
    Op,
    TimedAutomatonNetwork,
    indexed_constraints,
)
from .orchestrator import DEFAULT_MAX_REPAIRS, RepairCandidate, RepairContext, apply_candidate, run
from .variations import KINDS, Modification, RepairKind


@dataclass(frozen=True)
class Mutant:
    kind: str
    description: str
    network: TimedAutomatonNetwork
    edit: RepairCandidate  # the seeding edit, reusable for structural diffs


def model_max_bound(network: TimedAutomatonNetwork) -> int:
    """Maximal clock bound M of the model's own constraints, read off ``clock_bounds``."""
    lower, upper = network.clock_bounds
    return max((0, *lower, *upper))


def bound_deltas(m: int) -> list[Fraction]:
    """The bound shifts of one constraint; ``+ceil(0.1*M)`` is exact for every integer M."""
    return [Fraction(-10), Fraction(-1), Fraction(1), Fraction(-(-m // 10)), Fraction(m)]


def seed(network: TimedAutomatonNetwork, kinds=KINDS) -> list[Mutant]:
    """All single-edit mutants in deterministic order.

    Bound mutants clamp at 0 and deduplicate per constraint; operator
    mutants exclude the identity swap; clock swaps range over the owning
    automaton's other clocks.
    """
    mutants: list[Mutant] = []
    refs = indexed_constraints(network)
    names = network.clock_names
    m = model_max_bound(network)

    def mutate(kind: str, anchor: tuple, old, new, description: str) -> None:
        cand = RepairCandidate(RepairKind(kind), (Modification(anchor, old, new, description),), ())
        mutants.append(Mutant(kind, description, apply_candidate(network, cand), cand))

    if "bound" in kinds:
        for ref in refs:
            seen: set[Fraction] = set()
            for delta in bound_deltas(m):
                new = max(Fraction(0), ref.atom.bound + delta)
                if new == ref.atom.bound or new in seen:
                    continue
                seen.add(new)
                mutate(
                    "bound",
                    ("constraint", ref.index),
                    ref.atom,
                    replace(ref.atom, bound=new),
                    f"seed bound #{ref.index}: {ref.atom.bound} -> {new}",
                )
    if "operator" in kinds:
        for ref in refs:
            for op in Op:
                if op != ref.atom.op:
                    mutate(
                        "operator",
                        ("constraint", ref.index),
                        ref.atom,
                        replace(ref.atom, op=op),
                        f"seed operator #{ref.index}: {ref.atom.op.name} -> {op.name}",
                    )
    if "clockref" in kinds:
        for ref in refs:
            for clock in sorted(network.automata[ref.automaton].clocks):
                if clock != ref.atom.clock:
                    mutate(
                        "clockref",
                        ("constraint", ref.index),
                        ref.atom,
                        replace(ref.atom, clock=clock),
                        f"seed clock #{ref.index}: {names[ref.atom.clock]} -> {names[clock]}",
                    )
    if "reset" in kinds:
        for ai, auto in enumerate(network.automata):
            for ti, trans in enumerate(auto.transitions):
                for clock in sorted(auto.clocks):
                    has = clock in trans.resets
                    mutate(
                        "reset",
                        ("reset", ai, ti, clock),
                        has,
                        not has,
                        f"seed reset: {'remove' if has else 'add'} {names[clock]} on {auto.name}.t{ti}",
                    )
    if "urgent" in kinds:
        for ai, auto in enumerate(network.automata):
            for li in range(auto.n_locations):
                old = li in auto.urgent
                mutate(
                    "urgent",
                    ("urgent", ai, li),
                    old,
                    not old,
                    f"seed urgency: {auto.name}.{auto.location_names[li]} "
                    f"{'non-urgent' if old else 'urgent'}",
                )
    return mutants


@dataclass
class KindRow:
    """One aggregated result row of the campaign table."""

    kind: str
    seeded: int = 0  # Sd: seeded faults of this mutation kind
    violating: int = 0  # T: mutants with a diagnostic trace
    max_trace_len: int = 0  # Ln
    repairs: int = 0  # R
    admissible: int = 0  # A
    solved: int = 0  # S: traces with at least one admissible repair
    timeouts: int = 0  # O
    max_variables: int = 0  # Vr
    max_constraints: int = 0  # Cn

    def csv(self) -> str:
        return ",".join(str(getattr(self, f.name)) for f in fields(self))


@dataclass
class SeedCampaign:
    model_name: str
    max_bound: int
    rows: dict[str, KindRow]
    mutant_results: list[tuple[str, str, str]] = field(default_factory=list)
    # (mutation kind, description, outcome) per mutant, in enumeration order
    contract_violations: int = 0  # repair runs stopped by a failed contract re-check

    def total(self) -> KindRow:
        """The column-wise total: the max of the ``max_*`` columns, the sum of the rest."""
        out = KindRow("total")
        for f in fields(KindRow)[1:]:
            values = [getattr(row, f.name) for row in self.rows.values()]
            setattr(out, f.name, max(values, default=0) if f.name.startswith("max_") else sum(values))
        return out

    def to_csv(self) -> str:
        header = "kind,Sd,T,Ln,R,A,S,O,Vr,Cn"
        lines = [header]
        lines.extend(self.rows[k].csv() for k in sorted(self.rows))
        lines.append(self.total().csv())
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"fault seeding campaign on {self.model_name} (max model bound M = {self.max_bound})",
            "bound deltas: -10, -1, +1, +ceil(0.1*M), +M; clamped at 0, duplicates removed",
            "",
            self.to_csv().rstrip(),
            "",
        ]
        for kind, desc, outcome in self.mutant_results:
            lines.append(f"[{kind}] {desc}: {outcome}")
        return "\n".join(lines) + "\n"


# The budgets of each mutant's check and repair runs.
CAMPAIGN_STATE_BUDGET = 4_000
CAMPAIGN_QE_BUDGET = 20_000


def campaign(
    network: TimedAutomatonNetwork,
    prop,
    kinds=KINDS,
    max_repairs: int = DEFAULT_MAX_REPAIRS,
    model_name: str = "model",
) -> SeedCampaign:
    """Seed faults, check each mutant, repair every violating one.

    Per-mutant budget overruns are recorded as timeouts, and a repair run
    stopped by a failed contract re-check on the mutant's line; neither
    aborts the campaign.
    """
    rows = {k: KindRow(k) for k in kinds}
    out = SeedCampaign(model_name, model_max_bound(network), rows)
    for mutant in seed(network, kinds):
        row = rows[mutant.kind]
        row.seeded += 1
        try:
            verdict = check(mutant.network, prop, CAMPAIGN_STATE_BUDGET)
        except Exhausted:
            row.timeouts += 1
            out.mutant_results.append((mutant.kind, mutant.description, "check exhausted"))
            continue
        if verdict.safe:
            out.mutant_results.append((mutant.kind, mutant.description, "safe"))
            continue
        row.violating += 1
        row.max_trace_len = max(row.max_trace_len, len(verdict.trace))
        n_rep = n_adm = 0
        failed = []  # kinds whose run stopped on a failed contract re-check
        context = RepairContext(mutant.network, prop, verdict.trace)
        for rk in RepairKind:
            try:
                rr = run(
                    mutant.network,
                    prop,
                    rk,
                    max_repairs=max_repairs,
                    qe_budget=CAMPAIGN_QE_BUDGET,
                    context=context,
                )
            except Exhausted:
                row.timeouts += 1
                continue
            row.timeouts += rr.timeouts
            row.max_variables = max(row.max_variables, rr.variable_count)
            row.max_constraints = max(row.max_constraints, rr.constraint_count)
            n_rep += len(rr.candidates)
            n_adm += rr.n_admissible
            if rr.reason == "contract-violation":
                failed.append(rk.value)
        out.contract_violations += len(failed)
        row.repairs += n_rep
        row.admissible += n_adm
        if n_adm:
            row.solved += 1
        out.mutant_results.append(
            (
                mutant.kind,
                mutant.description,
                f"violated (trace length {len(verdict.trace)}): "
                f"{n_rep} repairs, {n_adm} admissible"
                + (f"; contract violation: {', '.join(failed)}" if failed else ""),
            )
        )
    return out
