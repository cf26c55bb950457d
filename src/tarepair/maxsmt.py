"""Partial MaxSMT over variation variables.

The hard constraint says: some realization of the varied trace system
exists, and every realization satisfies the property. The soft constraints
pin each variation variable to its "no change" value; a repair is an
assignment satisfying the hard constraint while keeping as many soft pins
as possible (equivalently, modifying as few constraints as possible).

Every trace system ranges over the delay variables d0..dn alone. For the
bound analysis the variation variables are free rationals, so the hard
constraint is materialized by quantifier elimination over the delays. For
the discrete analyses (operator, clock reference, resets, urgency) the
selectors are enumerated outside elimination: a candidate assignment
reduces both quantifiers to two exact satisfiability checks over delay
sums. ``VariedSystem.instantiate`` gives those sums, under the reset
pattern its edits produce for a reset assignment, property included. Each
``HardConstraint`` memoizes its verdicts by the instantiated atoms and
negated property, since many assignments of one run reduce to the same
query.

``max_sat`` is one pass over the modified sets of a run: it yields every
repairing set in ascending size and blocks the variables of each set it
yields, so the sets it yields share no variable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .lra import (
    DEFAULT_QE_BUDGET,
    FAnd,
    FAtom,
    FOr,
    Formula,
    LinearAtom,
    Rel,
    conjunction,
    eliminate,
    f_and,
    f_or,
    is_satisfiable,
)
from .variations import VariedSystem


def formula_to_dnf(f: Formula) -> list[list[LinearAtom]]:
    if isinstance(f, FAtom):
        return [[f.atom]]
    if isinstance(f, FAnd):
        out: list[list[LinearAtom]] = [[]]
        for c in f.children:
            out = [d + cd for d in out for cd in formula_to_dnf(c)]
        return out
    out = []
    for c in f.children:
        out.extend(formula_to_dnf(c))
    return out


class HardConstraint:
    """(exists delays. T^var) and (forall delays. T^var => Phi), checkable
    either per concrete assignment or, for the bound kind, as a formula
    over the free variation variables.

    Per-assignment checks run on the delay sums of
    ``VariedSystem.instantiate``. Verdicts are memoized for the life of the
    instance.
    """

    def __init__(self, vs: VariedSystem, qe_budget: int = DEFAULT_QE_BUDGET):
        self.vs = vs
        self.qe_budget = qe_budget
        self.formula: Formula | None = None
        self._verdicts: dict[tuple[tuple[LinearAtom, ...], Formula], bool] = {}
        if vs.kind == "bound":
            self.formula = self._bound_formula()

    def _bound_formula(self) -> Formula:
        vs = self.vs
        quantified = vs.base.delta_vars()
        atoms = list(vs.base_atoms) + list(vs.free_atoms)
        existential = eliminate(atoms, quantified, self.qe_budget)
        parts: list[Formula] = [conjunction(existential)]
        for disjunct in formula_to_dnf(vs.neg_phi):
            projected = eliminate(atoms + disjunct, quantified, self.qe_budget)
            parts.append(f_and([f_or([a.negated_formula() for a in projected])]))
        return f_and(parts)

    def check(self, assignment: dict[str, object]) -> bool:
        """Is this full assignment a repair (feasible, no violating realization)?"""
        query = self.vs.instantiate(assignment)
        verdict = self._verdicts.get(query)
        if verdict is None:
            atoms, neg_phi = query
            verdict = is_satisfiable(atoms, self.qe_budget).sat and not is_satisfiable(
                f_and([conjunction(atoms), neg_phi]), self.qe_budget
            ).sat
            self._verdicts[query] = verdict
        return verdict

    def check_with_zeros(self, zeros: frozenset[str]) -> bool:
        """Bound kind: is the hard formula satisfiable with these variables pinned to 0?"""
        pins = conjunction(
            LinearAtom.make({v: Fraction(1)}, Rel.EQ, 0) for v in sorted(zeros)
        )
        return is_satisfiable(f_and([self.formula, pins]), self.qe_budget).sat


def nonzero_values(var) -> list[object]:
    """Domain of one variable without its zero meaning, in deterministic order."""
    assert var.domain is not None
    return [v for v in var.domain if v != var.zero]


def repairing_assignments(hard: HardConstraint, modified: tuple[str, ...]):
    """All repairing value combinations on exactly the given modified set.

    Discrete kinds only; values run over each variable's non-zero domain in
    lexicographic order, so enumeration is deterministic.
    """
    vs = hard.vs
    zeros = {v.name: v.zero for v in vs.variables if v.name not in modified}
    mvars = [vs.variable_named(name) for name in modified]
    found = []
    for combo in itertools.product(*(nonzero_values(v) for v in mvars)):
        assignment = dict(zeros)
        assignment.update({v.name: val for v, val in zip(mvars, combo)})
        if hard.check(assignment):
            found.append(assignment)
    return found


# Largest integer magnitude sample_repair_values tries before it falls back
# to a rational model.
SCAN_LIMIT = 64


def sample_repair_values(hard: HardConstraint, modified: tuple[str, ...]) -> dict[str, Fraction] | None:
    """Concrete rational values for the modified bound variables.

    Each variable is fixed in turn to the integer of minimal absolute value
    that keeps the pinned hard formula satisfiable (positive before
    negative); when no integer fits within ``SCAN_LIMIT``, a rational
    interior point from an exact model is used instead. The final full
    assignment is re-verified.
    """
    vs = hard.vs
    zeros = {v.name: Fraction(0) for v in vs.variables if v.name not in modified}
    pinned: dict[str, Fraction] = dict(zeros)

    def pinned_formula() -> Formula:
        pins = [
            FAtom(LinearAtom.make({v: Fraction(1)}, Rel.EQ, c)) for v, c in sorted(pinned.items())
        ]
        return f_and([hard.formula] + pins)

    for name in modified:
        chosen = None
        for magnitude in range(1, SCAN_LIMIT + 1):
            for val in (Fraction(magnitude), Fraction(-magnitude)):
                trial = f_and(
                    [pinned_formula(), FAtom(LinearAtom.make({name: Fraction(1)}, Rel.EQ, val))]
                )
                if is_satisfiable(trial, hard.qe_budget).sat:
                    chosen = val
                    break
            if chosen is not None:
                break
        if chosen is None:
            res = is_satisfiable(pinned_formula(), hard.qe_budget, want_model=True)
            if not res.sat:
                return None
            chosen = res.model.get(name, Fraction(0))
        pinned[name] = chosen
    values = {name: pinned[name] for name in modified}
    full = dict(zeros)
    full.update(values)
    if not hard.check(full):
        return None
    return values


def max_sat(hard: HardConstraint):
    """Every repairing modified set, fewest modified variation variables first.

    Yields ``(modified, assignments)``. Sets run in ascending size and in
    lexicographic order within a size, so the first yield is optimal and
    the order deterministic. The bound kind yields one sampled rational
    assignment per set, the discrete kinds every repairing assignment on
    it. Once yielded, a set's variables stay pinned to zero: later sets
    never modify them.
    """
    vs = hard.vs
    all_names = [v.name for v in vs.variables]
    blocked: set[str] = set()
    size = 0
    while size <= len(all_names) - len(blocked):
        names = [n for n in all_names if n not in blocked]
        for combo in itertools.combinations(names, size):
            if not blocked.isdisjoint(combo):
                continue
            if vs.kind == "bound":
                if not hard.check_with_zeros(frozenset(all_names) - set(combo)):
                    continue
                values = sample_repair_values(hard, combo)
                if values is None:
                    continue
                assignments = [{n: values.get(n, Fraction(0)) for n in all_names}]
            else:
                assignments = repairing_assignments(hard, combo)
                if not assignments:
                    continue
            blocked.update(combo)
            yield combo, assignments
        size += 1
