"""Partial MaxSMT over variation variables.

The hard constraint says: some realization of the varied trace system
exists, and every realization satisfies the property. The soft constraints
pin each variation variable to its "no change" value; a repair is an
assignment satisfying the hard constraint while keeping as many soft pins
as possible (equivalently, modifying as few constraints as possible).

Every kind checks a concrete assignment one way: ``HardConstraint.edits``
makes the ``variations.edit`` of each non-zero variable (once per value
and run), and ``TdtConstraintSystem.decide`` applies them to the rows of
the base trace system and decides both quantifiers by difference logic.
So the discrete analyses (operator, clock reference, resets, urgency)
make no linear rational arithmetic call, and each decides every distinct
edited system once, with pruning:

- operator and clock reference: ``repairing_assignments`` closes the
  system once per modified set without the set's constraints and walks
  the set's values depth first, conjoining one variable's edited rows
  per level; a level that closes empty prunes every assignment below it;
- resets and urgency: the edits change only the timing of the system (its
  zero-delay steps and delay-sum starts), so ``HardConstraint.check``
  keeps one verdict per timing.

For the bound analysis, whose variables are free rationals, the hard
constraint is also a formula over them (the rows with shifted bounds,
``VariedSystem.free_atoms``), projected by quantifier elimination over
the delays: the existential projection conjoined with, per disjunct of
the negated property, one choice group of ``lra.is_satisfiable`` (the
complement of that disjunct's projection). ``HardConstraint.values_of``
reads from it the exact set of values one variable can take with others
pinned, as intervals; the first variable's read decides a modified set,
and each read gives its variable's sampled value.

``repairing_assignments`` decides, for every kind, which assignments of
one modified set are repairs to emit. Within a set, an assignment whose
edited trace system is implied by an earlier repair's is dropped: such a
repair permits no realization the earlier one did not already permit.
This keeps, e.g., a ``w = 1`` suggestion out when ``w <= 1`` was already
proposed. Like the check, this filter decides by difference logic:
implication is inclusion of the closed DBMs that ``decide`` builds. Only
the operator and clock-reference walks can find more than one assignment
per set, so only they filter.

``max_sat`` is one pass over the modified sets of a run and reads no
kind: it enumerates the non-empty sets in ascending size, yields those
with a repairing assignment and blocks the variables of each set it
yields, so the sets it yields share no variable. Before each size from
two it asks ``HardConstraint.may_repair`` and stops where no set of
unblocked variables can repair (the bound kind's one zero query).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple

from .lra import DEFAULT_QE_BUDGET, LinearAtom, QeBudgetExceeded, Rel, atom_eq, eliminate, is_satisfiable
from .variations import Modification, VariationVariable, VariedSystem, edit


class HardConstraint:
    """(exists delays. T^var) and (forall delays. T^var => Phi), checkable
    either per concrete assignment or, for the bound kind, as a formula
    over the free variation variables: ``formula`` is its ``(atoms,
    choices)`` query for ``lra.is_satisfiable``, which ``check_with_zeros``
    asks and ``values_of`` reads.
    """

    def __init__(self, vs: VariedSystem, qe_budget: int = DEFAULT_QE_BUDGET):
        self.vs = vs
        self.qe_budget = qe_budget
        self.formula = self._bound_formula() if vs.kind == "bound" else None
        self._edits: dict[tuple[str, object], Modification] = {}
        self._verdicts: dict[tuple, bool] = {}  # reset and urgent kinds: per timing

    def _bound_formula(self) -> tuple[list[LinearAtom], list[list[list[LinearAtom]]]]:
        """The existential projection, and per negated-property disjunct one
        choice group: the complement of its projection, atom by atom."""
        vs = self.vs
        quantified = vs.base.delta_vars()
        atoms = list(vs.free_atoms)
        existential = eliminate(atoms, quantified, self.qe_budget)
        groups = [
            [alt for a in eliminate(atoms + disjunct, quantified, self.qe_budget) for alt in a.negation()]
            for disjunct in vs.base.negated_property_atoms()
        ]
        return existential, groups

    def edit(self, var: VariationVariable, value) -> Modification:
        """``variations.edit`` of one non-zero value, made once per run."""
        m = self._edits.get((var.name, value))
        if m is None:
            m = self._edits[(var.name, value)] = edit(self.vs, var, value)
        return m

    def edits(self, assignment: dict[str, object]) -> list[Modification]:
        """The modifications that the assignment's non-zero variables make."""
        return [self.edit(var, assignment[var.name]) for var in self.vs.variables if assignment[var.name] != var.zero]

    def check(self, assignment: dict[str, object]) -> bool:
        """Is this full assignment a repair (feasible, no violating realization)?

        Reset and urgency edits change only the edited system's timing
        (``TdtConstraintSystem.timing``), so those kinds decide each distinct
        timing once and keep its verdict.
        """
        base = self.vs.base
        edits = self.edits(assignment)
        if self.vs.kind not in ("reset", "urgent"):
            zone, violating = base.decide(edits)
            return not zone.empty and not violating
        timing = base.timing(edits)
        verdict = self._verdicts.get(timing)
        if verdict is None:
            m = base.close(timing, base.scale)
            verdict = self._verdicts[timing] = m is not None and not base.meets_negated_property(m, timing, base.scale)
        return verdict

    def _substituted(self, pins: dict[str, Fraction]):
        """Bound kind: ``formula`` with each pin substituted into its atoms."""
        atoms, choices = self.formula
        return (
            [a.substitute(pins) for a in atoms],
            [[[a.substitute(pins) for a in alt] for alt in group] for group in choices],
        )

    def check_with_zeros(self, zeros: frozenset[str]) -> bool:
        """Bound kind: is the hard formula satisfiable with these variables pinned to 0?"""
        atoms, choices = self._substituted(dict.fromkeys(zeros, Fraction(0)))
        return is_satisfiable(atoms, choices, self.qe_budget).sat

    def values_of(self, name: str, pins: dict[str, Fraction]) -> list[Interval]:
        """Bound kind: exactly the values of ``name`` for which the hard
        formula, with the variables of ``pins`` pinned to them, is
        satisfiable, as a union of intervals (empty where there is none).

        Per choice combination, every other free variable is eliminated
        (none where no other is free), which leaves bounds on ``name``
        alone: the combination's interval.
        """
        atoms, choices = self._substituted(pins)
        read: list[Interval] = []
        for combo in itertools.product(*choices):
            conj = atoms + [a for alt in combo for a in alt]
            others = {v for a in conj for v in a.variables()} - {name}
            interval = Interval.of(eliminate(conj, others, self.qe_budget) if others else conj)
            if interval is not None and interval not in read:
                read.append(interval)
        return read

    def may_repair(self, blocked: set[str]) -> bool:
        """Can some set of unblocked variables still repair?

        The bound kind asks whether the hard formula is satisfiable with only
        the blocked variables pinned to 0: a set repairs only if all
        unblocked variables left free together can, so False is exact. An
        elimination past the QE budget here prunes nothing. Every other kind
        answers True.
        """
        if self.vs.kind != "bound":
            return True
        try:
            return self.check_with_zeros(frozenset(blocked))
        except QeBudgetExceeded:
            return True


class Interval(NamedTuple):
    """The rationals between ``lo`` and ``hi``; None is unbounded, and a
    strict end excludes itself."""

    lo: Fraction | None
    lo_strict: bool
    hi: Fraction | None
    hi_strict: bool

    @staticmethod
    def of(atoms: list[LinearAtom]) -> Interval | None:
        """The interval of a conjunction of atoms over at most one variable;
        None where it is empty."""
        lo, lo_strict, hi, hi_strict = None, False, None, False
        for a in atoms:
            strict = a.rel == Rel.LT
            if not a.coeffs:  # 0 rel const
                if a.const < 0 or (a.const == 0 and strict) or (a.const != 0 and a.rel == Rel.EQ):
                    return None
                continue
            ((_, c),) = a.coeffs
            bound = Fraction(a.const, c)
            if c > 0 or a.rel == Rel.EQ:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
            if c < 0 or a.rel == Rel.EQ:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
        if lo is not None and hi is not None and (lo > hi or (lo == hi and (lo_strict or hi_strict))):
            return None
        return Interval(lo, lo_strict, hi, hi_strict)

    def __contains__(self, value: Fraction) -> bool:
        lo, hi = self.lo, self.hi
        above = lo is None or value > lo or (value == lo and not self.lo_strict)
        return above and (hi is None or value < hi or (value == hi and not self.hi_strict))

    def least_integers(self) -> tuple[int | None, int | None]:
        """The least positive integer in the interval and the negative one
        of least magnitude; None where there is none."""
        lo, hi = self.lo, self.hi
        first = 1 if lo is None else max(1, floor(lo) + 1 if self.lo_strict else ceil(lo))
        last = -1 if hi is None else min(-1, ceil(hi) - 1 if self.hi_strict else floor(hi))
        return (first if first in self else None), (last if last in self else None)


def nonzero_values(var) -> list[object]:
    """Domain of one variable without its zero meaning, in deterministic order."""
    assert var.domain is not None
    return [v for v in var.domain if v != var.zero]


def repairing_assignments(hard: HardConstraint, modified: tuple[str, ...]):
    """The repairs to emit on exactly the given modified set, in order.

    The bound kind samples one rational assignment
    (``sample_repair_values``), whose first read, with every other variable
    pinned to zero, decides the set. Discrete values run over each
    variable's non-zero domain in lexicographic order, so enumeration is
    deterministic and follows ``itertools.product``. A reset or urgency
    flag has one non-zero value, so those sets have the one assignment that
    turns every flag on. Operator and clock-reference edits replace whole
    atoms, so those kinds close the trace system once without the set's
    constraints and conjoin one variable's edited rows per level of a
    depth-first walk: a level that closes empty prunes every assignment
    below it, and each leaf is the DBM ``decide`` builds for it. A
    repairing leaf that lies inside an earlier kept leaf is implied by that
    repair and dropped; all leaves share the base scale, since these edits
    keep every bound.
    """
    vs = hard.vs
    if vs.kind == "bound":
        full = sample_repair_values(hard, modified)
        return [] if full is None else [full]
    zeros = {v.name: v.zero for v in vs.variables if v.name not in modified}
    if vs.kind not in ("operator", "clockref"):
        flipped = dict(zeros, **dict.fromkeys(modified, True))
        return [flipped] if hard.check(flipped) else []
    mvars = [v for name in modified for v in vs.variables if v.name == name]
    base = vs.base
    timing, scale = base.timing(), base.scale
    found, kept = [], []  # the repairs and their leaves

    def walk(m: list[int], values: tuple) -> None:
        if len(values) == len(mvars):
            implied = any(all(a <= b for a, b in zip(m, k)) for k in kept)
            if not implied and not base.meets_negated_property(m, timing, scale):
                kept.append(m)
                found.append(dict(zeros, **{v.name: val for v, val in zip(mvars, values)}))
            return
        var = mvars[len(values)]
        for value in nonzero_values(var):
            edited = m.copy()
            if base.conjoin(edited, timing, var.anchor[0], hard.edit(var, value).new, scale):
                walk(edited, values + (value,))

    m = base.close(timing, scale, {v.anchor[0] for v in mvars})
    if m is not None:
        walk(m, ())
    return found


# Largest integer magnitude sample_repair_values tries before it falls back
# to a rational model.
SCAN_LIMIT = 64


def sample_repair_values(hard: HardConstraint, modified: tuple[str, ...]) -> dict[str, Fraction] | None:
    """A full repairing assignment of the bound kind that modifies exactly
    ``modified``, or None.

    Each variable in turn takes its value from its read
    (``HardConstraint.values_of``, with every variable before it pinned):
    the integer of minimal absolute value up to ``SCAN_LIMIT`` (positive
    before negative); where the read holds no such integer, a rational
    interior point from an exact model, whose query conjoins the pins as
    equalities and whose elimination order picks the model. Every other
    variable stays 0. The set repairs exactly when the first read is not
    empty, since each value chosen keeps the next read non-empty. The full
    assignment is re-verified and returned.
    """
    pinned = {v.name: Fraction(0) for v in hard.vs.variables if v.name not in modified}
    for name in modified:
        read = hard.values_of(name, pinned)
        if not read:
            return None
        integers = [i for interval in read for i in interval.least_integers() if i is not None and abs(i) <= SCAN_LIMIT]
        if integers:
            chosen = Fraction(min(integers, key=lambda i: (abs(i), i < 0)))
        else:  # the read is not empty, so the pinned formula has a model
            atoms, choices = hard.formula
            pins = [atom_eq({v: 1}, c) for v, c in sorted(pinned.items())]
            model = is_satisfiable(atoms + pins, choices, hard.qe_budget, want_model=True).model
            chosen = model.get(name, Fraction(0))
        pinned[name] = chosen
    return pinned if hard.check(pinned) else None


def max_sat(hard: HardConstraint):
    """Every repairing modified set, fewest modified variation variables first.

    Yields ``(modified, assignments)``. Sets run in ascending size from one
    variable and in lexicographic order within a size, so the first yield
    is optimal and the order deterministic. ``max_sat`` only enumerates and
    blocks: ``repairing_assignments`` decides each set and gives its
    assignments, and a set without one is skipped. Once yielded, a set's
    variables stay pinned to zero: later sets never modify them. Before
    each size from two, the search ends where ``hard.may_repair`` says
    that no set of the unblocked variables can repair.

    The empty set, the unedited trace, is decided before the search:
    ``orchestrator.run`` returns ``trace-not-violating`` instead of
    searching when the trace has no violating realization, so here it
    never repairs.
    """
    all_names = [v.name for v in hard.vs.variables]
    blocked: set[str] = set()
    size = 1
    while size <= len(all_names) - len(blocked):
        if size > 1 and not hard.may_repair(blocked):
            return
        names = [n for n in all_names if n not in blocked]
        for combo in itertools.combinations(names, size):
            if not blocked.isdisjoint(combo):
                continue
            assignments = repairing_assignments(hard, combo)
            if not assignments:
                continue
            blocked.update(combo)
            yield combo, assignments
        size += 1
