"""Partial MaxSMT over variation variables.

The hard constraint says: some realization of the varied trace system
exists, and every realization satisfies the property. The soft constraints
pin each variation variable to its "no change" value; a repair is an
assignment satisfying the hard constraint while keeping as many soft pins
as possible (equivalently, modifying as few constraints as possible).

Every kind checks a concrete assignment one way: ``HardConstraint.edits``
makes the ``variations.edit`` of each non-zero variable (once per value
and run), and ``TdtConstraintSystem.decide`` applies them to the base
trace system and decides both quantifiers by difference logic. So the
discrete analyses (operator, clock reference, resets, urgency) make no
linear rational arithmetic call, and each decides every distinct edited
system once, with pruning:

- operator and clock reference: ``repairing_assignments`` closes the
  system once per modified set without the set's constraints and walks
  the set's values depth first, conjoining one variable's edited atoms
  per level; a level that closes empty prunes every assignment below it;
- resets and urgency: the edits change only the timing of the system (its
  zero-delay steps and delay-sum starts), so ``HardConstraint.check``
  keeps one verdict per timing; and reset toggles whose clock nothing
  reads after their transition first fires start blocked in ``max_sat``.

For the bound analysis, whose variables
are free rationals, the hard constraint is also a formula over them,
projected by quantifier elimination over the delays: the existential
projection conjoined with, per disjunct of the negated property, one
choice group of ``lra.is_satisfiable`` (the complement of that disjunct's
projection). It picks the modified sets and samples their values.

``max_sat`` is one pass over the modified sets of a run: it yields every
repairing set in ascending size and blocks the variables of each set it
yields, so the sets it yields share no variable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .lra import DEFAULT_QE_BUDGET, LinearAtom, atom_eq, eliminate, is_satisfiable
from .variations import Modification, VariationVariable, VariedSystem, edit


class HardConstraint:
    """(exists delays. T^var) and (forall delays. T^var => Phi), checkable
    either per concrete assignment or, for the bound kind, as a formula
    over the free variation variables: ``formula`` is its ``(atoms,
    choices)`` query for ``lra.is_satisfiable``.
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

    def pinned_sat(self, values: dict[str, Fraction]) -> bool:
        """Bound kind: is the hard formula satisfiable with the variables of
        ``values`` pinned to them? Each pin is substituted into the atoms."""
        atoms, choices = self.formula
        return is_satisfiable(
            [a.substitute(values) for a in atoms],
            [[[a.substitute(values) for a in alt] for alt in group] for group in choices],
            self.qe_budget,
        ).sat

    def check_with_zeros(self, zeros: frozenset[str]) -> bool:
        """Bound kind: is the hard formula satisfiable with these variables pinned to 0?"""
        return self.pinned_sat(dict.fromkeys(zeros, Fraction(0)))


def nonzero_values(var) -> list[object]:
    """Domain of one variable without its zero meaning, in deterministic order."""
    assert var.domain is not None
    return [v for v in var.domain if v != var.zero]


def repairing_assignments(hard: HardConstraint, modified: tuple[str, ...]):
    """All repairing value combinations on exactly the given modified set.

    Discrete kinds only; values run over each variable's non-zero domain in
    lexicographic order, so enumeration is deterministic and follows
    ``itertools.product``. Operator and clock-reference edits replace whole
    atoms, so those kinds close the trace system once without the set's
    constraints and conjoin one variable's edited atoms per level of a
    depth-first walk: a level that closes empty prunes every assignment
    below it, and each leaf is the DBM ``decide`` builds for it.
    """
    vs = hard.vs
    zeros = {v.name: v.zero for v in vs.variables if v.name not in modified}
    mvars = [v for name in modified for v in vs.variables if v.name == name]
    if vs.kind not in ("operator", "clockref"):
        combos = itertools.product(*(nonzero_values(v) for v in mvars))
        assignments = (dict(zeros, **{v.name: val for v, val in zip(mvars, combo)}) for combo in combos)
        return [a for a in assignments if hard.check(a)]
    base = vs.base
    timing, scale = base.timing(), base.scale
    found = []

    def walk(m: list[int], values: tuple) -> None:
        if len(values) == len(mvars):
            if not base.meets_negated_property(m, timing, scale):
                found.append(dict(zeros, **{v.name: val for v, val in zip(mvars, values)}))
            return
        var = mvars[len(values)]
        for value in nonzero_values(var):
            edited = m.copy()
            if base.conjoin(edited, timing, scale, var.anchor[0], hard.edit(var, value).new):
                walk(edited, values + (value,))

    m = base.close(timing, scale, {v.anchor[0] for v in mvars})
    if m is not None:
        walk(m, ())
    return found


def dead_reset_toggles(vs: VariedSystem) -> set[str]:
    """Reset variables whose clock no I/G atom and no property atom reads after
    the first step where their transition fires.

    Such a toggle moves only the start of its clock's delay sums after that
    step, which nothing reads, so it leaves the edited system unchanged
    whatever else is edited.
    """
    base = vs.base
    last_read = {}  # clock -> last step whose atoms read it
    for ta in base.atoms:
        if ta.block in ("I", "G"):
            last_read[ta.clock] = max(last_read.get(ta.clock, -1), ta.step)
    for disjunct in base.negated_property:
        for a in disjunct:
            last_read[a.clock] = base.n + 1
    steps = base.stt.steps
    dead = set()
    for var in vs.variables:
        ai, ti, c = var.anchor
        first = next(j for j, move in enumerate(steps) if (ai, ti) in move)
        if last_read.get(c, -1) <= first:
            dead.add(var.name)
    return dead


# Largest integer magnitude sample_repair_values tries before it falls back
# to a rational model.
SCAN_LIMIT = 64


def sample_repair_values(hard: HardConstraint, modified: tuple[str, ...]) -> dict[str, Fraction] | None:
    """Concrete rational values for the modified bound variables.

    Each variable is fixed in turn to the integer of minimal absolute value
    that keeps the pinned hard formula satisfiable (positive before
    negative); when no integer fits within ``SCAN_LIMIT``, a rational
    interior point from an exact model is used instead. The scan substitutes
    the pins (``pinned_sat``); the model query conjoins them as equalities,
    whose elimination order picks the model. The final full assignment is
    re-verified.
    """
    vs = hard.vs
    zeros = {v.name: Fraction(0) for v in vs.variables if v.name not in modified}
    pinned: dict[str, Fraction] = dict(zeros)
    for name in modified:
        chosen = None
        for magnitude in range(1, SCAN_LIMIT + 1):
            for val in (Fraction(magnitude), Fraction(-magnitude)):
                if hard.pinned_sat(dict(pinned, **{name: val})):
                    chosen = val
                    break
            if chosen is not None:
                break
        if chosen is None:
            atoms, choices = hard.formula
            pins = [atom_eq({v: 1}, c) for v, c in sorted(pinned.items())]
            res = is_satisfiable(atoms + pins, choices, hard.qe_budget, want_model=True)
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

    The reset kind starts with its dead toggles (``dead_reset_toggles``)
    blocked: a set holding one repairs only if the set without it does,
    which is searched first and, when it repairs, blocks the larger set.
    Only the empty set, which repairs when the trace has no violation,
    would not block it, so then they are unblocked.
    """
    vs = hard.vs
    all_names = [v.name for v in vs.variables]
    dead = dead_reset_toggles(vs) if vs.kind == "reset" else set()
    blocked: set[str] = set(dead)
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
            if not combo:
                blocked -= dead
            yield combo, assignments
        size += 1
