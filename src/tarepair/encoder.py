"""Encoding of a symbolic timed trace as a linear constraint system over delays.

The system ranges over one delay variable d_j per trace step (the sojourn
before step j fires, d_n after the last step) and conjoins: time advancement
(A, d_j >= 0), urgent locations (U, d_j = 0), location invariants at entry
and exit of every step (I), transition guards (G), and the property read
after d_n. Each clock occurrence is the sum of the delays since the clock's
last reset, so clocks need no variables of their own. Location predicates
are resolved statically: the trace fixes the final location vector.

A and U are the shape of the system: they follow from the step count and
the zero-delay steps of ``timing``. Every other atom is one ``TraceAtom``
row, the difference constraint ``T_point - T_start ~ c`` over the prefix
times ``T_0..T_{n+1}``, i.e. the delay sum ``d_start + ... + d_{point-1}``
(``delay_sum``), where ``start`` is where the row's clock was last reset.
``atoms`` holds one row per I/G atom of the trace, ``negated_property`` one
row per clock atom of each disjunct of the negated property's DNF.

``TdtConstraintSystem.decide`` decides the system so, as a DBM in ``dbm``'s
raw encoding (Bengtsson & Yi 2004), under repair edits applied as overrides
of its rows, in three steps that the MaxSMT search also runs one by one:
``close`` the system under the edits' timing without the edited
constraints, ``conjoin`` each edited constraint, and test
``meets_negated_property``; the repair loop's initial violation check is
``decide()`` of the unedited system. ``feasible`` and ``violating`` decide
it by linear rational arithmetic instead (``linear_atoms``, the negated
property's disjuncts as one choice group of ``lra.is_satisfiable``): the
reference, for the tests and the benchmark's output gate. The contract
re-check of repair candidates is ``checker.replay``, which shares no code
with this encoding.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .checker import SymbolicTimedTrace
from .dbm import LE_ZERO, RAW_INF, DifferenceBoundMatrix, constrain, empty_zone, raw_constant
from .lra import LinearAtom, Rel, comparison_atom, is_satisfiable, to_smtlib
from .model import (
    AtomicClockConstraint,
    Op,
    SafetyProperty,
    TimedAutomatonNetwork,
    constant_scale,
    indexed_constraints,
)


class TraceAtom(NamedTuple):
    """One row of the trace system: ``T_point - T_{starts[clock][step]} op bound``.

    An I/G atom carries its model constraint index; an invariant gives an
    entry row (point = step) and an exit row (point = step + 1), a guard an
    exit row. A clock atom of the negated property has index -1 and
    step = point = n + 1, the clock values after the last delay.
    """

    constraint_index: int
    step: int
    point: int
    clock: int
    op: Op
    bound: Fraction


def delta_var(j: int) -> str:
    return f"d{j}"


class TdtConstraintSystem:
    """Trace constraint system over the delay variables d0..dn."""

    def __init__(
        self,
        network: TimedAutomatonNetwork,
        stt: SymbolicTimedTrace,
        prop: SafetyProperty,
        atoms: tuple[TraceAtom, ...],
    ):
        self.network = network
        self.stt = stt
        self.prop = prop
        self.atoms = atoms
        self.n = len(stt.steps)
        self._raws: dict[int, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {}
        self._edited_raws: dict[tuple[int, int, int], int] = {}  # (numerator, denominator, scale) -> raw

    # -- linear atoms over the delays ------------------------------------------

    def delta_vars(self) -> list[str]:
        return [delta_var(j) for j in range(self.n + 1)]

    def delay_sum(self, clock: int, step: int, point: int) -> dict[str, int]:
        """``T_point - T_start`` as a delay sum, ``start`` being the last reset of
        ``clock`` at or before ``step`` in the unedited system."""
        return {delta_var(i): 1 for i in range(self._unedited_timing[1][clock][step], point)}

    def materialize(self, row: TraceAtom) -> LinearAtom:
        return comparison_atom(self.delay_sum(row.clock, row.step, row.point), row.op, row.bound)

    def shape_atoms(self) -> list[LinearAtom]:
        """The A block (``d_j >= 0``), then the U block (``d_j = 0`` at each zero-delay step)."""
        advance = [LinearAtom.make({delta_var(j): -1}, Rel.LE, 0) for j in range(self.n + 1)]
        urgent = [LinearAtom.make({delta_var(j): 1}, Rel.EQ, 0) for j in self._unedited_timing[0]]
        return advance + urgent

    def linear_atoms(self) -> list[LinearAtom]:
        return self.shape_atoms() + [self.materialize(row) for row in self.atoms]

    @cached_property
    def negated_property(self) -> tuple[tuple[TraceAtom, ...], ...]:
        """The disjuncts of the negated property's DNF as rows; a disjunct whose
        location literals the final locations falsify is dropped, and the other
        location literals are dropped as true."""
        last = self.n + 1
        return tuple(
            tuple(TraceAtom(-1, last, last, a.clock, a.op, a.bound) for a in atoms)
            for atoms in self.prop.negated_atoms_at(self.stt.locations[-1])
        )

    def negated_property_atoms(self) -> list[list[LinearAtom]]:
        """``negated_property`` over the delays: one choice group of ``lra.is_satisfiable``."""
        return [[self.materialize(row) for row in d] for d in self.negated_property]

    def to_smtlib(self) -> str:
        return to_smtlib(self.linear_atoms(), [self.negated_property_atoms()])

    # -- difference logic over the prefix times T_0..T_{n+1} ------------------

    @cached_property
    def by_index(self) -> dict[int, tuple[TraceAtom, ...]]:
        """The rows of each model constraint index the trace reads, by index."""
        grouped: dict[int, list[TraceAtom]] = {}
        for row in self.atoms:
            grouped.setdefault(row.constraint_index, []).append(row)
        return {idx: tuple(rows) for idx, rows in sorted(grouped.items())}

    def _starts(self, toggled: frozenset = frozenset()) -> tuple[tuple[int, ...], ...]:
        """starts[c][j]: the first step of clock c's delay sum at step j (0..n+1), with
        the reset of c on transition t of automaton a toggled for each ``(a, t, c)``."""
        automata = self.network.automata
        starts = []
        for c in range(self.network.n_clocks):
            row = [0]
            for j, move in enumerate(self.stt.steps):
                reset = any((c in automata[ai].transitions[ti].resets) != ((ai, ti, c) in toggled) for ai, ti in move)
                row.append(j + 1 if reset else row[-1])
            starts.append(tuple(row + row[-1:]))  # the property reads clocks after the last delay
        return tuple(starts)

    @cached_property
    def _unedited_timing(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        return _urgent_steps(self.network, self.stt.locations), self._starts()

    @cached_property
    def scale(self) -> int:
        """The scale of the unedited system's constants in the DBM raw encoding."""
        return constant_scale(self.network, self.prop)

    @cached_property
    def _ordered(self) -> tuple[int, ...]:
        """The closed A block: ``T_i - T_j <= 0`` for every ``i <= j``."""
        dim = self.n + 2
        return tuple(LE_ZERO if j >= i else RAW_INF for i in range(dim) for j in range(dim))

    def timing(self, edits=()) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The zero-delay steps and the delay-sum start table (``_starts``) under the
        urgency and reset ``edits``: the edited system up to its rows' clocks,
        operators and bounds, so equal timings give equal systems under equal rows."""
        resets = frozenset(m.anchor[1:] for m in edits if m.anchor[0] == "reset")
        urgency = frozenset(m.anchor[1:] for m in edits if m.anchor[0] == "urgent")
        urgent, starts = self._unedited_timing
        if urgency:
            urgent = _urgent_steps(self.network, self.stt.locations, urgency)
        return urgent, self._starts(resets) if resets else starts

    def _raw_constants(self, scale: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The bounds at ``scale`` in ``dbm``'s raw encoding: one per row of
        ``atoms``, and one tuple per ``negated_property`` disjunct, aligned
        with its rows; computed once per scale."""
        raws = self._raws.get(scale)
        if raws is None:
            raws = self._raws[scale] = (
                tuple(raw_constant(r.bound, scale) for r in self.atoms),
                tuple(tuple(raw_constant(r.bound, scale) for r in d) for d in self.negated_property),
            )
        return raws

    def _edited_raw(self, bound: Fraction, scale: int) -> int:
        """``raw_constant(bound, scale)`` of an edited bound, converted once per
        (bound, scale); keyed by ints, which hash far faster than a Fraction."""
        key = (bound.numerator, bound.denominator, scale)
        raw = self._edited_raws.get(key)
        if raw is None:
            raw = self._edited_raws[key] = raw_constant(bound, scale)
        return raw

    def _constrain(self, m: list[int], starts, rows) -> bool:
        """Conjoin ``rows``, pairs of a row and its raw constant, to the closed raw
        DBM ``m`` in place, under the start table ``starts``; False iff ``m``
        becomes empty."""
        dim = self.n + 2
        return all(constrain(m, dim, r.point, starts[r.clock][r.step], r.op, c) for r, c in rows)

    def close(self, timing, scale: int, skip=frozenset()) -> list[int] | None:
        """The closed raw DBM over ``T_0..T_{n+1}`` of the system under ``timing``
        with constants at ``scale``, leaving out the rows whose constraint index
        is in ``skip``; None when it is empty."""
        urgent, starts = timing
        dim = self.n + 2
        m = list(self._ordered)
        for j in urgent:
            constrain(m, dim, j + 1, j, Op.EQ, 0)  # zero-weight edges close no negative cycle
        rows = zip(self.atoms, self._raw_constants(scale)[0])
        if skip:
            rows = ((r, c) for r, c in rows if r.constraint_index not in skip)
        return m if self._constrain(m, starts, rows) else None

    def conjoin(self, m: list[int], timing, idx: int, atom: AtomicClockConstraint, scale: int) -> bool:
        """Conjoin to ``m``, a raw DBM at ``scale``, in place the rows of
        constraint index ``idx``, each with the clock, operator and bound of
        ``atom`` (``_edited_raw``); False iff ``m`` becomes empty."""
        start, dim, raw = timing[1][atom.clock], self.n + 2, self._edited_raw(atom.bound, scale)
        return all(constrain(m, dim, r.point, start[r.step], atom.op, raw) for r in self.by_index.get(idx, ()))

    def meets_negated_property(self, m: list[int], timing, scale: int) -> bool:
        """Does the non-empty closed DBM ``m`` meet a disjunct of the negated property?"""
        return any(
            self._constrain(m.copy(), timing[1], zip(d, raws))
            for d, raws in zip(self.negated_property, self._raw_constants(scale)[1])
        )

    def decide(self, edits=()) -> tuple[DifferenceBoundMatrix, bool]:
        """The closed DBM over ``T_0..T_{n+1}`` and whether it meets the negated property.

        ``edits`` (``variations.Modification``) override the system's rows,
        so the result is that of ``encode`` on the edited model. An empty
        system gives the canonical empty DBM and False. The system is closed
        without the edited constraints' rows, which are then conjoined under
        their edits; closure is canonical, so the order does not show. Each
        edited bound is converted to the raw encoding once per (bound, scale)
        for the system's lifetime.
        """
        constraint = {m.anchor[1]: m.new for m in edits if m.anchor[0] == "constraint"}
        timing = self.timing(edits)
        scale = lcm(self.scale, *(a.bound.denominator for a in constraint.values()))
        m = self.close(timing, scale, constraint.keys())
        if m is None or not all(
            self.conjoin(m, timing, idx, a, scale) for idx, a in constraint.items()
        ):
            return empty_zone(self.n + 1, scale), False
        return DifferenceBoundMatrix(self.n + 1, scale, tuple(m)), self.meets_negated_property(m, timing, scale)


def _urgent_steps(network: TimedAutomatonNetwork, locations, toggled: frozenset = frozenset()) -> tuple[int, ...]:
    """The steps whose sojourn must be zero; ``toggled`` holds urgency edits ``(a, l)``."""
    return tuple(
        j
        for j, locvec in enumerate(locations)
        if any((li in network.automata[ai].urgent) != ((ai, li) in toggled) for ai, li in enumerate(locvec))
    )


def encode(
    network: TimedAutomatonNetwork, stt: SymbolicTimedTrace, prop: SafetyProperty
) -> TdtConstraintSystem:
    """Encode an STT as its trace constraint system: the I rows by step, automaton
    and position, entry before exit, then the G rows by step."""
    refs: dict[tuple, list] = {}
    for ref in indexed_constraints(network):
        where = ref.location if ref.kind == "invariant" else ref.transition
        refs.setdefault((ref.kind, ref.automaton, where), []).append(ref)

    def rows(key: tuple, step: int, points: tuple[int, ...]) -> list[TraceAtom]:
        return [
            TraceAtom(ref.index, step, point, ref.atom.clock, ref.atom.op, ref.atom.bound)
            for ref in refs.get(key, ())
            for point in points
        ]

    atoms: list[TraceAtom] = []
    for j, locvec in enumerate(stt.locations):
        for ai, li in enumerate(locvec):
            atoms += rows(("invariant", ai, li), j, (j, j + 1))
    for j, move in enumerate(stt.steps):
        for ai, ti in move:
            atoms += rows(("guard", ai, ti), j, (j + 1,))
    return TdtConstraintSystem(network, stt, prop, tuple(atoms))


def feasible(sys: TdtConstraintSystem) -> bool:
    """Does the trace have a realization (satisfiability without the property)?"""
    return is_satisfiable(sys.linear_atoms()).sat


def violating(sys: TdtConstraintSystem) -> bool:
    """Satisfiability of the system conjoined with the negated property."""
    return is_satisfiable(sys.linear_atoms(), [sys.negated_property_atoms()]).sat
