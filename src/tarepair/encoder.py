"""Encoding of a symbolic timed trace as a linear constraint system over delays.

The system ranges over one delay variable d_j per trace step (the sojourn
before step j fires, d_n after the last step) and conjoins: time advancement
(A, d_j >= 0), urgent locations (U, d_j = 0), location invariants at entry
and exit of every step (I), transition guards (G), and the property read
after d_n. Each clock occurrence is the sum of the delays since the clock's
last reset, so clocks need no variables of their own. Location predicates
are resolved statically: the trace fixes the final location vector. The
negated property is derived once (``negated_property``, a DNF of clock
atoms) and every decision procedure reads it.

Every atom is a sum of consecutive delays ``d_a + ... + d_b ~ c``, that is
the difference constraint ``T_{b+1} - T_a ~ c`` over the prefix times
``T_0..T_{n+1}``. ``TdtConstraintSystem.decide`` decides the system so, as
a DBM in ``dbm``'s raw encoding (Bengtsson & Yi 2004), under repair edits
applied as overrides of its atoms compiled once, in three steps that the
MaxSMT search also runs one by one: ``close`` the system under the edits'
timing without the edited constraints, ``conjoin`` each edited
constraint, and test ``meets_negated_property``; the repair loop's initial
violation check is ``decide()`` of the unedited system. ``feasible`` and
``violating`` decide it by linear rational arithmetic instead, the
negated property's disjuncts as one choice group of
``lra.is_satisfiable``: the reference, for the tests and the benchmark's
output gate. The contract re-check of repair candidates is
``checker.replay``, which shares no code with this encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

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
    prop_to_dnf,
)


@dataclass(frozen=True)
class TraceAtom:
    """One block atom, kept at the model level so encoders can vary it.

    I/G atoms carry their clock, global constraint index, owning automaton
    and the entry/exit copy tag; A and U atoms only carry the step.
    """

    block: str  # "A" | "U" | "I" | "G"
    step: int
    clock: int | None = None
    op: Op | None = None
    bound: Fraction | None = None
    copy: str = ""  # "entry" | "exit" for I; "exit" for G
    constraint_index: int | None = None
    automaton: int | None = None


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
        self._compiled_at: dict[int, tuple[tuple, tuple]] = {}  # _compile per scale

    # -- variable bookkeeping ------------------------------------------------

    def delta_vars(self) -> list[str]:
        return [delta_var(j) for j in range(self.n + 1)]

    def clock_value_coeffs(self, c: int, j: int, include_exit: bool) -> dict[str, Fraction]:
        """Delay-sum form of clock c at entry of step j (plus d_j when include_exit)."""
        hi = j if include_exit else j - 1
        return {delta_var(i): Fraction(1) for i in range(self._unedited_timing[1][c][j], hi + 1)}

    # -- materialization -----------------------------------------------------

    def atom_coeffs(self, ta: TraceAtom) -> dict[str, Fraction]:
        """Left-hand side of an I/G atom: its clock's delay sum at entry or exit."""
        return self.clock_value_coeffs(ta.clock, ta.step, ta.copy == "exit")

    def materialize(self, ta: TraceAtom) -> list[LinearAtom]:
        if ta.block in ("I", "G"):
            return comparison_atom(self.atom_coeffs(ta), ta.op, ta.bound)
        if ta.block == "A":
            return [LinearAtom.make({delta_var(ta.step): Fraction(-1)}, Rel.LE, 0)]
        if ta.block == "U":
            return [LinearAtom.make({delta_var(ta.step): Fraction(1)}, Rel.EQ, 0)]
        raise ValueError(f"unknown block {ta.block}")

    def linear_atoms(self) -> list[LinearAtom]:
        out: list[LinearAtom] = []
        for ta in self.atoms:
            out.extend(self.materialize(ta))
        return out

    # -- the negated property, read after the last delay ----------------------

    @cached_property
    def negated_property(self) -> tuple[tuple[AtomicClockConstraint, ...], ...]:
        """The disjuncts of the negated property's DNF as clock atoms; a
        disjunct whose location literals the final locations falsify is
        dropped, and the other location literals are dropped as true."""
        final = self.stt.locations[-1]
        return tuple(
            tuple(lit.atom for lit in d if lit.atom is not None)
            for d in prop_to_dnf(self.prop.negate())
            if all(lit.atom is not None or (final[lit.automaton] == lit.location) == lit.positive for lit in d)
        )

    def negated_property_atoms(self) -> list[list[LinearAtom]]:
        """``negated_property`` over the delays: one choice group of ``lra.is_satisfiable``."""
        last = self.n + 1
        return [
            [la for a in d for la in comparison_atom(self.clock_value_coeffs(a.clock, last, False), a.op, a.bound)]
            for d in self.negated_property
        ]

    def to_smtlib(self) -> str:
        return to_smtlib(self.linear_atoms(), [self.negated_property_atoms()])

    # -- difference logic over the prefix times T_0..T_{n+1} ------------------

    def _compile(self, scale: int) -> tuple[tuple, tuple]:
        """The I/G atoms ``(constraint index, step, point, clock, op, raw c)``,
        each bounding ``T_point - T_start`` (point: the step for an entry copy,
        the next for an exit copy), and the negated property's disjuncts of
        ``(clock, op, raw c)`` at point n+1 (``negated_property``)."""
        atoms = tuple(
            (ta.constraint_index, ta.step, ta.step + (ta.copy == "exit"), ta.clock, ta.op, raw_constant(ta.bound, scale))
            for ta in self.atoms
            if ta.block in ("I", "G")
        )
        disjuncts = tuple(
            tuple((a.clock, a.op, raw_constant(a.bound, scale)) for a in d) for d in self.negated_property
        )
        return atoms, disjuncts

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

    @cached_property
    def _points(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Per constraint index, the ``(step, point)`` of each of its I/G atoms (see ``_compile``)."""
        points: dict[int, list[tuple[int, int]]] = {}
        for idx, step, point, *_ in self._compiled(self.scale)[0]:
            points.setdefault(idx, []).append((step, point))
        return {idx: tuple(p) for idx, p in points.items()}

    def _compiled(self, scale: int) -> tuple[tuple, tuple]:
        if scale not in self._compiled_at:
            self._compiled_at[scale] = self._compile(scale)
        return self._compiled_at[scale]

    def timing(self, edits=()) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The zero-delay steps and the delay-sum start table (``_starts``) under the
        urgency and reset ``edits``: the edited system up to its I/G atoms' clocks,
        operators and bounds, so equal timings give equal systems under equal atoms."""
        resets = frozenset(m.anchor[1:] for m in edits if m.anchor[0] == "reset")
        urgency = frozenset(m.anchor[1:] for m in edits if m.anchor[0] == "urgent")
        urgent, starts = self._unedited_timing
        if urgency:
            urgent = _urgent_steps(self.network, self.stt.locations, urgency)
        return urgent, self._starts(resets) if resets else starts

    def close(self, timing, scale: int, skip=frozenset()) -> list[int] | None:
        """The closed raw DBM over ``T_0..T_{n+1}`` of the system under ``timing``
        with constants at ``scale``, leaving out the I/G atoms whose constraint
        index is in ``skip``; None when it is empty."""
        urgent, starts = timing
        dim = self.n + 2
        m = list(self._ordered)
        for j in urgent:
            constrain(m, dim, j + 1, j, Op.EQ, 0)  # zero-weight edges close no negative cycle
        for idx, step, point, clock, op, strict in self._compiled(scale)[0]:
            if idx not in skip and not constrain(m, dim, point, starts[clock][step], op, strict):
                return None
        return m

    def conjoin(self, m: list[int], timing, scale: int, idx: int, atom: AtomicClockConstraint) -> bool:
        """Conjoin to ``m`` in place the I/G atoms of constraint index ``idx``, each
        with the clock, operator and bound of ``atom``; False iff ``m`` becomes empty."""
        starts = timing[1]
        strict = raw_constant(atom.bound, scale)
        dim = self.n + 2
        start = starts[atom.clock]
        return all(constrain(m, dim, point, start[step], atom.op, strict) for step, point in self._points.get(idx, ()))

    def meets_negated_property(self, m: list[int], timing, scale: int) -> bool:
        """Does the non-empty closed DBM ``m`` meet a disjunct of the negated property?"""
        starts = timing[1]
        dim, last = self.n + 2, self.n + 1

        def meets(disjunct) -> bool:
            mm = m.copy()
            return all(constrain(mm, dim, last, starts[c][last], op, strict) for c, op, strict in disjunct)

        return any(meets(d) for d in self._compiled(scale)[1])

    def decide(self, edits=()) -> tuple[DifferenceBoundMatrix, bool]:
        """The closed DBM over ``T_0..T_{n+1}`` and whether it meets the negated property.

        ``edits`` (``variations.Modification``) override the compiled
        system, so the result is that of ``encode`` on the edited model. An
        empty system gives the canonical empty DBM and False. The system is
        closed without the edited constraints' atoms, which are then
        conjoined under their edits; closure is canonical, so the order
        does not show.
        """
        constraint = {m.anchor[1]: m.new for m in edits if m.anchor[0] == "constraint"}
        timing = self.timing(edits)
        scale = lcm(self.scale, *(a.bound.denominator for a in constraint.values()))
        m = self.close(timing, scale, constraint.keys())
        if m is None or not all(self.conjoin(m, timing, scale, idx, a) for idx, a in constraint.items()):
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
    """Encode an STT as the A/U/I/G trace constraint system over delays."""
    index_of: dict[tuple, int] = {}
    for ref in indexed_constraints(network):
        if ref.kind == "invariant":
            index_of[("invariant", ref.automaton, ref.location, ref.atom_pos)] = ref.index
        else:
            index_of[("guard", ref.automaton, ref.transition, ref.atom_pos)] = ref.index

    n = len(stt.steps)
    atoms: list[TraceAtom] = []
    for j in range(n + 1):
        atoms.append(TraceAtom("A", j))
    atoms.extend(TraceAtom("U", j) for j in _urgent_steps(network, stt.locations))
    for j in range(n + 1):
        for ai, li in enumerate(stt.locations[j]):
            for pi, inv_atom in enumerate(network.automata[ai].invariants[li]):
                idx = index_of[("invariant", ai, li, pi)]
                for copy in ("entry", "exit"):
                    atoms.append(
                        TraceAtom(
                            "I",
                            j,
                            clock=inv_atom.clock,
                            op=inv_atom.op,
                            bound=inv_atom.bound,
                            copy=copy,
                            constraint_index=idx,
                            automaton=ai,
                        )
                    )
    for j in range(n):
        for ai, ti in stt.steps[j]:
            trans = network.automata[ai].transitions[ti]
            for pi, g_atom in enumerate(trans.guard):
                idx = index_of[("guard", ai, ti, pi)]
                atoms.append(
                    TraceAtom(
                        "G",
                        j,
                        clock=g_atom.clock,
                        op=g_atom.op,
                        bound=g_atom.bound,
                        copy="exit",
                        constraint_index=idx,
                        automaton=ai,
                    )
                )
    return TdtConstraintSystem(network, stt, prop, tuple(atoms))


def feasible(sys: TdtConstraintSystem) -> bool:
    """Does the trace have a realization (satisfiability without the property)?"""
    return is_satisfiable(sys.linear_atoms()).sat


def violating(sys: TdtConstraintSystem) -> bool:
    """Satisfiability of the system conjoined with the negated property."""
    return is_satisfiable(sys.linear_atoms(), [sys.negated_property_atoms()]).sat
