"""Encoding of a symbolic timed trace as a linear constraint system over delays.

The system ranges over one delay variable d_j per trace step (the sojourn
before step j fires, d_n after the last step) and conjoins: time advancement
(A, d_j >= 0), urgent locations (U, d_j = 0), location invariants at entry
and exit of every step (I), transition guards (G), and the property read
after d_n. Each clock occurrence is the sum of the delays since the clock's
last reset, so clocks need no variables of their own. Location predicates
are resolved statically: the trace fixes the final location vector.

Every atom is a sum of consecutive delays ``d_a + ... + d_b ~ c``, that is
the difference constraint ``T_{b+1} - T_a ~ c`` over the prefix times
``T_0..T_{n+1}``. ``TdtConstraintSystem.decide`` decides the system so, as
a DBM in ``dbm``'s raw encoding (Bengtsson & Yi 2004), under repair edits
applied as overrides of its atoms compiled once. ``feasible`` and
``violating`` decide it by linear rational arithmetic instead: the
reference, and the contract re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .checker import SymbolicTimedTrace
from .dbm import LE_ZERO, RAW_INF, DifferenceBoundMatrix, constrain, empty_zone, raw_constant
from .lra import (
    Formula,
    LinearAtom,
    Rel,
    TRUE,
    FALSE,
    comparison_atom,
    conjunction,
    f_and,
    f_or,
    is_satisfiable,
    to_smtlib,
)
from .model import (
    Op,
    PropKind,
    PropertyExpr,
    SafetyProperty,
    TimedAutomatonNetwork,
    constant_scale,
    indexed_constraints,
    prop_nnf,
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

    # -- variable bookkeeping ------------------------------------------------

    def delta_vars(self) -> list[str]:
        return [delta_var(j) for j in range(self.n + 1)]

    def clock_value_coeffs(self, c: int, j: int, include_exit: bool) -> dict[str, Fraction]:
        """Delay-sum form of clock c at entry of step j (plus d_j when include_exit)."""
        hi = j if include_exit else j - 1
        return {delta_var(i): Fraction(1) for i in range(self._delay_sum_starts[c][j], hi + 1)}

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

    # -- the property at step n+1 ---------------------------------------------

    def property_formula(self, negated: bool) -> Formula:
        """Phi (or its negation) with clocks at index n+1 and predicates folded."""
        expr = prop_nnf(self.prop.negate() if negated else self.prop)
        final = self.stt.locations[-1]

        def go(e: PropertyExpr) -> Formula:
            if e.kind == PropKind.TRUE:
                return TRUE
            if e.kind == PropKind.FALSE:
                return FALSE
            if e.kind == PropKind.LOC:
                return TRUE if final[e.automaton] == e.location else FALSE
            if e.kind == PropKind.NOT:  # NNF: negation only on location predicates
                inner = e.children[0]
                return TRUE if final[inner.automaton] != inner.location else FALSE
            if e.kind == PropKind.ATOM:
                coeffs = self.clock_value_coeffs(e.atom.clock, self.n + 1, False)
                atoms = comparison_atom(coeffs, e.atom.op, e.atom.bound)
                return conjunction(atoms)
            parts = [go(c) for c in e.children]
            return f_and(parts) if e.kind == PropKind.AND else f_or(parts)

        return go(expr)

    def to_smtlib(self) -> str:
        return to_smtlib(f_and([conjunction(self.linear_atoms()), self.property_formula(True)]))

    # -- difference logic over the prefix times T_0..T_{n+1} ------------------

    def _compile(self, scale: int) -> tuple[tuple, tuple]:
        """The I/G atoms ``(constraint index, step, point, clock, op, raw c)``,
        each bounding ``T_point - T_start`` (point: the step for an entry copy,
        the next for an exit copy), and the negated property's disjuncts of
        ``(clock, op, raw c)`` at point n+1, location literals folded."""
        atoms = tuple(
            (ta.constraint_index, ta.step, ta.step + (ta.copy == "exit"), ta.clock, ta.op, raw_constant(ta.bound, scale))
            for ta in self.atoms
            if ta.block in ("I", "G")
        )
        final = self.stt.locations[-1]
        disjuncts = tuple(
            tuple((lit.atom.clock, lit.atom.op, raw_constant(lit.atom.bound, scale)) for lit in d if lit.atom is not None)
            for d in prop_to_dnf(self.prop.negate())
            if all(lit.atom is not None or (final[lit.automaton] == lit.location) == lit.positive for lit in d)
        )
        return atoms, disjuncts

    def _starts(self, toggled: frozenset = frozenset()) -> list[list[int]]:
        """starts[c][j]: the first step of clock c's delay sum at step j (0..n+1), with
        the reset of c on transition t of automaton a toggled for each ``(a, t, c)``."""
        automata = self.network.automata
        starts = []
        for c in range(self.network.n_clocks):
            row = [0]
            for j, move in enumerate(self.stt.steps):
                reset = any((c in automata[ai].transitions[ti].resets) != ((ai, ti, c) in toggled) for ai, ti in move)
                row.append(j + 1 if reset else row[-1])
            starts.append(row + row[-1:])  # the property reads clocks after the last delay
        return starts

    @cached_property
    def _delay_sum_starts(self) -> list[list[int]]:
        return self._starts()

    @cached_property
    def _unedited(self) -> tuple:
        """The urgent steps, the closed A block (``T_i - T_j <= 0`` for every
        ``i <= j``), the constants' scale and the system compiled at it."""
        dim = self.n + 2
        ordered = tuple(LE_ZERO if j >= i else RAW_INF for i in range(dim) for j in range(dim))
        scale = constant_scale(self.network, self.prop)
        return _urgent_steps(self.network, self.stt.locations), ordered, scale, self._compile(scale)

    def decide(self, edits=()) -> tuple[DifferenceBoundMatrix, bool]:
        """The closed DBM over ``T_0..T_{n+1}`` and whether it meets the negated property.

        ``edits`` (``variations.Modification``) override the compiled
        system, so the result is that of ``encode`` on the edited model. An
        empty system gives the canonical empty DBM and False.
        """
        constraint = {m.anchor[1]: m.new for m in edits if m.anchor[0] == "constraint"}
        resets = frozenset(m.anchor[1:] for m in edits if m.anchor[0] == "reset")
        urgency = frozenset(m.anchor[1:] for m in edits if m.anchor[0] == "urgent")
        urgent, ordered, unedited_scale, compiled = self._unedited
        scale = lcm(unedited_scale, *(a.bound.denominator for a in constraint.values()))
        overrides = {idx: (a.clock, a.op, raw_constant(a.bound, scale)) for idx, a in constraint.items()}
        atoms, disjuncts = compiled if scale == unedited_scale else self._compile(scale)
        starts = self._starts(resets) if resets else self._delay_sum_starts
        if urgency:
            urgent = _urgent_steps(self.network, self.stt.locations, urgency)
        dim = self.n + 2
        m = list(ordered)
        for j in urgent:
            constrain(m, dim, j + 1, j, Op.EQ, 0)  # zero-weight edges close no negative cycle
        for idx, step, point, clock, op, strict in atoms:
            if idx in overrides:
                clock, op, strict = overrides[idx]
            if not constrain(m, dim, point, starts[clock][step], op, strict):
                return empty_zone(self.n + 1, scale), False
        last = self.n + 1

        def meets(disjunct) -> bool:
            mm = m.copy()
            return all(constrain(mm, dim, last, starts[c][last], op, strict) for c, op, strict in disjunct)

        return DifferenceBoundMatrix(self.n + 1, scale, tuple(m)), any(meets(d) for d in disjuncts)


def _urgent_steps(network: TimedAutomatonNetwork, locations, toggled: frozenset = frozenset()) -> list[int]:
    """The steps whose sojourn must be zero; ``toggled`` holds urgency edits ``(a, l)``."""
    return [
        j
        for j, locvec in enumerate(locations)
        if any((li in network.automata[ai].urgent) != ((ai, li) in toggled) for ai, li in enumerate(locvec))
    ]


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
    f = f_and([conjunction(sys.linear_atoms()), sys.property_formula(True)])
    return is_satisfiable(f).sat
