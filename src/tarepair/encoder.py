"""Encoding of a symbolic timed trace as a linear constraint system over delays.

The system ranges over one delay variable d_j per trace step (the sojourn
before step j fires, d_n after the last step) and conjoins: time advancement
(A, d_j >= 0), urgent locations (U, d_j = 0), location invariants at entry
and exit of every step (I), transition guards (G), and the property read
after d_n. Each clock occurrence is the sum of the delays since the clock's
last reset, so clocks need no variables of their own. Location predicates
are resolved statically: the trace fixes the final location vector.
``with_resets`` evaluates the same atoms under another reset pattern, which
is how reset repairs are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .checker import SymbolicTimedTrace
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
    indexed_constraints,
    prop_nnf,
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
        reset_at: dict[tuple[int, int], bool] | None = None,
    ):
        self.network = network
        self.stt = stt
        self.prop = prop
        self.atoms = atoms
        self.n = len(stt.steps)
        # reset_at[(c, j)]: clock c is reset by the transition(s) fired at step j.
        if reset_at is None:
            reset_at = {}
            for j, move in enumerate(stt.steps):
                resets: set[int] = set()
                for ai, ti in move:
                    resets |= network.automata[ai].transitions[ti].resets
                for c in range(network.n_clocks):
                    reset_at[(c, j)] = c in resets
        self.reset_at = reset_at

    def with_resets(self, reset_at: dict[tuple[int, int], bool]) -> "TdtConstraintSystem":
        """The same atoms under another reset pattern."""
        return TdtConstraintSystem(self.network, self.stt, self.prop, self.atoms, reset_at)

    # -- variable bookkeeping ------------------------------------------------

    def delta_vars(self) -> list[str]:
        return [delta_var(j) for j in range(self.n + 1)]

    def last_reset(self, c: int, j: int) -> int:
        """First step of the delay sum that makes up clock c's value at step j."""
        r = 0
        for i in range(min(j, self.n)):
            if self.reset_at[(c, i)] and i + 1 <= j:
                r = i + 1
        return r

    def clock_value_coeffs(self, c: int, j: int, include_exit: bool) -> dict[str, Fraction]:
        """Delay-sum form of clock c at entry of step j (plus d_j when include_exit)."""
        hi = j if include_exit else j - 1
        return {delta_var(i): Fraction(1) for i in range(self.last_reset(c, j), hi + 1)}

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
    for j in range(n + 1):
        locvec = stt.locations[j]
        if any(li in network.automata[ai].urgent for ai, li in enumerate(locvec)):
            atoms.append(TraceAtom("U", j))
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
