"""Exact linear rational arithmetic: satisfiability, Fourier-Motzkin projection,
and deterministic sample-point extraction.

Every query has one shape: a conjunction of atoms, plus one choice out of
each of some groups of alternatives (each alternative a list of atoms).
``is_satisfiable`` solves the combinations one conjunction at a time, and
``to_smtlib`` prints the same query; ``LinearAtom.negation`` gives an
atom's complement as such a group.

Atoms are kept with Fraction coefficients at the API, but every conjunction
is compiled to primitive integer rows before solving, so the hot paths
(emptiness checks, projections) run on machine integers. Equalities are
removed by Gaussian substitution before any inequality elimination; each
elimination step reduces rows to primitive form and prunes duplicates.

There is no rounding anywhere: verdicts and models are exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, Sequence


class Rel(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "="


class QeBudgetExceeded(Exception):
    """Raised when an elimination exceeds its intermediate-atom budget.

    Plays the role of a quantifier-elimination timeout, but is deterministic
    and hardware independent.
    """


@dataclass(frozen=True, slots=True)
class LinearAtom:
    """``sum(coeff * var) rel const`` with exact rational coefficients."""

    coeffs: tuple[tuple[str, Fraction], ...]  # sorted by variable, no zeros
    rel: Rel
    const: Fraction

    @staticmethod
    def make(coeffs: dict[str, Fraction], rel: Rel, const) -> "LinearAtom":
        cleaned = []
        for v, c in coeffs.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                cleaned.append((v, c))
        cleaned.sort()
        if not isinstance(const, Fraction):
            const = Fraction(const)
        return LinearAtom(tuple(cleaned), rel, const)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def substitute(self, values: dict[str, Fraction]) -> "LinearAtom":
        """The atom with the variables of ``values`` replaced by their values."""
        const = self.const
        kept = []
        for v, c in self.coeffs:  # sorted, and filtering keeps the order
            value = values.get(v)
            if value is None:
                kept.append((v, c))
            else:
                const -= c * value
        return LinearAtom(tuple(kept), self.rel, const)

    def negation(self) -> list[list["LinearAtom"]]:
        """The complement as alternatives of ``is_satisfiable``'s choice
        groups: one atom, or two for an equality."""
        neg = {v: -c for v, c in self.coeffs}
        if self.rel == Rel.LT:  # not(x < c)  <=>  -x <= -c
            return [[LinearAtom.make(neg, Rel.LE, -self.const)]]
        if self.rel == Rel.LE:  # not(x <= c) <=>  -x < -c
            return [[LinearAtom.make(neg, Rel.LT, -self.const)]]
        return [[LinearAtom(self.coeffs, Rel.LT, self.const)], [LinearAtom.make(neg, Rel.LT, -self.const)]]

    def text(self) -> str:
        if not self.coeffs:
            lhs = "0"
        else:
            parts = []
            for v, c in self.coeffs:
                if c == 1:
                    parts.append(f"+ {v}")
                elif c == -1:
                    parts.append(f"- {v}")
                else:
                    parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{v}")
            lhs = " ".join(parts).lstrip("+ ")
        return f"{lhs} {self.rel.value} {self.const}"


def atom_le(coeffs: dict[str, Fraction], const) -> LinearAtom:
    return LinearAtom.make(coeffs, Rel.LE, const)


def atom_lt(coeffs: dict[str, Fraction], const) -> LinearAtom:
    return LinearAtom.make(coeffs, Rel.LT, const)


def atom_eq(coeffs: dict[str, Fraction], const) -> LinearAtom:
    return LinearAtom.make(coeffs, Rel.EQ, const)


def atom_ge(coeffs: dict[str, Fraction], const) -> LinearAtom:
    return LinearAtom.make({v: -c for v, c in coeffs.items()}, Rel.LE, -Fraction(const))


def atom_gt(coeffs: dict[str, Fraction], const) -> LinearAtom:
    return LinearAtom.make({v: -c for v, c in coeffs.items()}, Rel.LT, -Fraction(const))


def comparison_atom(coeffs: dict[str, Fraction], op, const) -> list[LinearAtom]:
    """Model-level operator (five-element set) to normalized atoms; EQ stays one atom."""
    from .model import Op

    if op == Op.LT:
        return [atom_lt(coeffs, const)]
    if op == Op.LE:
        return [atom_le(coeffs, const)]
    if op == Op.EQ:
        return [atom_eq(coeffs, const)]
    if op == Op.GE:
        return [atom_ge(coeffs, const)]
    return [atom_gt(coeffs, const)]


def to_smtlib(atoms: Sequence[LinearAtom], choices: Sequence[Sequence[Sequence[LinearAtom]]] = ()) -> str:
    """SMT-LIB2 text of the query ``is_satisfiable(atoms, choices)`` decides,
    for external cross-checking (debug aid)."""
    if not all(choices):  # an empty group is false
        return "(assert false)\n(check-sat)\n"

    def term(atom: LinearAtom) -> str:
        if not atom.coeffs:
            lhs = "0"
        else:
            parts = [
                f"(* {c.numerator}{'' if c.denominator == 1 else f' (/ 1 {c.denominator})'} {v})"
                for v, c in atom.coeffs
            ]
            lhs = parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"
        rhs = (
            str(atom.const.numerator)
            if atom.const.denominator == 1
            else f"(/ {atom.const.numerator} {atom.const.denominator})"
        )
        return f"({atom.rel.value} {lhs} {rhs})"

    def conj(terms: list[str]) -> str:
        if not terms:
            return "true"
        return terms[0] if len(terms) == 1 else "(and " + " ".join(terms) + ")"

    terms = [term(a) for a in atoms]
    for group in choices:
        if len(group) == 1:  # a forced choice joins the conjunction
            terms.extend(term(a) for a in group[0])
        else:
            terms.append("(or " + " ".join(conj([term(a) for a in alt]) for alt in group) + ")")
    mentioned = list(atoms) + [a for group in choices for alt in group for a in alt]
    names = sorted({v for a in mentioned for v in a.variables()})
    decls = "".join(f"(declare-const {v} Real)\n" for v in names)
    return decls + f"(assert {conj(terms)})\n(check-sat)\n"


# --- integer row core -------------------------------------------------------

# A row is (coeffs: tuple[int, ...] aligned to a variable list, rel, const: int).


def _compile_rows(atoms: Sequence[LinearAtom], varlist: Sequence[str]):
    index = {v: i for i, v in enumerate(varlist)}
    n = len(varlist)
    rows = []
    for a in atoms:
        scale = a.const.denominator
        for _, c in a.coeffs:
            d = c.denominator
            if d != 1:
                scale = scale * d // gcd(scale, d)
        vec = [0] * n
        if scale == 1:
            for v, c in a.coeffs:
                vec[index[v]] = c.numerator
            const = a.const.numerator
        else:
            for v, c in a.coeffs:
                vec[index[v]] = c.numerator * (scale // c.denominator)
            const = a.const.numerator * (scale // a.const.denominator)
        rows.append((tuple(vec), a.rel, const))
    return rows


def _reduce_row(vec, rel, const):
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    g = gcd(g, abs(const))
    if g > 1:
        vec = tuple(c // g for c in vec)
        const = const // g
    return (vec, rel, const)


_ZERO_TRIVIAL = object()
_ZERO_CONTRADICTION = object()


def _classify_constant_row(rel, const):
    if rel == Rel.EQ:
        return _ZERO_TRIVIAL if const == 0 else _ZERO_CONTRADICTION
    if rel == Rel.LE:
        return _ZERO_TRIVIAL if const >= 0 else _ZERO_CONTRADICTION
    return _ZERO_TRIVIAL if const > 0 else _ZERO_CONTRADICTION


class _Budget:
    """Shared intermediate-atom counter for one elimination run."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise QeBudgetExceeded(f"elimination exceeded {self.limit} intermediate atoms")


class _RowSystem:
    """Working set of integer rows with dedup and budget accounting."""

    def __init__(self, nvars: int, budget: _Budget):
        self.nvars = nvars
        self.budget = budget
        self.contradiction = False
        self.ineqs: dict[tuple, tuple] = {}  # coeff vector -> (rel, const), tightest
        self.eqs: list[tuple] = []

    def add(self, vec, rel, const) -> None:
        if self.contradiction:
            return
        self.budget.spend()
        if not any(vec):
            if _classify_constant_row(rel, const) is _ZERO_CONTRADICTION:
                self.contradiction = True
            return
        vec, rel, const = _reduce_row(vec, rel, const)
        if rel == Rel.EQ:
            self.eqs.append((vec, rel, const))
            return
        old = self.ineqs.get(vec)
        if old is None:
            self.ineqs[vec] = (rel, const)
            return
        orel, oconst = old
        if const < oconst or (const == oconst and rel == Rel.LT and orel == Rel.LE):
            self.ineqs[vec] = (rel, const)

    def rows(self):
        return self.eqs + [(vec, rel, const) for vec, (rel, const) in self.ineqs.items()]


def _gauss_substitute(rows, pivot_row, var_idx, sysout: _RowSystem):
    pvec, _, pconst = pivot_row
    pc = pvec[var_idx]
    for vec, rel, const in rows:
        rc = vec[var_idx]
        if rc == 0:
            sysout.add(vec, rel, const)
            continue
        scale = abs(pc)
        factor = rc if pc > 0 else -rc
        nvec = tuple(scale * a - factor * b for a, b in zip(vec, pvec))
        nconst = scale * const - factor * pconst
        sysout.add(nvec, rel, nconst)


def _fm_step(rows, var_idx, sysout: _RowSystem):
    uppers, lowers = [], []
    for vec, rel, const in rows:
        c = vec[var_idx]
        if c == 0:
            sysout.add(vec, rel, const)
        elif c > 0:
            uppers.append((vec, rel, const))
        else:
            lowers.append((vec, rel, const))
    for uvec, urel, uconst in uppers:
        for lvec, lrel, lconst in lowers:
            mu = -lvec[var_idx]
            ml = uvec[var_idx]
            nvec = tuple(mu * a + ml * b for a, b in zip(uvec, lvec))
            nconst = mu * uconst + ml * lconst
            nrel = Rel.LT if Rel.LT in (urel, lrel) else Rel.LE
            sysout.add(nvec, nrel, nconst)


def _eliminate_rows(rows, varlist, target_idxs, budget_limit, keep_trace=False):
    """Project integer rows onto the non-target variables.

    With ``keep_trace`` the per-variable snapshots (rows mentioning the
    variable at its elimination time) are returned for back-substitution.
    """
    budget = _Budget(budget_limit)
    sysin = _RowSystem(len(varlist), budget)
    for vec, rel, const in rows:
        sysin.add(vec, rel, const)
    trace = []
    remaining = sorted(target_idxs)
    while remaining and not sysin.contradiction:
        rows_now = sysin.rows()
        # Prefer Gaussian steps: any equality mentioning a target variable.
        pivot = None
        for r in rows_now:
            if r[1] == Rel.EQ:
                for vi in remaining:
                    if r[0][vi] != 0:
                        pivot = (r, vi)
                        break
                if pivot:
                    break
        if pivot is not None:
            prow, vi = pivot
            if keep_trace:
                trace.append((vi, rows_now))
            rest = [r for r in rows_now if r is not prow]
            sysin = _RowSystem(len(varlist), budget)
            _gauss_substitute(rest, prow, vi, sysin)
            remaining.remove(vi)
            continue
        # Cheapest Fourier-Motzkin step next (fewest product rows).
        best_vi, best_cost = None, None
        for vi in remaining:
            pos = sum(1 for r in rows_now if r[0][vi] > 0)
            neg = sum(1 for r in rows_now if r[0][vi] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best_vi, best_cost = vi, cost
        if keep_trace:
            trace.append((best_vi, rows_now))
        sysout = _RowSystem(len(varlist), budget)
        _fm_step(rows_now, best_vi, sysout)
        sysin = sysout
        remaining.remove(best_vi)
    return sysin, trace


def _rows_to_atoms(rows, varlist) -> list[LinearAtom]:
    out = []
    for vec, rel, const in rows:
        coeffs = {varlist[i]: Fraction(c) for i, c in enumerate(vec) if c}
        out.append(LinearAtom.make(coeffs, rel, Fraction(const)))
    return out


DEFAULT_QE_BUDGET = 50_000


def eliminate(
    atoms: Sequence[LinearAtom], variables: Iterable[str], budget: int = DEFAULT_QE_BUDGET
) -> list[LinearAtom]:
    """Fourier-Motzkin projection of a conjunction onto the other variables.

    The result has exactly the projected solution set. Equalities over
    eliminated variables are used for Gaussian substitution first; redundant
    rows are pruned. Raises QeBudgetExceeded past the atom budget.
    """
    targets = set(variables)
    allvars = sorted({v for a in atoms for v in a.variables()} | targets)
    rows = _compile_rows(atoms, allvars)
    target_idxs = [i for i, v in enumerate(allvars) if v in targets]
    out, _ = _eliminate_rows(rows, allvars, target_idxs, budget)
    if out.contradiction:
        return [LinearAtom.make({}, Rel.LT, Fraction(0))]  # canonical false
    return _rows_to_atoms(out.rows(), allvars)


def _interval_of(rows, var_idx, valuation, varlist):
    """Bounds on one variable with all other variables fixed."""
    lo, lo_strict, hi, hi_strict = None, False, None, False
    for vec, rel, const in rows:
        c = vec[var_idx]
        rest = Fraction(const)
        for i, a in enumerate(vec):
            if i != var_idx and a:
                rest -= a * valuation[varlist[i]]
        if c == 0:
            continue
        bound = rest / c
        if rel == Rel.EQ:
            if lo is None or bound > lo:
                lo, lo_strict = bound, False
            if hi is None or bound < hi:
                hi, hi_strict = bound, False
            continue
        strict = rel == Rel.LT
        if c > 0:
            if hi is None or bound < hi or (bound == hi and strict and not hi_strict):
                hi, hi_strict = bound, strict
        else:
            if lo is None or bound > lo or (bound == lo and strict and not lo_strict):
                lo, lo_strict = bound, strict
    return lo, lo_strict, hi, hi_strict


def pick_value(lo, lo_strict, hi, hi_strict) -> Fraction | None:
    """Deterministic representative of a rational interval, or None if empty.

    Prefers the integer of minimal absolute value (ties: the positive one);
    bounded open intervals without an integer yield the midpoint.
    """
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
    if lo is None and hi is None:
        return Fraction(0)
    # Integer candidates.
    ilo = None if lo is None else (floor(lo) + 1 if lo_strict and lo == floor(lo) else ceil(lo))
    ihi = None if hi is None else (ceil(hi) - 1 if hi_strict and hi == ceil(hi) else floor(hi))
    if (ilo is None or ihi is None) or ilo <= ihi:
        if (ilo is None or ilo <= 0) and (ihi is None or ihi >= 0):
            best = 0
        elif ilo is not None and ilo > 0:
            best = ilo
        else:
            best = ihi
        return Fraction(best)
    # No integer: the interval is a bounded sliver.
    if lo == hi:
        return lo
    return (lo + hi) / 2


@dataclass(frozen=True)
class SatResult:
    sat: bool
    model: dict[str, Fraction] | None = None


def _solve_conjunction(atoms: Sequence[LinearAtom], budget: int, want_model: bool) -> SatResult:
    allvars = sorted({v for a in atoms for v in a.variables()})
    rows = _compile_rows(atoms, allvars)
    out, trace = _eliminate_rows(rows, allvars, list(range(len(allvars))), budget, keep_trace=want_model)
    if out.contradiction:
        return SatResult(False)
    if not want_model:
        return SatResult(True)
    valuation: dict[str, Fraction] = {}
    for var_idx, snapshot in reversed(trace):
        lo, los, hi, his = _interval_of(snapshot, var_idx, valuation, allvars)
        value = pick_value(lo, los, hi, his)
        assert value is not None, "interval empty during back-substitution"
        valuation[allvars[var_idx]] = value
    for v in allvars:
        valuation.setdefault(v, Fraction(0))
    return SatResult(True, valuation)


def is_satisfiable(
    atoms: Sequence[LinearAtom],
    choices: Sequence[Sequence[Sequence[LinearAtom]]] = (),
    budget: int = DEFAULT_QE_BUDGET,
    want_model: bool = False,
) -> SatResult:
    """Exact satisfiability of the conjunction ``atoms`` plus one alternative
    (a list of atoms) out of each group of ``choices``; optionally extracts a
    rational model.

    The combinations run in ``itertools.product`` order, first group
    slowest, and the first satisfiable one wins, so returned models are
    deterministic. An empty group is false and an empty alternative true.
    With two or more groups, each proper prefix of a combination (``atoms``
    plus alternatives of the first k groups) is solved first and every
    combination under an unsatisfiable one is skipped, which skips no
    satisfiable combination; a prefix whose solve exceeds the budget prunes
    nothing.
    """
    prune = len(choices) > 1

    def first_sat(prefix: list[LinearAtom], k: int) -> SatResult:
        if k == len(choices):
            return _solve_conjunction(prefix, budget, want_model)
        if prune:
            try:
                if not _solve_conjunction(prefix, budget, False).sat:
                    return SatResult(False)
            except QeBudgetExceeded:
                pass
        for alt in choices[k]:
            res = first_sat(prefix + list(alt), k + 1)
            if res.sat:
                return res
        return SatResult(False)

    return first_sat(list(atoms), 0)
