"""Difference bound matrices over the network clock set plus a reference clock.

Entry (i, j) bounds clock_i - clock_j. A bound ``(c, strict)`` is stored as
one int, ``2*c*scale + (0 if strict else 1)``, the raw encoding of UPPAAL
(Bengtsson & Yi, "Timed Automata: Semantics, Algorithms and Tools", 2004):
integer ``<`` orders bounds, the sum of two finite bounds is
``a + b - ((a | b) & 1)``, and ``RAW_INF`` stands for +infinity. ``scale``
is fixed per exploration: the least common multiple of the denominators of
every constant in the model (``model.constant_scale``), so repaired models
with rational constants stay integral. An atom that is not a multiple of
``1/scale`` is a caller error and raises ValueError. A zone is one flat
row-major tuple of ``(n+1)^2`` raw bounds.

Every public operation returns a canonical matrix (closed under shortest
paths), so at a fixed scale matrices compare and hash structurally, and a
canonical zone has exactly one encoding. Intersecting with an atom
tightens one entry (two for ``=``) and re-closes the matrix in O(n^2)
through that entry, relaxing only the rows and columns the new edge
shortens (``_tighten``); extrapolation re-relaxes only the entries it
loosened (``_relax``), so nothing runs a full O(n^3) closure.
``bound(i, j)`` decodes an entry back to ``(Fraction | None, strict)``.

Two extrapolations sit side by side. Classic extrapolation bounds every
entry by one constant k; ``checker.check`` and ``checker.replay`` use it.
Extra⁺_LU (Behrmann, Bouyer, Larsen & Pelánek, STTT 2006) takes per clock a
lower-bound constant L and an upper-bound constant U (``lu_thresholds``)
and forgets far more; the admissibility zone graphs use it. ``settle``
selects one by its last argument.

One whole symbolic step (guard, resets, invariants, delay, extrapolation)
runs on one list copy of the zone, with the atoms already compiled to raw
edges by ``atom_edges``, in two halves split at the jump: ``jump`` applies
the guard and the resets, and ``settle`` the invariants, the delay and the
extrapolation to the jumped list in place. ``settle`` depends on the jumped
zone alone, not on the zone it came from, so a caller can memoize it by the
jumped raw bounds. Zones are plain values here: ``checker.MoveTable``
interns each one ``settle`` returns and gives it an id within its pool, so
the explorers hash a zone's raw bounds once.

The kernel's reference is ``tests/fraction_dbm.py``, the Fraction engine
this one replaced, which re-closes the whole matrix after every operation
and shares no code with this module. Of the per-operation functions,
``and_atom`` (through ``and_atoms``) is the property test ``intersects``;
``up``, ``reset_many`` and ``extrapolate`` have no caller in the package
and are adaptors over the kernel. These four are the zone-layer spans that
``bench/tracing.SITES`` wraps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import ge, gt
from typing import NamedTuple

from .model import AtomicClockConstraint, Op

Bound = tuple[Fraction | None, bool]  # (value, strict); (None, True) is +inf

INF: Bound = (None, True)

LE_ZERO = 1  # raw (0, <=)
RAW_INF = 1 << 256  # above every sum of up to 2^55 raw constants below _RAW_LIMIT
_RAW_LIMIT = 1 << 200

# Weak bit of the raw bound an atom puts on clock - 0 (upper) and on
# 0 - clock (lower), indexed by Op; None where the operator sets none.
_UPPER_WEAK = (0, 1, 1, None, None)  # <, <=, =
_LOWER_WEAK = (None, None, 1, 1, 0)  # =, >=, >


class DifferenceBoundMatrix(NamedTuple):
    """A zone; a named tuple, so equality and hashing run at C speed."""

    n: int  # number of real clocks; matrix is (n+1) x (n+1)
    scale: int  # every bound is a multiple of 1/scale
    m: tuple[int, ...]  # raw bounds, row-major
    empty: bool = False

    def bound(self, i: int, j: int) -> Bound:
        raw = self.m[i * (self.n + 1) + j]
        if raw == RAW_INF:
            return INF
        return (Fraction(raw >> 1, self.scale), not raw & 1)


def empty_zone(n: int, scale: int = 1) -> DifferenceBoundMatrix:
    """The one canonical empty zone: every entry (0, <)."""
    return DifferenceBoundMatrix(n, scale, (0,) * ((n + 1) * (n + 1)), True)


def raw_constant(bound: Fraction, scale: int) -> int:
    """The raw bound ``(bound, <)``, ``2*bound*scale``; ValueError unless it is
    a multiple of ``1/scale`` below 2^200."""
    v, rem = divmod(bound.numerator * scale, bound.denominator)
    if rem or v >= _RAW_LIMIT:
        raise ValueError(f"constant {bound} is not a multiple of 1/{scale} below 2^200")
    return 2 * v


def _tighten(m: list[int], dim: int, i: int, j: int, b: int) -> bool:
    """Add clock_i - clock_j <= b to a closed matrix and re-close it in O(n^2).

    Every new shortest path uses the new edge once: m[k][l] becomes
    min(m[k][l], m[k][i] + b + m[j][l]). Only the rows k with
    m[k][i] + b < m[k][j] and the columns l with b + m[j][l] < m[i][l] can
    change (Bengtsson & Yi 2004): the matrix is closed, so by the triangle
    inequality m[k][i] + b >= m[k][j] gives m[k][i] + b + m[j][l] >=
    m[k][j] + m[j][l] >= m[k][l] for every l, and b + m[j][l] >= m[i][l]
    gives m[k][i] + b + m[j][l] >= m[k][i] + m[i][l] >= m[k][l] for every k;
    raw addition is monotone, so this holds for raw bounds. The columns are
    chosen before row i changes, and a row is tested when it is reached,
    before it changes. Row j and column i keep their values, so updating in
    place is safe. False iff b closes a negative cycle, which can only run
    through m[j][i].
    """
    d_ji = m[j * dim + i]
    if d_ji != RAW_INF and b + d_ji - ((b | d_ji) & 1) < LE_ZERO:
        return False
    ibase, jbase = i * dim, j * dim
    cols = []
    for l in range(dim):
        d_jl = m[jbase + l]
        if d_jl != RAW_INF and b + d_jl - ((b | d_jl) & 1) < m[ibase + l]:
            cols.append((l, d_jl))
    for kbase in range(0, dim * dim, dim):
        d_ki = m[kbase + i]
        if d_ki == RAW_INF:
            continue
        d_kij = d_ki + b - ((d_ki | b) & 1)
        if d_kij >= m[kbase + j]:
            continue
        for l, d_jl in cols:
            via = d_kij + d_jl - ((d_kij | d_jl) & 1)
            if via < m[kbase + l]:
                m[kbase + l] = via
    return True


def atom_edges(atom: AtomicClockConstraint, scale: int) -> tuple[tuple[int, int, int], ...]:
    """The raw edges ``(i, j, b)``, each bounding clock_i - clock_j by ``b``, that
    conjoin ``atom`` at ``scale``: the upper edge before the lower one, as
    ``and_atom`` applies them. ValueError for an atom off the scale."""
    v = raw_constant(atom.bound, scale)
    c = atom.clock + 1
    upper, lower = _UPPER_WEAK[atom.op], _LOWER_WEAK[atom.op]
    edges = [] if upper is None else [(c, 0, v + upper)]
    if lower is not None:
        edges.append((0, c, lower - v))
    return tuple(edges)


def _conjoin(m: list[int], dim: int, edges) -> bool:
    """Apply raw edges to a closed matrix in place; False iff it becomes empty."""
    for i, j, b in edges:
        if b < m[i * dim + j] and not _tighten(m, dim, i, j, b):
            return False
    return True


def jump(d: DifferenceBoundMatrix, guard, resets) -> list[int] | None:
    """The first half of a step: a non-empty canonical zone conjoined with the
    guard, then the reset clocks set to 0, as a new closed list of raw
    bounds; None where the guard empties the zone.

    ``guard`` holds raw edges from ``atom_edges`` at ``d.scale``; ``resets``
    the sorted matrix indices (clock + 1) set to 0. A reset forgets a clock,
    so zones that differ only in it meet here.
    """
    dim = d.n + 1
    m = list(d.m)
    if not _conjoin(m, dim, guard):
        return None
    for c in resets:
        m[c * dim : (c + 1) * dim] = m[:dim]  # row c := row 0
        m[c::dim] = m[::dim]  # column c := column 0
    return m


def settle(d: DifferenceBoundMatrix, jumped: list[int], invariants, delay: bool, k) -> DifferenceBoundMatrix | None:
    """The second half of a step, on ``jumped`` from ``jump(d, ...)`` in place.

    Conjoins the raw ``invariants`` edges to the jumped zone; when ``delay``,
    lets time elapse (drops every clock's upper bound) and conjoins them
    again, which gives every valuation the zone reaches by a delay its
    invariants allow; then extrapolates at ``k``. None where the invariants
    empty the zone. ``k`` is either the int constant of classic
    extrapolation or a pair of raw per-clock thresholds from
    ``lu_thresholds``, which selects Extra⁺_LU instead. ``d`` gives only the
    clock count and scale, so the result is a function of ``jumped`` and the
    arguments after it.
    """
    dim = d.n + 1
    if not _conjoin(jumped, dim, invariants):
        return None
    if delay:
        jumped[dim::dim] = [RAW_INF] * d.n  # up
        _conjoin(jumped, dim, invariants)  # cannot empty: the undelayed zone satisfies them
    if type(k) is int:
        _extrapolate(jumped, dim, 2 * k * d.scale)
    else:
        _extrapolate_lu(jumped, dim, *k)
    return DifferenceBoundMatrix(d.n, d.scale, tuple(jumped))


def zero_zone(n: int, scale: int = 1) -> DifferenceBoundMatrix:
    """The singleton zone where every clock equals 0, at ``scale``."""
    return DifferenceBoundMatrix(n, scale, (LE_ZERO,) * ((n + 1) * (n + 1)))


def and_atom(d: DifferenceBoundMatrix, atom: AtomicClockConstraint) -> DifferenceBoundMatrix:
    """Intersect with an atomic constraint; the result is canonical."""
    if d.empty:
        return d
    bound = atom.bound
    v, rem = divmod(bound.numerator * d.scale, bound.denominator)  # raw_constant, inlined
    if rem or v >= _RAW_LIMIT:
        raise ValueError(f"constant {bound} is not a multiple of 1/{d.scale} below 2^200")
    m = list(d.m)
    if not constrain(m, d.n + 1, atom.clock + 1, 0, atom.op, 2 * v):
        return empty_zone(d.n, d.scale)
    return DifferenceBoundMatrix(d.n, d.scale, tuple(m))


def constrain(m: list[int], dim: int, i: int, j: int, op: Op, strict: int) -> bool:
    """Conjoin ``x_i - x_j op c`` to a closed raw matrix in place, ``strict`` being
    ``raw_constant(c, scale)``; False iff the matrix becomes empty (it is then
    left part-updated). With ``i == j`` the atom reads ``0 op c``."""
    upper = _UPPER_WEAK[op]
    if upper is not None:
        b = strict + upper
        if b < m[i * dim + j] and not _tighten(m, dim, i, j, b):
            return False
    lower = _LOWER_WEAK[op]
    if lower is not None:
        b = lower - strict
        if b < m[j * dim + i] and not _tighten(m, dim, j, i, b):
            return False
    return True


def and_atoms(d: DifferenceBoundMatrix, atoms) -> DifferenceBoundMatrix:
    for a in atoms:
        d = and_atom(d, a)
        if d.empty:
            return d
    return d


def _relax(m: list[int], dim: int, loosened) -> None:
    """Re-close in place a closed raw matrix whose ``loosened`` entries, each
    ``(idx, i * dim, i, j)`` for entry (i, j) at ``idx``, were raised.

    The other entries stay shortest paths: no path got shorter, and each
    is still an edge. So closing re-relaxes only the loosened entries, in
    Floyd-Warshall order, and the zone cannot become empty. A loosened
    entry (i, j) skips the mids i and j, whose paths are the entry itself
    (``m[i][i]`` and ``m[j][j]`` are ``LE_ZERO``), and every mid it has no
    finite edge to.
    """
    for mid in range(dim):
        mbase = mid * dim
        for idx, ibase, i, j in loosened:
            if mid == i or mid == j:
                continue
            d_im = m[ibase + mid]
            if d_im == RAW_INF:
                continue
            d_mj = m[mbase + j]
            if d_mj == RAW_INF:
                continue
            via = d_im + d_mj - ((d_im | d_mj) & 1)
            if via < m[idx]:
                m[idx] = via


def _extrapolate(m: list[int], dim: int, raw_k: int) -> bool:
    """Classic maximal-constant extrapolation of a closed raw matrix in place at
    ``raw_k``, the raw ``(k, <)``, then its closure (``_relax``); False iff no
    entry changed.

    Bounds above k become infinite, bounds below -k become (-k, <); this
    keeps the zone graph finite while preserving reachability and the
    untimed language for any k at least the maximal model constant. One
    pass over the distinct finite bounds tells most matrices that need no
    loosening apart.
    """
    hi = raw_k + 1  # raw (k, <=)
    lo = -raw_k  # raw (-k, <)
    bounds = set(m)
    bounds.discard(RAW_INF)  # the diagonal keeps LE_ZERO, so one bound is left
    if lo <= min(bounds) and max(bounds) <= hi:
        return False
    loosened = []
    for idx, r in enumerate(m):
        if r < lo:
            m[idx] = lo
        elif hi < r != RAW_INF:
            m[idx] = RAW_INF
        else:
            continue
        i, j = divmod(idx, dim)
        loosened.append((idx, i * dim, i, j))
    _relax(m, dim, loosened)
    return True


def lu_thresholds(bounds: tuple[tuple[int, ...], tuple[int, ...]], scale: int) -> tuple[tuple[int, ...], ...]:
    """The raw thresholds of per-clock (L, U) bounds at ``scale``, as
    ``_extrapolate_lu`` takes them: per matrix index the raw ``(L(x), <)``
    and ``(U(x), <)``, 0 for the reference clock; then, derived from those
    once, per entry the greatest bound its row keeps, and per entry of row 0
    the least."""
    lower = (0, *(2 * c * scale for c in bounds[0]))
    upper = (0, *(2 * c * scale for c in bounds[1]))
    dim = len(lower)
    caps = (RAW_INF - 1,) * dim + tuple(lower[i] + 1 for i in range(1, dim) for _ in range(dim))
    floors = tuple(-min(lo, up) for lo, up in zip(lower, upper))
    return lower, upper, caps, floors


def _extrapolate_lu(m: list[int], dim: int, lower, upper, caps, floors) -> bool:
    """Extra⁺_LU of a closed raw matrix of non-negative clocks (no entry of row
    0 above ``LE_ZERO``) in place, then its closure; False iff no entry
    changed. The thresholds are ``lu_thresholds``.

    Behrmann, Bouyer, Larsen & Pelánek, "Lower and upper bounds in
    zone-based abstractions of timed automata" (STTT 2006): an entry (i, j)
    becomes infinite when it is above ``(L(x_i), <=)``, when x_i is above
    L(x_i) (``m[0][i] < (-L(x_i), <)``) or, for i > 0, when x_j is above
    U(x_j); in row 0 the last case gives ``(-U(x_j), <)`` instead. The
    abstraction keeps the untimed language of the network whose guards and
    invariants the bounds cover.

    The closure re-relaxes only what needs it. A row dropped because its
    clock is above L stays infinite: every path out of it starts with one of
    its entries. A column dropped because its clock x_c is above U can be
    entered only from row 0, so its entries close to ``m[i][0] + m[0][c]``
    once every other entry is closed, and no other path gets shorter through
    it than through the reference clock. The entries above their row's
    ``(L, <=)`` are re-relaxed (``_relax``). The no-change test
    bounds each row by its own threshold (``caps``): a clock without
    lower-bound atoms (L = 0) fails any one test over the whole matrix.
    Every infinite entry exceeds its cap, so no finite one does iff as many
    entries exceed their caps as are infinite.
    """
    if all(map(ge, m[:dim], floors)) and sum(map(gt, m, caps)) == m.count(RAW_INF):
        return False
    row0 = m[:dim]
    changed = False
    gone = []  # the clocks above U
    for c in range(1, dim):
        if row0[c] < -lower[c]:  # x_c above L: its row is dropped
            cbase = c * dim
            if m[cbase : cbase + dim].count(RAW_INF) < dim - 1:
                m[cbase : cbase + dim] = [RAW_INF] * dim
                m[cbase + c] = LE_ZERO
                changed = True
        if row0[c] < -upper[c]:  # x_c above U: its column is dropped
            gone.append(c)
            m[c] = -upper[c]
            m[c + dim :: dim] = [RAW_INF] * (dim - 1)
            m[c * dim + c] = LE_ZERO
    loosened = []
    for idx in compress(range(dim, dim * dim), map(gt, m[dim:], caps[dim:])):
        if m[idx] != RAW_INF:
            m[idx] = RAW_INF
            i = idx // dim
            loosened.append((idx, i * dim, i, idx - i * dim))
    _relax(m, dim, loosened)
    for c in gone:
        d_0c = m[c]
        for ibase in range(dim, dim * dim, dim):
            d_i0 = m[ibase]
            if d_i0 != RAW_INF and ibase != c * dim:
                m[ibase + c] = d_i0 + d_0c - ((d_i0 | d_0c) & 1)
    return changed or bool(gone or loosened)


def intersects(d: DifferenceBoundMatrix, atoms) -> bool:
    """Does the zone contain a point satisfying all atoms?"""
    return not and_atoms(d, atoms).empty


# up, reset_many and extrapolate have no caller in the package: they stay
# only as spans that bench/tracing.SITES wraps.
def up(d: DifferenceBoundMatrix) -> DifferenceBoundMatrix:
    """Delay closure: remove the upper bounds on all clocks."""
    if d.empty:
        return d
    dim = d.n + 1
    m = list(d.m)
    m[dim::dim] = [RAW_INF] * d.n
    # Still canonical: M[i][j] <= M[i][0] + M[0][j] cannot be violated by
    # weakening M[i][0], and paths through 0 only got longer.
    return DifferenceBoundMatrix(d.n, d.scale, tuple(m))


def reset_many(d: DifferenceBoundMatrix, clocks) -> DifferenceBoundMatrix:
    """Set each of ``clocks`` to 0."""
    if d.empty:
        return d
    return DifferenceBoundMatrix(d.n, d.scale, tuple(jump(d, (), sorted(c + 1 for c in clocks))))


def extrapolate(d: DifferenceBoundMatrix, k: int) -> DifferenceBoundMatrix:
    """Classic extrapolation at ``k`` (``_extrapolate``)."""
    if d.empty:
        return d
    return settle(d, list(d.m), (), False, k)
