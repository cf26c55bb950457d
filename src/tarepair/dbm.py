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
through that entry; ``extrapolate`` re-relaxes only the entries it
loosened, and only ``canonicalize`` runs the full O(n^3) closure.
``bound(i, j)`` decodes an entry back to ``(Fraction | None, strict)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .model import AtomicClockConstraint, Op

Bound = tuple[Fraction | None, bool]  # (value, strict); (None, True) is +inf

INF: Bound = (None, True)
ZERO: Bound = (Fraction(0), False)

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
    min(m[k][l], m[k][i] + b + m[j][l]). Row j and column i keep their
    values, so updating in place is safe. False iff b closes a negative
    cycle, which can only run through m[j][i].
    """
    d_ji = m[j * dim + i]
    if d_ji != RAW_INF and b + d_ji - ((b | d_ji) & 1) < LE_ZERO:
        return False
    jbase = j * dim
    row_j = [(l, m[jbase + l]) for l in range(dim) if m[jbase + l] != RAW_INF]
    for kbase in range(0, dim * dim, dim):
        d_ki = m[kbase + i]
        if d_ki == RAW_INF:
            continue
        d_kij = d_ki + b - ((d_ki | b) & 1)
        for l, d_jl in row_j:
            via = d_kij + d_jl - ((d_kij | d_jl) & 1)
            if via < m[kbase + l]:
                m[kbase + l] = via
    return True


def canonicalize(d: DifferenceBoundMatrix) -> DifferenceBoundMatrix:
    """Full Floyd-Warshall closure of an arbitrary matrix."""
    dim = d.n + 1
    m = list(d.m)
    for k in range(dim):
        kbase = k * dim
        for ibase in range(0, dim * dim, dim):
            d_ik = m[ibase + k]
            if d_ik == RAW_INF:
                continue
            for j in range(dim):
                d_kj = m[kbase + j]
                if d_kj == RAW_INF:
                    continue
                via = d_ik + d_kj - ((d_ik | d_kj) & 1)
                if via < m[ibase + j]:
                    m[ibase + j] = via
    if any(m[i] < LE_ZERO for i in range(0, dim * dim, dim + 1)):
        return empty_zone(d.n, d.scale)  # a negative cycle
    m[:: dim + 1] = [LE_ZERO] * dim
    return DifferenceBoundMatrix(d.n, d.scale, tuple(m))


def zero_zone(n: int, scale: int = 1) -> DifferenceBoundMatrix:
    """The singleton zone where every clock equals 0, at ``scale``."""
    return DifferenceBoundMatrix(n, scale, (LE_ZERO,) * ((n + 1) * (n + 1)))


def is_empty(d: DifferenceBoundMatrix) -> bool:
    return d.empty


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


def and_atom(d: DifferenceBoundMatrix, atom: AtomicClockConstraint) -> DifferenceBoundMatrix:
    """Intersect with an atomic constraint; the result is canonical."""
    if d.empty:
        return d
    bound = atom.bound
    v, rem = divmod(bound.numerator * d.scale, bound.denominator)  # raw_constant, inlined on this hot path
    if rem or v >= _RAW_LIMIT:
        raise ValueError(f"constant {bound} is not a multiple of 1/{d.scale} below 2^200")
    dim = d.n + 1
    c = atom.clock + 1
    m = d.m
    rows = None
    upper = _UPPER_WEAK[atom.op]
    if upper is not None:
        b = 2 * v + upper
        if b < m[c * dim]:
            rows = list(m)
            if not _tighten(rows, dim, c, 0, b):
                return empty_zone(d.n, d.scale)
    lower = _LOWER_WEAK[atom.op]
    if lower is not None:
        b = lower - 2 * v
        if b < (m if rows is None else rows)[c]:
            if rows is None:
                rows = list(m)
            if not _tighten(rows, dim, 0, c, b):
                return empty_zone(d.n, d.scale)
    if rows is None:
        return d
    return DifferenceBoundMatrix(d.n, d.scale, tuple(rows))


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


def reset(d: DifferenceBoundMatrix, clock: int) -> DifferenceBoundMatrix:
    """Set one clock to 0 (input must be canonical; output stays canonical)."""
    if d.empty:
        return d
    dim = d.n + 1
    c = clock + 1
    m = list(d.m)
    m[c * dim : (c + 1) * dim] = m[:dim]  # row c := row 0
    m[c::dim] = m[::dim]  # column c := column 0, which sets m[c][c] to (0, <=)
    return DifferenceBoundMatrix(d.n, d.scale, tuple(m))


def reset_many(d: DifferenceBoundMatrix, clocks) -> DifferenceBoundMatrix:
    for c in sorted(clocks):
        d = reset(d, c)
    return d


def extrapolate(d: DifferenceBoundMatrix, k: int) -> DifferenceBoundMatrix:
    """Classic maximal-constant extrapolation, then closure of the loosened entries.

    Bounds above k become infinite, bounds below -k become (-k, <); this
    keeps the zone graph finite while preserving reachability and the
    untimed language for any k at least the maximal model constant.
    """
    if d.empty:
        return d
    hi = 2 * k * d.scale + 1  # raw (k, <=)
    lo = -2 * k * d.scale  # raw (-k, <)
    old = d.m
    m = [RAW_INF if r > hi else lo if r < lo else r for r in old]
    if tuple(m) == old:
        return d
    # The other entries stay shortest paths: no path got shorter, and each
    # is still an edge. So closing re-relaxes only the loosened entries,
    # in Floyd-Warshall order, and the zone cannot become empty.
    dim = d.n + 1
    loosened = [(idx, idx - idx % dim, idx % dim) for idx, r in enumerate(m) if r != old[idx]]
    for mid in range(dim):
        mbase = mid * dim
        for idx, ibase, j in loosened:
            d_im = m[ibase + mid]
            d_mj = m[mbase + j]
            if d_im == RAW_INF or d_mj == RAW_INF:
                continue
            via = d_im + d_mj - ((d_im | d_mj) & 1)
            if via < m[idx]:
                m[idx] = via
    return DifferenceBoundMatrix(d.n, d.scale, tuple(m))


def intersects(d: DifferenceBoundMatrix, atoms) -> bool:
    """Does the zone contain a point satisfying all atoms?"""
    return not is_empty(and_atoms(d, atoms))
