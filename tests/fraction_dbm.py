"""Reference engine for the differential test in ``test_dbm``.

This is the Fraction-tuple DBM that ``tarepair.dbm`` replaced, kept
verbatim apart from this docstring and its import; every tightening
re-closes the whole matrix with Floyd-Warshall.

Entry (i, j) bounds clock_i - clock_j by (value, strict); value None is
+infinity. Every public operation returns a canonical matrix (closed under
shortest paths), so matrices compare and hash structurally. Bounds are
Fractions: repaired models may carry rational constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tarepair.model import AtomicClockConstraint, Op

Bound = tuple[Fraction | None, bool]  # (value, strict); (None, True) is +inf

INF: Bound = (None, True)
ZERO: Bound = (Fraction(0), False)


def bound_lt(a: Bound, b: Bound) -> bool:
    """Is bound a strictly tighter than b?"""
    if b[0] is None:
        return a[0] is not None
    if a[0] is None:
        return False
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def bound_add(a: Bound, b: Bound) -> Bound:
    if a[0] is None or b[0] is None:
        return INF
    return (a[0] + b[0], a[1] or b[1])


@dataclass(frozen=True)
class DifferenceBoundMatrix:
    n: int  # number of real clocks; matrix is (n+1) x (n+1)
    m: tuple[tuple[Bound, ...], ...]
    empty: bool = False

    def bound(self, i: int, j: int) -> Bound:
        return self.m[i][j]


def _close(rows: list[list[Bound]], n: int) -> tuple[tuple[tuple[Bound, ...], ...], bool]:
    for k in range(n + 1):
        row_k = rows[k]
        for i in range(n + 1):
            d_ik = rows[i][k]
            if d_ik[0] is None:
                continue
            row_i = rows[i]
            for j in range(n + 1):
                via = bound_add(d_ik, row_k[j])
                if bound_lt(via, row_i[j]):
                    row_i[j] = via
    empty = any(bound_lt(rows[i][i], ZERO) for i in range(n + 1))
    if empty:
        # One canonical representation for the empty zone.
        bad: Bound = (Fraction(0), True)
        row = tuple(bad for _ in range(n + 1))
        return tuple(row for _ in range(n + 1)), True
    for i in range(n + 1):
        rows[i][i] = ZERO
    return tuple(tuple(r) for r in rows), empty


def canonicalize(d: DifferenceBoundMatrix) -> DifferenceBoundMatrix:
    rows = [list(r) for r in d.m]
    closed, empty = _close(rows, d.n)
    return DifferenceBoundMatrix(d.n, closed, empty)


def zero_zone(n: int) -> DifferenceBoundMatrix:
    """The singleton zone where every clock equals 0."""
    row = tuple(ZERO for _ in range(n + 1))
    return DifferenceBoundMatrix(n, tuple(row for _ in range(n + 1)))


def is_empty(d: DifferenceBoundMatrix) -> bool:
    return d.empty


def up(d: DifferenceBoundMatrix) -> DifferenceBoundMatrix:
    """Delay closure: remove the upper bounds on all clocks."""
    if d.empty:
        return d
    rows = [list(r) for r in d.m]
    for i in range(1, d.n + 1):
        rows[i][0] = INF
    # Still canonical: M[i][j] <= M[i][0] + M[0][j] cannot be violated by
    # weakening M[i][0], and paths through 0 only got longer.
    return DifferenceBoundMatrix(d.n, tuple(tuple(r) for r in rows), False)


def and_atom(d: DifferenceBoundMatrix, atom: AtomicClockConstraint) -> DifferenceBoundMatrix:
    """Intersect with an atomic constraint and re-canonicalize."""
    if d.empty:
        return d
    c = atom.clock + 1
    limits: list[tuple[int, int, Bound]] = []
    if atom.op in (Op.LT, Op.LE, Op.EQ):
        limits.append((c, 0, (atom.bound, atom.op == Op.LT)))
    if atom.op in (Op.GT, Op.GE, Op.EQ):
        limits.append((0, c, (-atom.bound, atom.op == Op.GT)))
    rows = [list(r) for r in d.m]
    changed = False
    for i, j, b in limits:
        if bound_lt(b, rows[i][j]):
            rows[i][j] = b
            changed = True
    if not changed:
        return d
    closed, empty = _close(rows, d.n)
    return DifferenceBoundMatrix(d.n, closed, empty)


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
    c = clock + 1
    rows = [list(r) for r in d.m]
    for j in range(d.n + 1):
        rows[c][j] = rows[0][j]
        rows[j][c] = rows[j][0]
    rows[c][c] = ZERO
    return DifferenceBoundMatrix(d.n, tuple(tuple(r) for r in rows), False)


def reset_many(d: DifferenceBoundMatrix, clocks) -> DifferenceBoundMatrix:
    for c in sorted(clocks):
        d = reset(d, c)
    return d


def extrapolate(d: DifferenceBoundMatrix, k: int) -> DifferenceBoundMatrix:
    """Classic maximal-constant extrapolation, then closure.

    Bounds above k become infinite, bounds below -k become (-k, <); this
    keeps the zone graph finite while preserving reachability and the
    untimed language for any k at least the maximal model constant.
    """
    if d.empty:
        return d
    kf = Fraction(k)
    rows = [list(r) for r in d.m]
    changed = False
    for i in range(d.n + 1):
        for j in range(d.n + 1):
            v, s = rows[i][j]
            if v is None:
                continue
            if v > kf:
                rows[i][j] = INF
                changed = True
            elif v < -kf:
                rows[i][j] = (-kf, True)
                changed = True
    if not changed:
        return d
    closed, empty = _close(rows, d.n)
    return DifferenceBoundMatrix(d.n, closed, empty)


def intersects(d: DifferenceBoundMatrix, atoms) -> bool:
    """Does the zone contain a point satisfying all atoms?"""
    return not is_empty(and_atoms(d, atoms))
