"""DBM algebra against hand-derived cases and structural properties."""

from fractions import Fraction as F

import fraction_dbm
import pytest
from hypothesis import example, given, settings, strategies as st

from tarepair import dbm
from tarepair.model import AtomicClockConstraint, Op


def atom(clock, op, bound):
    return AtomicClockConstraint(clock, op, F(bound))


def test_up_from_origin_gives_diagonal_ray():
    z = dbm.up(dbm.zero_zone(2))
    # x and y unbounded above, equal to each other, nonnegative
    assert z.bound(1, 0) == dbm.INF and z.bound(2, 0) == dbm.INF
    assert z.bound(1, 2) == (F(0), False) and z.bound(2, 1) == (F(0), False)
    assert z.bound(0, 1) == (F(0), False)


def test_and_unsatisfiable_atom_is_empty():
    z = dbm.up(dbm.zero_zone(1))
    z = dbm.and_atom(z, atom(0, Op.LT, 0))
    assert dbm.is_empty(z)


def test_canonicalize_derives_transitive_bound():
    # x - y <= 2 and y <= 3 derive x <= 5 (Floyd-Warshall by hand on 3 nodes).
    # Raw bounds at scale 1: (c, <=) is 2c + 1; entry [3i + j] bounds clock_i - clock_j.
    le0, inf = dbm.LE_ZERO, dbm.RAW_INF
    raw = dbm.DifferenceBoundMatrix(
        2,
        1,
        (
            le0, inf, inf,
            inf, le0, 2 * 2 + 1,  # x - y <= 2
            2 * 3 + 1, inf, le0,  # y <= 3
        ),
    )
    assert raw.bound(1, 0) == dbm.INF
    closed = dbm.canonicalize(raw)
    assert closed.bound(1, 0) == (F(5), False)


def test_reset_pins_clock_to_zero():
    z = dbm.up(dbm.zero_zone(2))
    z = dbm.and_atom(z, atom(0, Op.GE, 3))
    z = dbm.reset(z, 0)
    assert z.bound(1, 0) == (F(0), False) and z.bound(0, 1) == (F(0), False)
    # the other clock keeps its lower bound
    assert z.bound(0, 2) == (F(-3), False)


def test_equality_atom_pins_both_sides():
    z = dbm.up(dbm.zero_zone(1))
    z = dbm.and_atom(z, atom(0, Op.EQ, 2))
    assert z.bound(1, 0) == (F(2), False) and z.bound(0, 1) == (F(-2), False)


def test_extrapolate_drops_large_bounds():
    z = dbm.zero_zone(1)
    z = dbm.and_atom(dbm.up(z), atom(0, Op.GE, 7))
    e = dbm.extrapolate(z, 3)
    assert e.bound(0, 1) == (F(-3), True)
    z2 = dbm.and_atom(dbm.zero_zone(1), atom(0, Op.LE, 0))
    assert dbm.extrapolate(z2, 3) == z2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(list(Op)), st.integers(0, 4)), max_size=6))
def test_canonicalize_idempotent_and_ops_preserve_canonicity(atoms):
    z = dbm.up(dbm.zero_zone(3))
    for c, op, b in atoms:
        z = dbm.and_atom(z, atom(c, op, b))
    assert dbm.canonicalize(z) == z
    if not z.empty:
        r = dbm.reset(z, 1)
        assert dbm.canonicalize(r) == r
        u = dbm.up(r)
        assert dbm.canonicalize(u) == u
        e = dbm.extrapolate(u, 4)
        assert dbm.canonicalize(e) == e


def test_emptiness_via_negative_cycle_only():
    z = dbm.zero_zone(1)
    z = dbm.and_atom(z, atom(0, Op.GE, 1))  # x = 0 and x >= 1
    assert dbm.is_empty(z)


def test_atom_off_the_scale_is_rejected():
    z = dbm.up(dbm.zero_zone(1, 2))
    assert dbm.and_atom(z, atom(0, Op.LE, F(3, 2))).bound(1, 0) == (F(3, 2), False)
    with pytest.raises(ValueError):
        dbm.and_atom(z, atom(0, Op.LE, F(1, 3)))
    with pytest.raises(ValueError):
        dbm.and_atom(dbm.up(dbm.zero_zone(1)), atom(0, Op.GT, F(1, 2)))


BOUNDS = [F(b) for b in range(5)] + [F(1, 2), F(1, 3), F(5, 6), F(3, 2), F(7, 3)]
OPERATION = st.one_of(
    st.tuples(st.just("and"), st.integers(0, 2), st.sampled_from(list(Op)), st.sampled_from(BOUNDS)),
    st.tuples(st.just("up")),
    st.tuples(st.just("reset"), st.sets(st.integers(0, 2), max_size=3)),
    st.tuples(st.just("extrapolate"), st.integers(1, 4)),
)


def _apply(engine, zone, operation, n):
    kind, *args = operation
    if kind == "and":
        clock, op, bound = args
        return engine.and_atom(zone, atom(clock % n, op, bound))
    if kind == "up":
        return engine.up(zone)
    if kind == "reset":
        return engine.reset_many(zone, {c % n for c in args[0]})
    return engine.extrapolate(zone, args[0])


# Extrapolation loosens 0 - x below -k (LOWER_CHAIN: x >= 6, k = 4) and
# x - z above k (UPPER_CHAIN: x - z <= 3, k = 2); the closure tightens both
# back through y.
LOWER_CHAIN = [
    ("up",), ("and", 0, Op.GE, F(3)), ("reset", {1}), ("up",), ("and", 1, Op.GE, F(3)), ("extrapolate", 4),
]
UPPER_CHAIN = [
    ("up",), ("and", 0, Op.LE, F(3, 2)), ("reset", {1}), ("up",), ("and", 1, Op.LE, F(3, 2)),
    ("reset", {2}), ("up",), ("extrapolate", 2),
]


@settings(max_examples=300, deadline=None)
@example(3, 1, LOWER_CHAIN, [])
@example(3, 6, UPPER_CHAIN, LOWER_CHAIN)
@given(
    st.integers(1, 3),
    st.sampled_from([1, 6]),
    st.lists(OPERATION, max_size=12),
    st.lists(OPERATION, max_size=12),
)
def test_integer_engine_agrees_with_fraction_reference(n, scale, ops_a, ops_b):
    # Same operations on both engines; atoms off the integer scale are skipped.
    zones = []
    for ops in (ops_a, ops_b):
        z, ref = dbm.zero_zone(n, scale), fraction_dbm.zero_zone(n)
        zones.append((z, ref))
        for operation in ops:
            if operation[0] == "and" and (operation[3] * scale).denominator != 1:
                continue
            z, ref = _apply(dbm, z, operation, n), _apply(fraction_dbm, ref, operation, n)
            assert dbm.is_empty(z) == fraction_dbm.is_empty(ref)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert z.bound(i, j) == ref.bound(i, j), (operation, i, j)
            zones.append((z, ref))
    for a, ref_a in zones:
        for b, ref_b in zones:
            assert (a == b) == (ref_a == ref_b)
            assert a != b or hash(a) == hash(b)
