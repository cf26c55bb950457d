"""DBM algebra against hand-derived cases and structural properties."""

import random
from fractions import Fraction as F

import fraction_dbm
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from test_admissibility import _expanded
from test_bench_zone_graph import _workloads

from tarepair import dbm, load_bundled_model
from tarepair.admissibility import ZoneGraph, shared_bounds
from tarepair.checker import MoveIndex, MoveTable, move_label
from tarepair.model import AtomicClockConstraint, Op, constant_scale, max_constant


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
    assert z.empty


def test_constrain_derives_transitive_bound():
    # x - y <= 2 and y <= 3 derive x <= 5 (shortest paths by hand on 3 nodes).
    # Raw bounds at scale 1: (c, <=) is 2c + 1; entry [3i + j] bounds clock_i - clock_j.
    le0, inf = dbm.LE_ZERO, dbm.RAW_INF
    for order in ([(1, 2, 2), (2, 0, 3)], [(2, 0, 3), (1, 2, 2)]):
        m = [le0, inf, inf, inf, le0, inf, inf, inf, le0]  # x and y unconstrained, even below 0
        for i, j, c in order:
            assert dbm.constrain(m, 3, i, j, Op.LE, 2 * c)
        assert m[3 * 1 + 2] == 2 * 2 + 1 and m[3 * 2 + 0] == 2 * 3 + 1
        assert m[3 * 1 + 0] == 2 * 5 + 1, order


def test_reset_pins_clock_to_zero():
    z = dbm.up(dbm.zero_zone(2))
    z = dbm.and_atom(z, atom(0, Op.GE, 3))
    z = dbm.reset_many(z, {0})
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
    # Each result is its own Fraction Floyd-Warshall closure.
    z = dbm.up(dbm.zero_zone(3))
    for c, op, b in atoms:
        z = dbm.and_atom(z, atom(c, op, b))
    assert _full_closure(z) == z
    if not z.empty:
        r = dbm.reset_many(z, {1})
        assert _full_closure(r) == r
        u = dbm.up(r)
        assert _full_closure(u) == u
        e = dbm.extrapolate(u, 4)
        assert _full_closure(e) == e


def test_emptiness_via_negative_cycle_only():
    z = dbm.zero_zone(1)
    z = dbm.and_atom(z, atom(0, Op.GE, 1))  # x = 0 and x >= 1
    assert z.empty


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
            assert z.empty == ref.empty
            for i in range(n + 1):
                for j in range(n + 1):
                    assert z.bound(i, j) == ref.bound(i, j), (operation, i, j)
            zones.append((z, ref))
    for a, ref_a in zones:
        for b, ref_b in zones:
            assert (a == b) == (ref_a == ref_b)
            assert a != b or hash(a) == hash(b)


def _post(zone, guard, resets, invariants, delay, k):
    """``dbm.settle`` after ``dbm.jump`` on a compiled step, the path ``MoveTable.post`` runs."""
    jumped = dbm.jump(zone, guard, resets)
    return None if jumped is None else dbm.settle(zone, jumped, invariants, delay, k)


def _compiled(zone, guard, resets, invariants, delay, k):
    """The arguments of ``_post`` after the zone, for one step of atoms."""

    def edges(atoms):
        return tuple(e for a in atoms for e in dbm.atom_edges(a, zone.scale))

    return edges(guard), sorted(c + 1 for c in resets), edges(invariants), delay, k


def _cells(zone):
    """Every entry of a zone of either engine, decoded, row by row."""
    dim = zone.n + 1
    return [zone.bound(i, j) for i in range(dim) for j in range(dim)]


def _assert_same_successor(zone, ref_zone, step):
    """``dbm.settle`` after ``dbm.jump`` against the Fraction engine's
    per-operation composition, half by half; returns its zone."""
    guard, resets, invariants, delay, k = step
    raw_guard, raw_resets, raw_invariants, *_ = _compiled(zone, *step)
    jumped = dbm.jump(zone, raw_guard, raw_resets)
    ref = fraction_dbm.and_atoms(ref_zone, guard)
    assert (jumped is None) == ref.empty, step
    if jumped is None:
        return None
    ref = fraction_dbm.reset_many(ref, resets)
    assert _cells(dbm.DifferenceBoundMatrix(zone.n, zone.scale, tuple(jumped))) == _cells(ref), step
    got = dbm.settle(zone, jumped, raw_invariants, delay, k)
    ref = fraction_dbm.and_atoms(ref, invariants)
    assert (got is None) == ref.empty, step
    if got is None:
        return None
    if delay:
        ref = fraction_dbm.and_atoms(fraction_dbm.up(ref), invariants)
    assert _cells(got) == _cells(fraction_dbm.extrapolate(ref, k)), step
    return got


ATOM = st.tuples(st.integers(0, 2), st.sampled_from(list(Op)), st.sampled_from(BOUNDS))


@settings(max_examples=400, deadline=None)
@example(2, 1, [("up",)], [(0, Op.GE, F(1))], {1}, [(0, Op.LE, F(2))], True, 2)  # up, then x <= 2 again
@example(3, 1, LOWER_CHAIN[:-1], [], set(), [], False, 4)  # the loosened 0 - x is re-closed through y
@example(3, 6, UPPER_CHAIN[:-1], [], set(), [], True, 2)
@given(
    st.integers(1, 3),
    st.sampled_from([1, 6]),
    st.lists(OPERATION, max_size=10),
    st.lists(ATOM, max_size=3),
    st.sets(st.integers(0, 2), max_size=3),
    st.lists(ATOM, max_size=3),
    st.booleans(),
    st.integers(1, 4),
)
def test_post_equals_the_composed_step_on_random_zones(n, scale, ops, guard, resets, invariants, delay, k):
    z, ref = dbm.zero_zone(n, scale), fraction_dbm.zero_zone(n)
    for operation in ops:
        if operation[0] == "and" and (operation[3] * scale).denominator != 1:
            continue
        z, ref = _apply(dbm, z, operation, n), _apply(fraction_dbm, ref, operation, n)
    assume(not z.empty)

    def atoms(raw):
        return [atom(c % n, op, b) for c, op, b in raw if (b * scale).denominator == 1]

    _assert_same_successor(z, ref, (atoms(guard), {c % n for c in resets}, atoms(invariants), delay, k))


CORPUS = ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle")


def _fischer_networks():
    workloads = _workloads()
    network, _prop, mutants = workloads.fischer_instance(3, workloads.fischer.draw_permutation(3, 1))
    return [("fischer", network)] + [(m.description, m.network) for m in mutants]


def _settle(network, locvec):
    """(invariant atoms, may delay) of a location vector, read off the network."""
    autos = network.automata
    invariants = [a for ai, li in enumerate(locvec) for a in autos[ai].invariants[li]]
    return invariants, not any(li in autos[ai].urgent for ai, li in enumerate(locvec))


def _model_steps(network, locvec):
    """(move, target, guard, resets, invariants, delay) of each enabled move, read off the network."""
    for move in MoveIndex(network).enabled(locvec):
        target, guard, resets = list(locvec), [], set()
        for ai, ti in move:
            t = network.automata[ai].transitions[ti]
            target[ai] = t.target
            guard += t.guard
            resets |= t.resets
        yield (move, tuple(target), guard, resets, *_settle(network, tuple(target)))


def _to_fractions(zone):
    dim = zone.n + 1
    rows = tuple(tuple(zone.bound(i, j) for j in range(dim)) for i in range(dim))
    return fraction_dbm.DifferenceBoundMatrix(zone.n, rows)


@pytest.mark.parametrize("models", ["bundled", "fischer"])
def test_post_equals_the_composed_step_on_every_model_state(models):
    # Each model's zone graph, explored through dbm.settle after dbm.jump
    # with each half checked against the Fraction engine; every (state,
    # move), disabled moves included, also goes through its MoveTable entry
    # and through MoveTable.post's memo.
    if models == "bundled":
        networks = [(name, load_bundled_model(name)[0]) for name in CORPUS]
    else:
        networks = _fischer_networks()
    pairs = 0
    memoized = set()  # distinct (network, step, zone): the jumps of the memoized path
    for name, network in networks:
        k, scale = max_constant(network), constant_scale(network)
        table = MoveTable(network, k, scale)
        locvec = tuple(a.initial for a in network.automata)
        zero, ref_zero = dbm.zero_zone(network.n_clocks, scale), fraction_dbm.zero_zone(network.n_clocks)
        zone = _assert_same_successor(zero, ref_zero, ([], set(), *_settle(network, locvec), k))
        init, zid = table.initial_state()
        assert (init, table.zones[zid]) == (locvec, zone), name
        seen = {(locvec, zone)}
        queue = [(locvec, zone, zid)]
        while queue:
            locvec, zone, zid = queue.pop()
            ref_zone = _to_fractions(zone)
            entries = table.moves(locvec)
            steps = list(_model_steps(network, locvec))
            assert [e[:3] for e in entries] == [(s[0], move_label(network, s[0]), s[1]) for s in steps], name
            for (_move, target, *step), (*_, compiled, memo) in zip(steps, entries):
                got = _assert_same_successor(zone, ref_zone, (*step, k))
                assert got == _post(zone, *compiled, k), name
                tid = table.post(zid, compiled, memo)
                assert (None if tid is None else table.zones[tid]) == got, name
                memoized.add((name, compiled, zone))
                pairs += 1
                if got is not None and (target, got) not in seen:
                    seen.add((target, got))
                    queue.append((target, got, tid))
    assert pairs == (8 if models == "bundled" else 25_633)
    assert len(memoized) == (8 if models == "bundled" else 11_333)


def test_post_equals_every_memo_entry_of_a_shared_pool():
    # Fischer N=3's zone graph lends its pool of memos to the graphs of its
    # 17 target-process mutants, as one repair run's admissibility checks
    # do; all are expanded in full. Every step memo entry of the pool,
    # whichever graph wrote it, is dbm.settle after dbm.jump of its zone and
    # step, and every settle memo entry is dbm.settle of its jumped zone.
    (_, fischer), *mutants = _fischer_networks()
    # One pool needs one abstraction: the per-clock maximum of every network's bounds.
    networks = [fischer] + [network for _, network in mutants]
    bounds = tuple(tuple(map(max, *sides)) for sides in zip(*(network.clock_bounds for network in networks)))
    assert bounds != fischer.clock_bounds
    scale = constant_scale(fischer)
    k = dbm.lu_thresholds(bounds, scale)
    own = ZoneGraph(fischer, bounds)
    graphs = [_expanded(g) for g in [own] + [ZoneGraph(network, bounds, share=own) for _, network in mutants]]
    pool, settled, zones = own.table._memos, own.table._settled, own.table.zones
    assert all(g.table._memos is pool and g.table._settled is settled and g.table.zones is zones for g in graphs)
    assert all(memo.settled is settled[step[2:]] for step, memo in pool.items())

    def zone(zid):
        return None if zid is None else zones[zid]

    entries = 0
    for step, memo in pool.items():
        for zid, successor in memo.items():
            assert zone(successor) == _post(zones[zid], *step, k), step
            entries += 1
    jumped = 0
    for (invariants, delay), memo in settled.items():
        for m, successor in memo.items():
            jumped_zone = dbm.DifferenceBoundMatrix(fischer.n_clocks, scale, m)
            assert zone(successor) == dbm.settle(jumped_zone, list(m), invariants, delay, k), invariants
            jumped += 1
    alone = _expanded(ZoneGraph(fischer, bounds))
    assert sum(len(memo) for memo in alone.table._memos.values()) == 300  # the original's own entries
    assert sum(len(memo) for memo in alone.table._settled.values()) == 160
    assert (entries, jumped) == (2_540, 1_254)


def test_each_pool_interns_each_zone_once():
    # After full expansions a pool lists each zone once, under the id its raw
    # bounds map to, and every state of a graph names its zone by that id:
    # Fischer N=3's pool alone, and the same pool lent to its mutants' graphs.
    (_, fischer), *mutants = _fischer_networks()
    alone, own = _expanded(ZoneGraph(fischer)), _expanded(ZoneGraph(fischer))
    graphs = [_expanded(ZoneGraph(network, shared_bounds(fischer, network)[1], share=own)) for _, network in mutants]
    assert len(own.table.zones) > len(alone.table.zones)
    for graph in [alone, own] + graphs:
        zones, ids = graph.table.zones, graph.table._zone_ids
        assert len({z.m for z in zones}) == len(zones) == len(ids)
        assert all(ids[z.m] == zid for zid, z in enumerate(zones))
        # Each state names a zone of the pool, and no two states the same (location vector, zone).
        assert all(0 <= zid < len(zones) for _, zid in graph._keys)
        assert len(set(graph._keys)) == graph.n_states


def _full_closure(zone):
    """A raw matrix closed by the Fraction engine's Floyd-Warshall and encoded
    back; ``dbm.empty_zone`` where it has a negative cycle. The bounds go in
    as exact ints in units of ``1/scale``: scaling commutes with closure, and
    int sums keep the reference fast on thousands of random matrices."""
    dim = zone.n + 1
    cells = [fraction_dbm.INF if r == dbm.RAW_INF else (r >> 1, not r & 1) for r in zone.m]
    rows = tuple(tuple(cells[i * dim : (i + 1) * dim]) for i in range(dim))
    closed = fraction_dbm.canonicalize(fraction_dbm.DifferenceBoundMatrix(zone.n, rows))
    if closed.empty:
        return dbm.empty_zone(zone.n, zone.scale)
    cells = [dbm.RAW_INF if v is None else int(2 * v) + (not strict) for v, strict in _cells(closed)]
    return dbm.DifferenceBoundMatrix(zone.n, zone.scale, tuple(cells))


def _raw_add(a, b):
    return dbm.RAW_INF if dbm.RAW_INF in (a, b) else a + b - ((a | b) & 1)


def _tie(a, t):
    """The raw b with ``a + b == t`` in raw arithmetic, for finite a and t; None
    where there is none (a strict a gives only strict sums)."""
    return next((b for b in (t - a, t - a + 1) if _raw_add(a, b) == t), None)


def _random_closed(rng, dim):
    """A random non-empty closed raw matrix with strict, weak and infinite entries."""
    while True:
        cells = [
            dbm.LE_ZERO if idx % (dim + 1) == 0 else dbm.RAW_INF if rng.random() < 0.3 else rng.randint(-4, 14)
            for idx in range(dim * dim)
        ]
        zone = _full_closure(dbm.DifferenceBoundMatrix(dim - 1, 1, tuple(cells)))
        if not zone.empty:
            return list(zone.m)


def test_post_is_settle_after_jump_on_random_closed_matrices():
    # Closed matrices no exploration reaches, such as negative clock values,
    # through dbm.settle after dbm.jump and through the Fraction engine's
    # per-operation composition.
    rng = random.Random(1801)
    outcomes = {"guard": 0, "invariants": 0, "successor": 0}
    for _ in range(1500):
        dim = rng.randint(2, 5)
        zone = dbm.DifferenceBoundMatrix(dim - 1, 1, tuple(_random_closed(rng, dim)))

        def atoms():
            return [atom(rng.randrange(dim - 1), rng.choice(list(Op)), rng.randint(0, 7)) for _ in range(rng.randint(0, 2))]

        guard, resets, invariants = atoms(), {c for c in range(dim - 1) if rng.random() < 0.3}, atoms()
        step = (guard, resets, invariants, rng.random() < 0.5, rng.randint(1, 7))
        ref = _to_fractions(zone)
        got = _assert_same_successor(zone, ref, step)
        if got is not None:
            outcomes["successor"] += 1
        elif fraction_dbm.and_atoms(ref, guard).empty:
            outcomes["guard"] += 1
        else:
            outcomes["invariants"] += 1
    assert min(outcomes.values()) > 100, outcomes


def _closed_with(m, dim, lowered):
    """``_full_closure`` of ``m`` with each ``(i, j, b)`` entry lowered to ``b``."""
    cells = list(m)
    for i, j, b in lowered:
        cells[i * dim + j] = min(cells[i * dim + j], b)
    return _full_closure(dbm.DifferenceBoundMatrix(dim - 1, 1, tuple(cells)))


def test_incremental_closure_equals_full_closure():
    # _tighten prunes the rows and columns the new edge cannot shorten; its
    # result must still be the full closure of the matrix with that entry
    # lowered. Edges are drawn to make ties (m[k][i] + b == m[k][j] and
    # b + m[j][l] == m[i][l], which the pruning skips) and negative cycles.
    rng = random.Random(1604)
    row_ties = col_ties = cycles = closed = 0
    for _ in range(3000):
        dim = rng.randint(1, 6)
        m = _random_closed(rng, dim)
        i, j = rng.randrange(dim), rng.randrange(dim)
        bs = [rng.randint(-16, 16)]
        k, l = rng.randrange(dim), rng.randrange(dim)
        if dbm.RAW_INF not in (m[k * dim + i], m[k * dim + j]):
            bs.append(_tie(m[k * dim + i], m[k * dim + j]))
        if dbm.RAW_INF not in (m[j * dim + l], m[i * dim + l]):
            bs.append(_tie(m[j * dim + l], m[i * dim + l]))
        if m[j * dim + i] != dbm.RAW_INF:
            bs.append(dbm.LE_ZERO - m[j * dim + i] - rng.randint(-1, 3))
        for b in bs:
            if b is None or b >= m[i * dim + j]:
                continue  # callers only tighten
            want = _closed_with(m, dim, [(i, j, b)])
            got = m.copy()
            assert dbm._tighten(got, dim, i, j, b) == (not want.empty), (m, i, j, b)
            if want.empty:
                cycles += 1
                continue
            assert tuple(got) == want.m, (m, i, j, b)
            closed += 1
            row_ties += any(_raw_add(m[r * dim + i], b) == m[r * dim + j] != dbm.RAW_INF for r in range(dim) if r != j)
            col_ties += any(_raw_add(b, m[j * dim + c]) == m[i * dim + c] != dbm.RAW_INF for c in range(dim) if c != i)
    assert min(row_ties, col_ties, cycles, closed) > 100


def test_extrapolate_equals_entrywise_then_full_closure():
    # _extrapolate loosens the entries above (k, <=) to infinity and those
    # below (-k, <) to (-k, <), then re-relaxes only the loosened entries,
    # skipping their own rows and columns; its result must be the full
    # closure of the entrywise-loosened matrix, and it reports whether any
    # entry changed.
    rng = random.Random(2001)
    to_inf = to_lower = reclosed = 0
    for _ in range(3000):
        dim = rng.randint(1, 6)
        m = _random_closed(rng, dim)
        k = rng.choice((0, 1, 2, 3, 5))
        hi, lo = 2 * k + 1, -2 * k
        cells = [lo if r < lo else dbm.RAW_INF if hi < r else r for r in m]
        want = _full_closure(dbm.DifferenceBoundMatrix(dim - 1, 1, tuple(cells)))
        got = m.copy()
        assert dbm._extrapolate(got, dim, 2 * k) == (cells != m), (m, k)
        assert not want.empty and tuple(got) == want.m, (m, k)
        to_inf += any(hi < r != dbm.RAW_INF for r in m)
        to_lower += any(r < lo for r in m)
        reclosed += want.m != tuple(cells)
    assert min(to_inf, to_lower, reclosed) > 100, (to_inf, to_lower, reclosed)


def test_constrain_equals_full_closure():
    rng = random.Random(1605)
    empties = 0
    for _ in range(2000):
        dim = rng.randint(1, 6)
        m = _random_closed(rng, dim)
        i, j, op = rng.randrange(dim), rng.randrange(dim), rng.choice(list(Op))
        strict = 2 * rng.randint(-6, 6)
        lowered = []
        if dbm._UPPER_WEAK[op] is not None:
            lowered.append((i, j, strict + dbm._UPPER_WEAK[op]))
        if dbm._LOWER_WEAK[op] is not None:
            lowered.append((j, i, dbm._LOWER_WEAK[op] - strict))
        want = _closed_with(m, dim, lowered)
        got = m.copy()
        assert dbm.constrain(got, dim, i, j, op, strict) == (not want.empty), (m, i, j, op, strict)
        if want.empty:
            empties += 1
        else:
            assert tuple(got) == want.m, (m, i, j, op, strict)
    assert empties > 100


def _extra_lu_plus(zone, lower, upper):
    """The raw entries of Extra⁺_LU of a zone of non-negative clocks as
    Behrmann, Bouyer, Larsen & Pelánek define it (STTT 2006), entry by entry
    on (value, strict) bounds, before any closure; ``lower`` and ``upper``
    give L and U per clock, the reference clock's being 0."""
    dim = zone.n + 1
    lower, upper = (0, *lower), (0, *upper)
    cells = list(zone.m)
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            c_ij, c_0i, c_0j = zone.bound(i, j)[0], zone.bound(0, i)[0], zone.bound(0, j)[0]
            if c_ij is not None and c_ij > lower[i]:
                cells[i * dim + j] = dbm.RAW_INF
            elif -c_0i > lower[i]:
                cells[i * dim + j] = dbm.RAW_INF
            elif -c_0j > upper[j]:
                cells[i * dim + j] = dbm.RAW_INF if i else -2 * upper[j] * zone.scale  # (-U, <)
    return tuple(cells)


def test_extra_lu_plus_equals_the_definition_then_full_closure():
    # The kernel drops a row whose clock is above L, a column whose clock is
    # above U (in row 0 it puts (-U, <) there) and each entry above (L, <=)
    # of its row, closes a dropped column from row 0 alone, re-relaxes only
    # the other loosened entries and reports whether any entry changed; its
    # result must be the definition's, closed in full.
    # Matrices are closed zones of non-negative clocks with strict, weak and
    # infinite entries, at scale 1 and 2; some clocks have L = U = 0.
    rng = random.Random(2201)
    seen = {"unchanged": 0, "row dropped": 0, "column dropped": 0, "above L": 0, "reclosed": 0, "zero clock": 0}
    for _ in range(4000):
        dim, scale = rng.randint(2, 5), rng.choice((1, 2))
        while True:
            cells = [
                dbm.LE_ZERO if idx % (dim + 1) == 0 else dbm.RAW_INF if rng.random() < 0.3 else rng.randint(-12, 20)
                for idx in range(dim * dim)
            ]
            cells[:dim] = [min(r, dbm.LE_ZERO) for r in cells[:dim]]  # clocks are non-negative
            zone = _full_closure(dbm.DifferenceBoundMatrix(dim - 1, scale, tuple(cells)))
            if not zone.empty:
                break
        bounds = tuple(tuple(rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(dim - 1)) for _ in "LU")
        entries = _extra_lu_plus(zone, *bounds)
        want = _full_closure(dbm.DifferenceBoundMatrix(zone.n, scale, entries))
        got = list(zone.m)
        assert dbm._extrapolate_lu(got, dim, *dbm.lu_thresholds(bounds, scale)) == (entries != zone.m), (zone, bounds)
        assert not want.empty and tuple(got) == want.m, (zone, bounds)
        settled = dbm.settle(zone, list(zone.m), (), False, dbm.lu_thresholds(bounds, scale))
        assert settled == want, (zone, bounds)
        lower, upper = (0, *bounds[0]), (0, *bounds[1])
        c0 = [zone.bound(0, i)[0] for i in range(dim)]
        seen["unchanged"] += entries == zone.m
        seen["row dropped"] += any(-c0[i] > lower[i] for i in range(1, dim))
        seen["column dropped"] += any(-c0[j] > upper[j] for j in range(1, dim))
        seen["above L"] += any(
            zone.bound(i, j)[0] is not None and zone.bound(i, j)[0] > lower[i] for i in range(1, dim) for j in range(dim)
        )
        seen["reclosed"] += want.m != entries
        seen["zero clock"] += any(lower[i] == upper[i] == 0 for i in range(1, dim)) and entries != zone.m
    assert min(seen.values()) > 200, seen
