"""Zone-checker verdicts, shortest traces, and cross-module soundness."""

import itertools
import json
import random
from collections import deque
from fractions import Fraction as F

import pytest

from conftest import scaled_model, two_receiver_model
from tarepair import dbm, load_bundled_model, seeding
from tarepair.admissibility import check_admissible
from tarepair.checker import (
    DEFAULT_STATE_BUDGET,
    Exhausted,
    MoveIndex,
    MoveTable,
    SymbolicTimedTrace,
    Verdict,
    check,
    is_enabled,
    replay,
    stt_from_moves,
)
from tarepair.encoder import encode, feasible, violating
from tarepair.model import SyncKind, constant_scale, max_constant
from tarepair.modelio import parse_model, parse_property, parse_trace, serialize_trace
from test_bench_zone_graph import _workloads


def test_safe_single_location_model():
    net, prop = load_bundled_model("safe_idle")
    verdict = check(net, prop)
    assert verdict.safe


def test_property_true_needs_only_initial_state():
    net, _ = load_bundled_model("safe_idle")
    prop = parse_property("true", net)
    verdict = check(net, prop)
    assert verdict.safe and verdict.states_explored == 1


def test_running_example_trace_sequence():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    assert not verdict.safe
    trace = verdict.trace
    assert len(trace) == 3
    # req handshake, internal arrival, ser handshake
    assert trace.steps[0] == ((0, 0), (1, 0))
    assert trace.steps[1] == ((1, 1),)
    assert trace.steps[2] == ((0, 1), (1, 2))
    final = trace.locations[-1]
    assert net.automata[0].location_names[final[0]] == "serReceiving"
    assert net.automata[1].location_names[final[1]] == "reqAwaiting"


def test_urgent_location_forbids_delay():
    net, prop = load_bundled_model("urgent_hop")
    verdict = check(net, prop)
    assert not verdict.safe
    sys = encode(net, verdict.trace, prop)
    assert 1 in sys.timing()[0]  # step 1 is a zero-delay (U) step


def test_verdicts_sound_for_all_violating_corpus_models():
    # Every Violated verdict yields a feasible trace whose system
    # intersects the negated property.
    for name in ("client_db", "oneclock", "urgent_hop", "pair_sync"):
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        assert not verdict.safe, name
        sys = encode(net, verdict.trace, prop)
        assert feasible(sys), name
        assert violating(sys), name


def _all_move_sequences(net, depth):
    """Every structurally valid move sequence up to the given length."""
    init = tuple(a.initial for a in net.automata)
    moves = MoveIndex(net)

    def walk(locvec, prefix):
        if prefix:
            yield prefix
        if len(prefix) >= depth:
            return
        for move in moves.enabled(locvec):
            vec = list(locvec)
            for ai, ti in move:
                vec[ai] = net.automata[ai].transitions[ti].target
            yield from walk(tuple(vec), prefix + (move,))

    yield from walk(init, ())


def test_minimality_against_exhaustive_bounded_search():
    # No feasible violating trace strictly shorter than the reported one
    # exists (exhaustive enumeration through the independent encoder path).
    for name in ("client_db", "oneclock", "urgent_hop", "pair_sync"):
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        shortest = len(verdict.trace)
        assert shortest <= 6
        for moves in _all_move_sequences(net, min(shortest - 1, 6)):
            stt = stt_from_moves(net, list(moves))
            sys = encode(net, stt, prop)
            assert not (feasible(sys) and violating(sys)), (name, moves)


def test_deterministic_traces():
    net, prop = load_bundled_model()
    a = check(net, prop)
    b = check(net, prop)
    assert a.trace == b.trace


def test_state_budget_exhaustion():
    net, prop = load_bundled_model()
    with pytest.raises(Exhausted):
        check(net, prop, state_budget=1)


def test_invariant_bound_safe_model():
    # Single automaton, one location, invariant x <= 2, property x <= 5.
    text = """
    {"automata": [{"name": "p", "initial": "a", "clocks": ["x"],
      "locations": [{"name": "a", "invariant": ["x <= 2"]}],
      "transitions": []}],
     "channels": [], "property": "x <= 5"}
    """
    net, prop = parse_model(text)
    assert check(net, prop).safe


@pytest.mark.parametrize("factor", [F(1, 2), F(3, 4), F(3, 2)])
def test_rational_constants_explore_like_their_doubled_copy(factor):
    # Times 3/4, client_db reads z >= 3/4, w <= 3/2, x <= 3, ...; scaling
    # every constant (and so k) scales the zone graph and keeps its shape.
    net, prop = scaled_model(*load_bundled_model(), factor)
    doubled, doubled_prop = scaled_model(net, prop, 2)
    assert constant_scale(net, prop) > 1
    a, b = check(net, prop), check(doubled, doubled_prop)
    assert not a.safe
    assert (a.trace, a.states_explored) == (b.trace, b.states_explored)
    assert a.states_explored == check(*load_bundled_model()).states_explored


def test_step_that_is_no_move_is_rejected():
    net, _ = load_bundled_model()
    with pytest.raises(ValueError, match="no enabled move"):
        stt_from_moves(net, [((1, 0),)])  # db's req? receive without its sender
    with pytest.raises(ValueError, match="no enabled move"):
        stt_from_moves(net, [((0, 0), (0, 0))])
    assert len(stt_from_moves(net, [((0, 0), (1, 0))])) == 1
    # replay checks each step with is_enabled and names the first one that is no move
    net, prop = load_bundled_model()
    trace = check(net, prop).trace
    bogus = SymbolicTimedTrace(trace.steps[:1] + (((1, 0),),) + trace.steps[2:], trace.locations)
    with pytest.raises(ValueError, match="step 1 is no enabled move"):
        replay(net, prop, bogus)


def _find(index, locvec, step):
    """The enabled move whose sorted (automaton, transition) pairs equal
    ``step``, None where there is none: the ``MoveIndex`` lookup that
    ``is_enabled`` replaced."""
    return next((move for move in index.enabled(locvec) if tuple(sorted(move)) == step), None)


def test_is_enabled_accepts_exactly_the_steps_find_finds():
    # Over every location vector that moves reach from the initial one, on
    # the bundled models and Fischer N=3: every single transition, every
    # ordered pair of transitions leaving the vector (unsorted ones, and two
    # of one automaton, among them), each enabled move with a third such
    # transition, and steps out of range.
    workloads = _workloads()
    models = [load_bundled_model(name)[0] for name in ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle")]
    models.append(parse_model(workloads.fischer.fischer(3, 0))[0])
    accepted = rejected = 0
    for net in models:
        index = MoveIndex(net)
        pairs = [(ai, ti) for ai, auto in enumerate(net.automata) for ti in range(len(auto.transitions))]
        n = len(net.automata)
        outside = [(n, 0), (-1, 0), (0, len(net.automata[0].transitions)), (0, -1)]
        init = tuple(a.initial for a in net.automata)
        seen, queue = {init}, [init]
        while queue:
            locvec = queue.pop()
            moves = list(index.enabled(locvec))
            leaving = [(ai, ti) for ai, ti in pairs if net.automata[ai].transitions[ti].source == locvec[ai]]
            steps = [(p,) for p in pairs + outside] + list(itertools.product(leaving, repeat=2))
            steps += [(*sorted(m), p) for m in moves for p in leaving] + [(p, q) for p in leaving for q in outside]
            steps.append(())
            for step in steps:
                found = _find(index, locvec, step) is not None
                assert is_enabled(net, locvec, step) == found, (locvec, step)
                accepted += found
                rejected += not found
            for move in moves:
                vec = list(locvec)
                for ai, ti in move:
                    vec[ai] = net.automata[ai].transitions[ti].target
                if tuple(vec) not in seen:
                    seen.add(tuple(vec))
                    queue.append(tuple(vec))
    assert (accepted, rejected) == (368, 39_384)
    # The kinds of step that are no move, on client_db at its initial vector.
    net, _ = load_bundled_model()
    index, init = MoveIndex(net), tuple(a.initial for a in net.automata)
    handshake = ((0, 0), (1, 0))  # client's req! with db's req?
    assert is_enabled(net, init, handshake) and _find(index, init, handshake)
    for step in (((1, 0),), handshake[::-1], ((0, 0), (0, 1)), handshake + ((1, 1),), ((2, 0),), ((0, 9),)):
        assert not is_enabled(net, init, step) and _find(index, init, step) is None, step


def _scan_moves(network, locvec):
    """The direct enumeration that ``MoveIndex`` replaced: every transition of every automaton."""
    autos = network.automata
    for ai, auto in enumerate(autos):
        for ti, t in enumerate(auto.transitions):
            if t.source != locvec[ai]:
                continue
            if t.sync == SyncKind.INTERNAL:
                yield ((ai, ti),)
            elif t.sync == SyncKind.SEND:
                for aj, other in enumerate(autos):
                    if aj == ai:
                        continue
                    for tj, u in enumerate(other.transitions):
                        if u.source == locvec[aj] and u.sync == SyncKind.RECEIVE and u.channel == t.channel:
                            yield ((ai, ti), (aj, tj))


def _random_sync_network(rng, n_automata=3, syncs=("", "a!", "a?", "b!", "b?"), channels=("a", "b")):
    automata = []
    for ai in range(n_automata):
        transitions = [
            {
                "source": f"l{rng.randrange(3)}",
                "target": f"l{rng.randrange(3)}",
                "sync": rng.choice(syncs),
                "guard": [],
                "resets": [],
            }
            for _ in range(8)
        ]
        locations = [{"name": f"l{li}", "invariant": []} for li in range(3)]
        automata.append(
            {"name": f"p{ai}", "initial": "l0", "clocks": ["x"], "locations": locations, "transitions": transitions}
        )
    return parse_model(json.dumps({"automata": automata, "channels": list(channels), "property": "true"}))[0]


def _receivers(network, channel):
    """The automata of ``network`` with a receive transition on ``channel``."""
    return {
        ai
        for ai, auto in enumerate(network.automata)
        if any(t.sync == SyncKind.RECEIVE and t.channel == channel for t in auto.transitions)
    }


def _self_listener(network, channel):
    """Does one automaton of ``network`` both send and receive on ``channel``?"""
    return any(
        {SyncKind.SEND, SyncKind.RECEIVE} <= {t.sync for t in auto.transitions if t.channel == channel}
        for auto in network.automata
    )


def test_move_index_matches_a_direct_scan():
    # Three automata on two channels at random; then four, where channel a
    # has two or three receivers, p0 sends and receives on a, and channel c
    # has senders and no receiver.
    rng = random.Random(5)
    handshakes = 0
    for _ in range(30):
        net = _random_sync_network(rng)
        index = MoveIndex(net)
        for locvec in itertools.product(range(3), repeat=3):
            moves = list(index.enabled(locvec))
            assert moves == list(_scan_moves(net, locvec)), locvec
            handshakes += sum(len(m) == 2 for m in moves)
    assert handshakes > 1000
    shapes, handshakes = set(), 0
    while not {2, 3} <= shapes or handshakes < 1000:
        net = _random_sync_network(rng, 4, ("", "a!", "a?", "a?", "b!", "b?", "c!"), ("a", "b", "c"))
        a, c = 0, 2
        sends_on_c = any(t.channel == c for auto in net.automata for t in auto.transitions)
        if len(_receivers(net, a)) < 2 or not _self_listener(net, a) or not sends_on_c:
            continue
        assert not _receivers(net, c)
        shapes.add(len(_receivers(net, a)))
        index = MoveIndex(net)
        for locvec in itertools.product(range(3), repeat=4):
            moves = list(index.enabled(locvec))
            assert moves == list(_scan_moves(net, locvec)), locvec
            handshakes += sum(len(m) == 2 for m in moves)


def test_a_send_with_two_receivers_takes_the_receiver_its_step_names():
    net, prop = parse_model(two_receiver_model())
    to_r1, to_r2 = ((0, 0), (1, 0)), ((0, 0), (2, 0))
    verdict = check(net, prop)
    assert verdict.trace == SymbolicTimedTrace((to_r2,), ((0, 0, 0), (1, 0, 1)))
    assert replay(net, prop, stt_from_moves(net, [to_r1])) == (True, False)
    assert replay(net, prop, stt_from_moves(net, [to_r2])) == (True, True)
    for step in (to_r1, to_r2):
        stt = stt_from_moves(net, [step])
        assert parse_trace(serialize_trace(stt, net), net) == stt
    # The two handshakes compile to two steps, each with its own memo.
    table = MoveTable(net, max_constant(net, prop), constant_scale(net, prop))
    vid, zid = table.initial_state()
    (move1, _, _, step1, memo1), (move2, _, _, step2, memo2) = table.moves(vid)
    assert (move1, move2) == (to_r1, to_r2) and step1 != step2 and memo1 is not memo2
    assert table.post(zid, step1, memo1) != table.post(zid, step2, memo2)
    assert list(memo1) == list(memo2) == [zid]


def _count_stages(monkeypatch):
    """Record every ``dbm.jump`` call as its arguments and every ``dbm.settle``
    call as its jumped zone's raw bounds and the arguments after it."""
    jumps, settles = [], []
    jump, settle = dbm.jump, dbm.settle

    def recorded_jump(zone, *args):
        jumps.append((zone, args))
        return jump(zone, *args)

    def recorded_settle(zone, jumped, *args):
        settles.append((zone.n, zone.scale, tuple(jumped), args))
        return settle(zone, jumped, *args)

    monkeypatch.setattr(dbm, "jump", recorded_jump)
    monkeypatch.setattr(dbm, "settle", recorded_settle)
    return jumps, settles


def test_each_distinct_successor_is_computed_once_per_exploration(monkeypatch):
    # Interleavings reach the same zone at location vectors whose moves
    # compile to the same step, and a reset makes different zones meet at
    # one jumped zone; check settles each jumped zone once per (invariants,
    # delay).
    workloads = _workloads()
    jumps, settles = _count_stages(monkeypatch)
    # The initial successor, then one per (expanded state, move): check reads
    # each expanded state's moves by its vector id, serves memo hits inline
    # and calls MoveTable._miss, the miss half of MoveTable.post, for the rest.
    queries = []
    compiled, initial = MoveTable.moves, MoveTable.initial_state

    def counted(table, vid):
        entries = compiled(table, vid)
        queries.extend(step for _, _, _, step, _ in entries)
        return entries

    def counted_initial(table):
        queries.append(None)
        return initial(table)

    monkeypatch.setattr(MoveTable, "moves", counted)
    monkeypatch.setattr(MoveTable, "initial_state", counted_initial)
    counts = []
    for n in (3, 4):
        net, prop = parse_model(workloads.fischer.fischer(n, workloads.fischer.draw_permutation(n, 1)))
        for calls in (queries, jumps, settles):
            calls.clear()
        check(net, prop)
        assert len(settles) == len(set(settles)), n
        counts.append((len(queries), len(jumps), len(settles)))
    assert counts == [(720, 432, 202), (11_285, 5_025, 2_121)]  # (successor queries, jumps, settles)


def test_no_memo_outlives_one_call(monkeypatch):
    # A second check or admissibility check on the same network objects
    # computes every successor again, and its first table starts from an
    # empty pool of zones: the pools live one call (check_admissible's
    # without an original_cache). replay makes no table at all: it computes
    # each successor of its trace, every time.
    workloads = _workloads()
    net, prop = parse_model(workloads.fischer.fischer(3, workloads.fischer.draw_permutation(3, 1)))
    mutant = next(m.network for m in seeding.seed(net) if not check(m.network, prop).safe)
    trace = check(mutant, prop).trace
    jumps, settles = _count_stages(monkeypatch)
    pools = []  # per table made: its zones and how many it held when made
    make = MoveTable.__init__

    def recorded(table, *args, **kwargs):
        make(table, *args, **kwargs)
        pools.append((table.zones, len(table.zones)))

    monkeypatch.setattr(MoveTable, "__init__", recorded)
    calls = {
        "check": lambda: check(net, prop),
        "replay": lambda: replay(mutant, prop, trace),
        "admissibility": lambda: check_admissible(net, mutant),
    }
    for name, call in calls.items():
        counts, made = [], []
        for _ in range(2):
            jumps.clear()
            settles.clear()
            pools.clear()
            call()
            counts.append((len(jumps), len(settles)))
            made.append(list(pools))
        assert counts[0] == counts[1] and counts[0][1] > 0, (name, counts)
        if name == "replay":  # one jump per step, and one settle more for the initial zone
            assert made == [[], []] and counts[0] == (len(trace), len(trace) + 1), (made, counts)
        else:
            (first, _), (second, size) = made[0][0], made[1][0]
            assert first is not second and size == 0, name


# check tests the property when a state is generated; the search it replaced
# tested it when a state was dequeued.


def _dequeue_time_check(network, prop, state_budget=DEFAULT_STATE_BUDGET):
    """The breadth-first search ``check`` ran before it tested the property at
    generation: each state is tested when it is dequeued, so
    ``states_explored`` counts every state dequeued."""
    table = MoveTable(network, max_constant(network, prop), constant_scale(network, prop))
    init = table.initial_state()
    if init is None:
        return Verdict(True, None, 0)
    parents = {init: None}  # (vector id, zone id) -> (parent state, move)
    queue = deque([init])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > state_budget:
            raise Exhausted(f"state budget of {state_budget} exceeded")
        vid, zid = state
        if any(dbm.intersects(table.zones[zid], atoms) for atoms in prop.negated_atoms_at(table.vectors[vid])):
            path = [state]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]][0])
            path.reverse()
            steps = tuple(tuple(sorted(parents[s][1])) for s in path[1:])
            return Verdict(False, SymbolicTimedTrace(steps, tuple(table.vectors[s[0]] for s in path)), explored)
        for move, _label, target, step, memo in table.moves(vid):
            z = table.post(zid, step, memo)
            if z is not None and (target, z) not in parents:
                parents[target, z] = (state, move)
                queue.append((target, z))
    return Verdict(True, None, explored)


def _outcome(search, network, prop, state_budget=DEFAULT_STATE_BUDGET):
    """``search``'s verdict, or Exhausted (the class) where it runs out of budget."""
    try:
        return search(network, prop, state_budget)
    except Exhausted:
        return Exhausted


def _assert_checks_agree(cases):
    """``check`` gives the reference search's verdict, trace and
    ``states_explored`` on each (name, network, property) of ``cases``, or
    runs out of budget where it does; a violating network of rank r is
    decided alike at ``state_budget=r`` and exhausts ``state_budget=r-1``.
    Returns how many networks were safe, violating and out of budget."""
    counts = {"safe": 0, "violating": 0, "exhausted": 0}
    for name, network, prop in cases:
        want = _outcome(_dequeue_time_check, network, prop)
        got = _outcome(check, network, prop)
        assert got == want, name
        if want is Exhausted:
            counts["exhausted"] += 1
        elif want.safe:
            counts["safe"] += 1
        else:
            counts["violating"] += 1
            rank = want.states_explored
            assert _outcome(check, network, prop, rank) == want, name
            assert _outcome(check, network, prop, rank - 1) is Exhausted, name
    return counts


def _with_mutants(name, network, prop):
    """(name, network, property) of ``network`` and of each of its seeded mutants."""
    yield name, network, prop
    for i, mutant in enumerate(seeding.seed(network)):
        yield f"{name}.{i}.{mutant.description}", mutant.network, prop


@pytest.mark.parametrize("n, perm", [(3, 0), (3, 1), (3, 2), (4, 0)])
def test_check_matches_the_dequeue_time_search_on_fischer_mutants(n, perm):
    network, prop = parse_model(_workloads().fischer.fischer(n, perm))
    counts = _assert_checks_agree(_with_mutants(f"fischer{n}.{perm}", network, prop))
    assert counts["safe"] and counts["violating"], counts


def test_check_matches_the_dequeue_time_search_on_bundled_models():
    cases = []
    for name in ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle"):
        cases += _with_mutants(name, *load_bundled_model(name))
    counts = _assert_checks_agree(cases)
    assert counts["safe"] and counts["violating"], counts


def _random_timed_network(rng):
    """A ``_random_sync_network`` with two clocks, guards, invariants, resets,
    urgent locations and a property that reads locations and clocks."""
    clocks = ("x", "y")

    def atom(ops, low):
        return f"{rng.choice(clocks)} {rng.choice(ops)} {rng.randrange(low, 5)}"

    automata = []
    for ai in range(3):
        transitions = [
            {
                "source": f"l{rng.randrange(3)}",
                "target": f"l{rng.randrange(3)}",
                "sync": rng.choice(["", "", "a!", "a?", "b!", "b?"]),
                "guard": [atom(("<", "<=", ">", ">="), 0)] if rng.random() < 0.5 else [],
                "resets": [c for c in clocks if rng.random() < 0.4],
            }
            for _ in range(8)
        ]
        locations = [
            {"name": f"l{li}", "invariant": [atom(("<", "<="), 2)] if rng.random() < 0.4 else [], "urgent": rng.random() < 0.1}
            for li in range(3)
        ]
        automata.append(
            {"name": f"p{ai}", "initial": "l0", "clocks": list(clocks), "locations": locations, "transitions": transitions}
        )
    a, b = rng.sample(range(3), 2)
    prop = (
        f"!(@p{a}.l{rng.randrange(1, 3)} && @p{b}.l{rng.randrange(1, 3)} && {rng.choice(clocks)} > {rng.randrange(2, 6)})"
        f" && (!@p{b}.l0 || {rng.choice(clocks)} <= {rng.randrange(4, 8)})"
    )
    doc = {"automata": automata, "channels": ["a", "b"], "property": prop}
    return parse_model(json.dumps(doc))


def test_check_matches_the_dequeue_time_search_on_random_networks():
    rng = random.Random(31)
    cases = [(f"random{i}", *_random_timed_network(rng)) for i in range(30)]
    counts = _assert_checks_agree(cases)
    assert counts["safe"] >= 5 and counts["violating"] >= 5, counts


def test_a_violation_is_found_before_the_states_ranked_ahead_of_it_are_dequeued(monkeypatch):
    # The five violating target-process mutants of Fischer N=3, at the
    # seed-1 permutation: the dequeue-time search dequeued 88 + 88 + 98 +
    # 98 + 110 = 482 states, as many as their states_explored; testing at
    # generation stops when the violating state is reached.
    workloads = _workloads()
    network, prop, mutants = workloads.fischer_instance(3, workloads.fischer.draw_permutation(3, 1))
    dequeued = []
    moves = MoveTable.moves

    def counted(table, vid):
        dequeued.append(vid)
        return moves(table, vid)

    monkeypatch.setattr(MoveTable, "moves", counted)
    explored, expanded = [], 0
    for mutant in mutants:
        dequeued.clear()
        verdict = check(mutant.network, prop)
        if not verdict.safe:
            explored.append(verdict.states_explored)
            expanded += len(dequeued)
    assert explored == [88, 88, 98, 98, 110]
    assert expanded <= 297
