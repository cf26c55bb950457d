"""Untimed-language construction and equivalence, with the region oracle."""

import json
from fractions import Fraction as F

import alphabet_equivalence
import pytest

from alphabet_equivalence import accepts, observed
from conftest import no_run_model, scaled_model
from tarepair import admissibility, bundled_model_path, load_bundled_model, orchestrator, seeding
from tarepair.admissibility import (
    SILENT,
    Equivalence,
    UntimedAutomaton,
    ZoneGraph,
    build_untimed,
    check_admissible,
    equivalent,
    shared_bounds,
)
from tarepair.checker import Exhausted, MoveTable, check
from tarepair.model import constant_scale, max_constant
from tarepair.modelio import parse_model
from tarepair.regions import build_region_untimed
from test_bench_zone_graph import _expanded, _workloads
from urgency_desugar import desugar_urgency

CORPUS = ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle")


def test_single_location_no_transitions():
    net, _ = load_bundled_model("safe_idle")
    ua = build_untimed(net)
    assert ua.n_states == 1 and not ua.expand(0)


def test_running_example_language_contains_req_ser():
    net, _ = load_bundled_model()
    ua = build_untimed(net)
    assert accepts(ua, ("req", "ser"))
    assert accepts(ua, ("req", "ser", "ack"))
    assert not accepts(ua, ("ser",))
    assert not accepts(ua, ("req", "req"))


def test_alphabet_of_a_graph_expanded_only_at_its_initial_state():
    # The alphabet of a ZoneGraph comes from its network, so a graph expanded
    # only at state 0 has the alphabet of the full graph: that of its edges.
    net, _ = load_bundled_model()
    graph = ZoneGraph(net)
    graph.expand(0)
    full = build_untimed(net)
    assert 1 < graph.n_states < full.n_states
    edges = UntimedAutomaton([full.expand(s) for s in range(full.n_states)])
    assert alphabet_equivalence.alphabet(graph) == alphabet_equivalence.alphabet(full)
    assert alphabet_equivalence.alphabet(graph) == alphabet_equivalence.alphabet(edges) == ("ack", "req", "ser")


def test_observed_graph_is_the_graph_with_internal_moves_labelled():
    # observed(net) sends each internal move on its own channel "A.tN" to an
    # observer, so its zone graph is that of net, state for state, with each
    # silent edge labelled after its transition: the graph the language
    # oracles compare when transition structure must show.
    fischer = _fischer()
    nets = [load_bundled_model(name)[0] for name in CORPUS] + [fischer] + [m.network for m in seeding.seed(fischer)]
    labelled = 0
    for net in nets:
        plain, seen = build_untimed(net), build_untimed(observed(net))
        assert seen.n_states == plain.n_states
        for s in range(plain.n_states):
            silenced = {}
            for label, targets in seen.expand(s).items():
                silenced.setdefault(label if label in net.channel_names else SILENT, []).extend(targets)
            assert silenced == plain.expand(s)
        internal = {f"{a.name}.t{ti}" for a in net.automata for ti, t in enumerate(a.transitions) if t.channel is None}
        channels = set(alphabet_equivalence.alphabet(ZoneGraph(net)))
        assert alphabet_equivalence.alphabet(ZoneGraph(observed(net))) == tuple(sorted(channels | internal))
        labelled += len(internal)
    assert len(nets) == 83 and labelled > 0


def test_equivalence_reflexive_on_corpus():
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        ua = build_untimed(net)
        assert equivalent(ua, ua).equal, name


def test_equivalence_symmetric_verdicts():
    net, _ = load_bundled_model()
    other = parse_model(
        json.dumps(
            {
                "automata": [
                    {
                        "name": "solo",
                        "initial": "s",
                        "clocks": ["t"],
                        "locations": [{"name": "s", "invariant": []}, {"name": "e", "invariant": []}],
                        "transitions": [
                            {"source": "s", "target": "e", "sync": "req!", "guard": [], "resets": []}
                        ],
                    },
                    {
                        "name": "peer",
                        "initial": "p",
                        "clocks": ["t"],
                        "locations": [{"name": "p", "invariant": []}],
                        "transitions": [
                            {"source": "p", "target": "p", "sync": "req?", "guard": [], "resets": []}
                        ],
                    },
                ],
                "channels": ["req"],
                "property": "t <= 99",
            }
        )
    )[0]
    a, b = build_untimed(net), build_untimed(other)
    ab, ba = equivalent(a, b), equivalent(b, a)
    assert ab.equal == ba.equal == False
    assert ab.witness == ba.witness  # shortest difference is the same word


def test_witness_accepted_by_exactly_one_side():
    net, prop = load_bundled_model()
    from tarepair.orchestrator import RepairKind, run

    rr = run(net, prop, RepairKind.URGENT)
    from tarepair.orchestrator import apply_candidate

    for cand, adm, wit in zip(rr.candidates, rr.admissible, rr.witnesses):
        assert not adm and wit
        repaired = apply_candidate(net, cand)
        ua, ub = build_untimed(net), build_untimed(repaired)
        assert accepts(ua, wit) != accepts(ub, wit)


def test_desugared_network_has_same_language():
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        sugar = build_untimed(observed(net))
        plain = build_untimed(observed(desugar_urgency(net)))
        assert equivalent(sugar, plain).equal, name


def test_zone_language_equals_region_language_on_corpus():
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        ua = build_untimed(observed(net))
        ra = build_region_untimed(observed(net))
        assert equivalent(ua, ra) == alphabet_equivalence.equivalent(ua, ra) == Equivalence(True), name


def test_admissibility_shared_extrapolation_constant():
    # A repaired model with a larger constant must not look spuriously different.
    net, prop = load_bundled_model()
    from tarepair.model import AtomicClockConstraint, indexed_constraints
    from tarepair.orchestrator import Modification, RepairCandidate, RepairKind, apply_candidate
    from fractions import Fraction

    ref = indexed_constraints(net)[2]  # w <= 2
    cand = RepairCandidate(
        RepairKind.BOUND,
        (
            Modification(
                ("constraint", 2),
                ref.atom,
                AtomicClockConstraint(ref.atom.clock, ref.atom.op, Fraction(9)),
                "loosen w <= 2 to w <= 9",
            ),
        ),
        (),
    )
    loosened = apply_candidate(net, cand)
    verdict = check_admissible(net, loosened)
    # the language is unchanged: transmission still possible, all handshakes live
    assert verdict.equal


@pytest.mark.parametrize(
    "old, new, equal", [('"w <= 2"', '"w <= 3/2"', True), ('"z >= 1"', '"z >= 5/2"', False)]
)
def test_rational_repair_admissibility_matches_doubled_copies(old, new, equal):
    net, prop = load_bundled_model()
    text = bundled_model_path("client_db").read_text(encoding="utf-8")
    assert old in text
    repaired, _ = parse_model(text.replace(old, new))
    verdict = check_admissible(net, repaired)
    doubled = check_admissible(scaled_model(net, prop, 2)[0], scaled_model(repaired, prop, 2)[0])
    assert verdict == doubled
    assert verdict.equal == equal


def test_network_without_a_run_has_the_empty_language():
    bad, prop = parse_model(no_run_model())
    assert check(bad, prop).safe  # vacuously: no reachable state
    ua = build_untimed(bad)
    assert ua.n_states == 0 and not accepts(ua, ()) and not accepts(ua, ("req",))
    # The same network with the invariant on the other clock also has no run.
    other, _ = parse_model(no_run_model().replace('"x >= 1"', '"y >= 1"'))
    assert check_admissible(bad, other) == Equivalence(True)
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        assert accepts(build_untimed(net), ())
        assert check_admissible(net, bad) == check_admissible(bad, net) == Equivalence(False, ()), name


def test_region_oracle_agrees_on_the_empty_language():
    bad, _ = parse_model(no_run_model())
    rb = build_region_untimed(observed(bad))
    assert rb.n_states == 0
    assert equivalent(rb, build_untimed(observed(bad))) == Equivalence(True)
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        ua, ra = build_untimed(observed(net)), build_region_untimed(observed(net))
        assert equivalent(ra, rb) == equivalent(ua, rb) == Equivalence(False, ()), name
        assert alphabet_equivalence.equivalent(ra, rb) == alphabet_equivalence.equivalent(ua, rb), name


# The on-the-fly check against the full zone graphs (differential oracle).


def _shared_k(a, b):
    return max(max_constant(a), max_constant(b))


def _classic_untimed(network, k):
    """The zone graph under classic extrapolation at ``k``, the abstraction that
    Extra⁺_LU replaced in ``ZoneGraph``, expanded in full from a ``MoveTable``
    with an int ``k``: states in discovery order, edges labeled by channel."""
    table = MoveTable(network, k, constant_scale(network))
    init = table.initial_state()
    keys = [] if init is None else [init]
    ids = {key: 0 for key in keys}
    by_label = []
    for vid, zid in keys:  # expanding a state appends the states it discovers
        out = {}
        for _move, label, target, step, memo in table.moves(vid):
            z = table.post(zid, step, memo)
            if z is not None:
                tid = ids.setdefault((target, z), len(keys))
                if tid == len(keys):
                    keys.append((target, z))
                out.setdefault(label, []).append(tid)
        by_label.append(out)
    return UntimedAutomaton(by_label)


REGION_BUDGET = 20_000


def _regions(network, k):
    """The region automaton at ``k``; None past ``REGION_BUDGET`` regions."""
    try:
        return build_region_untimed(network, k, state_budget=REGION_BUDGET)
    except Exhausted:
        return None


def _full_graph(network, bounds):
    """``build_untimed`` at other bounds than the network's own."""
    return _expanded(ZoneGraph(network, bounds))


def _assert_matches_full_graphs(pairs, regions=False):
    """``check_admissible`` equals ``equivalent`` of the full untimed automata at
    ``shared_bounds``, and that equals ``equivalent`` of the classic graphs at
    the shared k, for every (name, original, repaired) of ``pairs``; each
    Extra⁺_LU graph has at most the states of its classic one. With
    ``regions``, the verdict also equals the region oracle's wherever both
    region automata fit ``REGION_BUDGET``; returns how many pairs that was.
    One ``original_cache`` per original serves all its pairs, fresh on the
    first."""
    caches, full, by_regions = {}, {}, {}
    compared = 0

    def untimed(build, network, at):
        key = (build, id(network), at)
        if key not in full:
            full[key] = build(network, at)
        return full[key]

    for name, a, b in pairs:
        (ba, bb), k = shared_bounds(a, b), _shared_k(a, b)
        lu = untimed(_full_graph, a, ba), untimed(_full_graph, b, bb)
        classic = untimed(_classic_untimed, a, k), untimed(_classic_untimed, b, k)
        want = equivalent(*lu)
        assert want == alphabet_equivalence.equivalent(*lu) == equivalent(*classic), name
        assert [g.n_states <= c.n_states for g, c in zip(lu, classic)] == [True, True], name
        assert check_admissible(a, b, original_cache=caches.setdefault(id(a), {})) == want, name
        if regions:
            key = (frozenset((id(a), id(b))), k)  # a witness is shortlex least, so one search serves both ways
            if key not in by_regions:
                ra, rb = untimed(_regions, a, k), untimed(_regions, b, k)
                by_regions[key] = None if ra is None or rb is None else alphabet_equivalence.equivalent(ra, rb)
            if by_regions[key] is not None:
                assert by_regions[key] == want, name
                compared += 1
    return compared


def _assert_matches_alphabet_search(pairs):
    """``equivalent`` of two fresh ``ZoneGraph``s at ``shared_bounds`` returns
    what the replaced per-alphabet search returns on two other fresh graphs,
    and discovers no more states on either side; returns the states both
    searches discovered over all ``pairs``, (new, replaced)."""
    discovered = [0, 0]
    for name, a, b in pairs:
        ba, bb = shared_bounds(a, b)
        new = [ZoneGraph(a, ba), ZoneGraph(b, bb)]
        old = [ZoneGraph(a, ba), ZoneGraph(b, bb)]
        assert equivalent(*new) == alphabet_equivalence.equivalent(*old), name
        assert [g.n_states <= h.n_states for g, h in zip(new, old)] == [True, True], name
        discovered[0] += sum(g.n_states for g in new)
        discovered[1] += sum(g.n_states for g in old)
    return tuple(discovered)


def _both_ways(name, a, b):
    """The pair in both directions: each side once the original."""
    return [(name, a, b), (f"{name} (reversed)", b, a)]


def _fischer(perm=None):
    """Fischer N=3 under the permutation ``perm``, by default the one of bench seed 1."""
    workloads = _workloads()
    perm = workloads.fischer.draw_permutation(3, 1) if perm is None else perm
    network, _ = workloads.modelio.parse_model(workloads.fischer.fischer(3, perm))
    return network


def test_on_the_fly_check_matches_full_graphs_on_fischer_mutants():
    network = _fischer()
    mutants = seeding.seed(network)
    assert len(mutants) == 77
    pairs = [p for m in mutants for p in _both_ways(m.description, network, m.network)]
    # One mutant (seed bound #4: 2 -> 4) has more than REGION_BUDGET regions.
    assert _assert_matches_full_graphs(pairs, regions=True) == len(pairs) - 2
    assert _assert_matches_alphabet_search(pairs) == (33_562, 33_734)


def test_on_the_fly_check_matches_full_graphs_on_bundled_mutants():
    pairs = []
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        pairs += [p for m in seeding.seed(net) for p in _both_ways(f"{name}: {m.description}", net, m.network)]
    assert len(pairs) > 200
    assert _assert_matches_full_graphs(pairs, regions=True) == len(pairs)
    _assert_matches_alphabet_search(pairs)


def test_extra_lu_keeps_the_verdicts_of_classic_graphs_and_regions():
    # The rest of the differential oracle's corpus. Every seeded mutant of
    # Fischer N=3 under its two other distinct permutations meets the
    # classic graphs only: their region automata take about 25 s per
    # permutation on a 2-core x86-64 VM, and the test above builds them for
    # one permutation. All 25 ordered pairs of bundled models also meet the
    # regions; 14 of them have different clock counts, so each graph takes
    # its own network's bounds.
    pairs = []
    for perm in (0, 2):
        network = _fischer(perm)
        pairs += [(f"permutation {perm}: {m.description}", network, m.network) for m in seeding.seed(network)]
    assert len(pairs) == 2 * 77
    _assert_matches_full_graphs(pairs)
    networks = {name: load_bundled_model(name)[0] for name in CORPUS}
    pairs = [(f"{a} vs {b}", networks[a], networks[b]) for a in CORPUS for b in CORPUS]
    assert sum(a.n_clocks != b.n_clocks for _, a, b in pairs) == 14
    assert _assert_matches_full_graphs(pairs, regions=True) == 25


def _repair_candidates():
    """(name, original, repaired, kind) of every candidate of every kind on the corpus."""
    out = []
    for name in CORPUS:
        net, prop = load_bundled_model(name)
        for kind in orchestrator.RepairKind:
            for i, cand in enumerate(orchestrator.run(net, prop, kind).candidates):
                out.append((f"{name} {kind.value} {i}", net, orchestrator.apply_candidate(net, cand), kind))
    return out


def test_on_the_fly_check_matches_full_graphs_on_repair_candidates():
    candidates = _repair_candidates()
    assert len(candidates) == 21
    pairs = [p for c in candidates for p in _both_ways(*c[:3])]
    assert _assert_matches_full_graphs(pairs, regions=True) == len(pairs)
    _assert_matches_alphabet_search(pairs)
    # Bound repairs may make constants rational; the region oracle scales them.
    # Every bound candidate's region automaton fits the default budget.
    bound = [c for c in candidates if c[3] == orchestrator.RepairKind.BOUND]
    assert len(bound) == 6
    for name, a, b, _ in bound:
        k = _shared_k(a, b)
        ra, rb = build_region_untimed(a, k), build_region_untimed(b, k)
        assert check_admissible(a, b) == equivalent(ra, rb) == alphabet_equivalence.equivalent(ra, rb), name


# A repaired graph on the original's pool of step memos against a fresh one.


def _states(graph):
    """A graph's states as (location vector, zone), both taken from its pool."""
    return [(graph.table.vectors[vid], graph.table.zones[zid]) for vid, zid in graph._keys]


def _shape(graph):
    """A fully expanded graph's states, and per state its (label, targets) in map order."""
    return _states(graph), [list(graph.expand(sid).items()) for sid in range(graph.n_states)]


def _assert_shared_pool_changes_nothing(pairs):
    """For every (name, original, repaired) of ``pairs``, the repaired graph built
    with ``share`` the original's graph and expanded in full has the states and
    edges of a fresh one, whose table shares nothing, and so has the
    original's graph, then expanded in full on the pool. One graph per
    original and k serves all its pairs, as a ``RepairContext`` does in the
    repair runs on one trace, so its pool also holds the earlier pairs'
    successors. A pool lends its zones, its step memos and its settle memos
    together, and a repaired table on a shared pool takes the original
    table's compiled moves at each location vector its edit leaves clean.
    Returns how many pairs shared a pool, how many of them reused the
    original's compiled moves at some vector, and how many compiled their
    own at some vector.

    ``check_admissible``, which shares the pool, meets two fresh graphs in
    ``_assert_matches_full_graphs`` on the same pairs."""
    originals, fresh_originals = {}, {}
    shared = reused = dirty = 0
    for name, a, b in pairs:
        ba, bb = shared_bounds(a, b)
        ga = originals.setdefault((id(a), ba), ZoneGraph(a, ba))
        pooled, fresh = _expanded(ZoneGraph(b, bb, share=ga)), _expanded(ZoneGraph(b, bb))
        assert _shape(pooled) == _shape(fresh), name
        if (id(a), ba) not in fresh_originals:
            fresh_originals[id(a), ba] = _expanded(ZoneGraph(a, ba))
        want = fresh_originals[id(a), ba]
        assert _shape(_expanded(ga)) == _shape(want), name
        shares = pooled.table._memos is ga.table._memos
        lent = (pooled.table._settled is ga.table._settled, pooled.table.zones is ga.table.zones)
        assert lent == (shares, shares), name  # the zones and both memos, or none of them
        shared += shares
        own = pooled.table._moves
        taken = [v for v in own if own[v] is ga.table._moves.get(v)]
        assert shares or not taken, name
        reused += bool(taken)
        dirty += len(taken) < len(own)
    return shared, reused, dirty


def _one_clock(guards, clocks=("x",)):
    """l0 -go!-> l1 -done!-> l2 in one automaton, each answered by a receiver,
    with ``guards`` on the two sends. Returns the network."""
    doc = {
        "automata": [
            {
                "name": "p",
                "initial": "l0",
                "clocks": list(clocks),
                "locations": [{"name": f"l{i}", "invariant": []} for i in range(3)],
                "transitions": [
                    {"source": "l0", "target": "l1", "sync": "go!", "guard": [guards[0]], "resets": []},
                    {"source": "l1", "target": "l2", "sync": "done!", "guard": [guards[1]], "resets": []},
                ],
            },
            {
                "name": "q",
                "initial": "r",
                "clocks": list(clocks),
                "locations": [{"name": "r", "invariant": []}],
                "transitions": [
                    {"source": "r", "target": "r", "sync": "go?", "guard": [], "resets": []},
                    {"source": "r", "target": "r", "sync": "done?", "guard": [], "resets": []},
                ],
            },
        ],
        "channels": ["go", "done"],
        "property": "x <= 9",
    }
    return parse_model(json.dumps(doc))[0]


def test_shared_pool_changes_no_graph_on_fischer_mutants():
    # One original graph serves all 77 mutants, so its pool grows with each.
    network = _fischer()
    pairs = [(m.description, network, m.network) for m in seeding.seed(network)]
    # Every mutant's edit leaves some reached location vector dirty, and 64
    # of them also leave one clean, where the original's moves serve.
    assert len(pairs) == 77
    assert _assert_shared_pool_changes_nothing(pairs) == (77, 64, 77)


def test_shared_pool_changes_no_graph_on_bundled_mutants_and_repair_candidates():
    pairs = []
    for name in CORPUS:
        net, _ = load_bundled_model(name)
        pairs += [p for m in seeding.seed(net) for p in _both_ways(f"{name}: {m.description}", net, m.network)]
    pairs += [p for c in _repair_candidates() for p in _both_ways(*c[:3])]
    assert len(pairs) == 416
    assert _assert_shared_pool_changes_nothing(pairs) == (416, 314, 407)


def test_shared_pool_needs_equal_scale_and_clock_count():
    # At scale 1, x <= 2 is the raw bound 5; with a 5/2 elsewhere the scale is
    # 2 and x <= 1 is the raw bound 5 too. Both initial zones, both first
    # steps and the zones they jump to have equal raw encodings, so one pool
    # of either memo would hand each graph the other's successors (zones at
    # the other scale).
    original = _one_clock(("x <= 2", "x >= 3"))
    rescaled = _one_clock(("x <= 1", "x >= 5/2"))
    ba, bb = shared_bounds(original, rescaled)
    assert ba == bb == ((3,), (2,))
    ga, gb = _expanded(ZoneGraph(original, ba)), _expanded(ZoneGraph(rescaled, bb))
    (_, za), (_, zb) = _states(ga)[0], _states(gb)[0]
    assert (za.scale, zb.scale) == (1, 2) and za.m == zb.m
    assert ga.table.moves(ga._keys[0][0])[0][3] == gb.table.moves(gb._keys[0][0])[0][3]
    settled_a, settled_b = ga.table._settled, gb.table._settled
    assert any(settled_a[key].keys() & settled_b[key].keys() for key in settled_a.keys() & settled_b.keys())
    # Nor may the rescaled graph intern its zones in the original's pool.
    pooled = _expanded(ZoneGraph(rescaled, bb, share=ga))
    assert pooled.table.zones is not ga.table.zones and _states(pooled) == _states(gb)
    # An added clock changes the matrices' size, and each graph keeps its own bounds.
    two_clocks = _one_clock(("x <= 2", "x >= 3"), ("x", "y"))
    assert shared_bounds(original, two_clocks) == (((3,), (2,)), ((3, 0), (2, 0)))
    pairs = _both_ways("rescaled", original, rescaled) + _both_ways("two clocks", original, two_clocks)
    assert _assert_shared_pool_changes_nothing(pairs)[:2] == (0, 0)
    _assert_matches_full_graphs(pairs)


def test_on_the_fly_check_matches_full_graphs_with_visible_internal_moves():
    net, _ = load_bundled_model("urgent_hop")
    others = [desugar_urgency(net), net] + [m.network for m in seeding.seed(net)]
    net, others = observed(net), list(map(observed, others))
    differ = 0
    for other in others:
        ba, bb = shared_bounds(net, other)
        lazy = equivalent(ZoneGraph(net, ba), ZoneGraph(other, bb))
        full = equivalent(_full_graph(net, ba), _full_graph(other, bb))
        assert lazy == full
        differ += not lazy.equal
    assert differ > 0
    pairs = [(f"urgent_hop vs other {i}", net, other) for i, other in enumerate(others)]
    _assert_matches_alphabet_search(pairs)


def test_region_oracle_scales_rational_constants():
    net, prop = load_bundled_model()
    text = bundled_model_path("client_db").read_text(encoding="utf-8")
    for old, new in (('"w <= 2"', '"w <= 3/2"'), ('"z >= 1"', '"z >= 5/2"')):
        repaired, _ = parse_model(text.replace(old, new))
        k = _shared_k(net, repaired)
        doubled = scaled_model(repaired, prop, 2)[0]
        ra = build_region_untimed(observed(repaired), k)
        assert equivalent(ra, build_region_untimed(observed(doubled), 2 * k)).equal
        assert equivalent(ra, build_untimed(observed(repaired))).equal
        regions = equivalent(build_region_untimed(net, k), build_region_untimed(repaired, k))
        assert check_admissible(net, repaired) == regions


# Budget semantics: Exhausted only when the states the check needs exceed it.


def test_budget_counts_only_the_states_the_check_needs(monkeypatch):
    network = _fischer()
    mutant = next(m for m in seeding.seed(network) if m.description.endswith("operator #0: LE -> EQ"))
    assert build_untimed(network).n_states == 197
    monkeypatch.setattr(admissibility, "UNTIMED_STATE_BUDGET", 100)
    assert check_admissible(network, mutant.network) == Equivalence(False, ("zero1",))
    with pytest.raises(Exhausted):
        check_admissible(network, network)  # an equal pair expands both graphs in full
    with pytest.raises(Exhausted):
        build_untimed(network)
