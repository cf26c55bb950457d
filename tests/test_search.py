"""The pruned discrete MaxSMT search against the per-assignment check.

Cases: the four violating bundled models, both loop models (which fire t0
twice and revisit L0) and the 22 violating mutants of Fischer N=3
(``bench/fischer.py``, permutation 0), each with its diagnostic trace.
"""

import importlib.util
import itertools
import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import every_reset_toggle, loop_model, reset_toggles
from test_bench_zone_graph import BENCH, SEED, _workloads
from tarepair import dbm, encoder, load_bundled_model, maxsmt, model, orchestrator, seeding
from tarepair.checker import check
from tarepair.encoder import TdtConstraintSystem, encode
from tarepair.maxsmt import HardConstraint, max_sat, nonzero_values, repairing_assignments
from tarepair.modelio import parse_model
from tarepair.variations import KINDS, vary

FISCHER = Path(__file__).resolve().parents[1] / "bench" / "fischer.py"


@lru_cache(maxsize=None)
def _cases():
    """(name, network, property, trace) of every violating case."""
    spec = importlib.util.spec_from_file_location("bench_fischer", FISCHER)
    fischer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fischer)
    models = [(name, *load_bundled_model(name)) for name in ("client_db", "oneclock", "urgent_hop", "pair_sync")]
    models += [
        ("loop", *parse_model(loop_model())),
        ("loop3", *parse_model(loop_model(("x", "y", "z"), "!@a.L1 || z <= 2"))),
    ]
    network, prop = parse_model(fischer.fischer(3, 0))
    models += [(f"fischer: {m.description}", m.network, prop) for m in seeding.seed(network)]
    cases = []
    for name, net, prop in models:
        verdict = check(net, prop)
        if not verdict.safe:
            cases.append((name, net, prop, verdict.trace))
    assert len(cases) == 6 + 22
    return tuple(cases)


def _hards(kind):
    for name, net, prop, trace in _cases():
        yield name, HardConstraint(vary(encode(net, trace, prop), kind))


def _assignments(vs, variables, most):
    """Every assignment flipping at most ``most`` of ``variables``, each at every non-zero value."""
    zero = {v.name: v.zero for v in vs.variables}
    for size in range(most + 1):
        for modified in itertools.combinations(variables, size):
            for values in itertools.product(*(nonzero_values(v) for v in modified)):
                yield zero | {v.name: x for v, x in zip(modified, values)}


@pytest.mark.parametrize("kind", ["operator", "clockref"])
def test_depth_first_search_yields_the_checked_product(kind):
    # Per modified set of at most 3 variables, the walk gives exactly the
    # assignments of itertools.product that the per-assignment check passes,
    # in the same order, less each one whose decided DBM lies inside that of
    # an earlier one it gives: that repair is implied.
    sets = repairs = implied = 0
    for name, hard in _hards(kind):
        vs = hard.vs
        for size in range(4):
            for modified in itertools.combinations(vs.variables, size):
                names = tuple(v.name for v in modified)
                zeros = {v.name: v.zero for v in vs.variables if v not in modified}
                product = [
                    dict(zeros, **{v.name: x for v, x in zip(modified, values)})
                    for values in itertools.product(*(nonzero_values(v) for v in modified))
                ]
                want, kept = [], []  # kept: the DBMs of want
                for a in filter(hard.check, product):
                    zone = vs.base.decide(hard.edits(a))[0]
                    if any(zone.scale == k.scale and all(x <= y for x, y in zip(zone.m, k.m)) for k in kept):
                        implied += 1
                        continue
                    want.append(a)
                    kept.append(zone)
                assert repairing_assignments(hard, names) == want, (name, names)
                sets += 1
                repairs += len(want)
    assert sets == 392 and repairs > 0 and implied > 0


def test_blocked_reset_toggles_leave_the_system_unchanged():
    # vary_resets offers exactly the live toggles, in order. A dead toggle,
    # which it drops, flipped on top of any at most two other flips (dead
    # ones too) gives the same closed DBM and verdict as without it.
    dropped = 0
    for name, net, prop, trace in _cases():
        sys = encode(net, trace, prop)
        toggles = reset_toggles(sys)
        assert [v.anchor for v in vary(sys, "reset").variables] == [a for a, live in toggles.items() if live], name
        vs = every_reset_toggle(sys)
        hard = HardConstraint(vs)
        for var in vs.variables:
            if toggles[var.anchor]:
                continue
            dropped += 1
            others = [v for v in vs.variables if v is not var]
            for a in _assignments(vs, others, 2):
                flipped = dict(a, **{var.name: True})
                assert sys.decide(hard.edits(flipped)) == sys.decide(hard.edits(a)), (name, var.name, a)
    assert dropped == 50


def _search_from_the_empty_set(hard: HardConstraint, dead: set[str]):
    """``max_sat`` as it was before the repair loop decided the unedited trace
    for it: from the empty set, with the reset kind's dead toggles among the
    variables but blocked unless the empty set repairs."""
    all_names = [v.name for v in hard.vs.variables]
    blocked = set(dead)
    size = 0
    while size <= len(all_names) - len(blocked):
        names = [n for n in all_names if n not in blocked]
        for combo in itertools.combinations(names, size):
            if not blocked.isdisjoint(combo):
                continue
            assignments = repairing_assignments(hard, combo)
            if not assignments:
                continue
            blocked.update(combo)
            if not combo:
                blocked -= dead
            yield combo, assignments
        size += 1


@pytest.mark.parametrize("kind", KINDS)
def test_max_sat_yields_what_the_search_from_the_empty_set_yields(kind):
    # The differential oracle of max_sat, which starts at one variable over
    # the live reset toggles, against the search it replaced: the same sets
    # and assignments, less the dead toggles' zero entries.
    yielded = 0
    for name, net, prop, trace in _cases():
        sys = encode(net, trace, prop)
        vs = vary(sys, kind)
        reference = every_reset_toggle(sys) if kind == "reset" else vs
        live = {v.name for v in vs.variables}
        dead = {v.name for v in reference.variables} - live
        got = list(max_sat(HardConstraint(vs)))
        want = list(_search_from_the_empty_set(HardConstraint(reference), dead))
        assert all(a[n] is False for _, assignments in want for a in assignments for n in dead), name
        assert got == [
            (modified, [{n: x for n, x in a.items() if n in live} for a in assignments]) for modified, assignments in want
        ], name
        yielded += len(got)
    assert yielded > 0


@pytest.mark.parametrize("kind, shared", [("reset", 0), ("urgent", 4979)])
def test_cached_verdicts_equal_a_fresh_decide(kind, shared):
    # Every assignment with at most three flips, checked twice, against the
    # verdict of decide on a fresh system. Urgency flips of locations
    # resident at the same steps share a verdict; no two reset assignments
    # here give one delay-sum start table. The reset flips include the dead
    # toggles that vary_resets drops.
    reused = 0
    for name, net, prop, trace in _cases():
        sys = encode(net, trace, prop)
        hard = HardConstraint(every_reset_toggle(sys) if kind == "reset" else vary(sys, kind))
        vs = hard.vs
        fresh = encode(net, trace, prop)
        assignments = list(_assignments(vs, vs.variables, 3))
        for a in assignments + assignments:
            zone, violating = fresh.decide(hard.edits(a))
            assert hard.check(a) == (not zone.empty and not violating), (name, a)
        reused += len(assignments) - len(hard._verdicts)
    assert reused == shared


# Full closures (``close``) and incremental conjunctions of one edited
# constraint (``conjoin``) that ``max_sat`` makes on bundled client_db,
# recorded from the pruned search. Checking every assignment of the sets it
# tries instead makes 628 operator, 51 clockref, 35 reset and 17 urgent
# closures there. Each kind closed once more when max_sat also tried the
# empty set, the unedited trace.
SEARCH_EFFORT = {
    "operator": {"close": 16, "conjoin": 132},
    "clockref": {"close": 9, "conjoin": 63},
    "reset": {"close": 35, "conjoin": 0},
    "urgent": {"close": 9, "conjoin": 0},
}


@pytest.mark.parametrize("kind", sorted(SEARCH_EFFORT))
def test_search_effort_on_client_db(kind, monkeypatch):
    counts = {"close": 0, "conjoin": 0}
    for step in counts:
        real = getattr(TdtConstraintSystem, step)

        def counted(*args, _real=real, _step=step):
            counts[_step] += 1
            return _real(*args)

        monkeypatch.setattr(TdtConstraintSystem, step, counted)
    net, prop = load_bundled_model()
    hard = HardConstraint(vary(encode(net, check(net, prop).trace, prop), kind))
    assert list(max_sat(hard))
    assert all(counts[step] <= bound for step, bound in SEARCH_EFFORT[kind].items()), counts


def _one_pass():
    """A function that runs one campaign_client_db pass of the benchmark
    (seed 1), whose every record must equal the golden one."""
    workloads = _workloads()
    workload = workloads.setup_campaign(SEED)
    golden = json.loads((BENCH / "golden" / "campaign_client_db.json").read_text(encoding="utf-8"))
    want = workloads.golden_records(workload, golden)

    def run_pass():
        for item in workload.items:
            assert item.run() == want[item.key], item.key

    return run_pass


def _calls_in_a_pass(monkeypatch, sites):
    """Calls per counter over one campaign_client_db pass (``_one_pass``).
    ``sites`` maps a counter to the (owner, attribute) pairs whose calls it
    counts."""
    counts = Counter()
    for key, targets in sites.items():
        for owner, attribute in targets:

            def counted(*args, _real=getattr(owner, attribute), _key=key, **kwargs):
                counts[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, counted)
    run_pass = _one_pass()
    counts.clear()
    run_pass()
    return counts


def test_edited_bounds_are_converted_once_per_run(monkeypatch):
    # One campaign_client_db pass converts 745 bounds to the raw DBM
    # encoding; 1,137 before the five kinds' runs on a mutant shared one
    # RepairContext (one validate and one encoding) and before a repaired
    # network's move table took its original's compiled moves, 1,303 when
    # the walk's conjoin and decide kept separate
    # caches of edited bounds, 1,333 before every kind's run on a mutant
    # shared one original_cache, 1,400 when each move table compiled every
    # transition's guard up front, 1,482 when decide also converted each
    # edited bound on every call, and 2,842 when the walk's conjoin
    # converted its edit's bound on each of its 1,638 calls. The count
    # includes the constants that model.validate checks.
    sites = {"raw_constant": [(module, "raw_constant") for module in (dbm, encoder, model)]}
    assert _calls_in_a_pass(monkeypatch, sites)["raw_constant"] <= 745


def test_each_repair_is_decided_once_per_run(monkeypatch):
    # One campaign_client_db pass decides 16 trace systems: 5 initial
    # violation checks, one per violating mutant, and 11 re-verifications
    # of a sampled bound repair. It decided 36 when each of the five kinds'
    # runs on a mutant decided the unedited trace again (25 initial checks),
    # and 123 when the repair loop also decided each candidate again to
    # skip the ones an earlier candidate implies, which the search now
    # drops itself.
    sites = {"decide": [(TdtConstraintSystem, "decide")]}
    assert _calls_in_a_pass(monkeypatch, sites)["decide"] <= 16


def test_each_violating_mutant_is_validated_and_encoded_once(monkeypatch):
    # One campaign_client_db pass has 5 violating mutants, and the runs of
    # all five kinds on one share its RepairContext: the mutant is validated
    # and its trace encoded once, not once per kind (25 each).
    sites = {"validate": [(orchestrator, "validate")], "encode": [(orchestrator, "encode")]}
    assert _calls_in_a_pass(monkeypatch, sites) == {"validate": 5, "encode": 5}


def test_the_search_leaves_the_unedited_trace_to_the_repair_loop(monkeypatch):
    # One campaign_client_db pass decides 440 modified sets and closes 404
    # trace systems. It decided 466 when max_sat searched on after no
    # unblocked set could repair (see the test below), 491 and closed 424
    # when max_sat also decided the empty set, which the repair loop's
    # initial violation check has already decided, once in each of the 25
    # runs.
    sites = {
        "repairing_assignments": [(maxsmt, "repairing_assignments")],
        "close": [(TdtConstraintSystem, "close")],
    }
    counts = _calls_in_a_pass(monkeypatch, sites)
    assert counts["repairing_assignments"] <= 440 and counts["close"] <= 404, counts


def test_a_bound_search_stops_once_no_unblocked_set_can_repair(monkeypatch):
    # One bound run of a campaign_client_db pass yields no set. Its search
    # decides the 5 one-variable sets, then asks one check_with_zeros with
    # nothing blocked, which is unsatisfiable and ends it. It decided 26
    # sets of 2 to 5 variables more before max_sat asked may_repair.
    runs = {}  # per bound run's hard constraint: sets decided, zero queries, sets yielded
    decide, zero_query, search = maxsmt.repairing_assignments, HardConstraint.check_with_zeros, orchestrator.max_sat

    def decided(hard, modified):
        runs[hard][0].append(modified)
        return decide(hard, modified)

    def queried(hard, zeros):
        verdict = zero_query(hard, zeros)
        runs[hard][1].append((zeros, verdict))
        return verdict

    def searched(hard):
        runs[hard] = ([], [], [])
        for modified, assignments in search(hard):
            runs[hard][2].append(modified)
            yield modified, assignments

    monkeypatch.setattr(maxsmt, "repairing_assignments", decided)
    monkeypatch.setattr(HardConstraint, "check_with_zeros", queried)
    monkeypatch.setattr(orchestrator, "max_sat", searched)
    _one_pass()()
    barren = [(sets, zeros) for hard, (sets, zeros, yielded) in runs.items() if hard.vs.kind == "bound" and not yielded]
    assert len(barren) == 1
    ((sets, zeros),) = barren
    assert [len(m) for m in sets] == [1] * 5 and zeros == [(frozenset(), False)]


def test_the_bound_kind_reads_intervals_instead_of_probing(monkeypatch):
    # One campaign_client_db pass makes 5 is_satisfiable calls, all of them
    # max_sat's early stops (check_with_zeros); no sampled value needs the
    # rational fallback. It made 94 when each modified set was decided by a
    # zero query and each value by a scan of pinned queries.
    sites = {"is_satisfiable": [(module, "is_satisfiable") for module in (maxsmt, encoder, orchestrator)]}
    assert _calls_in_a_pass(monkeypatch, sites)["is_satisfiable"] <= 5
