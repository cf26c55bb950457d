"""The pruned discrete MaxSMT search against the per-assignment check.

Cases: the four violating bundled models, both loop models (which fire t0
twice and revisit L0) and the 22 violating mutants of Fischer N=3
(``bench/fischer.py``, permutation 0), each with its diagnostic trace.
"""

import importlib.util
import itertools
import json
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import loop_model
from test_bench_zone_graph import BENCH, SEED, _workloads
from tarepair import dbm, encoder, load_bundled_model, model, seeding
from tarepair.checker import check
from tarepair.encoder import TdtConstraintSystem, encode
from tarepair.maxsmt import HardConstraint, dead_reset_toggles, max_sat, nonzero_values, repairing_assignments
from tarepair.modelio import parse_model
from tarepair.variations import vary

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
    # A dead toggle flipped on top of any at most two other flips gives the
    # same closed DBM and verdict as without it.
    blocked = 0
    for name, hard in _hards("reset"):
        vs, base = hard.vs, hard.vs.base
        for var in vs.variables:
            if var.name not in dead_reset_toggles(vs):
                continue
            blocked += 1
            others = [v for v in vs.variables if v is not var]
            for a in _assignments(vs, others, 2):
                flipped = dict(a, **{var.name: True})
                assert base.decide(hard.edits(flipped)) == base.decide(hard.edits(a)), (name, var.name, a)
    assert blocked == 50


@pytest.mark.parametrize("kind, shared", [("reset", 0), ("urgent", 4979)])
def test_cached_verdicts_equal_a_fresh_decide(kind, shared):
    # Every assignment with at most three flips, checked twice, against the
    # verdict of decide on a fresh system. Urgency flips of locations
    # resident at the same steps share a verdict; no two reset assignments
    # here give one delay-sum start table.
    reused = 0
    for name, hard in _hards(kind):
        vs = hard.vs
        fresh = encode(vs.base.network, vs.base.stt, vs.base.prop)
        assignments = list(_assignments(vs, vs.variables, 3))
        for a in assignments + assignments:
            zone, violating = fresh.decide(hard.edits(a))
            assert hard.check(a) == (not zone.empty and not violating), (name, a)
        reused += len(assignments) - len(hard._verdicts)
    assert reused == shared


# Full closures (``close``) and incremental conjunctions of one edited
# constraint (``conjoin``) that ``max_sat`` makes on bundled client_db,
# recorded from the pruned search. Checking every assignment instead makes
# 629 operator, 52 clockref, 260 reset and 18 urgent closures there.
SEARCH_EFFORT = {
    "operator": {"close": 17, "conjoin": 132},
    "clockref": {"close": 10, "conjoin": 63},
    "reset": {"close": 36, "conjoin": 0},
    "urgent": {"close": 10, "conjoin": 0},
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


def test_edited_bounds_are_converted_once_per_run(monkeypatch):
    # One campaign_client_db pass of the benchmark (seed 1) converts 1,137
    # bounds to the raw DBM encoding; 1,303 when the walk's conjoin and
    # decide kept separate caches of edited bounds, 1,333 before every
    # kind's run on a mutant shared one original_cache, 1,400 when each move
    # table compiled every transition's guard up front, 1,482 when decide
    # also converted each edited bound on every call, and 2,842 when the
    # walk's conjoin converted its edit's bound on each of its 1,638 calls.
    # The count includes the constants that model.validate checks. Every
    # report stays the recorded one.
    calls = [0]
    real = dbm.raw_constant

    def counted(*args):
        calls[0] += 1
        return real(*args)

    for module in (dbm, encoder, model):
        monkeypatch.setattr(module, "raw_constant", counted)
    workloads = _workloads()
    workload = workloads.setup_campaign(SEED)
    golden = json.loads((BENCH / "golden" / "campaign_client_db.json").read_text(encoding="utf-8"))
    want = workloads.golden_records(workload, golden)
    calls[0] = 0
    for item in workload.items:
        assert item.run() == want[item.key], item.key
    assert calls[0] <= 1_137


def test_each_repair_is_decided_once_per_run(monkeypatch):
    # One campaign_client_db pass of the benchmark (seed 1) decides 36 trace
    # systems: 25 initial violation checks and 11 re-verifications of a
    # sampled bound repair. It decided 123 when the repair loop decided each
    # candidate again to skip the ones an earlier candidate implies, which
    # the search now drops itself. Every report stays the recorded one.
    calls = [0]
    real = TdtConstraintSystem.decide

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(TdtConstraintSystem, "decide", counted)
    workloads = _workloads()
    workload = workloads.setup_campaign(SEED)
    golden = json.loads((BENCH / "golden" / "campaign_client_db.json").read_text(encoding="utf-8"))
    want = workloads.golden_records(workload, golden)
    calls[0] = 0
    for item in workload.items:
        assert item.run() == want[item.key], item.key
    assert calls[0] <= 36
