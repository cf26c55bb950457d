"""Hard constraint construction, MaxSMT optimality, and value sampling."""

import itertools
from fractions import Fraction as F

import pytest

from conftest import every_reset_toggle, loop_model
from tarepair import load_bundled_model, maxsmt
from tarepair.checker import check, replay
from tarepair.encoder import encode, feasible, violating
from tarepair.lra import LinearAtom, Rel, is_satisfiable
from tarepair.maxsmt import (
    SCAN_LIMIT,
    HardConstraint,
    max_sat,
    nonzero_values,
    repairing_assignments,
    sample_repair_values,
)
from tarepair.model import Op
from tarepair.modelio import parse_model
from tarepair.orchestrator import RepairKind, _candidate_from_assignment, apply_candidate, run
from tarepair.variations import vary


def _bundle_hard(kind):
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary(encode(net, verdict.trace, prop), kind)
    return net, vs, HardConstraint(vs)


def test_bound_hard_constraint_admits_the_w_repair():
    net, vs, hard = _bundle_hard("bound")
    # v2 = -1 (w <= 2 -> 1) with every other variable 0 satisfies the formula.
    atoms, choices = hard.formula
    pins = [LinearAtom.make({v.name: F(1)}, Rel.EQ, F(-1) if v.name == "v2" else F(0)) for v in vs.variables]
    assert is_satisfiable(atoms + pins, choices).sat


def test_universal_part_excludes_all_zero():
    net, vs, hard = _bundle_hard("bound")
    # the all-zero assignment reproduces the violating system, so it is no repair
    assert not hard.check({v.name: v.zero for v in vs.variables})
    atoms, choices = hard.formula
    pins = [LinearAtom.make({v.name: F(1)}, Rel.EQ, 0) for v in vs.variables]
    assert not is_satisfiable(atoms + pins, choices).sat


def test_max_sat_minimality_on_bound_kind():
    net, vs, hard = _bundle_hard("bound")
    modified, assignments = next(max_sat(hard))
    assert len(modified) == 1 and len(assignments) == 1


def test_max_sat_agrees_with_exhaustive_subsets():
    # On every analysis of the bundle (<= 12 variables), the found |F| equals
    # the exhaustive-subset optimum. Exhaustive check by brute force over
    # modified sets per cardinality.
    for kind in ("bound", "operator", "clockref", "urgent"):
        net, vs, hard = _bundle_hard(kind)
        names = [v.name for v in vs.variables]
        first = next(max_sat(hard), None)
        best = None if first is None else len(first[0])
        exhaustive = next(
            (m for m in range(len(names) + 1) if any(repairing_assignments(hard, c) for c in itertools.combinations(names, m))),
            None,
        )
        assert best == exhaustive, kind


def test_discrete_enumeration_is_deterministic_and_complete():
    net, vs, hard = _bundle_hard("operator")
    assigns = repairing_assignments(hard, ("ov4",))
    values = [a["ov4"] for a in assigns]
    assert values == [Op.LT, Op.LE]
    # The guard w = 1 repairs too, but w <= 1 permits every realization it
    # permits: its DBM lies inside that of LE, so it is no repair to emit.
    eq = dict(assigns[1], ov4=Op.EQ)
    assert hard.check(eq)
    eq_zone, le_zone = (vs.base.decide(hard.edits(a))[0] for a in (eq, assigns[1]))
    assert eq_zone != le_zone and all(a <= b for a, b in zip(eq_zone.m, le_zone.m))


def test_urgency_hard_checks():
    net, vs, hard = _bundle_hard("urgent")
    zero = {v.name: v.zero for v in vs.variables}
    assert not hard.check(zero)
    flip_sr = dict(zero)
    flip_sr["uv0_2"] = True  # client.serReceiving
    assert hard.check(flip_sr)
    flip_ra = dict(zero)
    flip_ra["uv1_0"] = True  # db.reqAwaiting (steps 0 and 3)
    assert hard.check(flip_ra)
    flip_rr = dict(zero)
    flip_rr["uv1_1"] = True  # db.reqReceiving conflicts with the w >= 1 guard
    assert not hard.check(flip_rr)


def test_sampling_prefers_small_integers():
    net, vs, hard = _bundle_hard("bound")
    zeros = {v.name: F(0) for v in vs.variables}
    assert sample_repair_values(hard, ("v2",)) == zeros | {"v2": F(-1)}
    assert sample_repair_values(hard, ("v0",)) == zeros | {"v0": F(-1)}


class _Fake:
    """A hard constraint of the bound kind over one free variable ``v``
    whose formula is given, and which every assignment passes."""

    qe_budget = 10_000

    class vs:
        variables = ()

    _substituted = HardConstraint._substituted
    values_of = HardConstraint.values_of

    def __init__(self, atoms, choices=()):
        self.formula = atoms, choices

    @staticmethod
    def check(assignment):
        return True


def test_sampling_falls_back_to_interior_point():
    # A synthetic hard formula forcing v into (1/4, 1/2): no integer fits.
    from tarepair.lra import atom_gt, atom_lt

    values = sample_repair_values(_Fake([atom_gt({"v": F(1)}, F(1, 4)), atom_lt({"v": F(1)}, F(1, 2))]), ("v",))
    assert values == {"v": F(3, 8)}


@pytest.mark.parametrize(
    "lower, upper, strict, chosen",
    [
        (-5, 5, False, 1),  # 0 is never tried
        (-70, -3, False, -3),
        (-2, -2, False, -2),
        (2, None, False, 2),
        (2, None, True, 3),
        (F(3, 2), F(5, 2), True, 2),
        (-5, -1, True, -2),
        (None, -65, False, -65),  # past SCAN_LIMIT: the rational fallback's model
        (0, 0, False, 0),
    ],
)
def test_sampling_takes_the_integer_of_least_magnitude(lower, upper, strict, chosen):
    from tarepair.lra import atom_ge, atom_gt, atom_le, atom_lt

    atoms = [] if lower is None else [(atom_gt if strict else atom_ge)({"v": F(1)}, lower)]
    atoms += [] if upper is None else [(atom_lt if strict else atom_le)({"v": F(1)}, upper)]
    assert sample_repair_values(_Fake(atoms), ("v",)) == {"v": F(chosen)}


@pytest.mark.parametrize(
    "low, high, strict, chosen",
    [(-2, 2, False, 2), (-2, 3, False, -2), (-3, 2, True, 3), (-2, 4, True, -3), (-70, 65, False, -70), (-65, 66, False, -65)],
)
def test_sampling_prefers_the_positive_integer_of_two_intervals(low, high, strict, chosen):
    # v <= low or v >= high (< and > where strict), one choice group: the
    # read is two intervals, and the least magnitude is over both.
    from tarepair.lra import atom_ge, atom_gt, atom_le, atom_lt

    below, above = (atom_lt, atom_gt) if strict else (atom_le, atom_ge)
    fake = _Fake([], [[[below({"v": F(1)}, low)], [above({"v": F(1)}, high)]]])
    assert sample_repair_values(fake, ("v",)) == {"v": F(chosen)}


def test_unreparable_model_yields_no_solution():
    # Unbounded dallying before reaching the flagged location: no bound
    # assignment removes the violation, so the hard constraint is unsat
    # and the analysis reports no repair.
    import json

    from tarepair.modelio import parse_model
    from tarepair.orchestrator import run as orch_run

    net, prop = parse_model(
        json.dumps(
            {
                "automata": [
                    {
                        "name": "p",
                        "initial": "a",
                        "clocks": ["c"],
                        "locations": [{"name": "a", "invariant": []}, {"name": "b", "invariant": []}],
                        "transitions": [{"source": "a", "target": "b", "guard": ["c >= 1"]}],
                    }
                ],
                "channels": [],
                "property": "c <= 2 || !@p.b",
            }
        )
    )
    verdict = check(net, prop)
    assert not verdict.safe
    vs = vary(encode(net, verdict.trace, prop), "bound")
    hard = HardConstraint(vs)
    assert next(max_sat(hard), None) is None
    rr = orch_run(net, prop, RepairKind.BOUND)
    assert rr.candidates == [] and rr.reason == "exhausted"


def test_blocking_and_memo_reuse(monkeypatch):
    # One pass: each yielded set's variables are blocked for the rest of the
    # search, and no kept set is checked twice.
    net, vs, hard = _bundle_hard("bound")
    kept_checked = []
    check_with_zeros = hard.check_with_zeros

    def recording(kept):
        kept_checked.append(kept)
        return check_with_zeros(kept)

    monkeypatch.setattr(hard, "check_with_zeros", recording)
    sets = [modified for modified, _ in max_sat(hard)]
    assert sets[:2] == [("v0",), ("v2",)]
    assert all(set(a).isdisjoint(b) for a, b in itertools.combinations(sets, 2))
    assert kept_checked and len(kept_checked) == len(set(kept_checked))


def test_substituted_pins_agree_with_conjoined_equalities(monkeypatch):
    # Every read of the bound runs on the bundled and loop models, and on a
    # loop model under two properties whose negations have two disjuncts,
    # against the pinned formula with each pin conjoined as an equality: an
    # integer in +-1..SCAN_LIMIT, or the value sample_repair_values chose,
    # lies in the read exactly when that conjunction is satisfiable. The
    # zero queries (check_with_zeros) are compared the same way.
    values_of, check_with_zeros = HardConstraint.values_of, HardConstraint.check_with_zeros
    outcomes = {"zeros": [], "reads": []}
    reads = []  # (hard, name, pins, read), in the order sample_repair_values asks them

    def reference(hard, pins):
        atoms, choices = hard.formula
        equalities = [LinearAtom.make({v: F(1)}, Rel.EQ, c) for v, c in sorted(pins.items())]
        return is_satisfiable(atoms + equalities, choices, hard.qe_budget).sat

    def compared_zeros(hard, zeros):
        got = check_with_zeros(hard, zeros)
        assert got == reference(hard, dict.fromkeys(zeros, F(0))), zeros
        outcomes["zeros"].append(got)
        return got

    def compared_read(hard, name, pins):
        read = values_of(hard, name, pins)
        for magnitude in range(1, SCAN_LIMIT + 1):
            for value in (F(magnitude), F(-magnitude)):
                assert any(value in i for i in read) == reference(hard, dict(pins, **{name: value})), (name, value)
        reads.append((hard, name, dict(pins), read))
        outcomes["reads"].append(bool(read))
        return read

    def compared_sample(hard, modified):
        # Each variable of a sampled repair takes a value inside its read,
        # where the pinned formula is satisfiable.
        start = len(reads)
        full = sample_repair_values(hard, modified)
        for _, name, pins, read in reads[start:] if full is not None else ():
            value = full[name]
            assert any(value in i for i in read) and reference(hard, dict(pins, **{name: value})), (name, value)
        return full

    monkeypatch.setattr(HardConstraint, "check_with_zeros", compared_zeros)
    monkeypatch.setattr(HardConstraint, "values_of", compared_read)
    monkeypatch.setattr(maxsmt, "sample_repair_values", compared_sample)
    cases = [load_bundled_model(name) for name in ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle")]
    cases += [parse_model(loop_model()), parse_model(loop_model(("x", "y", "z"), "!@a.L1 || z <= 2"))]
    cases += [
        parse_model(loop_model(prop="(!@a.L1 || y <= 2) && (x <= 1 || y < 3)")),
        parse_model(loop_model(prop="!@a.L1 || (y <= 2 && x <= 0)")),
    ]
    for net, prop in cases:
        run(net, prop, RepairKind.BOUND)
    # (queries, non-empty ones) of each kind. Before the reads, the runs
    # asked (36, 10) zero queries, one per modified set, and (418, 13)
    # pinned queries of an integer scan, one per value tried. The reads
    # replace both: one per variable of each set tried. The zero queries
    # left are max_sat's early stops, one per set size from 2.
    assert {k: (len(v), sum(v)) for k, v in outcomes.items()} == {"zeros": (8, 6), "reads": (40, 16)}


def _edited_systems(kind):
    """(hard constraint, assignment, re-encoded repaired model) triples.

    Every assignment with at most two modified variables, each at every
    non-zero value, on the four violating bundled models and both loop
    models (which fire t0 twice and revisit L0). The reset kind's
    variables include the dead toggles that ``vary_resets`` drops.
    """
    cases = [load_bundled_model(name) for name in ("client_db", "oneclock", "urgent_hop", "pair_sync")]
    cases += [parse_model(loop_model()), parse_model(loop_model(("x", "y", "z"), "!@a.L1 || z <= 2"))]
    for net, prop in cases:
        trace = check(net, prop).trace
        sys = encode(net, trace, prop)
        vs = every_reset_toggle(sys) if kind == "reset" else vary(sys, kind)
        hard = HardConstraint(vs)
        zero = {v.name: v.zero for v in vs.variables}
        for m in range(3):
            for modified in itertools.combinations(vs.variables, m):
                for values in itertools.product(*(nonzero_values(v) for v in modified)):
                    a = zero | {v.name: x for v, x in zip(modified, values)}
                    repaired = apply_candidate(net, _candidate_from_assignment(hard, RepairKind(kind), a))
                    yield hard, a, encode(repaired, trace, prop)


def _check_against_dbm_replay(kind):
    """(assignments checked, repairs among them) after asserting agreement.

    The hard check of each assignment must equal the replay of the applied
    edit on the repaired model.
    """
    checked = repairs = 0
    for hard, a, reenc in _edited_systems(kind):
        feasible, violating = replay(reenc.network, reenc.prop, reenc.stt)
        assert hard.check(a) == (feasible and not violating), a
        checked += 1
        repairs += feasible and not violating
    return checked, repairs


def test_reset_check_agrees_with_dbm_replay():
    # The loop models fire t0 twice, so a flip there edits both steps.
    checked, repairs = _check_against_dbm_replay("reset")
    assert checked == 122 and 0 < repairs < checked


@pytest.mark.parametrize("kind, count", [("operator", 450), ("clockref", 141), ("urgent", 52)])
def test_discrete_check_agrees_with_dbm_replay(kind, count):
    # The edits applied to the base system against the edited model: the
    # check of an assignment overrides the base atoms, the replay reads the
    # repaired model.
    checked, repairs = _check_against_dbm_replay(kind)
    assert checked == count and 0 < repairs < checked


@pytest.mark.parametrize("kind", ["operator", "clockref", "reset", "urgent"])
def test_difference_logic_agrees_with_lra(kind):
    # LRA, the reference engine, decides the re-encoded repaired model.
    outcomes = set()
    for hard, a, reenc in _edited_systems(kind):
        zone, violates = hard.vs.base.decide(hard.edits(a))
        outcome = (feasible(reenc), violating(reenc))
        assert (not zone.empty, violates) == outcome, a
        outcomes.add(outcome)
    assert len(outcomes) == 3


@pytest.mark.parametrize("kind", ["operator", "clockref", "reset", "urgent"])
def test_edits_close_to_the_edited_models_zone(kind):
    # Overriding the base system's atoms by the edits gives exactly the
    # closed DBM of the repaired model's own encoding.
    empty = 0
    for hard, a, reenc in _edited_systems(kind):
        zone, _ = hard.vs.base.decide(hard.edits(a))
        assert zone == reenc.decide()[0], a
        empty += zone.empty
    assert empty


def _lra_entails(new_atoms, old_atoms) -> bool:
    """Does the new conjunction imply every atom of the old one? (by LRA)"""
    return not any(is_satisfiable(new_atoms, [a.negation()]).sat for a in old_atoms)


@pytest.mark.parametrize("kind", ["operator", "clockref", "reset", "urgent"])
def test_zone_inclusion_agrees_with_lra_entailment(kind):
    # Each assignment against the one before it and against the unedited
    # system of its model, both ways.
    verdicts = set()
    for hard, a, reenc in _edited_systems(kind):
        system = hard.vs.base.decide(hard.edits(a))[0], reenc.linear_atoms()  # (zone, atoms)
        if a == {v.name: v.zero for v in hard.vs.variables}:  # the first assignment of each model
            unedited = previous = system
        for other in (previous, unedited):
            for new, old in ((system, other), (other, system)):
                # does the new closed zone lie inside the old one?
                verdict = new[0].empty or (new[0].scale == old[0].scale and all(a <= b for a, b in zip(new[0].m, old[0].m)))
                assert verdict == _lra_entails(new[1], old[1]), a
                verdicts.add(verdict)
        previous = system
    assert verdicts == {True, False}
