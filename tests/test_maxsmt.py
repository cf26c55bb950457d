"""Hard constraint construction, MaxSMT optimality, and value sampling."""

import itertools
from fractions import Fraction as F

from conftest import dbm_replay, loop_model
from tarepair import load_bundled_model, maxsmt
from tarepair.checker import check
from tarepair.encoder import encode
from tarepair.lra import FAtom, LinearAtom, Rel, f_and, is_satisfiable
from tarepair.maxsmt import (
    HardConstraint,
    MaxSmtProblem,
    SearchState,
    max_sat,
    repairing_assignments,
    sample_repair_values,
)
from tarepair.model import Op
from tarepair.modelio import parse_model
from tarepair.orchestrator import RepairKind, _candidate_from_assignment, apply_candidate
from tarepair.variations import vary


def _bundle_hard(kind):
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary(encode(net, verdict.trace, prop), kind)
    return net, vs, HardConstraint(vs)


def test_bound_hard_constraint_admits_the_w_repair():
    net, vs, hard = _bundle_hard("bound")
    # v2 = -1 (w <= 2 -> 1) with every other variable 0 satisfies the formula.
    pins = [FAtom(LinearAtom.make({v.name: F(1)}, Rel.EQ, F(-1) if v.name == "v2" else F(0))) for v in vs.variables]
    assert is_satisfiable(f_and([hard.formula] + pins)).sat


def test_universal_part_excludes_all_zero():
    net, vs, hard = _bundle_hard("bound")
    # the all-zero assignment reproduces the violating system, so it is no repair
    assert not hard.check(vs.zero_assignment())
    pins = [FAtom(LinearAtom.make({v.name: F(1)}, Rel.EQ, 0)) for v in vs.variables]
    assert not is_satisfiable(f_and([hard.formula] + pins)).sat


def test_max_sat_minimality_on_bound_kind():
    net, vs, hard = _bundle_hard("bound")
    sol = max_sat(MaxSmtProblem(hard))
    assert sol is not None
    assert len(sol.modified) == 1


def test_max_sat_agrees_with_exhaustive_subsets():
    # On every analysis of the bundle (<= 12 variables), the found |F| equals
    # the exhaustive-subset optimum. Exhaustive check by brute force over
    # modified sets per cardinality.
    for kind in ("bound", "operator", "clockref", "urgent"):
        net, vs, hard = _bundle_hard(kind)
        names = [v.name for v in vs.variables]
        sol = max_sat(MaxSmtProblem(hard))
        if sol is None:
            best = None
        else:
            best = len(sol.modified)
        exhaustive = None
        for m in range(0, len(names) + 1):
            found = False
            for combo in itertools.combinations(names, m):
                if vs.kind == "bound":
                    ok = hard.check_with_zeros(frozenset(names) - set(combo))
                    if ok and sample_repair_values(hard, combo) is None:
                        ok = False
                else:
                    ok = bool(repairing_assignments(hard, combo, limit=1))
                if ok:
                    found = True
                    break
            if found:
                exhaustive = m
                break
        assert best == exhaustive, kind


def test_discrete_enumeration_is_deterministic_and_complete():
    net, vs, hard = _bundle_hard("operator")
    assigns = repairing_assignments(hard, ("ov4",))
    values = [a["ov4"] for a in assigns]
    assert values == [Op.LT, Op.LE, Op.EQ]


def test_urgency_hard_checks():
    net, vs, hard = _bundle_hard("urgent")
    zero = vs.zero_assignment()
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
    values = sample_repair_values(hard, ("v2",))
    assert values == {"v2": F(-1)}
    values = sample_repair_values(hard, ("v0",))
    assert values == {"v0": F(-1)}


def test_sampling_falls_back_to_interior_point():
    # A synthetic hard formula forcing v into (1/4, 1/2): no integer fits.
    from tarepair.lra import atom_gt, atom_lt, conjunction

    class Fake:
        formula = conjunction([atom_gt({"v": F(1)}, F(1, 4)), atom_lt({"v": F(1)}, F(1, 2))])
        qe_budget = 10_000

        class vs:
            variables = ()

        @staticmethod
        def check(assignment):
            return True

    values = sample_repair_values(Fake, ("v",))
    assert values == {"v": F(3, 8)}


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
    assert max_sat(MaxSmtProblem(hard)) is None
    rr = orch_run(net, prop, RepairKind.BOUND)
    assert rr.candidates == [] and rr.reason == "exhausted"


def test_blocking_and_memo_reuse():
    net, vs, hard = _bundle_hard("bound")
    state = SearchState()
    first = max_sat(MaxSmtProblem(hard), state)
    second = max_sat(MaxSmtProblem(hard, frozenset(first.modified)), state, len(first.modified))
    assert first.modified == ("v0",)
    assert second.modified == ("v2",)


def test_reset_check_agrees_with_dbm_replay():
    # Every assignment with at most two flips: the check must equal the
    # replay of the applied edit on the repaired model. The loop models fire
    # t0 twice, so a flip there edits both steps; an assignment that
    # toggles one reset twice is no edit and no repair.
    cases = [load_bundled_model(name) for name in ("client_db", "oneclock", "urgent_hop", "pair_sync")]
    cases += [parse_model(loop_model()), parse_model(loop_model(("x", "y", "z"), "!@a.L1 || z <= 2"))]
    checked = repairs = cancelled = 0
    for net, prop in cases:
        trace = check(net, prop).trace
        vs = vary(encode(net, trace, prop), "reset")
        names = [v.name for v in vs.variables]
        assignments = [
            {n: n in flips for n in names}
            for m in range(3)
            for flips in itertools.combinations(names, m)
        ]
        expected = []
        for a in assignments:
            if HardConstraint(vs).query(a) is None:
                expected.append(False)
                cancelled += 1
                continue
            repaired = apply_candidate(net, _candidate_from_assignment(vs, RepairKind.RESET, a))
            feasible, violating = dbm_replay(repaired, prop, trace)
            expected.append(feasible and not violating)
        cold = [HardConstraint(vs).check(a) for a in assignments]
        warm = HardConstraint(vs)
        first = [warm.check(a) for a in assignments]
        again = [warm.check(a) for a in assignments]
        assert cold == expected
        assert first == expected and again == expected
        checked += len(assignments)
        repairs += sum(expected)
    assert checked == 157 and 0 < repairs < checked and cancelled > 0


def test_hard_check_memo_answers_repeated_queries(monkeypatch):
    net, vs, hard = _bundle_hard("reset")
    calls = []
    solve = maxsmt.is_satisfiable
    monkeypatch.setattr(maxsmt, "is_satisfiable", lambda *a, **k: calls.append(1) or solve(*a, **k))
    zero = vs.zero_assignment()
    assert not hard.check(zero)
    assert calls
    before = len(calls)
    assert not hard.check(dict(zero))
    assert len(calls) == before
