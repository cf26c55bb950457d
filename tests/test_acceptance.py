"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 1-4 gate the bundled client/db reconstruction; 5-11 gate the
analysis machinery on the corpus plus randomized oracles with fixed seeds.
"""

import itertools
import json
import random
import time
from collections import deque
from fractions import Fraction as F
from pathlib import Path

from tarepair import load_bundled_model
from tarepair.admissibility import build_untimed, equivalent
from tarepair.checker import check
from tarepair.encoder import encode, feasible, violating
from tarepair.lra import LinearAtom, Rel, eliminate, is_satisfiable
from tarepair.maxsmt import (
    HardConstraint,
    max_sat,
    repairing_assignments,
    sample_repair_values,
)
from tarepair.model import Op
from tarepair.orchestrator import RepairKind, apply_candidate, run
from tarepair.regions import build_region_untimed
from tarepair.seeding import campaign, seed
from tarepair.variations import KINDS, vary

from alphabet_equivalence import _closure, _post, alphabet
from conftest import holds, random_single_ta

CORPUS_VIOLATING = ("client_db", "oneclock", "urgent_hop", "pair_sync")


def _report(criterion: int, message: str):
    print(f"criterion {criterion:2d}: PASS - {message}")


def test_criterion_01_running_example_bound_repair():
    t0 = time.monotonic()
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.BOUND)
    hits = [
        (cand, adm)
        for cand, adm in zip(rr.candidates, rr.admissible)
        if any(
            m.anchor == ("constraint", 2) and m.old.bound == F(2) and m.new.bound == F(1)
            for m in cand.modifications
        )
    ]
    elapsed = time.monotonic() - t0
    assert len(hits) == 1, "expected exactly one candidate rewriting w <= 2 to w <= 1"
    cand, admissible = hits[0]
    assert admissible, "the w <= 2 -> w <= 1 repair must be admissible"
    assert len(cand.modifications) == 1, "single-constraint repair"
    value = dict(cand.assignment)["v2"]
    assert value == F(-1), "exact rational variation value"
    assert elapsed < 10.0, f"bound analysis took {elapsed:.2f}s"
    _report(1, f"w <= 2 repaired to w <= 1, admissible, in {elapsed:.2f}s")


def test_criterion_02_operator_variation():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.OPERATOR)
    repl = [
        (m.anchor, m.new.op)
        for cand in rr.candidates
        for m in cand.modifications
    ]
    assert (("constraint", 4), Op.LT) in repl, "w >= 1 replaced by <"
    assert (("constraint", 4), Op.LE) in repl, "w >= 1 replaced by <="
    n_admissible = sum(1 for a in rr.admissible if a)
    assert n_admissible == 2, f"expected 2 admissible operator repairs, got {n_admissible}"
    assert all(rr.admissible), "both operator repairs admissible"
    _report(2, "operator repairs of w >= 1 are < and <=, both admissible (2 total)")


def test_criterion_03_urgency_variation():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.URGENT)
    assert len(rr.candidates) == 2, f"expected exactly 2 candidates, got {len(rr.candidates)}"
    locs = {cand.modifications[0].anchor for cand in rr.candidates}
    client_sr = ("urgent", 0, net.automata[0].location_names.index("serReceiving"))
    db_ra = ("urgent", 1, net.automata[1].location_names.index("reqAwaiting"))
    assert locs == {client_sr, db_ra}
    assert rr.admissible == [False, False], "both urgency repairs inadmissible"
    assert all(w for w in rr.witnesses), "nonempty witnesses"
    _report(3, "urgency candidates are reqAwaiting and serReceiving, both inadmissible")


def test_criterion_04_reset_variation():
    net, prop = load_bundled_model()
    rr = run(net, prop, RepairKind.RESET)
    assert len(rr.candidates) >= 4
    y, z, x = (net.clock_index(c) for c in "yzx")
    named = {
        ("remove-y", ("reset", 1, 1, y), False),
        ("remove-z", ("reset", 0, 1, z), False),
        ("add-x-reqProcessing", ("reset", 1, 1, x), True),
        ("add-x-serReceiving", ("reset", 0, 1, x), True),
    }
    found = {}
    for cand, adm in zip(rr.candidates, rr.admissible):
        for m in cand.modifications:
            found[(m.anchor, m.new)] = adm
    for label, anchor, new in named:
        assert (anchor, new) in found, f"missing named reset repair {label}"
        assert found[(anchor, new)], f"named reset repair {label} must be admissible"
    _report(4, f"{len(rr.candidates)} reset candidates; y/z removals and both x additions admissible")


def test_criterion_05_semantic_repair_contract():
    checked = 0
    for name in CORPUS_VIOLATING:
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        for kind in RepairKind:
            rr = run(net, prop, kind, tdt=verdict.trace)
            for cand in rr.candidates:
                repaired = apply_candidate(net, cand)
                sys = encode(repaired, verdict.trace, prop)
                assert feasible(sys), (name, kind.value)
                assert not violating(sys), (name, kind.value)
                checked += 1
    assert checked > 0
    _report(5, f"repaired trace systems satisfiable and violation-free for {checked} candidates")


def test_criterion_06_maxsmt_minimality():
    instances = 0
    for name in CORPUS_VIOLATING:
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        enc = encode(net, verdict.trace, prop)
        for kind in KINDS:
            vs = vary(enc, kind)
            names = [v.name for v in vs.variables]
            if not names or len(names) > 10:
                continue
            hard = HardConstraint(vs)
            first = next(max_sat(hard), None)
            best = None if first is None else len(first[0])
            exhaustive = None
            for m in range(0, len(names) + 1):
                hit = False
                for combo in itertools.combinations(names, m):
                    if vs.kind == "bound":
                        ok = hard.check_with_zeros(frozenset(names) - set(combo))
                        if ok and sample_repair_values(hard, combo) is None:
                            ok = False
                    else:
                        ok = bool(repairing_assignments(hard, combo))
                    if ok:
                        hit = True
                        break
                if hit:
                    exhaustive = m
                    break
            assert best == exhaustive, (name, kind, best, exhaustive)
            instances += 1
    assert instances >= 12
    _report(6, f"solver |F| equals exhaustive-subset optimum on {instances} instances")


def test_criterion_07_qe_extension_oracle():
    t0 = time.monotonic()
    rng = random.Random(74231)
    var_pool = ["x0", "x1", "x2", "x3"]
    instances = 0
    points_checked = 0
    while instances < 500:
        n_vars = rng.randint(2, 4)
        names = var_pool[:n_vars]
        atoms = []
        for _ in range(rng.randint(2, 8)):
            coeffs = {v: F(rng.randint(-2, 2)) for v in names}
            rel = rng.choice([Rel.LE, Rel.LT])
            atoms.append(LinearAtom.make(coeffs, rel, F(rng.randint(-4, 4))))
        n_kill = rng.randint(1, n_vars - 1)
        kill = rng.sample(names, n_kill)
        keep = [v for v in names if v not in kill]
        projected = eliminate(atoms, kill)
        substituted = [a for a in atoms]
        for _ in range(1000):
            point = {v: F(rng.randint(-8, 8), rng.choice([1, 2])) for v in keep}
            in_projection = all(holds(a.substitute(point), {}) for a in projected)
            extendable = is_satisfiable([a.substitute(point) for a in substituted]).sat
            assert in_projection == extendable, (atoms, kill, point)
            points_checked += 1
        instances += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 7 suite took {elapsed:.1f}s"
    _report(7, f"{instances} projections agree with the extension oracle on {points_checked} points in {elapsed:.1f}s")


def _determinize(ua):
    """Explicit subset construction (oracle-local, independent code path)."""
    start = _closure(ua, frozenset([ua.initial]))
    states = {start: 0}
    rows = []
    work = deque([start])
    while work:
        s = work.popleft()
        row = {}
        for label in alphabet(ua):
            t = _post(ua, s, label)
            if not t:
                continue
            if t not in states:
                states[t] = len(states)
                work.append(t)
            row[label] = t
        rows.append((s, row))
    table = {}
    for s, row in rows:
        table[states[s]] = {lab: states[t] for lab, t in row.items()}
    return states[start], table


def _words_differ_up_to_pumping_bound(ua, ub):
    """Shortest word in exactly one language, by explicit bounded enumeration."""
    labels = sorted(set(alphabet(ua)) | set(alphabet(ub)))
    ia, ta = _determinize(ua)
    ib, tb = _determinize(ub)
    bound = (len(ta)) * (len(tb)) + 1
    seen = {(ia, ib)}
    work = deque([(ia, ib, ())])
    while work:
        sa, sb, word = work.popleft()
        if len(word) >= bound:
            continue
        for label in labels:
            na, nb = ta[sa].get(label), tb[sb].get(label)
            if (na is None) != (nb is None):
                return word + (label,)
            if na is None:
                continue
            if (na, nb) not in seen:
                seen.add((na, nb))
                work.append((na, nb, word + (label,)))
    return None


def test_criterion_08_untimed_language_oracle():
    rng = random.Random(90125)
    nets = []
    while len(nets) < 50:
        net, _ = random_single_ta(rng)
        nets.append(net)
    zone_autos = []
    for i, net in enumerate(nets):
        ua = build_untimed(net, visible_internal=True)
        ra = build_region_untimed(net, visible_internal=True)
        eq = equivalent(ua, ra)
        assert eq.equal, f"TA {i}: zone and region languages differ: {eq.witness}"
        assert _words_differ_up_to_pumping_bound(ua, ra) is None, f"TA {i}"
        zone_autos.append(ua)
    # agreement between the checker and bounded enumeration on mixed pairs
    agreements = equals = 0
    for a, b in zip(zone_autos, zone_autos[1:] + zone_autos[:1]):
        verdict = equivalent(a, b)
        oracle_witness = _words_differ_up_to_pumping_bound(a, b)
        assert verdict.equal == (oracle_witness is None)
        if not verdict.equal:
            assert len(verdict.witness) == len(oracle_witness), "shortest witness lengths agree"
        agreements += 1
        equals += 1 if verdict.equal else 0
    _report(8, f"50 TAs: zone=region languages; {agreements} pair verdicts match enumeration ({equals} equal)")


def test_criterion_09_zero_meaning_equisatisfiability():
    cases = 0
    for name in CORPUS_VIOLATING:
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        enc = encode(net, verdict.trace, prop)
        base = is_satisfiable(enc.linear_atoms()).sat
        for kind in KINDS:
            vs = vary(enc, kind)
            edits = HardConstraint(vs).edits(vs.zero_assignment())
            zone, _ = enc.decide(edits)
            assert edits == [] and (not zone.empty) == base, (name, kind)
            cases += 1
    assert cases == 20
    _report(9, f"all-zero assignment makes no edit and is equisatisfiable with the trace system in {cases} cases")


def test_criterion_10_seeding_protocol():
    net, _ = load_bundled_model()
    mutants = seed(net)
    by_kind = {}
    for m in mutants:
        by_kind.setdefault(m.kind, []).append(m)
    counts = {k: len(v) for k, v in by_kind.items()}
    assert counts == {"bound": 20, "operator": 24, "clockref": 18, "reset": 28, "urgent": 7}
    # delta set with clamping and dedup on w <= 2 (M = 2): {0, 1, 3, 4}
    w_bounds = [m.edit.modifications[0].new.bound for m in by_kind["bound"] if "#2" in m.description]
    assert w_bounds == [F(0), F(1), F(3), F(4)]
    # on y <= 1: -10 and -1 both clamp/land at 0, +1 and +0.1M dedup at 2: {0, 2, 3}
    y_bounds = [m.edit.modifications[0].new.bound for m in by_kind["bound"] if "#3" in m.description]
    assert y_bounds == [F(0), F(2), F(3)]
    _report(10, f"mutant enumeration matches the documented operator and delta sets ({len(mutants)} mutants)")


def test_criterion_11_campaign_determinism():
    net, prop = load_bundled_model()
    first = campaign(net, prop, model_name="client_db")
    second = campaign(net, prop, model_name="client_db")
    # the reference reports kept with the benchmark, read only
    golden_path = Path(__file__).resolve().parents[1] / "bench" / "golden" / "campaign_client_db.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert first.to_csv() == golden["full_csv"]
    assert first.to_text() == golden["full_text"]
    assert first.to_csv() == second.to_csv()
    assert first.to_text() == second.to_text()
    total = first.total()
    # end-to-end smoke: seeding produced traces and admissible repairs
    assert total.violating >= 1 and total.admissible >= 1
    _report(11, "the campaign reports equal the reference, and a second run's are byte-identical")
