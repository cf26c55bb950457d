"""Domain type invariants, validation diagnostics, and urgency desugaring."""

import copy
import dataclasses
import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from tarepair import BUNDLED_MODELS, load_bundled_model, seeding
from tarepair.checker import check
from tarepair.model import (
    AtomicClockConstraint,
    Op,
    PropertyExpr,
    PropKind,
    SyncKind,
    TimedAutomaton,
    TimedAutomatonNetwork,
    Transition,
    constant_scale,
    dnf_size,
    indexed_constraints,
    max_constant,
    prop_nnf,
    prop_to_dnf,
    validate,
)
from tarepair.modelio import parse_model, parse_property, write_report, write_repaired_model
from tarepair.orchestrator import RepairCandidate, apply_candidate, run
from tarepair.variations import KINDS, Modification, RepairKind

from urgency_desugar import desugar_urgency

FISCHER = Path(__file__).resolve().parents[1] / "bench" / "fischer.py"


def single_automaton(transitions, invariants, urgent=frozenset(), n_locs=2, clocks=frozenset({0})):
    return TimedAutomatonNetwork(
        (
            TimedAutomaton(
                name="proc",
                location_names=tuple(f"l{i}" for i in range(n_locs)),
                initial=0,
                invariants=invariants,
                urgent=urgent,
                transitions=transitions,
                clocks=clocks,
            ),
        ),
        ("c",),
        (),
    )


def test_validate_accepts_bundled_models():
    for name in ("client_db", "oneclock", "urgent_hop", "pair_sync", "safe_idle"):
        net, prop = load_bundled_model(name)
        assert validate(net, prop) == []


def test_validate_flags_unknown_transition_endpoint():
    t = Transition(0, 5, (), None, SyncKind.INTERNAL, frozenset())
    net = single_automaton((t,), ((), ()))
    diags = validate(net)
    assert len(diags) == 1
    assert "transitions[0]" in diags[0] and "target" in diags[0]


def test_validate_flags_unresolved_location_predicate():
    net = single_automaton((), ((), ()))
    prop = PropertyExpr.of_location(0, 9)
    diags = validate(net, prop)
    assert diags == ["property: unresolved location predicate"]


def test_validate_is_pure_and_idempotent():
    net, prop = load_bundled_model()
    assert validate(net, prop) == validate(net, prop) == []


def test_validate_warns_on_unmatched_send():
    t = Transition(0, 1, (), 0, SyncKind.SEND, frozenset())
    net = TimedAutomatonNetwork(
        (
            TimedAutomaton("a", ("l0", "l1"), 0, ((), ()), frozenset(), (t,), frozenset({0})),
        ),
        ("c",),
        ("ch",),
    )
    diags = validate(net)
    assert len(diags) == 1 and diags[0].startswith("warning:")


def test_atomic_constraint_rejects_negative_bound():
    with pytest.raises(ValueError):
        AtomicClockConstraint(0, Op.LE, Fraction(-1))


def test_desugar_identity_without_urgent_locations():
    net, _ = load_bundled_model()
    assert desugar_urgency(net) is net


def test_desugar_counts_fresh_clock_resets_and_invariant():
    # One urgent location with two incoming transitions: one fresh clock,
    # two added resets, one added invariant atom.
    t0 = Transition(0, 1, (), None, SyncKind.INTERNAL, frozenset())
    t1 = Transition(2, 1, (), None, SyncKind.INTERNAL, frozenset())
    net = single_automaton((t0, t1), ((), (), ()), urgent=frozenset({1}), n_locs=3)
    out = desugar_urgency(net)
    assert out.n_clocks == net.n_clocks + 1
    auto = out.automata[0]
    p = out.n_clocks - 1
    assert all(p in t.resets for t in auto.transitions)
    assert sum(len(inv) for inv in auto.invariants) == 1
    atom = auto.invariants[1][0]
    assert atom.clock == p and atom.op == Op.EQ and atom.bound == 0
    assert not auto.urgent


def test_desugar_urgent_initial_location_not_deadlocked():
    # The fresh clock starts at 0, so the p=0 invariant holds initially and
    # the first transition stays firable.
    from tarepair.checker import check
    from tarepair.modelio import parse_property

    t0 = Transition(0, 1, (), None, SyncKind.INTERNAL, frozenset())
    net = single_automaton((t0,), ((), ()), urgent=frozenset({0}))
    out = desugar_urgency(net)
    prop = parse_property("!@proc.l1", out)
    verdict = check(out, prop)
    assert not verdict.safe and len(verdict.trace) == 1


def test_constraint_indexing_is_document_order():
    net, _ = load_bundled_model()
    refs = indexed_constraints(net)
    texts = [(r.index, net.automata[r.automaton].name, r.kind) for r in refs]
    assert texts == [
        (0, "client", "invariant"),
        (1, "client", "guard"),
        (2, "db", "invariant"),
        (3, "db", "invariant"),
        (4, "db", "guard"),
        (5, "db", "guard"),
    ]


def test_max_constant_includes_property():
    net, prop = load_bundled_model()
    assert max_constant(net) == 2
    assert max_constant(net, prop) == 4


def test_largest_constant_is_read_off_the_clock_bounds():
    # max_constant and seeding.model_max_bound read the network's clock_bounds,
    # which round every atom up into its clock's L or U; they must equal the
    # ceiling of the largest constant of the constraint table (and property)
    # they were computed from before, on the bundled models, all of their
    # seeded mutants, Fischer N=3 and N=4, and a network without clocks.
    spec = importlib.util.spec_from_file_location("bench_fischer", FISCHER)
    fischer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fischer)
    cases = []
    for name in BUNDLED_MODELS:
        net, prop = load_bundled_model(name)
        cases += [(net, prop)] + [(m.network, prop) for m in seeding.seed(net)]
    cases += [parse_model(fischer.fischer(n, 0)) for n in (3, 4)]
    clockless = single_automaton((Transition(0, 1, (), None, SyncKind.INTERNAL, frozenset()),), ((), ()), clocks=frozenset())
    clockless = dataclasses.replace(clockless, clock_names=())
    cases.append((clockless, PropertyExpr.of_location(0, 0)))
    assert len(cases) == 195
    for net, prop in cases:
        largest = max((ref.atom.bound for ref in net.constraint_table), default=Fraction(0))
        with_prop = max([largest, *(atom.bound for atom in prop.iter_atoms())])
        assert max_constant(net, prop) == max(1, math.ceil(with_prop))
        assert max_constant(net) == max(1, math.ceil(largest))
        assert seeding.model_max_bound(net) == math.ceil(largest)
    assert (max_constant(clockless), seeding.model_max_bound(clockless)) == (1, 0)


def test_prop_to_dnf_negation():
    net, prop = load_bundled_model()
    bad = prop_to_dnf(prop.negate())
    # not(x <= 4 or not @client.serReceiving) == x > 4 and @client.serReceiving
    assert len(bad) == 1
    lits = bad[0]
    assert len(lits) == 2
    atom_lits = [l for l in lits if l.atom is not None]
    loc_lits = [l for l in lits if l.atom is None]
    assert atom_lits[0].atom.op == Op.GT and atom_lits[0].atom.bound == 4
    assert loc_lits[0].positive and loc_lits[0].location == 2


def test_dnf_size_counts_the_disjuncts_of_prop_to_dnf():
    net, prop = load_bundled_model()
    x, y = (PropertyExpr.of_atom(AtomicClockConstraint(c, Op.LE, Fraction(1))) for c in (0, 1))
    exact = PropertyExpr.of_atom(AtomicClockConstraint(0, Op.EQ, Fraction(1)))
    false = PropertyExpr(PropKind.FALSE)
    cases = [
        prop,
        PropertyExpr.disj(*(PropertyExpr.conj(x, y) for _ in range(5))),
        PropertyExpr.conj(exact, PropertyExpr.disj(x, false), PropertyExpr(PropKind.TRUE)),
        PropertyExpr.disj(PropertyExpr.conj(x, false), exact).negate(),
    ]
    for p in cases:
        for e in (p, p.negate()):
            assert dnf_size(prop_nnf(e)) == len(prop_to_dnf(e))


def _bound_edit(network, idx: int, bound: Fraction):
    old = indexed_constraints(network)[idx].atom
    new = dataclasses.replace(old, bound=bound)
    mod = Modification(("constraint", idx), old, new, f"bound {old.bound} -> {bound}")
    return apply_candidate(network, RepairCandidate(RepairKind.BOUND, (mod,), ()))


def test_derived_tables_follow_an_edit_and_stay_on_the_original():
    net, prop = load_bundled_model()
    refs = indexed_constraints(net)
    assert isinstance(refs, tuple)
    assert (max_constant(net), constant_scale(net), max_constant(net, prop)) == (2, 1, 4)
    # Clocks x, y, z, w; x has no atom, so L(x) = U(x) = 0.
    assert net.clock_bounds == ((0, 1, 1, 1), (0, 1, 2, 2))
    raised = _bound_edit(net, 1, Fraction(7))  # the largest bound was 2
    assert indexed_constraints(raised)[1].atom.bound == 7
    assert (max_constant(raised), constant_scale(raised), max_constant(raised, prop)) == (7, 1, 7)
    assert raised.clock_bounds == ((0, 1, 7, 1), (0, 1, 2, 2))  # z >= 7 raises L(z) alone
    halved = _bound_edit(raised, 3, Fraction(5, 2))
    assert indexed_constraints(halved)[3].atom.bound == Fraction(5, 2)
    assert (max_constant(halved), constant_scale(halved), constant_scale(halved, prop)) == (7, 2, 2)
    assert halved.clock_bounds == ((0, 1, 7, 1), (0, 3, 2, 2))  # y <= 5/2 rounds U(y) up to 3
    assert constant_scale(raised) == 1 and indexed_constraints(raised)[3].atom.bound == 1
    assert indexed_constraints(net) is refs
    assert [r.atom.bound for r in refs] == [2, 1, 2, 1, 1, 1]
    assert (max_constant(net), constant_scale(net), max_constant(net, prop)) == (2, 1, 4)
    assert net.clock_bounds == ((0, 1, 1, 1), (0, 1, 2, 2))


def test_clock_bounds_take_each_operator_to_its_side():
    # L(x) takes >, >= and = atoms, U(x) takes <, <= and = atoms.
    for op, bounds in [
        (Op.LT, ((0,), (3,))),
        (Op.LE, ((0,), (3,))),
        (Op.EQ, ((3,), (3,))),
        (Op.GE, ((3,), (0,))),
        (Op.GT, ((3,), (0,))),
    ]:
        guard = (AtomicClockConstraint(0, op, Fraction(3)),)
        net = single_automaton((Transition(0, 1, guard, None, SyncKind.INTERNAL, frozenset()),), ((), ()))
        assert net.clock_bounds == bounds, op


def test_derived_tables_enter_neither_equality_nor_hash():
    warm, prop = load_bundled_model()
    indexed_constraints(warm), max_constant(warm), constant_scale(warm), prop.negated_dnf
    cold, cold_prop = dataclasses.replace(warm), dataclasses.replace(prop)
    assert "constraint_table" in vars(warm) and "negated_dnf" in vars(prop)
    assert "constraint_table" not in vars(cold) and "negated_dnf" not in vars(cold_prop)
    assert warm == cold and hash(warm) == hash(cold)
    assert prop == cold_prop and hash(prop) == hash(cold_prop)
    assert [f.name for f in dataclasses.fields(warm)] == ["automata", "clock_names", "channel_names"]


def test_negated_dnf_is_prop_to_dnf_of_the_negation_as_tuples():
    _, prop = load_bundled_model()
    assert prop.negated_dnf == tuple(map(tuple, prop_to_dnf(prop.negate())))
    assert prop.negated_dnf is prop.negated_dnf


def test_negated_atoms_at_reads_each_disjunct_whose_location_literals_hold():
    # At every location vector of client_db, under properties that mix
    # clock atoms with positive and negated location literals, and of
    # Fischer N=3 under its mutual exclusion: the disjuncts in order, each
    # as its clock atoms.
    net, _ = load_bundled_model()
    texts = [
        "x <= 4 || !@client.serReceiving",
        "!(@client.serAwaiting && @db.reqReceiving) && (y <= 2 || @db.reqAwaiting)",
        "(@client.clientDone || w < 1) && !(@db.reqProcessing && !@client.serAwaiting && z > 2)",
        "true",
        "false",
    ]
    cases = [(net, parse_property(text, net)) for text in texts]
    spec = importlib.util.spec_from_file_location("bench_fischer", FISCHER)
    fischer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fischer)
    cases.append(parse_model(fischer.fischer(3, 0)))
    hits = 0
    for network, prop in cases:
        for locvec in itertools.product(*(range(a.n_locations) for a in network.automata)):
            want = tuple(
                tuple(lit.atom for lit in disjunct if lit.atom is not None)
                for disjunct in prop.negated_dnf
                if all(lit.atom is not None or (locvec[lit.automaton] == lit.location) == lit.positive for lit in disjunct)
            )
            assert prop.negated_atoms_at(locvec) == want, (prop, locvec)
            hits += bool(want)
    assert hits > 50


def _repair_all(network, prop, out_dir: Path) -> dict[str, bytes]:
    """``tarepair repair --kind all``'s output files, as name -> bytes."""
    verdict = check(network, prop)
    runs = []
    for kind in KINDS:
        rr = run(network, prop, kind, tdt=verdict.trace)
        for ordinal, repaired in enumerate(rr.repaired, start=1):
            write_repaired_model(repaired, prop, rr.kind, out_dir, ordinal)
        runs.append(rr)
    write_report(runs, out_dir, model_name="client_db")
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_deep_copy_of_warmed_objects_repairs_alike(tmp_path):
    net, prop = load_bundled_model()
    trace = check(net, prop).trace
    warmed = _repair_all(net, prop, tmp_path / "warm")
    net_copy, prop_copy = copy.deepcopy((net, prop))
    assert "constraint_table" in vars(net_copy) and "negated_dnf" in vars(prop_copy)
    assert check(net_copy, prop_copy).trace == trace
    assert _repair_all(net_copy, prop_copy, tmp_path / "copy") == warmed
    assert "report.txt" in warmed and len(warmed) > 1
