"""Variation encoders: zero-meaning contract, edits and the systems they make."""

from fractions import Fraction as F

from conftest import atom_text, loop_model
from tarepair import load_bundled_model
from tarepair.checker import check
from tarepair.encoder import delta_var, encode, feasible, violating
from tarepair.lra import LinearAtom, Rel
from tarepair.maxsmt import HardConstraint
from tarepair.model import Op
from tarepair.modelio import parse_model
from tarepair.orchestrator import RepairKind, _candidate_from_assignment, apply_candidate
from tarepair.variations import KINDS, vary, vary_bounds, vary_clock_refs, vary_operators, vary_resets, vary_urgency

VIOLATING = ("client_db", "oneclock", "urgent_hop", "pair_sync")


def corpus_systems():
    for name in VIOLATING:
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        yield name, net, encode(net, verdict.trace, prop)


def edited(vs, **values):
    """The trace system of the model that the given variable values edit."""
    assignment = {v.name: v.zero for v in vs.variables} | values
    candidate = _candidate_from_assignment(HardConstraint(vs), RepairKind(vs.kind), assignment)
    base = vs.base
    return encode(apply_candidate(base.network, candidate), base.stt, base.prop)


def texts(sys, idx):
    """The delay sums of the rows of one constraint index."""
    return [atom_text(sys.materialize(r)) for r in sys.atoms if r.constraint_index == idx]


def test_zero_meaning_equisatisfiable_for_all_encoders_and_traces():
    for name, net, sys in corpus_systems():
        expected = (feasible(sys), violating(sys))
        for kind in KINDS:
            vs = vary(sys, kind)
            hard = HardConstraint(vs)
            zero = {v.name: v.zero for v in vs.variables}
            assert hard.edits(zero) == [], (name, kind)
            zone, violates = vs.base.decide(hard.edits(zero))
            assert (not zone.empty, violates) == expected, (name, kind)


def test_bound_variation_shares_variable_between_copies():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_bounds(encode(net, verdict.trace, prop))
    assert [v.name for v in vs.variables] == ["v0", "v2", "v3", "v4", "v5"]
    # the w <= 2 invariant contributes entry and exit atoms with the same v2
    w_atoms = [a for a in vs.free_atoms if "v2" in a.variables()]
    assert len(w_atoms) == 2
    # guard w + d >= 1 becomes w + d >= 1 + v4: normalized -d1 + v4 <= -1
    g = [a for a in vs.free_atoms if "v4" in a.variables()]
    assert len(g) == 1
    assert g[0] == LinearAtom.make({delta_var(1): F(-1), "v4": F(1)}, Rel.LE, -1)


def test_bound_variation_counts_one_variable_per_trace_constraint():
    for name, net, sys in corpus_systems():
        vs = vary_bounds(sys)
        trace_indices = {r.constraint_index for r in sys.atoms}
        assert len(vs.variables) == len(trace_indices), name


def test_operator_variation_branch_instantiation():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_operators(encode(net, verdict.trace, prop))
    assert next(v.zero for v in vs.variables if v.name == "ov4") == Op.GE
    assert texts(edited(vs, ov4=Op.LT), 4) == ["d1 < 1"]
    assert texts(edited(vs), 4) == ["- d1 <= -1"]


def test_clock_ref_branches_substitute_delay_sums():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    vs = vary_clock_refs(sys)
    # constraint #0 is z <= 2 on serReceiving (step 3, entry+exit copies)
    var = next(v for v in vs.variables if v.name == "cv0")
    assert var.zero == net.clock_names.index("z")
    assert len(var.domain) == 4  # clocks x, y, z, w of the owning automaton
    y = net.clock_names.index("y")
    # y's value at step 3 entry is d2: the edit asserts d2 <= 2 and d2 + d3 <= 2
    assert set(texts(edited(vs, cv0=y), 0)) == {"d2 <= 2", "d2 + d3 <= 2"}


def test_clock_ref_zero_branch_restores_base():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_clock_refs(encode(net, verdict.trace, prop))
    zero = edited(vs)
    base = encode(net, verdict.trace, prop)
    assert {atom_text(a) for a in zero.linear_atoms()} == {atom_text(a) for a in base.linear_atoms()}
    assert vs.base.decide(HardConstraint(vs).edits({v.name: v.zero for v in vs.variables})) == base.decide()


def test_reset_variation_flip_semantics():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_resets(encode(net, verdict.trace, prop))
    # one flip per offered (transition, clock) toggle: step-major, then clock;
    # an add goes on the step's first transition. The toggles of w at step 1
    # and of y and w at step 2 are dead: no row reads those clocks later.
    assert [v.anchor for v in vs.variables] == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 3),
        (1, 1, 0), (1, 1, 1), (1, 1, 2),
        (0, 1, 0), (0, 1, 2),
    ]
    y = net.clock_names.index("y")
    var = next(v for v in vs.variables if v.anchor == (1, 1, y))
    assert var.description == "remove reset of y on db transition 1 (step 1)"
    flipped = edited(vs, **{var.name: True})
    # originally reset: the flip lets y's delay sum run on from step 0
    assert [sorted(flipped.delay_sum(y, j, j)) for j in (2, 3)] == [
        ["d0", "d1"],
        ["d0", "d1", "d2"],
    ]
    # and leaves every other clock's delay sums as they were
    for c in range(net.n_clocks):
        for j in range(vs.base.n + 2):
            if c != y:
                assert flipped.delay_sum(c, j, j + 1) == vs.base.delay_sum(c, j, j + 1)


def test_reset_variation_instantiates_the_edited_system():
    net, prop = parse_model(loop_model())
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    vs = vary_resets(sys)
    assert vs.base is sys and vs.free_atoms == ()
    x, y = net.clock_names.index("x"), net.clock_names.index("y")
    # t0 fires at steps 0 and 1 but offers each toggle once: 2 flips, not 2
    # per step. t1's toggle of x at step 2 is dead: no row reads x after it.
    assert [v.anchor for v in vs.variables] == [(0, 0, x), (0, 0, y), (0, 1, y)]
    assert vs.variables[0].description == "remove reset of x on a transition 0 (steps 0, 1)"
    zero = edited(vs)
    assert [atom_text(a) for a in zero.linear_atoms()] == [atom_text(a) for a in sys.linear_atoms()]
    assert zero.negated_property_atoms() == sys.negated_property_atoms()
    one = {vs.variables[0].name: True}  # remove t0's reset of x, at steps 0 and 1
    flipped = edited(vs, **one)
    # x is never reset now: its delay sum runs from step 0 at every step
    assert [len(flipped.delay_sum(x, j, j)) for j in range(sys.n + 2)] == [0, 1, 2, 3, 4]
    hard = HardConstraint(vs)
    assert sys.decide(hard.edits({v.name: v.zero for v in vs.variables} | one)) == flipped.decide()


def test_urgency_variation_branches():
    net, prop = load_bundled_model("urgent_hop")
    verdict = check(net, prop)
    vs = vary_urgency(encode(net, verdict.trace, prop))
    hop = next(v for v in vs.variables if v.anchor == (0, 1))  # the urgent location
    rest = next(v for v in vs.variables if v.anchor == (0, 0))
    zero = edited(vs).timing()[0]  # the zero-delay (U) steps
    assert zero != () and edited(vs, **{hop.name: True}).timing()[0] == ()
    assert edited(vs, **{rest.name: True}).timing()[0] == (0,) + zero


def test_urgency_revisited_location_shares_one_flip():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_urgency(encode(net, verdict.trace, prop))
    assert edited(vs).timing()[0] == ()
    # db.reqAwaiting is resident at steps 0 and 3
    assert edited(vs, uv1_0=True).timing()[0] == (0, 3)


def test_encoders_leave_other_blocks_untouched():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    for kind in KINDS:
        vs = vary(sys, kind)
        for var in vs.variables:
            value = F(-1) if var.domain is None else next(x for x in var.domain if x != var.zero)
            advance = edited(vs, **{var.name: value}).shape_atoms()[: sys.n + 1]  # the A block
            assert advance == sys.shape_atoms()[: sys.n + 1], (kind, var.name)
