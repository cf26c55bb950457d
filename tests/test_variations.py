"""Variation encoders: zero-meaning contract, branches, substitutions."""

from fractions import Fraction as F

from conftest import loop_model
from tarepair import load_bundled_model
from tarepair.checker import check
from tarepair.encoder import delta_var, encode
from tarepair.lra import LinearAtom, Rel, is_satisfiable
from tarepair.model import Op
from tarepair.modelio import parse_model
from tarepair.variations import KINDS, vary, vary_bounds, vary_clock_refs, vary_operators, vary_resets, vary_urgency

VIOLATING = ("client_db", "oneclock", "urgent_hop", "pair_sync")


def corpus_systems():
    for name in VIOLATING:
        net, prop = load_bundled_model(name)
        verdict = check(net, prop)
        yield name, net, encode(net, verdict.trace, prop)


def test_zero_meaning_equisatisfiable_for_all_encoders_and_traces():
    for name, net, sys in corpus_systems():
        base = is_satisfiable(sys.linear_atoms()).sat
        for kind in KINDS:
            vs = vary(sys, kind)
            inst = vs.instantiate(vs.zero_assignment())
            assert is_satisfiable(inst).sat == base, (name, kind)


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
        trace_indices = {ta.constraint_index for ta in sys.atoms if ta.block in ("I", "G")}
        assert len(vs.variables) == len(trace_indices), name


def test_operator_variation_branch_instantiation():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_operators(encode(net, verdict.trace, prop))
    group = next(g for g in vs.groups if g.var.name == "ov4")
    assert group.var.zero == Op.GE
    lt = group.atoms_for(Op.LT)
    assert [a.text() for a in lt] == ["d1 < 1"]
    ge = group.atoms_for(Op.GE)
    assert [a.text() for a in ge] == ["- d1 <= -1"]


def test_clock_ref_branches_substitute_delay_sums():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    vs = vary_clock_refs(sys)
    # constraint #0 is z <= 2 on serReceiving (step 3, entry+exit copies)
    group = next(g for g in vs.groups if g.var.name == "cv0")
    assert group.var.zero == net.clock_index("z")
    assert len(group.branches) == 4  # clocks x, y, z, w of the owning automaton
    y = net.clock_index("y")
    y_atoms = group.atoms_for(y)
    # y's value at step 3 entry is d2: branch asserts d2 <= 2 and d2 + d3 <= 2
    assert {a.text() for a in y_atoms} == {"d2 <= 2", "d2 + d3 <= 2"}


def test_clock_ref_zero_branch_restores_base():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_clock_refs(encode(net, verdict.trace, prop))
    zero_inst = vs.instantiate(vs.zero_assignment())
    base = encode(net, verdict.trace, prop).linear_atoms()
    assert {a.text() for a in zero_inst} == {a.text() for a in base}


def test_reset_variation_flip_semantics():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_resets(encode(net, verdict.trace, prop))
    # one flip per offered (transition, clock) toggle: step-major, then clock;
    # an add goes on the step's first transition
    assert [v.anchor for v in vs.variables] == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 3),
        (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 1, 3),
        (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3),
    ]
    y = net.clock_index("y")
    var = next(v for v in vs.variables if v.anchor == (1, 1, y))
    assert var.description == "remove reset of y on db transition 1 (step 1)"
    assignment = vs.zero_assignment()
    assignment[var.name] = True
    edited = vs.edited_system(assignment)
    # originally reset: the flip lets y's delay sum run on from step 0
    resets = {k for k, v in vs.base.reset_at.items() if v}
    assert {k for k, v in edited.reset_at.items() if v} == resets - {(y, 1)}
    assert [sorted(edited.clock_value_coeffs(y, j, False)) for j in (2, 3)] == [
        ["d0", "d1"],
        ["d0", "d1", "d2"],
    ]


def test_reset_variation_instantiates_the_edited_system():
    net, prop = parse_model(loop_model())
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    vs = vary_resets(sys)
    assert vs.base is sys and vs.base_atoms == () and vs.groups == ()
    x, y = net.clock_index("x"), net.clock_index("y")
    # t0 fires at steps 0 and 1 but offers each toggle once: 4 flips, not 2 per step
    assert [v.anchor for v in vs.variables] == [(0, 0, x), (0, 0, y), (0, 1, x), (0, 1, y)]
    assert vs.variables[0].description == "remove reset of x on a transition 0 (steps 0, 1)"
    zero = vs.zero_assignment()
    assert vs.instantiate(zero) == sys.linear_atoms()
    one = dict(zero, **{vs.variables[0].name: True})  # remove t0's reset of x, at steps 0 and 1
    edited = vs.edited_system(one)
    assert [edited.reset_at[(x, j)] for j in range(sys.n)] == [False, False, False]
    assert vs.instantiate(one) == edited.linear_atoms()


def test_urgency_variation_branches():
    net, prop = load_bundled_model("urgent_hop")
    verdict = check(net, prop)
    vs = vary_urgency(encode(net, verdict.trace, prop))
    hop = next(g for g in vs.groups if g.var.anchor == (0, 1))  # the urgent location
    assert hop.atoms_for(False) != () and hop.atoms_for(True) == ()
    rest = next(g for g in vs.groups if g.var.anchor == (0, 0))
    assert rest.atoms_for(False) == ()
    assert [a.text() for a in rest.atoms_for(True)] == ["d0 = 0"]


def test_urgency_revisited_location_shares_one_flip():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    vs = vary_urgency(encode(net, verdict.trace, prop))
    ra = next(g for g in vs.groups if g.var.name == "uv1_0")  # db.reqAwaiting
    flipped = ra.atoms_for(True)
    assert {a.text() for a in flipped} == {"d0 = 0", "d3 = 0"}


def test_encoders_leave_other_blocks_untouched():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    base_texts = {a.text() for ta in sys.atoms if ta.block == "A" for a in sys.materialize(ta)}
    for kind in ("bound", "operator", "clockref", "urgent"):
        vs = vary(sys, kind)
        assert base_texts <= {a.text() for a in vs.base_atoms}, kind
