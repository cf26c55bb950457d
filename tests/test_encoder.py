"""Trace constraint system blocks, delay sums, and feasibility."""

import random
from fractions import Fraction as F

from conftest import random_single_ta
from tarepair import load_bundled_model
from tarepair.checker import MoveIndex, SymbolicTimedTrace, check, replay, stt_from_moves
from tarepair.encoder import delta_var, encode, feasible, violating
from tarepair.lra import is_satisfiable
from tarepair.model import prop_to_dnf
from tarepair.modelio import parse_model, parse_property


def property_atoms(sys):
    """The property over the delays, for a property whose negation folds to one atom."""
    ((negated,),) = sys.negated_property_atoms()
    ((atom,),) = negated.negation()
    return [atom]


def test_minimal_zero_step_system():
    text = """
    {"automata": [{"name": "p", "initial": "a", "clocks": ["c"],
      "locations": [{"name": "a", "invariant": []}], "transitions": []}],
     "channels": [], "property": "c <= 1"}
    """
    net, prop = parse_model(text)
    stt = SymbolicTimedTrace((), (tuple([0]),))
    sys = encode(net, stt, prop)
    assert [ta.block for ta in sys.atoms] == ["A"]
    assert [a.text() for a in sys.linear_atoms()] == ["- d0 <= 0"]
    # c starts at 0, so the property reads it as the one delay d0
    assert [a.text() for a in property_atoms(sys)] == ["d0 <= 1"]


def test_running_example_invariant_doubling():
    # The request-transmission invariant appears at both entry and exit of its step.
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    w_atoms = [ta for ta in sys.atoms if ta.block == "I" and ta.constraint_index == 2]
    assert [ta.copy for ta in w_atoms] == ["entry", "exit"]
    texts = {a.text() for ta in w_atoms for a in sys.materialize(ta)}
    assert texts == {"0 <= 2", "d1 <= 2"}


def test_reset_shapes_delay_sums():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    y = net.clock_index("y")
    # y is reset entering step 2 (db.t1 fired at step 1): its delay sum restarts there.
    assert [sorted(sys.clock_value_coeffs(y, j, False)) for j in range(sys.n + 2)] == [
        [], ["d0"], [], ["d2"], ["d2", "d3"]
    ]
    # the trailing delay counts towards every clock's final value
    n = sys.n
    assert all(delta_var(n) in sys.clock_value_coeffs(c, n + 1, False) for c in range(net.n_clocks))


def test_delay_sum_substitution():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    x = net.clock_index("x")
    # x is reset at step 0, so its value at step 3 is d1 + d2.
    assert sys.clock_value_coeffs(x, 3, False) == {delta_var(1): F(1), delta_var(2): F(1)}
    w = net.clock_index("w")
    # w is reset at step 0 too; value at step 2 is d1.
    assert sys.clock_value_coeffs(w, 2, False) == {delta_var(1): F(1)}
    # a clock never reset sums from step 0
    text = """
    {"automata": [{"name": "p", "initial": "a", "clocks": ["c"],
      "locations": [{"name": "a", "invariant": []}, {"name": "b", "invariant": []},
                    {"name": "cl", "invariant": []}, {"name": "dl", "invariant": []}],
      "transitions": [
        {"source": "a", "target": "b"}, {"source": "b", "target": "cl"},
        {"source": "cl", "target": "dl"}]}],
     "channels": [], "property": "c <= 1"}
    """
    net2, prop2 = parse_model(text)
    stt = stt_from_moves(net2, [((0, 0),), ((0, 1),), ((0, 2),)])
    sys2 = encode(net2, stt, prop2)
    assert sys2.clock_value_coeffs(0, 3, False) == {
        delta_var(0): F(1),
        delta_var(1): F(1),
        delta_var(2): F(1),
    }


def test_phi_reads_clocks_at_step_n_plus_one():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    phi = property_atoms(sys)
    # x <= 4, x reset at step 0: x's value after the last delay is d1 + d2 + d3
    assert [a.text() for a in phi] == ["d1 + d2 + d3 <= 4"]
    x = net.clock_index("x")
    vars_used = {v for a in phi for v in a.variables()}
    assert vars_used == set(sys.clock_value_coeffs(x, sys.n + 1, False))


def test_feasibility_and_violation_on_running_example():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    assert feasible(sys) and violating(sys)
    used = {v for a in sys.linear_atoms() for v in a.variables()}
    assert used <= set(sys.delta_vars())


def test_injected_contradiction_infeasible():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    from tarepair.lra import atom_lt

    atoms = sys.linear_atoms() + [atom_lt({delta_var(0): F(1)}, 0)]
    assert not is_satisfiable(atoms).sat


def _random_walk(net, rng, max_len=4):
    locvec = tuple(a.initial for a in net.automata)
    index = MoveIndex(net)
    moves = []
    for _ in range(rng.randint(1, max_len)):
        options = list(index.enabled(locvec))
        if not options:
            break
        move = rng.choice(options)
        vec = list(locvec)
        for ai, ti in move:
            vec[ai] = net.automata[ai].transitions[ti].target
        locvec = tuple(vec)
        moves.append(move)
    return moves


def compound_property(net, rng):
    """A property whose negation has two or more disjuncts, one with a location literal."""
    clocks, locations = net.clock_names, net.automata[0].location_names
    op = rng.choice(["<=", ">=", "<", ">", "="])
    text = (
        f"{rng.choice(clocks)} <= {rng.randint(0, 3)}"
        f" && (!@p.{rng.choice(locations)} || {rng.choice(clocks)} {op} {rng.randint(0, 3)})"
    )
    prop = parse_property(text, net)
    dnf = prop_to_dnf(prop.negate())
    assert len(dnf) >= 2 and any(lit.atom is None for d in dnf for lit in d)
    return prop


def test_encoding_agrees_with_dbm_replay_on_random_traces():
    # Each trace is checked against its model's property and against a
    # compound one, drawn from a second generator so the traces stay put.
    rng = random.Random(20240)
    prop_rng = random.Random(20241)
    outcomes = {"simple": [], "compound": []}
    while len(outcomes["simple"]) < 200:
        net, prop = random_single_ta(rng)
        moves = _random_walk(net, rng)
        if not moves:
            continue
        stt = stt_from_moves(net, moves)
        for name, phi in (("simple", prop), ("compound", compound_property(net, prop_rng))):
            sys = encode(net, stt, phi)
            outcome = (feasible(sys), violating(sys))
            assert outcome == replay(net, phi, stt), moves
            # difference logic over the prefix times against LRA
            zone, violates = sys.decide()
            assert (not zone.empty, violates) == outcome, moves
            outcomes[name].append(outcome)
    # every verdict pair occurs, so the agreement is not vacuous
    for found in outcomes.values():
        assert set(found) == {(False, False), (True, False), (True, True)}


def test_smtlib_dump_round():
    net, prop = load_bundled_model()
    verdict = check(net, prop)
    sys = encode(net, verdict.trace, prop)
    dump = sys.to_smtlib()
    assert dump.startswith("(declare-const") and "(check-sat)" in dump
