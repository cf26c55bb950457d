"""Engine-level checks: satisfiability, projection, sampling, budgets."""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import holds
from tarepair import lra
from tarepair.lra import (
    LinearAtom,
    QeBudgetExceeded,
    Rel,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    eliminate,
    is_satisfiable,
    pick_value,
    to_smtlib,
)


def test_trivial_unsat_pair():
    assert not is_satisfiable([atom_ge({"d": F(1)}, 0), atom_lt({"d": F(1)}, 0)]).sat


def test_sat_with_model():
    res = is_satisfiable(
        [atom_le({"d0": F(1), "d1": F(1)}, 2), atom_ge({"d0": F(1)}, 1), atom_ge({"d1": F(1)}, 1)],
        want_model=True,
    )
    assert res.sat
    assert res.model["d0"] == 1 and res.model["d1"] == 1


def test_model_satisfies_all_atoms():
    atoms = [
        atom_le({"a": F(2), "b": F(-1)}, 3),
        atom_ge({"a": F(1), "b": F(1)}, 1),
        atom_lt({"b": F(1)}, 5),
        atom_eq({"a": F(1), "c": F(-2)}, 0),
    ]
    res = is_satisfiable(atoms, want_model=True)
    assert res.sat and all(holds(a, res.model) for a in atoms)


def test_eliminate_single_variable():
    out = eliminate([atom_ge({"d": F(1)}, 0), atom_le({"x": F(1), "d": F(1), "v": F(-1)}, 2)], ["d"])
    assert len(out) == 1
    assert out[0] == atom_le({"x": F(1), "v": F(-1)}, 2)


def test_eliminate_nothing_is_identity_modulo_normalization():
    atoms = [atom_le({"x": F(1)}, 2), atom_ge({"y": F(1)}, 1)]
    out = eliminate(atoms, [])
    assert set(out) == set(atoms)


def test_eliminate_derives_transitive_bound():
    # x - y <= 2 and y <= 3 give x <= 5 after eliminating y.
    out = eliminate([atom_le({"x": F(1), "y": F(-1)}, 2), atom_le({"y": F(1)}, 3)], ["y"])
    assert out == [atom_le({"x": F(1)}, 5)]


def test_equalities_substituted_before_inequalities():
    out = eliminate([atom_eq({"a": F(1), "b": F(-1)}, 0), atom_le({"a": F(1)}, 5)], ["a"])
    assert out == [atom_le({"b": F(1)}, 5)]


def test_eliminate_budget_exceeded():
    random.seed(5)
    atoms = []
    for i in range(14):
        coeffs = {f"x{j}": F(random.randint(-3, 3)) for j in range(6)}
        atoms.append(atom_le(coeffs, random.randint(-2, 8)))
    with pytest.raises(QeBudgetExceeded):
        eliminate(atoms, [f"x{j}" for j in range(6)], budget=20)


def test_projection_extension_oracle_small():
    # A quick instance of the criterion-7 agreement property.
    random.seed(11)
    for _ in range(20):
        n_vars = random.randint(2, 4)
        names = [f"x{i}" for i in range(n_vars)]
        atoms = []
        for _ in range(random.randint(2, 8)):
            coeffs = {v: F(random.randint(-2, 2)) for v in names}
            rel = random.choice([Rel.LE, Rel.LT])
            atoms.append(LinearAtom.make(coeffs, rel, F(random.randint(-4, 4))))
        kill = random.sample(names, random.randint(1, n_vars - 1))
        keep = [v for v in names if v not in kill]
        projected = eliminate(atoms, kill)
        for _ in range(50):
            point = {v: F(random.randint(-8, 8), random.choice([1, 2])) for v in keep}
            in_projection = all(holds(a.substitute(point), {}) for a in projected)
            extendable = is_satisfiable([a.substitute(point) for a in atoms]).sat
            assert in_projection == extendable


def test_substitute_pins_values_into_the_atom():
    # An atom with some variables substituted holds at the others exactly
    # where the atom holds at the full valuation.
    rng = random.Random(5)
    names = ["x0", "x1", "x2"]
    for _ in range(300):
        atom = LinearAtom.make(
            {v: F(rng.randint(-3, 3), rng.choice([1, 2])) for v in names},
            rng.choice(list(Rel)),
            F(rng.randint(-4, 4)),
        )
        full = {v: F(rng.randint(-3, 3), rng.choice([1, 3])) for v in names}
        pinned = {v: full[v] for v in rng.sample(names, rng.randint(0, 3))}
        partial = atom.substitute(pinned)
        assert set(partial.variables()) == set(atom.variables()) - set(pinned)
        assert holds(partial, full) == holds(atom, full)


def test_or_branching_and_negated_equality():
    x = {"x": F(1)}
    assert not is_satisfiable([atom_ge(x, 0), atom_le(x, 0)], [atom_eq(x, 0).negation()]).sat
    assert is_satisfiable([atom_ge(x, 0), atom_le(x, 1)], [atom_eq(x, 0).negation()], want_model=True).model["x"] == 1
    g = [[atom_lt(x, 0)], [atom_gt(x, 3)]]
    assert is_satisfiable([atom_ge(x, 2)], [g], want_model=True).model["x"] == 4
    # an empty group is false, an empty alternative true
    assert not is_satisfiable([], [[]]).sat
    assert is_satisfiable([atom_ge(x, 2)], [[[]]]).sat
    # combinations run first group slowest: (x >= 5, x <= -1) is unsat, and
    # (x >= 5, x >= 0) comes next and gives 5, before (x <= 1, x <= -1) gives -1
    groups = [[[atom_ge(x, 5)], [atom_le(x, 1)]], [[atom_le(x, -1)], [atom_ge(x, 0)]]]
    assert is_satisfiable([], groups, want_model=True).model["x"] == 5


def test_pick_value_rules():
    assert pick_value(F(-2), True, F(-1, 2), False) == -1
    assert pick_value(F(0), True, F(1), True) == F(1, 2)
    assert pick_value(F(3, 2), False, F(3, 2), False) == F(3, 2)
    assert pick_value(None, False, None, False) == 0
    assert pick_value(F(5), True, None, False) == 6
    assert pick_value(None, False, F(-3), True) == -4
    assert pick_value(F(2), False, F(1), False) is None


def _solve3(rows):
    """Exact solution of a 3x3 linear system, or None if singular."""
    a = [list(map(F, r[0])) + [F(r[1])] for r in rows]
    n = 3
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][3] for r in range(n)]


def _feasible_by_vertices(atoms, names, box=1000):
    """Non-strict systems over three variables: satisfiable iff some basic
    solution of the box-extended system satisfies every atom."""
    rows = [([dict(a.coeffs).get(v, 0) for v in names], a.const) for a in atoms]
    for i in range(3):  # box hyperplanes guarantee vertices exist
        unit = [0, 0, 0]
        unit[i] = 1
        rows.append((unit, box))
        rows.append((unit, -box))
    for combo in itertools.combinations(rows, 3):
        point = _solve3(combo)
        if point is not None and all(holds(a, dict(zip(names, point))) for a in atoms):
            return True
    return False


def _random_atom(rng, names, rels=(Rel.LE, Rel.EQ)):
    coeffs = [rng.randint(-2, 2) for _ in range(3)]
    const = rng.randint(-4, 4)
    rel = rng.choice(rels)
    return LinearAtom.make(dict(zip(names, map(F, coeffs))), rel, F(const))


def test_random_systems_against_vertex_enumeration_oracle():
    # The query is satisfiable iff some combination of one alternative per
    # choice group is, and the model satisfies the first such combination
    # in product order (first group slowest).
    rng = random.Random(424242)
    choice_rng = random.Random(4242)
    names = ["x0", "x1", "x2"]
    verdicts = []
    for _ in range(40):
        atoms = [_random_atom(rng, names) for _ in range(rng.randint(2, 6))]
        choices = [
            [
                [_random_atom(choice_rng, names, (Rel.LE,)) for _ in range(choice_rng.randint(0, 2))]
                for _ in range(choice_rng.randint(1, 3))
            ]
            for _ in range(choice_rng.randint(0, 2))
        ]
        combinations = list(itertools.product(*choices))
        first = next(
            (c for c in combinations if _feasible_by_vertices(atoms + [a for alt in c for a in alt], names)),
            None,
        )
        res = is_satisfiable(atoms, choices, want_model=True)
        assert res.sat == (first is not None)
        if res.sat:
            assert all(holds(a, res.model) for a in atoms + [a for alt in first for a in alt])
        verdicts.append(None if first is None else combinations.index(first))
    # both verdicts occur, and some query is first satisfied past its first combination
    assert None in verdicts and 0 in verdicts and max(v or 0 for v in verdicts) > 0


def _product_reference(atoms, choices):
    """The unpruned search: every combination in product order, first
    satisfiable wins. Returns its result and the combinations it solved."""
    for solved, combination in enumerate(itertools.product(*choices), 1):
        res = lra._solve_conjunction(atoms + [a for alt in combination for a in alt], lra.DEFAULT_QE_BUDGET, True)
        if res.sat:
            return res, solved
    return lra.SatResult(False), solved


def _random_queries(seed, count):
    rng = random.Random(seed)
    names = ["x0", "x1", "x2"]
    for _ in range(count):
        atoms = [_random_atom(rng, names) for _ in range(rng.randint(1, 4))]
        choices = [
            [
                [_random_atom(rng, names, (Rel.LE, Rel.LT)) for _ in range(rng.randint(0, 2))]
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(rng.randint(2, 4))
        ]
        yield atoms, choices


def test_pruned_choice_search_returns_the_products_first_model(monkeypatch):
    # Two to four groups: the prefix-pruned search gives the verdict and the
    # very model of the first satisfiable combination, and solves fewer
    # whole combinations.
    real = lra._solve_conjunction
    combinations = []  # whole combinations solved, the only solves asking a model

    def recording(atoms, budget, want_model):
        combinations.append(want_model)
        return real(atoms, budget, want_model)

    sat = pruned = 0
    for atoms, choices in _random_queries(777, 60):
        combinations.clear()
        monkeypatch.setattr(lra, "_solve_conjunction", recording)
        res = is_satisfiable(atoms, choices, want_model=True)
        monkeypatch.setattr(lra, "_solve_conjunction", real)
        ref, solved = _product_reference(atoms, choices)
        assert res == ref
        sat += res.sat
        pruned += combinations.count(True) < solved
    assert 0 < sat < 60 and pruned > 0


def test_prefix_over_the_budget_prunes_nothing(monkeypatch):
    # Every prefix solve (the ones asking no model) exceeds the budget: the
    # search then solves every combination in product order, as unpruned.
    real = lra._solve_conjunction

    def prefixes_exceed(atoms, budget, want_model):
        if not want_model:
            raise QeBudgetExceeded("prefix")
        return real(atoms, budget, want_model)

    monkeypatch.setattr(lra, "_solve_conjunction", prefixes_exceed)
    for atoms, choices in _random_queries(778, 30):
        assert is_satisfiable(atoms, choices, want_model=True) == _product_reference(atoms, choices)[0]


def test_smtlib_dump_mentions_all_variables():
    text = to_smtlib([atom_le({"x": F(1), "y": F(1, 2)}, 2)])
    assert "(declare-const x Real)" in text and "(declare-const y Real)" in text
    assert "(check-sat)" in text


def test_smtlib_dump_prints_the_choice_groups():
    x, y = {"x": F(1)}, {"y": F(1)}
    forced = [[atom_le(y, 1)]]
    either = [[atom_lt(x, 0)], [], [atom_gt(x, 3), atom_eq(y, 0)]]
    text = to_smtlib([atom_ge(x, 2)], [forced, either])
    assert text == (
        "(declare-const x Real)\n(declare-const y Real)\n"
        "(assert (and (<= (* -1 x) -2) (<= (* 1 y) 1) (or (< (* 1 x) 0) true (and (< (* -1 x) -3) (= (* 1 y) 0)))))\n"
        "(check-sat)\n"
    )
    assert to_smtlib([atom_ge(x, 2)], [forced, []]) == "(assert false)\n(check-sat)\n"
