"""Round-trip stability, parse diagnostics, and report formatting."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tarepair import BUNDLED_MODELS, bundled_model_path, load_bundled_model, seeding
from tarepair.checker import check
from tarepair.model import AtomicClockConstraint, Op, indexed_constraints
from tarepair.modelio import (
    ModelFormatError,
    parse_atom,
    parse_model,
    parse_property,
    parse_rational,
    parse_trace,
    property_text,
    serialize_model,
    serialize_trace,
    serialize_witness,
    write_report,
)
from tarepair.orchestrator import RepairKind, run

FISCHER = Path(__file__).resolve().parents[1] / "bench" / "fischer.py"


def test_round_trip_all_corpus_files():
    for name in BUNDLED_MODELS:
        text = bundled_model_path(name).read_text(encoding="utf-8")
        net, prop = parse_model(text)
        out = serialize_model(net, prop)
        net2, prop2 = parse_model(out)
        assert serialize_model(net2, prop2) == out
        # modulo whitespace/formatting the documents agree
        assert json.loads(out)["property"] == json.loads(text)["property"]


def test_bundled_running_example_shape():
    net, prop = load_bundled_model()
    assert [a.name for a in net.automata] == ["client", "db"]
    assert set(net.clock_names) == {"x", "y", "z", "w"}
    assert property_text(prop, net) == "x <= 4 || !@client.serReceiving"


def test_malformed_operator_is_syntax_error():
    net, prop = load_bundled_model()
    doc = json.loads(serialize_model(net, prop))
    doc["automata"][1]["transitions"][1]["guard"] = ["w <== 2"]
    with pytest.raises(ModelFormatError, match="malformed constraint atom"):
        parse_model(json.dumps(doc))


def test_unknown_clock_in_atom():
    with pytest.raises(ModelFormatError, match="unknown clock"):
        parse_atom("q <= 2", ["x"], "here")


def test_property_parse_errors_carry_position():
    net, _ = load_bundled_model()
    with pytest.raises(ModelFormatError, match="property:1:"):
        parse_property("x <= 4 ||", net)
    with pytest.raises(ModelFormatError, match="unresolved location predicate"):
        parse_property("@client.nowhere", net)


def test_property_grammar_precedence():
    net, _ = load_bundled_model()
    p = parse_property("!@client.serReceiving && x <= 4 || y >= 1", net)
    # || binds weakest: (!L && x<=4) || (y>=1)
    assert p.kind.value == "or"
    assert p.children[0].kind.value == "and"
    assert property_text(parse_property(property_text(p, net), net), net) == property_text(p, net)


def test_rational_round_trip():
    assert parse_rational("3/2", "t") == Fraction(3, 2)
    assert AtomicClockConstraint(0, Op.LE, Fraction(3, 2)).text(["x"]) == "x <= 3/2"
    assert AtomicClockConstraint(0, Op.LE, Fraction(4, 2)).text(["x"]) == "x <= 2"
    with pytest.raises(ModelFormatError):
        parse_rational("x", "t")
    assert parse_rational(" -7 / 2 ", "t") == Fraction(-7, 2) and parse_rational(" 5 ", "t") == 5
    with pytest.raises(ModelFormatError, match="^t: zero denominator"):
        parse_rational("1/0", "t")
    # int() refuses a string past its digit limit; the error carries the path
    with pytest.raises(ModelFormatError, match="^t: a number has more than"):
        parse_rational("2/" + "1" * (sys.get_int_max_str_digits() + 1), "t")


@given(st.fractions(min_value=0, max_value=1000), st.sampled_from(list(Op)))
def test_rational_round_trip_property(q, op):
    atom = AtomicClockConstraint(1, op, q)
    assert parse_atom(atom.text(["x", "y"]), ["x", "y"], "t") == atom


def test_constraint_indexing_stable_across_round_trip():
    net, prop = load_bundled_model()
    net2, _ = parse_model(serialize_model(net, prop))
    a = [(r.index, r.kind, r.atom) for r in indexed_constraints(net)]
    b = [(r.index, r.kind, r.atom) for r in indexed_constraints(net2)]
    assert a == b


def _violating_traces():
    """(network, check trace) of the violating bundled models and Fischer N=3 mutants."""
    spec = importlib.util.spec_from_file_location("bench_fischer", FISCHER)
    fischer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fischer)
    models = [load_bundled_model(name) for name in BUNDLED_MODELS]
    network, prop = parse_model(fischer.fischer(3, 0))
    models += [(m.network, prop) for m in seeding.seed(network)]
    verdicts = [(net, check(net, prop)) for net, prop in models]
    return [(net, v.trace) for net, v in verdicts if not v.safe]


def test_trace_document_round_trip():
    cases = _violating_traces()
    assert len(cases) == 4 + 22
    for net, trace in cases:
        assert parse_trace(serialize_trace(trace, net), net) == trace


def test_trace_document_delay_is_validated_and_ignored():
    net, prop = load_bundled_model()
    trace = check(net, prop).trace
    doc = json.loads(serialize_trace(trace, net))
    for step, delay in zip(doc["steps"], (0, "3/2", 4)):
        step["delay"] = delay
    assert parse_trace(json.dumps(doc), net) == trace
    doc["steps"][1]["delay"] = "1/0"
    with pytest.raises(ModelFormatError, match=r"steps\[1\]: zero denominator"):
        parse_trace(json.dumps(doc), net)
    doc["steps"][1]["delay"] = "soon"
    with pytest.raises(ModelFormatError, match=r"steps\[1\]: expected an integer"):
        parse_trace(json.dumps(doc), net)
    for delay in (-5, "-1/2"):
        doc["steps"][1]["delay"] = delay
        with pytest.raises(ModelFormatError, match=r"steps\[1\]: negative delay"):
            parse_trace(json.dumps(doc), net)


def test_witness_document_is_no_trace():
    net, _ = load_bundled_model()
    with pytest.raises(ModelFormatError, match="not a label sequence"):
        parse_trace(serialize_witness(("req", "ser")), net)


def test_trace_document_rejects_bad_transition_index():
    net, _ = load_bundled_model()
    bad = json.dumps({"steps": [{"fired": [{"automaton": "client", "transitionIndex": 9}]}]})
    with pytest.raises(ModelFormatError, match="out of range"):
        parse_trace(bad, net)


def test_trace_document_rejects_disconnected_step():
    net, _ = load_bundled_model()
    bad = json.dumps({"steps": [{"fired": [{"automaton": "client", "transitionIndex": 1}]}]})
    with pytest.raises(ModelFormatError, match="does not leave"):
        parse_trace(bad, net)


def test_report_empty_result_set(tmp_path):
    path = write_report([], tmp_path, model_name="m.json")
    text = Path(path).read_text()
    assert text.splitlines()[0] == "repair analysis report for m.json"
    assert "summary: 0 repairs, 0 admissible" in text


def test_report_rows(tmp_path):
    net, prop = load_bundled_model()
    runs = [run(net, prop, RepairKind.OPERATOR), run(net, prop, RepairKind.URGENT)]
    assert all(runs[0].admissible) and not any(runs[1].admissible)
    path = write_report(runs, tmp_path)
    text = Path(path).read_text()
    assert "admissible=no" in text
    assert "witness=witness_urgent_001.json" in text
    assert f"summary: {len(runs[0].candidates) + 2} repairs, {len(runs[0].candidates)} admissible" in text
    for i, witness in enumerate(runs[1].witnesses, start=1):
        doc = json.loads((tmp_path / f"witness_urgent_{i:03d}.json").read_text())
        assert doc == {"labels": list(witness)}
    assert json.loads((tmp_path / "witness_urgent_001.json").read_text()) == {"labels": ["req", "ser", "ack"]}
    # admissible rows name no witness and leave no file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "witness_urgent_001.json", "witness_urgent_002.json"]


def test_bundle_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(Path("docs/model.schema.json").read_text())
    for name in BUNDLED_MODELS:
        doc = json.loads(bundled_model_path(name).read_text())
        jsonschema.validate(doc, schema)
