"""Subcommands, exit codes, and byte-stable output."""

import copy
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tarepair import BUNDLED_MODELS, bundled_model_path, orchestrator
from tarepair.cli import main
from tarepair.variations import KINDS

from conftest import loop_model, no_run_model

BUNDLE = str(bundled_model_path("client_db"))
SAFE = str(bundled_model_path("safe_idle"))


def test_check_violated_exit_code(capsys):
    assert main(["check", BUNDLE]) == 1
    out = capsys.readouterr().out
    assert out.startswith("violated: diagnostic trace of length 3")


def test_check_safe_exit_code(capsys):
    assert main(["check", SAFE]) == 0
    assert capsys.readouterr().out.startswith("safe:")


def test_check_writes_trace_document(tmp_path, capsys):
    trace_file = tmp_path / "tdt.json"
    assert main(["check", BUNDLE, "--trace-out", str(trace_file)]) == 1
    doc = json.loads(trace_file.read_text())
    assert len(doc["steps"]) == 3
    assert doc["finalLocations"]["client"] == "serReceiving"


def test_repair_with_supplied_tdt(tmp_path, capsys):
    # The trace that check writes makes repair write the very files it
    # writes when it computes the trace itself.
    violating = 0
    for name in BUNDLED_MODELS:
        model = str(bundled_model_path(name))
        trace_file = tmp_path / f"{name}.json"
        if main(["check", model, "--trace-out", str(trace_file)]) == 0:
            continue
        violating += 1
        own, supplied = tmp_path / name / "own", tmp_path / name / "supplied"
        assert main(["repair", model, "--kind", "all", "--out", str(own)]) == 0
        assert main(["repair", model, "--kind", "all", "--tdt", str(trace_file), "--out", str(supplied)]) == 0
        files = sorted(p.name for p in own.iterdir())
        assert "report.txt" in files and files == sorted(p.name for p in supplied.iterdir()), name
        for f in files:
            assert (own / f).read_bytes() == (supplied / f).read_bytes(), (name, f)
    assert violating == 4


def test_repair_bound_writes_files_and_report(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    assert main(["repair", BUNDLE, "--kind", "bound", "--out", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "repair_bound_001.json" in files and "repair_bound_002.json" in files
    assert "report.txt" in files
    # the w <= 2 -> w <= 1 repair is in one of the written models
    texts = [(out_dir / f).read_text() for f in files if f.startswith("repair_bound")]
    assert any("w <= 1" in t for t in texts)


def test_repair_safe_model(capsys, tmp_path):
    assert main(["repair", SAFE, "--kind", "all", "--out", str(tmp_path / "r")]) == 0
    assert "no violation found" in capsys.readouterr().out


def test_repair_all_kinds_report_sections(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    assert main(["repair", BUNDLE, "--kind", "all", "--out", str(out_dir)]) == 0
    report = (out_dir / "report.txt").read_text()
    for kind in ("bound", "operator", "clockref", "reset", "urgent"):
        assert f"kind: {kind}" in report
    # inadmissible urgency repairs carry witness files
    assert "witness=witness_urgent_001.json" in report
    assert (out_dir / "witness_urgent_001.json").exists()


def test_repair_output_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["repair", BUNDLE, "--kind", "urgent", "--out", str(out_a)])
    capsys.readouterr()
    main(["repair", BUNDLE, "--kind", "urgent", "--out", str(out_b)])
    ra = (out_a / "report.txt").read_text().replace(str(out_a), "")
    rb = (out_b / "report.txt").read_text().replace(str(out_b), "")
    assert ra == rb


def test_admissible_command(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    main(["repair", BUNDLE, "--kind", "operator", "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["admissible", BUNDLE, str(out_dir / "repair_operator_001.json")]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_admissible_inadmissible_pair(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    main(["repair", BUNDLE, "--kind", "urgent", "--out", str(out_dir)])
    capsys.readouterr()
    code = main(["admissible", BUNDLE, str(out_dir / "repair_urgent_001.json")])
    out = capsys.readouterr().out
    assert code == 1 and "witness: req ser ack" in out


def test_admissible_with_a_network_without_a_run(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(no_run_model(), encoding="utf-8")
    assert main(["admissible", BUNDLE, str(bad)]) == 1
    assert capsys.readouterr().out == "inadmissible: untimed languages differ\nwitness: (empty word)\n"
    assert main(["admissible", str(bad), str(bad)]) == 0
    assert capsys.readouterr().out.startswith("equivalent")


def test_seed_command(tmp_path, capsys):
    out_dir = tmp_path / "seeding"
    assert main(["seed", str(bundled_model_path("oneclock")), "--out", str(out_dir)]) == 0
    csv = (out_dir / "campaign.csv").read_text()
    assert csv.splitlines()[0] == "kind,Sd,T,Ln,R,A,S,O,Vr,Cn"
    assert (out_dir / "campaign.txt").exists()


def test_usage_error_exit_codes(capsys):
    assert main(["repair"]) == 2  # missing model argument
    assert main(["check", "/nonexistent/model.json"]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "args",
    [
        ["check", "{dir}"],
        ["check", "{binary}"],
        ["repair", BUNDLE, "--tdt", "{dir}", "--out", "{dir}/rep"],
        ["repair", BUNDLE, "--dump-smt", "{dir}", "--out", "{dir}/rep"],
        ["repair", BUNDLE, "--out", "{file}"],
    ],
    ids=["check-directory", "check-binary-file", "tdt-directory", "dump-smt-directory", "out-existing-file"],
)
def test_unusable_path_is_a_usage_error(tmp_path, capsys, args):
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes(range(128, 256)))
    existing = tmp_path / "file"
    existing.write_text("", encoding="utf-8")
    paths = {"dir": str(tmp_path), "binary": str(binary), "file": str(existing)}
    assert main([a.format(**paths) for a in args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_contract_violation_exit_code(tmp_path, capsys, monkeypatch):
    # A candidate that fails the re-check is an outcome with its own exit
    # code and a message, not a traceback or "violated".
    monkeypatch.setattr(orchestrator, "replay", lambda *args: (True, True))
    out_dir = tmp_path / "rep"
    assert main(["repair", BUNDLE, "--kind", "all", "--out", str(out_dir)]) == 4
    captured = capsys.readouterr()
    assert captured.out.endswith("0 repairs computed, 0 admissible\n")
    errors = captured.err.splitlines()
    assert len(errors) == 5 and all(e.startswith("error: the ") for e in errors), errors
    assert "failed the semantic repair contract re-check" in errors[0]
    assert (out_dir / "report.txt").read_text().count("termination: contract-violation") == 5
    assert main(["seed", BUNDLE, "--kinds", "bound", "--out", str(tmp_path / "seed")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "contract" in err and err.count("\n") == 1
    text = (tmp_path / "seed" / "campaign.txt").read_text()
    assert "contract violation: bound, operator, clockref, reset, urgent" in text


def test_budget_exhaustion_exit_code(capsys):
    assert main(["check", BUNDLE, "--state-budget", "1"]) == 3
    assert main(["check", BUNDLE, "--state-budget", "0"]) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["check", BUNDLE, "--state-budget", "-1"],
        ["repair", BUNDLE, "--state-budget", "-1"],
        ["repair", BUNDLE, "--max-repairs", "-1"],
        ["repair", BUNDLE, "--qe-budget", "-3"],
        ["seed", BUNDLE, "--max-repairs", "-1"],
        ["repair", BUNDLE, "--qe-budget", "lots"],
    ],
    ids=["check-state", "repair-state", "repair-max-repairs", "repair-qe", "seed-max-repairs", "not-an-integer"],
)
def test_negative_budget_is_a_usage_error(tmp_path, capsys, args):
    out_dir = tmp_path / "out"
    assert main(args + ["--out", str(out_dir)] * (args[0] != "check")) == 2
    assert "error: argument --" in capsys.readouterr().err
    assert not out_dir.exists()


def test_repair_dump_smt(tmp_path, capsys):
    dump = tmp_path / "system.smt2"
    assert main(["repair", BUNDLE, "--kind", "urgent", "--out", str(tmp_path / "r"), "--dump-smt", str(dump)]) == 0
    text = dump.read_text()
    assert text.startswith("(declare-const") and "(check-sat)" in text


def test_repair_dump_smt_prints_rational_bounds_as_integer_rows(tmp_path, capsys):
    # w <= 3/2 reads d1 <= 3/2 over the delays; every atom is printed as an
    # integer row, so that bound is 2*d1 <= 3 and its empty-prefix row 0 <= 3.
    model = tmp_path / "half.json"
    model.write_text(Path(BUNDLE).read_text(encoding="utf-8").replace('"w <= 2"', '"w <= 3/2"'), encoding="utf-8")
    dump = tmp_path / "system.smt2"
    assert main(["repair", str(model), "--kind", "bound", "--out", str(tmp_path / "r"), "--dump-smt", str(dump)]) == 0
    assert dump.read_text() == (
        "".join(f"(declare-const d{j} Real)\n" for j in range(4))
        + "(assert (and (<= (* -1 d0) 0) (<= (* -1 d1) 0) (<= (* -1 d2) 0) (<= (* -1 d3) 0)"
        " (<= 0 3) (<= (* 2 d1) 3) (<= 0 1) (<= (* 1 d2) 1) (<= 0 2) (<= (* 1 d3) 2)"
        " (<= (* -1 d1) -1) (<= (* -1 d2) -1) (< (+ (* -1 d1) (* -1 d2) (* -1 d3)) -4)))\n"
        "(check-sat)\n"
    )
    assert "[002] constraint #2 (db.reqReceiving invariant: w <= 3/2): bound 3/2 -> 1 (v = -1/2)" in (
        tmp_path / "r" / "report.txt"
    ).read_text(encoding="utf-8")


def test_repair_applies_each_emitted_candidate_once(tmp_path, monkeypatch, capsys):
    # The network a run built for its contract re-check is the one written.
    real = orchestrator.apply_candidate
    calls = []

    def counting(network, candidate):
        calls.append(candidate)
        return real(network, candidate)

    for module in [m for name, m in sys.modules.items() if name.startswith("tarepair")]:
        if getattr(module, "apply_candidate", None) is real:
            monkeypatch.setattr(module, "apply_candidate", counting)
    assert main(["repair", BUNDLE, "--kind", "all", "--out", str(tmp_path)]) == 0
    assert "14 repairs computed" in capsys.readouterr().out
    assert len(calls) == 14
    assert len(list(tmp_path.glob("repair_*.json"))) == 14


def test_reset_repair_and_seed_on_repeated_transition_model(tmp_path, capsys):
    model = tmp_path / "loop.json"
    model.write_text(loop_model(), encoding="utf-8")
    out_dir = tmp_path / "rep"
    assert main(["repair", str(model), "--kind", "reset", "--out", str(out_dir)]) == 0
    report = (out_dir / "report.txt").read_text()
    assert "[001] add reset of y on a transition 1 (step 2)  admissible=yes" in report
    assert main(["seed", str(model), "--out", str(tmp_path / "seeding")]) == 0


@pytest.mark.parametrize(
    "doc",
    [
        {"steps": [{"fired": [{"automaton": "nobody", "transitionIndex": 0}]}]},
        {"steps": [{"delay": 1}]},
        [{"fired": [{"automaton": "client", "transitionIndex": 0}]}],
        {"steps": [{"fired": [{"automaton": "client", "transitionIndex": "0"}]}]},
        {"labels": 5},
        {"steps": [{"fired": [{"automaton": "client", "transitionIndex": 0}] * 2}]},
        {"steps": [{"fired": [{"automaton": "db", "transitionIndex": 0}]}]},
        {"labels": ["req"]},
        json.loads(loop_model()),
        {"steps": [{"fired": [{"automaton": "client", "transitionIndex": 0}, {"automaton": "db", "transitionIndex": 0}], "delay": -5}]},
    ],
    ids=[
        "unknown-automaton",
        "step-without-fired",
        "top-level-array",
        "string-transition-index",
        "labels-not-a-list",
        "one-transition-fired-twice",
        "receive-without-sender",
        "labels-only",
        "model-document-without-steps",
        "negative-delay",
    ],
)
def test_malformed_trace_document_is_a_usage_error(tmp_path, capsys, doc):
    trace_file = tmp_path / "tdt.json"
    trace_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["repair", BUNDLE, "--tdt", str(trace_file), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "fields, error",
    [
        (
            {"initialLocations": {"client": "serReceiving", "ghost": "nowhere"}, "finalLocations": {"client": "nope"}},
            "initialLocations: the trace has client at 'reqCreating', not 'serReceiving'",
        ),
        ({"initialLocations": {"ghost": "nowhere"}}, "initialLocations: unknown automaton 'ghost'"),
        ({"finalLocations": {"client": "nope"}}, "finalLocations: client has no location 'nope'"),
        ({"finalLocations": {"db": "reqProcessing"}}, "finalLocations: the trace has db at 'reqAwaiting', not 'reqProcessing'"),
        ({"finalLocations": ["serReceiving"]}, "finalLocations: expected an object"),
    ],
    ids=["both-wrong", "unknown-automaton", "unknown-location", "not-reached", "not-an-object"],
)
def test_trace_end_locations_must_match_the_replay(tmp_path, capsys, fields, error):
    # The initialLocations and finalLocations that check writes name where
    # the replay starts and ends; a trace whose fields disagree is rejected.
    trace_file = tmp_path / "tdt.json"
    assert main(["check", BUNDLE, "--trace-out", str(trace_file)]) == 1
    doc = json.loads(trace_file.read_text(encoding="utf-8"))
    trace_file.write_text(json.dumps({**doc, **fields}), encoding="utf-8")
    capsys.readouterr()
    assert main(["repair", BUNDLE, "--tdt", str(trace_file), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["check", "{deep}"],
        ["repair", "{deep}", "--out", "{dir}/rep"],
        ["seed", "{deep}", "--out", "{dir}/seeding"],
        ["admissible", BUNDLE, "{deep}"],
        ["repair", BUNDLE, "--tdt", "{deep_steps}", "--out", "{dir}/rep"],
    ],
    ids=["check", "repair", "seed", "admissible", "repair-tdt"],
)
def test_deeply_nested_document_is_a_usage_error(tmp_path, capsys, args):
    # Deeper than the JSON parser's recursion limit: a usage error, not a
    # RecursionError traceback, whose exit 1 would read as "violated".
    deep, deep_steps = tmp_path / "deep.json", tmp_path / "steps.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    deep_steps.write_text('{"steps": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    paths = {"deep": str(deep), "deep_steps": str(deep_steps), "dir": str(tmp_path)}
    assert main([a.format(**paths) for a in args]) == 2
    assert capsys.readouterr().err == "error: top level: nested too deeply to parse\n"


@pytest.mark.parametrize(
    "args, where",
    [
        (["check", "{long}"], "top level"),
        (["repair", "{long}", "--out", "{dir}/rep"], "top level"),
        (["seed", "{long}", "--out", "{dir}/seeding"], "top level"),
        (["admissible", BUNDLE, "{long}"], "top level"),
        (["repair", BUNDLE, "--tdt", "{long_steps}", "--out", "{dir}/rep"], "top level"),
        (["check", "{long_bound}"], "property"),
        (["repair", "{long_ratio}", "--out", "{dir}/rep"], "automata[0].locations[0]"),
    ],
    ids=["check", "repair", "seed", "admissible", "repair-tdt", "property-bound", "invariant-denominator"],
)
def test_numeral_past_the_digit_limit_is_a_usage_error(tmp_path, capsys, args, where):
    # Python refuses to convert a string of more than sys.get_int_max_str_digits()
    # digits to an int. That is a usage error, not a ValueError traceback,
    # whose exit 1 would read as "violated".
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    files = {name: tmp_path / f"{name}.json" for name in ("long", "long_steps", "long_bound", "long_ratio")}
    files["long"].write_text('{"automata": ' + digits + "}", encoding="utf-8")
    files["long_steps"].write_text('{"steps": ' + digits + "}", encoding="utf-8")
    doc = json.loads(loop_model())
    files["long_bound"].write_text(json.dumps(dict(doc, property=f"x <= {digits}")), encoding="utf-8")
    _first_invariant(f"x <= 1/{digits}")(doc)
    files["long_ratio"].write_text(json.dumps(doc), encoding="utf-8")
    paths = {name: str(path) for name, path in files.items()} | {"dir": str(tmp_path)}
    assert main([a.format(**paths) for a in args]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {where}: a number has more than {sys.get_int_max_str_digits()} digits\n"


def _module(*args):
    """``python -m tarepair`` with ``args``, run on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "tarepair", *args], env=env, capture_output=True, text=True)


def test_module_entry_point_keeps_the_exit_codes():
    violated = _module("check", BUNDLE)
    assert violated.returncode == 1 and violated.stdout.startswith("violated:")
    usage = _module()
    assert usage.returncode == 2 and "usage: tarepair" in usage.stderr


def _disjunction(terms):
    """A property whose negation's DNF has 2**terms disjuncts."""
    return " || ".join(f"(x <= {i} && y <= {i})" for i in range(1, terms + 1))


def test_negated_property_at_the_disjunct_bound_is_accepted(tmp_path, capsys):
    doc = json.loads(loop_model())
    doc["property"] = _disjunction(12)  # 4096 disjuncts
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(model)]) == 1
    assert capsys.readouterr().err == ""


def _without_first_location_name(doc):
    del doc["automata"][0]["locations"][0]["name"]


def _first_invariant(text):
    return lambda doc: doc["automata"][0]["locations"][0].update(invariant=[text])


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda doc: doc.update(automata=5), "automata: expected a list"),
        (lambda doc: doc.update(automata=[5]), "automata[0]: expected an object"),
        (_without_first_location_name, "automata[0].locations[0].name: expected a string"),
        (lambda doc: doc.update(channels=7), "channels: expected a list"),
        (lambda doc: doc.update(property=5), "property: expected a string"),
        (lambda doc: doc["automata"][0].update(clocks=[["x"]]), "automata[0].clocks[0]: expected a string"),
        (_first_invariant("x <= 1/0"), "automata[0].locations[0]: zero denominator"),
        (lambda doc: doc.update(property="y <= 1/0"), "property: zero denominator"),
        (_first_invariant("x <= -1"), "automata[0].locations[0]: negative clock bound"),
        (
            lambda doc: doc["automata"][0]["locations"][0].update(urgent="false"),
            "automata[0].locations[0].urgent: expected a boolean",
        ),
        (_first_invariant(f"x <= {2**201}"), f"constant {2**201} times the constant scale 1 is not below 2^200"),
        (
            # each constant fits alone, but 1/3 at the lcm of the denominators does not
            lambda doc: doc.update(property=f"x <= 1/3 || x >= 1/{2**200 + 1}"),
            f"constant 1/3 times the constant scale {3 * (2**200 + 1)} is not below 2^200",
        ),
        (lambda doc: doc.update(property="!" * 3000 + "x <= 1"), "property:1:101: property nested deeper than 100"),
        (
            lambda doc: doc.update(property="(" * 3000 + "x <= 1" + ")" * 3000),
            "property:1:101: property nested deeper than 100",
        ),
        (
            lambda doc: doc.update(property=_disjunction(13)),
            "property: its negation has 8192 disjuncts, more than 4096",
        ),
    ],
    ids=[
        "automata-not-a-list",
        "automaton-not-an-object",
        "location-without-name",
        "channels-not-a-list",
        "property-not-a-string",
        "clock-name-not-a-string",
        "zero-denominator-in-invariant",
        "zero-denominator-in-property",
        "negative-invariant-bound",
        "urgent-not-a-boolean",
        "constant-too-large",
        "constant-too-large-at-the-common-scale",
        "negations-nested-too-deep",
        "parentheses-nested-too-deep",
        "negation-with-too-many-disjuncts",
    ],
)
def test_malformed_model_document_is_a_usage_error(tmp_path, capsys, mutate, where):
    doc = json.loads(loop_model())
    mutate(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    for args in (["check", str(model)], ["repair", str(model), "--out", str(tmp_path / "out")]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and err.count("\n") == 1, args


def test_the_cli_imports_and_runs_without_the_digit_limit_api(tmp_path):
    # sys.get_int_max_str_digits exists only from Python 3.10.7 and 3.11, and
    # pyproject.toml admits 3.10.0: without it every command must still run.
    script = (
        "import sys; del sys.get_int_max_str_digits\n"
        "import tarepair.modelio\n"
        "from tarepair.cli import main\n"
        f"assert main(['check', {BUNDLE!r}]) == 1\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("violated:")


_JUNK = ("", " ", "<", "<=", "==", "&&", "||", "!", "(", ")", "@", ".", "/", "-", "1/0", "x", "@client.", "€", "\x00")
_WRONG = (None, True, 7, -3, 2.5, "x", "", [], {}, ["x"], {"a": 1})


def _places(doc):
    """(container, key) of every value inside a JSON document, in document order."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        out += _places(value)
    return out


def _mutated(doc, rng):
    """A copy of ``doc`` with one to three seeded mutations: a dropped key or
    item, a value of a wrong type, junk spliced into a string, a 30-digit
    constant, or a duplicated list item."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 1, 2, 3))):
        places = _places(doc)
        if not places:
            break
        how = rng.randrange(5)
        if how == 2:  # splice junk into a string: an atom, a property, a name
            places = [(c, k) for c, k in places if isinstance(c[k], str)] or places
        elif how == 4:  # duplicate a list item
            places = [(c, k) for c, k in places if isinstance(c, list)] or places
        container, key = rng.choice(places)
        value = container[key]
        if how == 0:
            del container[key]
        elif how == 1:
            container[key] = copy.deepcopy(rng.choice(_WRONG))
        elif how == 2 and isinstance(value, str):
            at = rng.randint(0, len(value))
            container[key] = value[:at] + rng.choice(_JUNK) + value[at:]
        elif how == 3:
            digits = str(rng.randint(10**29, 10**30 - 1))
            runs = list(re.finditer(r"\d+", value)) if isinstance(value, str) else []
            if runs:
                run = rng.choice(runs)
                container[key] = value[: run.start()] + digits + value[run.end() :]
            else:
                container[key] = int(digits)
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(value))
    return doc


def test_seeded_malformed_documents_end_in_an_exit_code(tmp_path):
    # Every CLI command on mutated bundled model documents and mutated trace
    # documents returns one of the exit codes 0-4 and raises nothing.
    model, trace, out = tmp_path / "model.json", tmp_path / "trace.json", str(tmp_path / "out")
    small = ["--max-repairs", "2", "--qe-budget", "5000", "--state-budget", "2000", "--out", out]
    runs = 0
    for name in BUNDLED_MODELS:
        original = str(bundled_model_path(name))
        model_doc = json.loads(Path(original).read_text(encoding="utf-8"))
        trace_out = tmp_path / f"{name}.trace.json"
        main(["check", original, "--trace-out", str(trace_out)])
        trace_doc = json.loads(trace_out.read_text(encoding="utf-8")) if trace_out.exists() else None
        for seed in range(100):
            rng = random.Random(f"{name}/{seed}")
            kind = rng.choice([*KINDS, "all"])
            model.write_text(json.dumps(_mutated(model_doc, rng)), encoding="utf-8")
            commands = [
                (model, ["check", str(model), "--state-budget", "2000"]),
                (model, ["repair", str(model), "--kind", kind, *small]),
                (model, ["admissible", original, str(model)]),
            ]
            if trace_doc is not None:
                trace.write_text(json.dumps(_mutated(trace_doc, rng)), encoding="utf-8")
                commands.append((trace, ["repair", original, "--tdt", str(trace), "--kind", kind, *small]))
            for mutated, args in commands:
                try:
                    code = main(args)
                except Exception as e:  # a traceback is the failure this test looks for
                    pytest.fail(f"{args[0]} raised {e!r} on {mutated.read_text(encoding='utf-8')}")
                assert code in range(5), (args, mutated.read_text(encoding="utf-8"))
                runs += 1
    assert runs == 5 * 100 * 3 + 4 * 100
