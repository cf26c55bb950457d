"""Subcommands, exit codes, and byte-stable output."""

import json

import pytest

from tarepair import bundled_model_path, orchestrator
from tarepair.cli import main

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
    trace_file = tmp_path / "tdt.json"
    main(["check", BUNDLE, "--trace-out", str(trace_file)])
    capsys.readouterr()
    out_dir = tmp_path / "rep"
    assert main(["repair", BUNDLE, "--tdt", str(trace_file), "--kind", "bound", "--out", str(out_dir)]) == 0
    report = (out_dir / "report.txt").read_text()
    assert "kind: bound" in report


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
    ],
)
def test_malformed_trace_document_is_a_usage_error(tmp_path, capsys, doc):
    trace_file = tmp_path / "tdt.json"
    trace_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["repair", BUNDLE, "--tdt", str(trace_file), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    ],
)
def test_malformed_model_document_is_a_usage_error(tmp_path, capsys, mutate, where):
    doc = json.loads(loop_model())
    mutate(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(model)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")
