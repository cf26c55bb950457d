"""Parsing and serialization of models, properties, traces and repair reports.

Models are JSON documents (see docs/model.schema.json). Rational bounds are
serialized as ``"p/q"`` strings so round trips stay exact; natural bounds
stay plain integers. Parsing is strict: unknown names and malformed atoms
produce errors that carry a source path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .model import (
    AtomicClockConstraint,
    OP_TEXT,
    TEXT_OP,
    PropertyExpr,
    PropKind,
    SafetyProperty,
    SyncKind,
    TimedAutomaton,
    TimedAutomatonNetwork,
    Transition,
    validate,
)


class ModelFormatError(ValueError):
    """Raised on malformed model/trace documents, with a source path."""


def parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ModelFormatError(f"{path}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = re.fullmatch(r"\s*(-?\d+)\s*/\s*(\d+)\s*", value)
        if m:
            return Fraction(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"\s*(-?\d+)\s*", value)
        if m:
            return Fraction(int(m.group(1)))
    raise ModelFormatError(f"{path}: expected an integer or 'p/q' string, got {value!r}")


def format_rational(value: Fraction) -> int | str:
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*(<=|>=|==|<|>|=)\s*(\S+)\s*$")


def parse_atom(text: str, clock_names: list[str], path: str) -> AtomicClockConstraint:
    m = _ATOM_RE.match(text)
    if not m:
        raise ModelFormatError(f"{path}: malformed constraint atom {text!r}")
    name, op, bound = m.groups()
    if name not in clock_names:
        raise ModelFormatError(f"{path}: unknown clock {name!r}")
    return AtomicClockConstraint(clock_names.index(name), TEXT_OP[op], parse_rational(bound, path))


def atom_text(atom: AtomicClockConstraint, clock_names: tuple[str, ...]) -> str:
    b = format_rational(atom.bound)
    return f"{clock_names[atom.clock]} {OP_TEXT[atom.op]} {b}"


class _PropParser:
    """Recursive-descent parser for the property grammar.

    Grammar (|| binds weakest):  or := and ('||' and)* ; and := not ('&&' not)* ;
    not := '!' not | '(' or ')' | atom | '@'Name'.'Name
    """

    _TOKEN = re.compile(
        r"\s*(\|\||&&|!|\(|\)|@[A-Za-z_][\w]*\.[A-Za-z_][\w]*|"
        r"[A-Za-z_][\w]*\s*(?:<=|>=|==|<|>|=)\s*[0-9][0-9/]*|true|false)"
    )

    def __init__(self, text: str, network: TimedAutomatonNetwork):
        self.text = text
        self.network = network
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    self._fail(pos, f"unexpected input {text[pos:].strip().split()[0]!r}")
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def _fail(self, pos: int, message: str):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        raise ModelFormatError(f"property:{line}:{col}: {message}")

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            self._fail(len(self.text), "unexpected end of property")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> PropertyExpr:
        e = self._or()
        if self.i != len(self.tokens):
            self._fail(self.tokens[self.i][1], f"trailing input {self.tokens[self.i][0]!r}")
        return e

    def _or(self) -> PropertyExpr:
        parts = [self._and()]
        while self._peek() == "||":
            self._next()
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else PropertyExpr.disj(*parts)

    def _and(self) -> PropertyExpr:
        parts = [self._not()]
        while self._peek() == "&&":
            self._next()
            parts.append(self._not())
        return parts[0] if len(parts) == 1 else PropertyExpr.conj(*parts)

    def _not(self) -> PropertyExpr:
        tok, pos = self._next()
        if tok == "!":
            return self._not().negate()
        if tok == "(":
            e = self._or()
            closing, cpos = self._next()
            if closing != ")":
                self._fail(cpos, "expected ')'")
            return e
        if tok == "true":
            return PropertyExpr(PropKind.TRUE)
        if tok == "false":
            return PropertyExpr(PropKind.FALSE)
        if tok.startswith("@"):
            auto_name, loc_name = tok[1:].split(".")
            try:
                ai = self.network.automaton_index(auto_name)
            except KeyError:
                self._fail(pos, f"unresolved location predicate: unknown automaton {auto_name!r}")
            auto = self.network.automata[ai]
            if loc_name not in auto.location_names:
                self._fail(pos, f"unresolved location predicate: unknown location {loc_name!r}")
            return PropertyExpr.of_location(ai, auto.location_names.index(loc_name))
        atom = parse_atom(tok, list(self.network.clock_names), "property")
        return PropertyExpr.of_atom(atom)


def parse_property(text: str, network: TimedAutomatonNetwork) -> SafetyProperty:
    return _PropParser(text, network).parse()


def property_text(prop: PropertyExpr, network: TimedAutomatonNetwork) -> str:
    def go(e: PropertyExpr, parent: PropKind | None) -> str:
        if e.kind == PropKind.ATOM:
            return atom_text(e.atom, network.clock_names)
        if e.kind == PropKind.LOC:
            auto = network.automata[e.automaton]
            return f"@{auto.name}.{auto.location_names[e.location]}"
        if e.kind == PropKind.TRUE:
            return "true"
        if e.kind == PropKind.FALSE:
            return "false"
        if e.kind == PropKind.NOT:
            inner = go(e.children[0], PropKind.NOT)
            if e.children[0].kind in (PropKind.AND, PropKind.OR):
                return f"!({inner})"
            return f"!{inner}"
        sep = " && " if e.kind == PropKind.AND else " || "
        body = sep.join(go(c, e.kind) for c in e.children)
        if parent is not None and (parent == PropKind.AND and e.kind == PropKind.OR):
            return f"({body})"
        return body

    return go(prop, None)


def parse_model(text: str) -> tuple[TimedAutomatonNetwork, SafetyProperty]:
    """Parse a model document; raises ModelFormatError, returns a validated network."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("top level: expected an object")
    for key in ("automata", "channels", "property"):
        if key not in doc:
            raise ModelFormatError(f"top level: missing key {key!r}")

    channel_names = list(doc["channels"])
    clock_names: list[str] = []
    for adoc in doc["automata"]:
        for c in adoc.get("clocks", []):
            if c not in clock_names:
                clock_names.append(c)

    automata = []
    for ai, adoc in enumerate(doc["automata"]):
        path = f"automata[{ai}]"
        name = adoc.get("name")
        if not name:
            raise ModelFormatError(f"{path}: missing automaton name")
        loc_names = [ldoc["name"] for ldoc in adoc.get("locations", [])]
        invariants = []
        urgent = set()
        for li, ldoc in enumerate(adoc.get("locations", [])):
            lpath = f"{path}.locations[{li}]"
            invariants.append(
                tuple(parse_atom(s, clock_names, lpath) for s in ldoc.get("invariant", []))
            )
            if ldoc.get("urgent", False):
                urgent.add(li)
        if adoc.get("initial") not in loc_names:
            raise ModelFormatError(f"{path}: initial location {adoc.get('initial')!r} not found")
        transitions = []
        for ti, tdoc in enumerate(adoc.get("transitions", [])):
            tpath = f"{path}.transitions[{ti}]"
            for endpoint in ("source", "target"):
                if tdoc.get(endpoint) not in loc_names:
                    raise ModelFormatError(f"{tpath}: unknown {endpoint} {tdoc.get(endpoint)!r}")
            sync = tdoc.get("sync")
            if sync in (None, ""):
                channel, kind = None, SyncKind.INTERNAL
            else:
                if not isinstance(sync, str) or sync[-1] not in "!?":
                    raise ModelFormatError(f"{tpath}: sync must end in '!' or '?'")
                ch_name, kind = sync[:-1], SyncKind(sync[-1])
                if ch_name not in channel_names:
                    raise ModelFormatError(f"{tpath}: unknown channel {ch_name!r}")
                channel = channel_names.index(ch_name)
            resets = []
            for cname in tdoc.get("resets", []):
                if cname not in clock_names:
                    raise ModelFormatError(f"{tpath}: reset of unknown clock {cname!r}")
                resets.append(clock_names.index(cname))
            transitions.append(
                Transition(
                    source=loc_names.index(tdoc["source"]),
                    target=loc_names.index(tdoc["target"]),
                    guard=tuple(parse_atom(s, clock_names, tpath) for s in tdoc.get("guard", [])),
                    channel=channel,
                    sync=kind,
                    resets=frozenset(resets),
                )
            )
        automata.append(
            TimedAutomaton(
                name=name,
                location_names=tuple(loc_names),
                initial=loc_names.index(adoc["initial"]),
                invariants=tuple(invariants),
                urgent=frozenset(urgent),
                transitions=tuple(transitions),
                clocks=frozenset(clock_names.index(c) for c in adoc.get("clocks", [])),
            )
        )

    network = TimedAutomatonNetwork(tuple(automata), tuple(clock_names), tuple(channel_names))
    prop = parse_property(doc["property"], network)
    diags = [d for d in validate(network, prop) if not d.startswith("warning:")]
    if diags:
        raise ModelFormatError("; ".join(diags))
    return network, prop


def serialize_model(network: TimedAutomatonNetwork, prop: SafetyProperty) -> str:
    doc = {
        "automata": [
            {
                "name": auto.name,
                "initial": auto.location_names[auto.initial],
                "clocks": [network.clock_names[c] for c in sorted(auto.clocks)],
                "locations": [
                    {
                        "name": auto.location_names[li],
                        "urgent": li in auto.urgent,
                        "invariant": [atom_text(a, network.clock_names) for a in auto.invariants[li]],
                    }
                    for li in range(auto.n_locations)
                ],
                "transitions": [
                    {
                        "source": auto.location_names[t.source],
                        "target": auto.location_names[t.target],
                        "sync": (
                            ""
                            if t.channel is None
                            else network.channel_names[t.channel] + t.sync.value
                        ),
                        "guard": [atom_text(a, network.clock_names) for a in t.guard],
                        "resets": [network.clock_names[c] for c in sorted(t.resets)],
                    }
                    for t in auto.transitions
                ],
            }
            for auto in network.automata
        ],
        "channels": list(network.channel_names),
        "property": property_text(prop, network),
    }
    return json.dumps(doc, indent=2) + "\n"


def load_model(path: str | Path) -> tuple[TimedAutomatonNetwork, SafetyProperty]:
    return parse_model(Path(path).read_text(encoding="utf-8"))


# --- trace documents ------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    fired: tuple[tuple[int, int], ...]  # (automaton, transition index), sorted
    delay: Fraction | None = None


@dataclass(frozen=True)
class TraceDocument:
    """Serialized form of a symbolic timed trace, or of a label-only witness."""

    steps: tuple[TraceStep, ...]
    initial_locations: tuple[int, ...]
    final_locations: tuple[int, ...]
    labels: tuple[str, ...] | None = None  # label-only witness traces


def serialize_trace(doc: TraceDocument, network: TimedAutomatonNetwork) -> str:
    if doc.labels is not None:
        payload = {"labels": list(doc.labels)}
        return json.dumps(payload, indent=2) + "\n"
    payload = {
        "steps": [
            {
                "fired": [
                    {
                        "automaton": network.automata[ai].name,
                        "transitionIndex": ti,
                    }
                    for ai, ti in step.fired
                ],
                **({"delay": format_rational(step.delay)} if step.delay is not None else {}),
            }
            for step in doc.steps
        ],
        "initialLocations": {
            a.name: a.location_names[li] for a, li in zip(network.automata, doc.initial_locations)
        },
        "finalLocations": {
            a.name: a.location_names[li] for a, li in zip(network.automata, doc.final_locations)
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_trace(text: str, network: TimedAutomatonNetwork) -> TraceDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("top level: expected an object")
    if "labels" in doc:
        if not isinstance(doc["labels"], list):
            raise ModelFormatError("labels: expected a list")
        return TraceDocument((), (), (), tuple(doc["labels"]))
    steps = []
    locs = [a.initial for a in network.automata]
    initial = tuple(locs)
    step_docs = doc.get("steps", [])
    if not isinstance(step_docs, list):
        raise ModelFormatError("steps: expected a list")
    for si, sdoc in enumerate(step_docs):
        path = f"steps[{si}]"
        if not isinstance(sdoc, dict) or not isinstance(sdoc.get("fired"), list):
            raise ModelFormatError(f"{path}: expected an object with a 'fired' list")
        fired = []
        for fdoc in sdoc["fired"]:
            if not isinstance(fdoc, dict):
                raise ModelFormatError(f"{path}: expected a fired transition object, got {fdoc!r}")
            name = fdoc.get("automaton")
            try:
                ai = network.automaton_index(name)
            except KeyError:
                raise ModelFormatError(f"{path}: unknown automaton {name!r}") from None
            ti = fdoc.get("transitionIndex")
            if isinstance(ti, bool) or not isinstance(ti, int):
                raise ModelFormatError(f"{path}: transition index {ti!r} is not an integer")
            auto = network.automata[ai]
            if not (0 <= ti < len(auto.transitions)):
                raise ModelFormatError(f"{path}: transition index {ti} out of range")
            if auto.transitions[ti].source != locs[ai]:
                raise ModelFormatError(
                    f"{path}: transition {ti} of {auto.name} does not leave the current location"
                )
            fired.append((ai, ti))
        fired.sort()
        for ai, ti in fired:
            locs[ai] = network.automata[ai].transitions[ti].target
        delay = sdoc.get("delay")
        steps.append(
            TraceStep(tuple(fired), parse_rational(delay, path) if delay is not None else None)
        )
    return TraceDocument(tuple(steps), initial, tuple(locs))


# --- repair artifacts -----------------------------------------------------


def write_repaired_model(network, prop, repair, out_dir: str | Path, ordinal: int) -> Path:
    """Apply ``repair`` to ``network`` and write the repaired model document.

    The filename encodes the repair kind and a caller-assigned ordinal, e.g.
    ``repair_bound_001.json``.
    """
    from .orchestrator import apply_candidate

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    repaired_net = apply_candidate(network, repair)
    path = out_dir / f"repair_{repair.kind.value}_{ordinal:03d}.json"
    path.write_text(serialize_model(repaired_net, prop), encoding="utf-8")
    return path


def write_report(results, out_dir: str | Path, model_name: str = "model") -> Path:
    """Write the human-readable summary of one or more repair runs.

    One row per repair: kind, modified constraint anchors, variation values,
    admissibility verdict and, for inadmissible repairs, the witness file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"repair analysis report for {model_name}", ""]
    total = admissible = 0
    for run in results:
        lines.append(f"kind: {run.kind.value}")
        lines.append(f"  trace length: {len(run.trace.steps) if run.trace else 0}")
        if not run.candidates:
            lines.append("  no repairs found")
        for i, (cand, is_adm, witness_file) in enumerate(
            zip(run.candidates, run.admissible, run.witness_files), start=1
        ):
            total += 1
            admissible += 1 if is_adm else 0
            mods = "; ".join(cand.describe_modifications())
            row = f"  [{i:03d}] {mods}  admissible={'yes' if is_adm else 'no'}"
            if not is_adm and witness_file:
                row += f"  witness={witness_file}"
            lines.append(row)
        lines.append(f"  termination: {run.reason}")
        lines.append("")
    lines.append(f"summary: {total} repairs, {admissible} admissible")
    path = out_dir / "report.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
