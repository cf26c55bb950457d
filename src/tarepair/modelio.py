"""Parsing and serialization of models, properties, traces and repair reports.

Models are JSON documents (see docs/model.schema.json). Rational bounds are
serialized as ``"p/q"`` strings so round trips stay exact; natural bounds
stay plain integers. Parsing is strict: unknown names and malformed atoms
produce errors that carry a source path. The module reads and writes
documents only and imports nothing of the repair loop:
``write_repaired_model`` takes the repaired network.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .checker import SymbolicTimedTrace, is_enabled
from .model import (
    AtomicClockConstraint,
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


def _load_json(text: str) -> Any:
    """The JSON document ``text``; a ModelFormatError if it cannot be read."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ModelFormatError("top level: nested too deeply to parse") from None
    except ValueError:  # past int's limit on the digits of a string (its getter is new in 3.10.7)
        raise ModelFormatError(f"top level: a number has more than {sys.get_int_max_str_digits()} digits") from None


def parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ModelFormatError(f"{path}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = re.fullmatch(r"\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?", value)
        if m:
            try:
                num, den = int(m.group(1)), int(m.group(2) or 1)
            except ValueError:  # past int's limit on the digits of a string
                raise ModelFormatError(f"{path}: a number has more than {sys.get_int_max_str_digits()} digits") from None
            if den == 0:
                raise ModelFormatError(f"{path}: zero denominator in {value!r}")
            return Fraction(num, den)
    raise ModelFormatError(f"{path}: expected an integer or 'p/q' string, got {value!r}")


def _typed(value: Any, kind: type, path: str) -> Any:
    """``value`` when it is a ``kind`` (list, dict, str or bool); a ModelFormatError otherwise."""
    if not isinstance(value, kind):
        expected = {list: "a list", dict: "an object", str: "a string", bool: "a boolean"}[kind]
        raise ModelFormatError(f"{path}: expected {expected}, got {value!r}")
    return value


def _strings(value: Any, path: str) -> list[str]:
    for i, item in enumerate(_typed(value, list, path)):
        _typed(item, str, f"{path}[{i}]")
    return value


_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*(<=|>=|==|<|>|=)\s*(\S+)\s*$")


def parse_atom(text: str, clock_names: list[str], path: str) -> AtomicClockConstraint:
    m = _ATOM_RE.match(text) if isinstance(text, str) else None
    if not m:
        raise ModelFormatError(f"{path}: malformed constraint atom {text!r}")
    name, op, bound = m.groups()
    if name not in clock_names:
        raise ModelFormatError(f"{path}: unknown clock {name!r}")
    value = parse_rational(bound, path)
    if value < 0:
        raise ModelFormatError(f"{path}: negative clock bound in {text!r}")
    return AtomicClockConstraint(clock_names.index(name), TEXT_OP[op], value)


# Deepest nesting of '!' and '(' a property may have; every pass over a
# property recurses once per level.
MAX_PROPERTY_NESTING = 100


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
        self.depth = 0  # the '!' and '(' around the current token

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
        if tok in ("!", "("):
            self.depth += 1
            if self.depth > MAX_PROPERTY_NESTING:
                self._fail(pos, f"property nested deeper than {MAX_PROPERTY_NESTING} levels")
            if tok == "!":
                e = self._not().negate()
            else:
                e = self._or()
                closing, cpos = self._next()
                if closing != ")":
                    self._fail(cpos, "expected ')'")
            self.depth -= 1
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
            return e.atom.text(network.clock_names)
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
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ModelFormatError("top level: expected an object")
    for key in ("automata", "channels", "property"):
        if key not in doc:
            raise ModelFormatError(f"top level: missing key {key!r}")

    channel_names = list(_strings(doc["channels"], "channels"))
    adocs = _typed(doc["automata"], list, "automata")
    clock_names: list[str] = []
    for ai, adoc in enumerate(adocs):
        for c in _strings(_typed(adoc, dict, f"automata[{ai}]").get("clocks", []), f"automata[{ai}].clocks"):
            if c not in clock_names:
                clock_names.append(c)

    automata = []
    for ai, adoc in enumerate(adocs):
        path = f"automata[{ai}]"
        name = adoc.get("name")
        if not name:
            raise ModelFormatError(f"{path}: missing automaton name")
        _typed(name, str, f"{path}.name")
        loc_names = []
        invariants = []
        urgent = set()
        for li, ldoc in enumerate(_typed(adoc.get("locations", []), list, f"{path}.locations")):
            lpath = f"{path}.locations[{li}]"
            loc_names.append(_typed(_typed(ldoc, dict, lpath).get("name"), str, f"{lpath}.name"))
            invariants.append(
                tuple(
                    parse_atom(s, clock_names, lpath)
                    for s in _typed(ldoc.get("invariant", []), list, f"{lpath}.invariant")
                )
            )
            if _typed(ldoc.get("urgent", False), bool, f"{lpath}.urgent"):
                urgent.add(li)
        if adoc.get("initial") not in loc_names:
            raise ModelFormatError(f"{path}: initial location {adoc.get('initial')!r} not found")
        transitions = []
        for ti, tdoc in enumerate(_typed(adoc.get("transitions", []), list, f"{path}.transitions")):
            tpath = f"{path}.transitions[{ti}]"
            _typed(tdoc, dict, tpath)
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
            for cname in _typed(tdoc.get("resets", []), list, f"{tpath}.resets"):
                if cname not in clock_names:
                    raise ModelFormatError(f"{tpath}: reset of unknown clock {cname!r}")
                resets.append(clock_names.index(cname))
            transitions.append(
                Transition(
                    source=loc_names.index(tdoc["source"]),
                    target=loc_names.index(tdoc["target"]),
                    guard=tuple(
                        parse_atom(s, clock_names, tpath) for s in _typed(tdoc.get("guard", []), list, f"{tpath}.guard")
                    ),
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
    prop = parse_property(_typed(doc["property"], str, "property"), network)
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
                        "invariant": [a.text(network.clock_names) for a in auto.invariants[li]],
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
                        "guard": [a.text(network.clock_names) for a in t.guard],
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


def serialize_trace(stt: SymbolicTimedTrace, network: TimedAutomatonNetwork) -> str:
    payload = {
        "steps": [
            {"fired": [{"automaton": network.automata[ai].name, "transitionIndex": ti} for ai, ti in step]}
            for step in stt.steps
        ],
        "initialLocations": {a.name: a.location_names[li] for a, li in zip(network.automata, stt.locations[0])},
        "finalLocations": {a.name: a.location_names[li] for a, li in zip(network.automata, stt.locations[-1])},
    }
    return json.dumps(payload, indent=2) + "\n"


def serialize_witness(labels: tuple[str, ...]) -> str:
    """A witness word of an admissibility check, as a label-only document."""
    return json.dumps({"labels": list(labels)}, indent=2) + "\n"


def parse_trace(text: str, network: TimedAutomatonNetwork) -> SymbolicTimedTrace:
    """The trace of a step document, replayed from the initial locations.

    A step's optional ``delay`` is validated (a rational, not negative)
    and ignored; a label-only witness document, or any document without
    ``steps``, is no trace of steps and is rejected. The optional
    ``initialLocations`` and ``finalLocations`` map automaton names to the
    location the replay must start and end at; an unknown automaton or
    location, or one the replay is not at, is rejected.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ModelFormatError("top level: expected an object")
    if "labels" in doc:
        raise ModelFormatError("labels: a repair needs a trace of steps, not a label sequence")
    if "steps" not in doc:
        raise ModelFormatError("top level: a trace document needs a 'steps' list")
    steps = []
    locations = [tuple(a.initial for a in network.automata)]
    step_docs = doc["steps"]
    if not isinstance(step_docs, list):
        raise ModelFormatError("steps: expected a list")
    for si, sdoc in enumerate(step_docs):
        path = f"steps[{si}]"
        if not isinstance(sdoc, dict) or not isinstance(sdoc.get("fired"), list):
            raise ModelFormatError(f"{path}: expected an object with a 'fired' list")
        locs = list(locations[-1])
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
        if not is_enabled(network, locations[-1], tuple(fired)):
            raise ModelFormatError(
                f"{path}: fired transitions are not one internal transition"
                " or one matching send/receive pair"
            )
        for ai, ti in fired:
            locs[ai] = network.automata[ai].transitions[ti].target
        if sdoc.get("delay") is not None and parse_rational(sdoc["delay"], path) < 0:
            raise ModelFormatError(f"{path}: negative delay {sdoc['delay']!r}")
        steps.append(tuple(fired))
        locations.append(tuple(locs))
    for key, locvec in (("initialLocations", locations[0]), ("finalLocations", locations[-1])):
        if key not in doc:
            continue
        if not isinstance(doc[key], dict):
            raise ModelFormatError(f"{key}: expected an object")
        for name, location in doc[key].items():
            try:
                ai = network.automaton_index(name)
            except KeyError:
                raise ModelFormatError(f"{key}: unknown automaton {name!r}") from None
            auto = network.automata[ai]
            if location not in auto.location_names:
                raise ModelFormatError(f"{key}: {auto.name} has no location {location!r}")
            reached = auto.location_names[locvec[ai]]
            if reached != location:
                raise ModelFormatError(f"{key}: the trace has {auto.name} at {reached!r}, not {location!r}")
    return SymbolicTimedTrace(tuple(steps), tuple(locations))


# --- repair artifacts -----------------------------------------------------


def write_repaired_model(repaired, prop, kind, out_dir: str | Path, ordinal: int) -> Path:
    """Write the repaired network's model document.

    The filename encodes the repair kind and a caller-assigned ordinal, e.g.
    ``repair_bound_001.json``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"repair_{kind.value}_{ordinal:03d}.json"
    path.write_text(serialize_model(repaired, prop), encoding="utf-8")
    return path


def write_report(results, out_dir: str | Path, model_name: str = "model") -> Path:
    """Write the human-readable summary of one or more repair runs.

    One row per repair: kind, modified constraint anchors, variation values,
    admissibility verdict and, for an inadmissible repair with a witness,
    the witness file ``witness_<kind>_<NNN>.json`` that this writes beside
    the report, NNN being the row's number.
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
        for i, (cand, is_adm, witness) in enumerate(zip(run.candidates, run.admissible, run.witnesses), start=1):
            total += 1
            admissible += 1 if is_adm else 0
            mods = "; ".join(cand.describe_modifications())
            row = f"  [{i:03d}] {mods}  admissible={'yes' if is_adm else 'no'}"
            if not is_adm and witness is not None:
                wpath = out_dir / f"witness_{run.kind.value}_{i:03d}.json"
                wpath.write_text(serialize_witness(witness), encoding="utf-8")
                row += f"  witness={wpath.name}"
            lines.append(row)
        lines.append(f"  termination: {run.reason}")
        lines.append("")
    lines.append(f"summary: {total} repairs, {admissible} admissible")
    path = out_dir / "report.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
