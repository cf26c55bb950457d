"""Per-layer spans recorded from outside the program, by wrapping its functions.

The tarepair modules bind each other's functions with ``from .x import y``,
so wrapping ``tarepair.lra.is_satisfiable`` alone would record nothing: every
caller holds its own reference. ``SITES`` therefore lists, per span, each
module attribute the program actually calls through. ``checker`` calls the
zone layer as ``dbm.<name>``, so the ``tarepair.dbm`` attributes themselves
are the use sites there.

A span's self time is its duration minus the durations of the spans it
called. Spans are aggregated per name (calls, self time and counters) rather
than kept one by one; a pass makes up to about 10^5 zone-layer calls.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# span name -> list of (module, attribute) use sites; "Class.method" patches
# the method on the class, which every caller shares.
SITES: dict[str, list[tuple[str, str]]] = {
    "lra.is_satisfiable": [("maxsmt", "is_satisfiable"), ("encoder", "is_satisfiable"), ("orchestrator", "is_satisfiable")],
    "lra.eliminate": [("maxsmt", "eliminate")],
    "maxsmt.max_sat": [("orchestrator", "max_sat")],
    "maxsmt.hard_check": [("maxsmt", "HardConstraint.check")],
    "maxsmt.check_with_zeros": [("maxsmt", "HardConstraint.check_with_zeros")],
    "maxsmt.repairing_assignments": [("maxsmt", "repairing_assignments"), ("orchestrator", "repairing_assignments")],
    "maxsmt.sample_repair_values": [("maxsmt", "sample_repair_values")],
    "encoder.encode": [("orchestrator", "encode")],
    "encoder.feasible": [("orchestrator", "feasible")],
    "encoder.violating": [("orchestrator", "violating")],
    "variations.vary": [("orchestrator", "vary")],
    "orchestrator.run": [("seeding", "run")],
    "checker.check": [("checker", "check"), ("seeding", "check"), ("orchestrator", "check")],
    "dbm.and_atom": [("dbm", "and_atom")],
    "dbm.extrapolate": [("dbm", "extrapolate")],
    "dbm.up": [("dbm", "up")],
    "dbm.reset_many": [("dbm", "reset_many")],
    "admissibility.check_admissible": [("admissibility", "check_admissible"), ("orchestrator", "check_admissible")],
    "admissibility.build_untimed": [("admissibility", "build_untimed")],
    "admissibility.equivalent": [("admissibility", "equivalent")],
    "seeding.seed": [("seeding", "seed")],
    "seeding.campaign": [("seeding", "campaign")],
    "modelio.parse_model": [("modelio", "parse_model")],
}


def _count_outcome(counts: Counter, name: str, result) -> None:
    """Counters read off a span's return value."""
    if name == "lra.is_satisfiable":
        counts["lra.is_satisfiable.sat"] += bool(result.sat)
    elif name == "lra.eliminate":
        counts["lra.eliminate.atoms_out"] += len(result)
    elif name == "maxsmt.hard_check":
        counts["maxsmt.hard_check.hits"] += bool(result)
    elif name == "variations.vary":
        counts["variations.variables"] += len(result.variables)
    elif name == "orchestrator.run":
        counts["orchestrator.candidates"] += len(result.candidates)
        counts["orchestrator.admissible"] += result.n_admissible
        counts["orchestrator.qe_timeouts"] += result.reason == "qe-timeout"
    elif name == "checker.check":
        counts["checker.states_explored"] += result.states_explored
    elif name == "admissibility.build_untimed":
        counts["admissibility.untimed_states"] += result.n_states
    elif name == "seeding.seed":
        counts["seeding.mutants"] += len(result)
    elif name == "seeding.campaign":
        counts["seeding.timeouts"] += result.total().timeouts


class Tracer:
    """Aggregated spans: per name, calls and self time; plus outcome counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._children = [0.0]  # time spent in child spans, one slot per open span
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        children = self._children
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def span(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = children.pop()
                children[-1] += duration
                calls[name] += 1
                self_s[name] += duration - inner
            _count_outcome(counts, name, result)
            return result

        return span

    def install(self) -> None:
        """Replace every use site in ``SITES`` by a recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in SITES.items():
            for module_name, attr in sites:
                owner = importlib.import_module(f"tarepair.{module_name}")
                if "." in attr:
                    class_name, attr = attr.split(".")
                    owner = getattr(owner, class_name)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Per-span calls and self time, counters, and the derived ratios."""
        out: dict[str, float] = {}
        for name in SITES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for key in (
            "lra.eliminate.atoms_out",
            "variations.variables",
            "orchestrator.candidates",
            "orchestrator.admissible",
            "orchestrator.qe_timeouts",
            "checker.states_explored",
            "admissibility.untimed_states",
            "seeding.mutants",
            "seeding.timeouts",
        ):
            out[key] = self.counts[key]
        out["lra.is_satisfiable.sat_ratio"] = _ratio(self.counts["lra.is_satisfiable.sat"], self.calls["lra.is_satisfiable"])
        out["maxsmt.hard_check.hit_ratio"] = _ratio(self.counts["maxsmt.hard_check.hits"], self.calls["maxsmt.hard_check"])
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
