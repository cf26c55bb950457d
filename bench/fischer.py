"""Seeded generator of Fischer's mutual-exclusion protocol as tarepair models.

Follows the protocol as given in Behrmann, David & Larsen, "A Tutorial on
Uppaal" (2004). Process i has one clock ``xi`` and four locations:

    A    --(id == 0)       / xi := 0 -->  req    (req has invariant xi <= a_i)
    req  --(id := i)       / xi := 0 -->  wait
    wait --(id == 0)       / xi := 0 -->  req
    wait --(xi > b_i, id == i)       -->  cs
    cs   --(id := 0)                 -->  A

tarepair has no integer variables, so the shared ``id`` is an automaton whose
location ``vJ`` holds the value J. Processes read and write it through binary
handshakes on per-process channels: ``zeroI`` (test id == 0), ``setI``
(id := i), ``isI`` (test id == i) and ``clearI`` (id := 0).

The property is pairwise mutual exclusion over the ``cs`` locations. The
instance is safe when every wait bound b_i is at least every request bound
a_j, which the constant table below keeps.

The seed draws which process gets which (a, b) pair: a permutation of a
fixed table. Every seed therefore yields an isomorphic network with the
same zone graph size, so the benchmark's work does not depend on the seed,
while the documents (and the shortest traces and witnesses) do.
"""

from __future__ import annotations

import itertools
import json
import random

# (request bound a, wait bound b) per process, before the seeded permutation.
# Every b is at least every a, so the unmutated instance is safe.
CONSTANTS = ((1, 2), (2, 2), (1, 2), (2, 2))


def permutations(n: int) -> list[tuple[int, ...]]:
    """All orders of the first n table rows, in lexicographic order."""
    return list(itertools.permutations(range(n)))


def draw_permutation(n: int, seed: int) -> int:
    """Index into ``permutations(n)`` drawn from the seed."""
    return random.Random(f"fischer-{n}-{seed}").randrange(len(permutations(n)))


def target_process(n: int, perm_index: int) -> int:
    """Automaton index of the process that holds table row 0."""
    return permutations(n)[perm_index].index(0)


def fischer(n: int, perm_index: int) -> str:
    """Model document (JSON text) of Fischer's protocol with n processes."""
    if not 1 <= n <= len(CONSTANTS):
        raise ValueError(f"n must be in 1..{len(CONSTANTS)}")
    order = permutations(n)[perm_index]
    procs = range(1, n + 1)
    automata = []
    for i in procs:
        a, b = CONSTANTS[order[i - 1]]
        x = f"x{i}"
        automata.append(
            {
                "name": f"P{i}",
                "initial": "A",
                "clocks": [x],
                "locations": [
                    {"name": "A", "urgent": False, "invariant": []},
                    {"name": "req", "urgent": False, "invariant": [f"{x} <= {a}"]},
                    {"name": "wait", "urgent": False, "invariant": []},
                    {"name": "cs", "urgent": False, "invariant": []},
                ],
                "transitions": [
                    _edge("A", "req", f"zero{i}!", [], [x]),
                    _edge("req", "wait", f"set{i}!", [], [x]),
                    _edge("wait", "req", f"zero{i}!", [], [x]),
                    _edge("wait", "cs", f"is{i}!", [f"{x} > {b}"], []),
                    _edge("cs", "A", f"clear{i}!", [], []),
                ],
            }
        )
    values = [f"v{j}" for j in range(n + 1)]
    id_edges = []
    for i in procs:
        id_edges.append(_edge("v0", "v0", f"zero{i}?", [], []))
        id_edges.extend(_edge(v, f"v{i}", f"set{i}?", [], []) for v in values)
        id_edges.append(_edge(f"v{i}", f"v{i}", f"is{i}?", [], []))
        id_edges.extend(_edge(v, "v0", f"clear{i}?", [], []) for v in values)
    automata.append(
        {
            "name": "id",
            "initial": "v0",
            "clocks": [],
            "locations": [{"name": v, "urgent": False, "invariant": []} for v in values],
            "transitions": id_edges,
        }
    )
    channels = [f"{c}{i}" for i in procs for c in ("zero", "set", "is", "clear")]
    pairs = [f"(!@P{i}.cs || !@P{j}.cs)" for i, j in itertools.combinations(procs, 2)]
    doc = {"automata": automata, "channels": channels, "property": " && ".join(pairs) or "true"}
    return json.dumps(doc, indent=1) + "\n"


def _edge(source: str, target: str, sync: str, guard: list[str], resets: list[str]) -> dict:
    return {"source": source, "target": target, "sync": sync, "guard": guard, "resets": resets}
