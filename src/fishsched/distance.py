"""Compile-time function distances and the harmonic-average baseline.

The static distance map holds, for every direct call edge, the minimum
count of conditional edges between the caller's entry and the cheapest
call site (the pair weight), and for every function pair the total weight
along the cheapest direct-call path (dff). Unreachable is represented as
None everywhere; no magic large numbers, and accidental arithmetic on an
unreachable value raises instead of silently propagating.
"""

from __future__ import annotations

import gc
import json
import math
from collections import defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

from .graph import (
    InputError,
    ProgramGraph,
    Target,
    bfs_hops,
    check_fields,
    decode_text,
    graph_hash,
    parse_json,
    postorder,
    read_bytes,
    shortest_paths,
)
from .execution import traversed_functions

# A target sitting directly on the execution path would divide by zero in
# the harmonic average; it enters the mean as this value instead.
HARMONIC_ZERO_EPSILON = 0.5


class DistanceMapError(InputError):
    """Corrupt distance-map file or graph/map mismatch."""


@dataclass(frozen=True)
class StaticDistanceMap:
    """Immutable function-pair weights and shortest-path distances.

    weights is the graph's read-only call_weights: every direct call edge
    (caller, callee) to its conditional edge count (None when no call site is
    reachable from the caller entry).
    rows[a] is {b: dff(a, b)} for every b that a reaches, a itself at 0, and
    dff is a read-only {(a, b): d} view of them; query through dff_value.
    """

    built_from: str
    weights: Mapping
    rows: tuple

    @cached_property
    def dff(self) -> Mapping:
        return _PairView(self.rows)

    def dff_value(self, fa: int, fb: int) -> Optional[int]:
        if fa == fb:
            return 0
        return self.dff.get((fa, fb))


class _PairView(Mapping):
    """{(a, b): rows[a][b]}, without a tuple per pair; len is counted once."""

    def __init__(self, rows: tuple) -> None:
        self._rows = rows
        self._len = sum(map(len, rows))

    def __getitem__(self, pair):
        a, b = pair
        if 0 <= a < len(self._rows) and b in self._rows[a]:
            return self._rows[a][b]
        raise KeyError(pair)

    def __iter__(self):
        return ((a, b) for a, row in enumerate(self._rows) for b in row)

    def __len__(self) -> int:
        return self._len


def weight(graph: ProgramGraph, caller: int, callee: int) -> Optional[int]:
    """Conditional-edge count from caller entry to its cheapest call site.

    None when callee is not invoked from any block of caller, or when
    every call site is unreachable from the caller's entry block.
    """
    graph.function(caller)  # raises on unknown id
    graph.function(callee)
    return graph.call_weights.get((caller, callee))


@contextmanager
def _collector_paused():
    """Build and parse allocate about a million containers that all live until
    the call ends; pausing the cyclic collector spares rescanning them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def build_distance_map(graph: ProgramGraph) -> StaticDistanceMap:
    """All-pairs dff over the weighted direct calls: one Dijkstra row per source.

    Sources go in depth-first finishing order, so on the acyclic parts of the
    call graph every callee's row is finished before its callers' rows, and
    a caller's Dijkstra merges those rows instead of walking past them.
    """
    adj = graph.call_adjacency
    rows: list = [None] * graph.n_functions
    for src in postorder(adj, graph.n_functions):
        rows[src] = shortest_paths(adj, [src], rows)
    return StaticDistanceMap(
        built_from=graph_hash(graph), weights=graph.call_weights, rows=tuple(rows)
    )


def harmonic_distance(trace, targets: list[Target], graph: ProgramGraph) -> float:
    """Single-scalar seed-to-target-set distance of the classic baseline.

    Per-target distance is the minimum hop count over uniformly weighted
    direct call-graph edges from any traversed function to the target's
    function. The result is the harmonic mean of the finite per-target
    distances; zero distances enter as HARMONIC_ZERO_EPSILON. Returns
    math.inf when no target is reachable.
    """
    if not targets:
        raise ValueError("harmonic_distance requires at least one target")
    dist = bfs_hops(graph.call_successors, traversed_functions(trace))
    inv_sum = 0.0
    finite = 0
    for t in targets:
        d = dist.get(t.function)
        if d is None:
            continue
        finite += 1
        inv_sum += 1.0 / (d if d > 0 else HARMONIC_ZERO_EPSILON)
    if finite == 0:
        return math.inf
    return finite / inv_sum


# ---------------------------------------------------------------------------
# Persistence: infinite entries are omitted on disk and reconstructed on load
# ---------------------------------------------------------------------------


# The top-level fields of a saved map, all required.
MAP_FIELDS = ("built_from", "weights", "dff")


def _map_chunks(dmap: StaticDistanceMap):
    """The bytes of a saved map: a header, one chunk per dff source row and a
    trailer with the weights. Joined, they are the compact, key-sorted JSON of
    {"built_from", "dff", "weights"} and a newline, each list holding [a, b, d]
    rows in ascending (a, b)."""
    yield f'{{"built_from":{json.dumps(dmap.built_from)},"dff":['.encode()
    for a, row in enumerate(dmap.rows):
        head = f"[{a},"
        pairs = ",".join([f"{head}{b},{row[b]}]" for b in sorted(row)])
        yield (f",{pairs}" if a else pairs).encode()
    weights = ",".join(
        f"[{a},{b},{w}]" for (a, b), w in sorted(dmap.weights.items()) if w is not None
    )
    yield f'],"weights":[{weights}]}}\n'.encode()


def save_distance_map(dmap: StaticDistanceMap, path: str) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_map_chunks(dmap))


@_collector_paused()
def load_distance_map(path: str, graph: ProgramGraph) -> StaticDistanceMap:
    """Load a saved map, rejecting anything save_distance_map cannot write.

    A file byte-equal to what save_distance_map writes for the graph's own
    map is that map, so it is compared chunk by chunk against the built map
    instead of parsed. Any other file is parsed and checked: that raises
    DistanceMapError on an unreadable file, corrupt JSON, a missing or
    unknown field, a map built from another graph, a row that is not three
    integers, a negative distance, an unknown function id, two rows for one
    pair, a weight for a non-call edge, or weights that are not the graph's.
    """
    raw = read_bytes(path, DistanceMapError)
    built = build_distance_map(graph)
    pos = 0
    for chunk in _map_chunks(built):
        if not raw.startswith(chunk, pos):
            break
        pos += len(chunk)
    else:
        if pos == len(raw):
            return built
    del built

    def not_an_integer(number):
        raise DistanceMapError(f"{path}: number {number} is not an integer")

    where = f"{path}: corrupt file"
    text = decode_text(raw, DistanceMapError, where)
    del raw  # so the file is not held twice while it is parsed
    data = parse_json(
        text, DistanceMapError, where,
        parse_float=not_an_integer, parse_constant=not_an_integer,
    )
    del text
    check_fields(data, path, MAP_FIELDS, error=DistanceMapError)
    expected = graph_hash(graph)
    if data["built_from"] != expected:
        raise DistanceMapError(
            f"{path}: built_from hash {str(data['built_from'])[:12]}... does not "
            f"match the supplied graph ({expected[:12]}...)"
        )
    weights = graph.call_weights
    for a, row in enumerate(_rows(path, "weights", data["weights"], graph)):
        for b, w in row.items():
            if (a, b) not in weights:
                raise DistanceMapError(f"{path}: weight for non-call-edge ({a},{b})")
            if w != weights[(a, b)]:
                raise DistanceMapError(
                    f"{path}: weight ({a},{b}) is {w}, the graph's is {weights[(a, b)]}"
                )
    missing = sum(w is not None for w in weights.values()) - len(data["weights"])
    if missing:
        raise DistanceMapError(f"{path}: {missing} of the graph's weights are missing")
    rows = _rows(path, "dff", data["dff"], graph)
    return StaticDistanceMap(built_from=data["built_from"], weights=weights, rows=rows)


def _rows(path: str, name: str, rows, graph: ProgramGraph) -> tuple:
    """{b: d} per function a from [a, b, d] rows: two ids and a distance >= 0.

    Each check is one C-speed pass over a column, so a valid map loads
    nearly as fast as an unchecked one; only a failing map pays for the
    scan that finds the bad row. Floats never get here: the parser rejects
    them.
    """
    if not isinstance(rows, list):
        raise DistanceMapError(f"{path}: field '{name}' is not a list")
    table: defaultdict = defaultdict(dict)
    try:
        # Every element, not the deduplicated ids: True == 1 would hide there.
        ok = set(map(type, chain.from_iterable(rows))) <= {int}
        for a, b, d in rows:
            table[a][b] = d
    except (TypeError, ValueError):  # a row of the wrong length, or a list id
        ok = False
    if not ok:
        bad = next(
            r for r in rows
            if not isinstance(r, list) or len(r) != 3 or {type(x) for x in r} != {int}
        )
        raise DistanceMapError(f"{path}: {name} row {bad!r} is not three integers")
    if sum(map(len, table.values())) != len(rows):
        raise DistanceMapError(f"{path}: {name} has two rows for one function pair")
    if min((min(row.values()) for row in table.values()), default=0) < 0:
        bad = next(r for r in rows if r[2] < 0)
        raise DistanceMapError(f"{path}: {name} row {bad} has a negative distance")
    unknown = set(table).union(*table.values()) - set(range(graph.n_functions))
    if unknown:
        raise DistanceMapError(f"{path}: {name} names unknown function {min(unknown)}")
    return tuple(table[a] for a in range(graph.n_functions))
