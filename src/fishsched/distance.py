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
import math
import re
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .graph import (
    InputError,
    ProgramGraph,
    Target,
    bfs_hops,
    graph_hash,
    postorder,
    read_bytes,
    shortest_paths,
)
from .execution import traversed_functions

# A target sitting directly on the execution path would divide by zero in
# the harmonic average; it enters the mean as this value instead.
HARMONIC_ZERO_EPSILON = 0.5


class DistanceMapError(InputError):
    """A distance-map file that is not the bytes analyze writes for the graph."""


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
    """A build allocates about a million containers that all live until the
    call ends; pausing the cyclic collector spares rescanning them."""
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
# Persistence: a map is loaded only as the bytes analyze writes for its graph
# ---------------------------------------------------------------------------


# What a loaded map must be, byte for byte.
_ANALYZED = "the map analyze writes for this graph"


def _header(built_from: str) -> bytes:
    return f'{{"built_from":"{built_from}","dff":['.encode()


def _map_parts(dmap: StaticDistanceMap):
    """The saved map, part by part: (name, bytes) for the built_from header,
    each dff source row, the end of the dff list and the weight list. Joined,
    the bytes are the compact, key-sorted JSON of {"built_from", "dff",
    "weights"} and a newline, each list holding [a, b, d] rows in ascending
    (a, b); unreachable pairs and uncallable edges have no row."""
    yield "the built_from header", _header(dmap.built_from)
    for a, row in enumerate(dmap.rows):
        head = f"[{a},"
        pairs = ",".join([f"{head}{b},{row[b]}]" for b in sorted(row)])
        yield f"the dff row of function {a}", (f",{pairs}" if a else pairs).encode()
    yield "the end of the dff list", b"]"
    weights = ",".join(
        f"[{a},{b},{w}]" for (a, b), w in sorted(dmap.weights.items()) if w is not None
    )
    yield "the weight list", f',"weights":[{weights}]}}\n'.encode()


def save_distance_map(dmap: StaticDistanceMap, path: str) -> None:
    with open(path, "wb") as fh:
        fh.writelines(chunk for _part, chunk in _map_parts(dmap))


def load_distance_map(path: str, graph: ProgramGraph) -> StaticDistanceMap:
    """The graph's map, if path holds exactly the bytes analyze writes for it.

    A map is a pure function of its graph, so it is never parsed: the file is
    compared part by part against the graph's own map, which is returned.
    Anything else raises DistanceMapError naming the first part that differs,
    or where the map and the file end when the file goes on. A map of another
    graph is rejected by its header, before the graph's map is built.
    """
    raw = read_bytes(path, DistanceMapError)

    def differs(part: str) -> DistanceMapError:
        return DistanceMapError(f"{path}: {part} differs from {_ANALYZED}")

    expected = graph_hash(graph)
    if not raw.startswith(_header(expected)):
        other = re.match(rb'\{"built_from":"([0-9a-f]{64})"', raw)
        if other and other[1].decode() != expected:
            raise DistanceMapError(
                f"{path}: built_from hash {other[1][:12].decode()}... does not "
                f"match the supplied graph ({expected[:12]}...)"
            )
        raise differs("the built_from header")
    built = build_distance_map(graph)
    pos = 0
    for part, chunk in _map_parts(built):
        if not raw.startswith(chunk, pos):
            raise differs(part)
        pos += len(chunk)
    if pos != len(raw):
        raise DistanceMapError(
            f"{path}: {_ANALYZED} ends at byte {pos}, the file at byte {len(raw)}"
        )
    return built
