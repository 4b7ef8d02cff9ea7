"""Output checks: campaign invariants, an independent distance reference built
with networkx from the graph file alone, and SHA-256 pins for the default seed.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import networkx as nx

GOLDEN = Path(__file__).with_name("golden.json")
ENTRY_FUNCTION = 0


def campaign_problems(result, ticks: int, graph_sha: str) -> list:
    """Invariants every campaign result must hold, whatever its seed."""
    problems = []
    series = result.series
    if [row[0] for row in series] != list(range(1, ticks + 1)):
        problems.append("series ticks are not 1..duration")
    for prev, row in zip(series, series[1:]):
        if any(b < a for a, b in zip(prev[1:], row[1:])):
            problems.append(f"series decreases at tick {row[0]}")
            break
    final = [result.final_coverage, result.final_reached, result.final_triggered]
    if series and list(series[-1][1:]) != final:
        problems.append("last series row differs from the final_* values")
    # One initial execution, then one per tick at executions_per_tick = 1.
    if result.queue_stats["executions"] != ticks + 1:
        problems.append("executions != duration * executions_per_tick + 1")
    for tid in result.triggered_targets:
        if result.target_hits.get(tid, 0) <= 0:
            problems.append(f"triggered target {tid} has no hits")
    if result.graph_hash != graph_sha:
        problems.append("graph_hash differs from the graph file's SHA-256")
    return problems


def _fmt(value) -> str:
    return "inf" if value is None else str(value)


class Reference:
    """Distances recomputed from the graph file with networkx Dijkstra.

    Pair weight: fewest conditional edges (edges leaving a block with two or
    more successors) from the caller's entry to a block that calls the
    callee. dff: shortest weighted path over the direct calls whose weight
    is finite. Harmonic: hop counts over all direct calls.
    """

    def __init__(self, graph_bytes: bytes) -> None:
        data = json.loads(graph_bytes)
        self.sha = hashlib.sha256(graph_bytes).hexdigest()
        self.n_functions = len(data["functions"])
        self.target_fn = {
            t["id"]: f["id"] for f in data["functions"] for t in f["targets"]
        }
        self.weights = {}
        for f in data["functions"]:
            blocks = nx.DiGraph()
            blocks.add_nodes_from(b["id"] for b in f["blocks"])
            sites: dict = {}
            for b in f["blocks"]:
                cost = 1 if len(b["succ"]) >= 2 else 0
                for s in b["succ"]:
                    blocks.add_edge(b["id"], s, weight=cost)
                for callee in b["calls"]:
                    sites.setdefault(callee, []).append(b["id"])
            depth = nx.single_source_dijkstra_path_length(blocks, f["entry"])
            for callee, where in sites.items():
                reach = [depth[b] for b in where if b in depth]
                self.weights[(f["id"], callee)] = min(reach) if reach else None
        ids = [f["id"] for f in data["functions"]]
        self._weighted = nx.DiGraph()
        self._hops = nx.DiGraph()
        self._weighted.add_nodes_from(ids)
        self._hops.add_nodes_from(ids)
        for (a, b), w in self.weights.items():
            self._hops.add_edge(a, b)
            if w is not None:
                self._weighted.add_edge(a, b, weight=w)
        self._rows: dict = {}

    def dff_row(self, src: int) -> dict:
        if src not in self._rows:
            self._rows[src] = nx.single_source_dijkstra_path_length(self._weighted, src)
        return self._rows[src]

    def dsf(self, funcs, fid: int):
        funcs = funcs or [ENTRY_FUNCTION]
        if fid in funcs:
            return 0
        found = [self.dff_row(f)[fid] for f in funcs if fid in self.dff_row(f)]
        return min(found) if found else None

    def harmonic(self, funcs) -> float:
        hops = nx.multi_source_dijkstra_path_length(self._hops, set(funcs))
        inv_sum, finite = 0.0, 0
        for tid in sorted(self.target_fn):
            d = hops.get(self.target_fn[tid])
            if d is not None:
                finite += 1
                inv_sum += 1.0 / (d if d > 0 else 0.5)
        return finite / inv_sum if finite else math.inf

    # -- checks -------------------------------------------------------------

    def map_problems(self, map_bytes: bytes, sources) -> list:
        """The saved map against the reference: weights, and dff rows of sources."""
        data = json.loads(map_bytes)
        problems = []
        if data["built_from"] != self.sha:
            problems.append("map built_from differs from the graph file's SHA-256")
        saved = {(a, b): w for a, b, w in data["weights"]}
        if saved != {k: w for k, w in self.weights.items() if w is not None}:
            problems.append("map weights differ from the reference pair weights")
        rows: dict = {src: {} for src in sources}
        for a, b, d in data["dff"]:
            if a in rows:
                rows[a][b] = d
        for src in sources:
            if rows[src] != self.dff_row(src):
                problems.append(f"map dff row of function {src} differs from networkx")
        return problems

    def analyze_problems(self, stdout: str, map_bytes: bytes) -> list:
        data = json.loads(map_bytes)
        finite = sum(1 for a, b, _ in data["dff"] if a != b)
        expected = (
            f"functions={self.n_functions} targets={len(self.target_fn)} "
            f"finite_dff_pairs={finite}\n"
        )
        return [] if stdout == expected else [f"analyze printed {stdout!r}"]

    def query_problems(self, tail: list, stdout: str, traces: dict) -> list:
        """A distance query's printed answer against the reference."""
        kind = tail[0]
        if kind == "--dff":
            a, b = int(tail[1]), int(tail[2])
            expected = _fmt(0 if a == b else self.dff_row(a).get(b)) + "\n"
        elif kind == "--dsf":
            funcs = traces[tail[1]][0]
            expected = _fmt(self.dsf(funcs, int(tail[2]))) + "\n"
        elif kind == "--multi":
            funcs, _, triggered = traces[tail[1]]
            lines = []
            for tid in (int(x) for x in tail[2].split(",")):
                d = 0 if tid in triggered else self.dsf(funcs, self.target_fn[tid])
                lines.append(f"{tid} {_fmt(d)}\n")
            expected = "".join(lines)
        else:
            value = self.harmonic(traces[tail[1]][0])
            try:
                got = float(stdout)
            except ValueError:
                return [f"{kind} printed {stdout!r}"]
            same = got == value or math.isclose(got, value, rel_tol=1e-9)
            return [] if same else [f"{kind} printed {got}, reference {value}"]
        return [] if stdout == expected else [f"{kind} printed {stdout!r}, expected {expected!r}"]


def golden_mismatches(workload: str, digests: dict) -> list:
    """Keys whose SHA-256 differs from the pins taken at the default seed."""
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload, {})
    return [k for k in sorted(set(pinned) | set(digests)) if pinned.get(k) != digests.get(k)]
