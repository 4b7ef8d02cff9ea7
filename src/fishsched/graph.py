"""Annotated program graphs: functions, basic blocks, call edges, targets.

A ProgramGraph is the static world the scheduler reasons over. It is
immutable after construction and safe to share read-only between campaigns.
Hidden indirect-call edges (used only by the simulator's execution model)
live in a separate ground-truth field that static analysis never sees.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Optional

# Convention: after loading, function ids are dense 0..N-1 and the function
# with id 0 is the campaign entry point (every execution enters it).
ENTRY_FUNCTION = 0


class InputError(ValueError):
    """Bad input from outside the program: a file, a flag or a variable."""


class GraphError(InputError):
    """Base class for graph file problems."""


class ParseError(GraphError):
    """Malformed graph file (bad JSON, wrong types, unknown fields)."""


class ValidationError(GraphError):
    """Structurally valid file violating a graph invariant."""


@dataclass(frozen=True)
class BasicBlock:
    id: int
    successors: tuple[int, ...]
    calls: tuple[int, ...]

    @property
    def is_conditional(self) -> bool:
        return len(self.successors) >= 2


@dataclass(frozen=True)
class Target:
    id: int
    function: int
    block: int


@dataclass(frozen=True)
class Function:
    id: int
    name: str
    entry: int
    blocks: tuple[BasicBlock, ...]
    targets: tuple[Target, ...]

    @cached_property
    def _block_map(self) -> dict:
        return {b.id: b for b in self.blocks}

    def block(self, block_id: int) -> BasicBlock:
        try:
            return self._block_map[block_id]
        except KeyError:
            raise KeyError(
                f"function {self.id} ({self.name}) has no block {block_id}"
            ) from None

    def has_block(self, block_id: int) -> bool:
        return block_id in self._block_map


@dataclass(frozen=True, order=True)
class IndirectEdge:
    """A call edge known to the simulator but invisible to static analysis."""

    from_fn: int
    from_block: int
    to_fn: int


@dataclass(frozen=True)
class ProgramGraph:
    functions: tuple[Function, ...]
    indirect_edges: tuple[IndirectEdge, ...]  # ascending

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def function(self, fid: int) -> Function:
        # Ids are dense (graph_from_dict remaps them), so fid is an index.
        if 0 <= fid < len(self.functions):
            return self.functions[fid]
        raise KeyError(f"unknown function id {fid}")

    def target(self, tid: int) -> Target:
        try:
            return self._target_map[tid]
        except KeyError:
            raise KeyError(f"unknown target id {tid}") from None

    def targets(self) -> list[Target]:
        return list(self._target_map.values())

    def __getstate__(self) -> dict:
        # Pickle the two fields alone: derived data is rebuilt on first use,
        # and its read-only views (MappingProxyType) do not pickle.
        return {"functions": self.functions, "indirect_edges": self.indirect_edges}

    # Derived data: built on first use, so loading a graph pays nothing for
    # it, and read-only, because every caller shares the one copy.

    @cached_property
    def _target_map(self) -> dict:
        """Target id -> target, in ascending id."""
        found = [t for f in self.functions for t in f.targets]
        return {t.id: t for t in sorted(found, key=lambda t: t.id)}

    @cached_property
    def call_edges(self) -> frozenset:
        """(caller, callee) pairs from direct call sites."""
        return frozenset(
            (f.id, c) for f in self.functions for b in f.blocks for c in b.calls
        )

    @cached_property
    def ground_truth(self) -> frozenset:
        """All caller->callee pairs the execution model may traverse."""
        return self.call_edges | {(e.from_fn, e.to_fn) for e in self.indirect_edges}

    @cached_property
    def call_weights(self) -> MappingProxyType:
        """(caller, callee) -> pair weight, for every direct call edge.

        The weight counts conditional edges from the caller's entry to its
        cheapest call site; None when no call site is reachable.
        """
        out = {}
        for f in self.functions:
            dist = dbb_from(f, f.entry)
            sites: dict[int, list[int]] = {}
            for b in f.blocks:
                for callee in b.calls:
                    sites.setdefault(callee, []).append(b.id)
            for callee, blocks in sites.items():
                reachable = [dist[b] for b in blocks if b in dist]
                out[(f.id, callee)] = min(reachable) if reachable else None
        return MappingProxyType(out)

    @cached_property
    def call_adjacency(self) -> MappingProxyType:
        """Function id -> ((callee, weight), ...), callees ascending, over the
        direct calls whose weight is not None: the graph every dff walks."""
        adj: dict[int, list] = {f.id: [] for f in self.functions}
        for (a, b), w in sorted(self.call_weights.items()):
            if w is not None:
                adj[a].append((b, w))
        return MappingProxyType({a: tuple(vs) for a, vs in adj.items()})

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 of the canonical serialization: what a map is built from."""
        return hashlib.sha256(canonical_bytes(self)).hexdigest()

    @cached_property
    def call_successors(self) -> MappingProxyType:
        """Function id -> sorted callees over the static (direct-call) graph."""
        return _successors(self.functions, self.call_edges)

    @cached_property
    def ground_truth_successors(self) -> MappingProxyType:
        """Function id -> sorted callees over direct and hidden indirect edges."""
        return _successors(self.functions, self.ground_truth)

    # The edge index: a trace records each edge it covers as a dense int id.

    @cached_property
    def edge_table(self) -> tuple:
        """Edge id -> edge, ascending: every ("call", caller, callee) over
        ground_truth, then every ("cfg", fid, block, successor). Sorting ids
        sorts the edges they name."""
        return (*(("call", u, v) for u, v in sorted(self.ground_truth)), *_cfg_edges(self))

    # The step tables execute_mutation walks. They number the edges as
    # edge_table does without keeping it, so a campaign holds only these.

    @cached_property
    def block_steps(self) -> tuple:
        """Function id -> {block id: (successors, their cfg edge ids)}."""
        ids = {e: i for i, e in enumerate(_cfg_edges(self), len(self.ground_truth))}
        return tuple(
            {b.id: (b.successors, tuple(ids["cfg", f.id, b.id, s] for s in b.successors))
             for b in f.blocks}
            for f in self.functions
        )

    @cached_property
    def call_steps(self) -> tuple:
        """Function id -> ((callee, weight, call edge id), ...), callees as in
        ground_truth_successors. The weight is call_weights' (None when no
        call site is reachable), and 0 for a hidden indirect edge."""
        ids = {e: i for i, e in enumerate(sorted(self.ground_truth))}
        weights = self.call_weights
        return tuple(
            tuple((v, weights.get((u, v), 0), ids[u, v]) for v in vs)
            for u, vs in self.ground_truth_successors.items()
        )


def _cfg_edges(graph: ProgramGraph) -> list:
    """Every ("cfg", fid, block, successor) of the graph, ascending."""
    return sorted(
        ("cfg", f.id, b.id, s) for f in graph.functions for b in f.blocks for s in b.successors
    )


def _successors(functions: tuple[Function, ...], pairs) -> MappingProxyType:
    adj: dict[int, list[int]] = {f.id: [] for f in functions}
    for a, b in sorted(pairs):
        adj[a].append(b)
    return MappingProxyType({u: tuple(vs) for u, vs in adj.items()})


# ---------------------------------------------------------------------------
# File format (strict JSON; unknown fields rejected to catch typos)
# ---------------------------------------------------------------------------

_IEDGE_KEYS = ("from_fn", "from_block", "to_fn")


def check_fields(obj, where: str, required, optional=(), error=ParseError) -> None:
    """The record check of every input file: obj must be a JSON object with
    every required field and no others, or error names where it is not."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    unknown = obj.keys() - {*required, *optional}
    if unknown:
        raise error(f"{where}: unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise error(f"{where}: missing field '{key}'")


def _is_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _id(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if not _is_id(value):
        raise ParseError(f"{where}.{key}: expected non-negative integer, got {value!r}")
    return value


def _list_field(obj: dict, key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{where}.{key}: expected list, got {type(value).__name__}")
    return value


def _ids(obj: dict, key: str, where: str) -> tuple[int, ...]:
    """A list field of ids, checked in one pass; only a bad item's location
    is formatted."""
    values = _list_field(obj, key, where)
    for k, value in enumerate(values):
        if not _is_id(value):
            raise ParseError(
                f"{where}.{key}[{k}]: expected non-negative integer, got {value!r}"
            )
    return tuple(values)


def _function(obj: dict, where: str, remap: dict, target_owner: dict) -> Function:
    """One function object, built once with dense ids and checked as it is built.

    target_owner maps every target id seen so far to its function's file id.
    """
    fid = obj["id"]
    dense = remap[fid]
    name = obj["name"]
    if not isinstance(name, str):
        raise ParseError(f"{where}.name: expected string")
    entry = _id(obj, "entry", where)

    blocks = []
    for j, bobj in enumerate(_list_field(obj, "blocks", where)):
        bwhere = f"{where}.blocks[{j}]"
        check_fields(bobj, bwhere, ("id",), ("succ", "calls"))
        bid = _id(bobj, "id", bwhere)
        succ = _ids(bobj, "succ", bwhere)
        callees = _ids(bobj, "calls", bwhere)
        for callee in callees:
            if callee not in remap:
                raise ValidationError(
                    f"function {fid}: block {bid} calls unknown function {callee}"
                )
        if len(set(callees)) != len(callees):
            c = next(c for k, c in enumerate(callees) if c in callees[:k])
            raise ValidationError(
                f"function {fid}: block {bid} lists callee {c} twice"
            )
        calls = tuple(remap[c] for c in callees)
        blocks.append(BasicBlock(id=bid, successors=succ, calls=calls))

    bids = {b.id for b in blocks}
    if len(bids) != len(blocks):
        raise ValidationError(f"function {fid}: duplicate block ids")
    if entry not in bids:
        raise ValidationError(f"function {fid}: entry block {entry} not found")
    for b in blocks:
        if not bids.issuperset(b.successors):
            s = next(s for s in b.successors if s not in bids)
            raise ValidationError(
                f"function {fid}: block {b.id} successor {s} "
                "is not a block of the same function"
            )
        if len(set(b.successors)) != len(b.successors):
            s = next(s for k, s in enumerate(b.successors) if s in b.successors[:k])
            raise ValidationError(
                f"function {fid}: block {b.id} lists successor {s} twice"
            )

    targets = []
    for j, tobj in enumerate(_list_field(obj, "targets", where)):
        twhere = f"{where}.targets[{j}]"
        check_fields(tobj, twhere, ("id", "block"))
        tid, block = _id(tobj, "id", twhere), _id(tobj, "block", twhere)
        if tid in target_owner:
            raise ValidationError(
                f"duplicate target id {tid} (functions {target_owner[tid]} and {fid})"
            )
        target_owner[tid] = fid
        if block not in bids:
            raise ValidationError(
                f"target {tid}: target/block function mismatch "
                f"(block {block} is not in function {fid})"
            )
        targets.append(Target(id=tid, function=dense, block=block))

    return Function(
        id=dense, name=name, entry=entry, blocks=tuple(blocks), targets=tuple(targets)
    )


def graph_from_dict(data) -> ProgramGraph:
    """The graph a file's data describes, checked and built in one pass.

    Function ids are remapped onto 0..N-1 in ascending file-id order;
    diagnostics name ids as the file gives them.
    """
    check_fields(data, "top level", (), ("functions", "indirect_edges"))
    fobjs = data.get("functions")
    if not isinstance(fobjs, list):
        raise ParseError("top level: missing or non-list 'functions'")
    file_ids = []
    for i, obj in enumerate(fobjs):
        where = f"functions[{i}]"
        check_fields(obj, where, ("id", "name", "entry", "blocks"), ("targets",))
        file_ids.append(_id(obj, "id", where))
    remap = {old: new for new, old in enumerate(sorted(set(file_ids)))}
    if len(remap) != len(file_ids):
        raise ValidationError("duplicate function ids")

    functions: list = [None] * len(remap)
    target_owner: dict = {}
    for i, obj in enumerate(fobjs):
        fn = _function(obj, f"functions[{i}]", remap, target_owner)
        functions[fn.id] = fn

    direct = {(f.id, c) for f in functions for b in f.blocks for c in b.calls}
    indirect: dict = {}  # (from_fn, to_fn) -> edge: execution reads only the pair
    for i, eobj in enumerate(_list_field(data, "indirect_edges", "top level")):
        where = f"indirect_edges[{i}]"
        check_fields(eobj, where, _IEDGE_KEYS)
        src, block, dst = (_id(eobj, key, where) for key in _IEDGE_KEYS)
        if src not in remap or dst not in remap:
            raise ValidationError(
                f"indirect edge {src}->{dst} references unknown function"
            )
        if not functions[remap[src]].has_block(block):
            raise ValidationError(
                f"indirect edge from function {src}: block {block} not found"
            )
        pair = (remap[src], remap[dst])
        if pair in direct:
            raise ValidationError(
                f"indirect edge {src}->{dst} duplicates a direct call edge"
            )
        if pair in indirect:
            raise ValidationError(
                f"indirect edge {src}->{dst} from block {block} is listed twice"
            )
        indirect[pair] = IndirectEdge(remap[src], block, remap[dst])

    return ProgramGraph(tuple(functions), tuple(sorted(indirect.values())))


def graph_to_dict(graph: ProgramGraph) -> dict:
    data: dict = {
        "functions": [
            {
                "id": f.id,
                "name": f.name,
                "entry": f.entry,
                "blocks": [
                    {"id": b.id, "succ": list(b.successors), "calls": list(b.calls)}
                    for b in f.blocks
                ],
                "targets": [{"id": t.id, "block": t.block} for t in f.targets],
            }
            for f in graph.functions
        ]
    }
    if graph.indirect_edges:
        data["indirect_edges"] = [
            {"from_fn": e.from_fn, "from_block": e.from_block, "to_fn": e.to_fn}
            for e in graph.indirect_edges
        ]
    return data


def load_program(path: str) -> ProgramGraph:
    """Load and validate a program graph file.

    Raises ParseError with field diagnostics on malformed input and
    ValidationError naming the violated invariant on inconsistent input;
    either message begins with the path.
    """
    data = read_json(path, ParseError)
    try:
        return graph_from_dict(data)
    except GraphError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Input files: every one is read and decoded here
# ---------------------------------------------------------------------------


def read_bytes(path: str, error=InputError) -> bytes:
    """The contents of an input file; any failure to read it raises error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"no such file: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


def decode_text(raw: bytes, error, where: str) -> str:
    """raw as UTF-8 text; error, prefixed with where, if it is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise error(f"{where}: not UTF-8 text") from None


def parse_json(text: str, error, where: str):
    """JSON text as Python values; error, prefixed with where, if it is not."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: line {exc.lineno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # too deep; an integer too long
        raise error(f"{where}: {exc}") from None


def read_json(path: str, error):
    """The UTF-8 JSON file at path.

    The bytes are dropped once decoded, so a large file is never held twice
    while it is parsed.
    """
    return parse_json(decode_text(read_bytes(path, error), error, path), error, path)


def canonical_json(data) -> bytes:
    """Compact, key-sorted JSON plus a newline: the graph and result files.

    A distance map is the same JSON, written part by part by distance.py,
    which reads a map back only as those bytes.

    One-shot json.dumps runs CPython's C encoder; streaming json.dump to a
    file does not.
    """
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def canonical_bytes(graph: ProgramGraph) -> bytes:
    """Canonical serialization used for content hashing and saving."""
    return canonical_json(graph_to_dict(graph))


def graph_hash(graph: ProgramGraph) -> str:
    return graph.content_hash


def save_program(graph: ProgramGraph, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(graph))


# ---------------------------------------------------------------------------
# Block-level distance
# ---------------------------------------------------------------------------


def dbb_from(function: Function, src: int) -> dict[int, int]:
    """Conditional-edge distances from ``src`` to every reachable block.

    An edge counts as conditional iff its source block has two or more
    successors; a conditional edge weighs 1 and any other edge 0.
    """
    if not function.has_block(src):
        raise KeyError(f"function {function.id} has no block {src}")
    adj = {b.id: [(v, int(b.is_conditional)) for v in b.successors]
           for b in function.blocks}
    return shortest_paths(adj, [src])


def dbb(function: Function, src: int, dst: int) -> Optional[int]:
    """Minimum number of conditional edges on any path from src to dst.

    Returns None when dst is unreachable from src.
    """
    if not function.has_block(dst):
        raise KeyError(f"function {function.id} has no block {dst}")
    return dbb_from(function, src).get(dst)


def shortest_paths(adj, sources, rows=None) -> dict[int, int]:
    """Least total weight from any source to every reachable node (Dijkstra).

    ``adj`` maps a node to its (neighbour, weight >= 0) pairs; a missing
    node has none. Sources are at distance 0. The unweighted walk is
    bfs_hops.

    ``rows``, when given, is indexed by node: rows[u] is either None or u's
    finished answer, {x: least weight from u to x}. A settled node u with a
    finished row is not expanded; d + rows[u][x] is merged for each x
    instead. That is exact: a path either stays among expanded nodes or
    first enters some finished u, and rows[u] holds its best continuation.
    """
    dist = {s: 0 for s in sorted(sources)}
    heap = [(0, s) for s in dist]  # sorted, so already a heap
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        row = None if rows is None else rows[u]
        if row is not None:
            for x, dx in row.items():
                nd = d + dx
                if x not in dist or nd < dist[x]:
                    dist[x] = nd
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bfs_hops(successors, sources, allowed=None) -> dict[int, int]:
    """Breadth-first hop counts from a set of source nodes.

    ``successors`` maps a node to its out-neighbours (a missing node has
    none). When ``allowed`` is given, nodes outside it are never entered;
    sources always are. Sources start in ascending order, neighbours are
    visited in the order ``successors`` lists them.
    """
    dist = {s: 0 for s in sorted(sources)}
    dq: deque = deque(dist)
    while dq:
        u = dq.popleft()
        hops = dist[u] + 1
        for v in successors.get(u, ()):
            if v not in dist and (allowed is None or v in allowed):
                dist[v] = hops
                dq.append(v)
    return dist


def postorder(adj, n: int) -> list[int]:
    """Nodes 0..n-1 in depth-first finishing order over ``adj``.

    ``adj`` is shortest_paths' (neighbour, weight) table; weights are
    ignored. Roots are tried in ascending order and neighbours in the order
    ``adj`` lists them. On an acyclic graph each node comes after every node
    it reaches. An explicit stack, so a long call chain cannot overflow.
    """
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(adj.get(root, ())))]
        while stack:
            u, edges = stack[-1]
            for v, _ in edges:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(adj.get(v, ()))))
                    break
            else:
                stack.pop()
                order.append(u)
    return order
