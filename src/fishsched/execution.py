"""Seeds, execution traces, and the dynamic seed-to-function distances.

A seed never carries input bytes here: it is its trace plus metadata.
Traces are immutable once recorded; distance queries are pure functions
over immutable inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .graph import ENTRY_FUNCTION, InputError, ProgramGraph

if TYPE_CHECKING:  # distance imports this module
    from .distance import StaticDistanceMap


@dataclass(frozen=True)
class ExecutionTrace:
    """What one execution covered: function ids, edge ids (indexes into its
    graph's edge_table, as execute_mutation records them), and target ids
    reached and triggered. The culls only hash and order edges, so a
    hand-built trace may name them any way it likes."""

    functions: frozenset = frozenset()
    edges: frozenset = frozenset()
    targets_reached: frozenset = frozenset()
    targets_triggered: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not self.targets_triggered <= self.targets_reached:
            raise ValueError("triggered targets must be a subset of reached targets")


@dataclass
class Seed:
    id: int
    exec_time: int  # virtual microseconds
    size: int  # bytes
    trace: ExecutionTrace
    favor: bool = False
    parent: Optional[int] = None
    created_at: int = 0

    def __post_init__(self) -> None:
        if self.exec_time <= 0:
            raise ValueError("exec_time must be positive")
        if self.size <= 0:
            raise ValueError("size must be positive")


def traversed_functions(trace: ExecutionTrace) -> frozenset:
    # Every execution enters the program entry; a trace that recorded
    # nothing (crash at entry) still counts the entry function.
    return trace.functions if trace.functions else frozenset({ENTRY_FUNCTION})


def dsf(seed: Seed, fid: int, dmap: StaticDistanceMap) -> Optional[int]:
    """The one seed-to-function distance: from the functions a seed traverses to fid.

    Zero when the seed already traverses fid, otherwise the minimum static
    distance from any traversed function; None when no traversed function
    reaches fid statically.
    """
    funcs = traversed_functions(seed.trace)
    if fid in funcs:
        return 0
    rows = dmap.rows
    best: Optional[int] = None
    for fs in funcs:
        d = rows[fs].get(fid)
        if d is not None and (best is None or d < best):
            best = d
    return best


def multi_target_distance(
    seed: Seed,
    targets: list[int],
    ranking,
    dmap: StaticDistanceMap,
    graph: ProgramGraph,
) -> dict[int, Optional[int]]:
    """Seed-to-target distance vector; precision independent of set size.

    Returns {target id: distance} in the order of targets. A triggered
    target contributes zero regardless of the seed; an untriggered one is
    the seed's distance to the target's owner function, None when no
    traversed function reaches it statically.
    """
    entries: dict[int, Optional[int]] = {}
    for tid in targets:
        target = graph.target(tid)
        if ranking.state(tid).triggered:
            entries[tid] = 0
        else:
            entries[tid] = dsf(seed, target.function, dmap)
    return entries


# ---------------------------------------------------------------------------
# Trace files: "id; exec_time; size; functions=..; reached=..; triggered=.."
# ---------------------------------------------------------------------------


def parse_decimal(text: str) -> int:
    """A number as trace files and distance queries write it: an optional '-'
    and ASCII digits, with surrounding spaces stripped."""
    digits = text.strip()
    try:
        if re.fullmatch(r"-?[0-9]+", digits):
            return int(digits)
    except ValueError:  # more digits than int() converts
        pass
    raise InputError(f"expected a decimal integer, got {text!r}")


def parse_trace_line(line: str) -> Seed:
    parts = [p.strip() for p in line.strip().split(";")]
    if len(parts) != 6:
        raise ValueError(f"trace line must have 6 fields, got {len(parts)}")
    sid, exec_time, size = (parse_decimal(p) for p in parts[:3])
    fields = {}
    for part in parts[3:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"trace field {part!r} has no '='")
        fields[key] = frozenset(parse_decimal(x) for x in value.split(",") if x != "")
    for key in ("functions", "reached", "triggered"):
        if key not in fields:
            raise ValueError(f"trace line missing '{key}=' field")
    trace = ExecutionTrace(
        functions=fields["functions"],
        targets_reached=fields["reached"],
        targets_triggered=fields["triggered"],
    )
    return Seed(id=sid, exec_time=exec_time, size=size, trace=trace)
