"""Deterministic campaign simulation over synthetic programs.

Everything here is a pure function of explicit rng state: generating a
program, mutating a seed into a child trace, and running a whole campaign
replay bit-identically from (graph, config). The execution model honors
hidden indirect edges, so statically disconnected code is reachable the
way it would be at runtime.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

from .distance import build_distance_map, harmonic_distance
from .execution import ExecutionTrace, Seed, dsf
from .graph import (
    ENTRY_FUNCTION,
    BasicBlock,
    Function,
    IndirectEdge,
    InputError,
    ProgramGraph,
    Target,
    bfs_hops,
    canonical_json,
    check_fields,
    decode_text,
    graph_hash,
    parse_json,
)
# Not called here; perfbench/spans.py rebinds order_by_hits and reached_untriggered.
from .ranking import TargetRanking, order_by_hits, reached_untriggered  # noqa: F401
from .scheduler import (
    BestSeeds,
    FunctionExplorationState,
    Phase,
    PhaseClock,
    SchedulerConfig,
    exploitation_cull,
    harmonic_cull,
    inter_function_cull,
    intra_function_cull,
    phase_step,
    select_next_seed,
)

SCHEDULERS = ("fishfuzz", "round_robin", "afl_favor", "harmonic_directed")

# Crossing a direct call edge whose call site is unreachable from the
# caller entry is still possible at runtime; it behaves like a very deep
# conditional chain.
UNREACHABLE_SITE_DIFFICULTY = 8
INITIAL_SEED_SIZE = 64
SIZE_JITTER = (0.9, 1.1)
TRIGGER_PROBABILITY = 0.02
EXEC_TIME_BASE_US = 100
EXEC_TIME_PER_FUNCTION_US = 3
# Chance that a child keeps each of its parent's functions, chance of
# crossing a weight-0 call edge, and the relative spread of exec times.
LOCALITY = 0.85
FRONTIER_ADVANCE = 0.25
EXEC_TIME_JITTER = 0.2


# Upper bounds on a spec, so that no spec that loads asks for unbounded work.
MAX_FUNCTIONS = 100_000
MAX_BLOCKS_PER_FUNCTION = 1_000
MAX_TARGETS_PER_FUNCTION = 100
# Bounds on a spec's totals, so that no spec that loads asks for more calls,
# blocks or targets than MAX_FUNCTIONS functions with the default ranges.
MAX_CALLS = 150_000
MAX_BLOCKS = 800_000
MAX_TARGETS = 300_000


class SpecError(InputError):
    """Malformed or infeasible synthetic-program specification."""


@dataclass(frozen=True)
class SyntheticProgramSpec:
    n_functions: int
    blocks_per_function: tuple[int, int] = (3, 8)
    branch_probability: float = 0.4
    call_density: float = 1.5
    indirect_edge_fraction: float = 0.15
    targets_per_function: tuple[int, int] = (0, 3)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # Every type first, so that the range checks below may assume them.
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in ("blocks_per_function", "targets_per_function"):
                ok = type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)
            elif f.name in ("n_functions", "rng_seed"):
                ok = type(v) is int
            else:
                ok = type(v) is int or type(v) is float and math.isfinite(v)
            if not ok:
                raise SpecError(f"field '{f.name}' has the wrong type: {v!r}")
        n = self.n_functions
        if not 1 <= n <= MAX_FUNCTIONS:
            raise SpecError(f"n_functions must be in [1, {MAX_FUNCTIONS}]")
        lo, hi = self.blocks_per_function
        if not 1 <= lo <= hi <= MAX_BLOCKS_PER_FUNCTION:
            raise SpecError(
                "blocks_per_function range must satisfy "
                f"1 <= lo <= hi <= {MAX_BLOCKS_PER_FUNCTION}"
            )
        tlo, thi = self.targets_per_function
        if not 0 <= tlo <= thi <= MAX_TARGETS_PER_FUNCTION:
            raise SpecError(
                "targets_per_function range must satisfy "
                f"0 <= lo <= hi <= {MAX_TARGETS_PER_FUNCTION}"
            )
        for name in ("branch_probability", "indirect_edge_fraction"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise SpecError(f"{name} must be in [0, 1]")
        if self.call_density < 0:
            raise SpecError("call_density must be non-negative")
        # More than n - 1 calls per function would ask for more distinct
        # caller/callee pairs than exist.
        if n >= 2 and self.call_density > n - 1:
            raise SpecError(f"call_density must be at most n_functions - 1 = {n - 1}")
        for total, bound, name in (
            (n * self.call_density, MAX_CALLS, "n_functions * call_density"),
            (n * hi, MAX_BLOCKS, "n_functions * blocks_per_function[1]"),
            (n * thi, MAX_TARGETS, "n_functions * targets_per_function[1]"),
        ):
            if total > bound:
                raise SpecError(f"{name} must be at most {bound}")


def target_hardness(target_id: int) -> float:
    """Stable per-target trigger-difficulty multiplier in [0.25, 1)."""
    h = (target_id * 2654435761) % (2**32)
    return 0.25 + 0.75 * (h / 2**32)


# ---------------------------------------------------------------------------
# Synthetic program generation
# ---------------------------------------------------------------------------


def generate_program(spec: SyntheticProgramSpec) -> ProgramGraph:
    """Deterministic synthetic program; indirect edges are hidden statically.

    The union of direct and indirect call edges always connects every
    function from the entry; when the indirect fraction is positive and the
    graph has room, at least one function is reachable only indirectly.
    """
    rng = random.Random(spec.rng_seed)
    n = spec.n_functions
    lo, hi = spec.blocks_per_function

    succs: list[list[tuple]] = []  # function -> block -> sorted successor ids
    for _ in range(n):
        nb = rng.randint(lo, hi)
        succ: list[set] = [set() for _ in range(nb)]
        for j in range(1, nb):
            succ[rng.randrange(j)].add(j)
        for b in range(nb):
            if nb > 1 and rng.random() < spec.branch_probability:
                dst = rng.randrange(nb)
                if dst != b:
                    succ[b].add(dst)
        succs.append([tuple(sorted(s)) for s in succ])

    edge_set = {(rng.randrange(j), j) for j in range(1, n)}
    extra = max(0, round(spec.call_density * n) - len(edge_set))
    attempts = 0
    while extra > 0 and attempts < 50 * (extra + 1) and n > 1:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in edge_set:
            continue
        edge_set.add((u, v))
        extra -= 1

    edges = sorted(edge_set)
    n_indirect = round(spec.indirect_edge_fraction * len(edges))
    indirect = set(rng.sample(edges, n_indirect)) if n_indirect else set()
    direct = [e for e in edges if e not in indirect]

    if spec.indirect_edge_fraction > 0 and n >= 2:
        if _reached_from_entry(edges) == _reached_from_entry(direct):
            victim = rng.choice(range(1, n))
            moved = [e for e in direct if e[1] == victim]
            indirect.update(moved)
            direct = [e for e in direct if e[1] != victim]

    calls: list[list[list[int]]] = [[[] for _ in succ] for succ in succs]
    for u, v in direct:
        calls[u][rng.randrange(len(calls[u]))].append(v)
    indirect_edges = tuple(sorted(
        IndirectEdge(u, rng.randrange(len(calls[u])), v) for u, v in sorted(indirect)
    ))

    tlo, thi = spec.targets_per_function
    tids = itertools.count()
    functions = []
    for fid, (succ, fcalls) in enumerate(zip(succs, calls)):
        blocks = tuple(map(BasicBlock, itertools.count(), succ, map(tuple, fcalls)))
        targets = tuple(
            Target(next(tids), fid, rng.randrange(len(succ)))
            for _ in range(rng.randint(tlo, thi))
        )
        functions.append(Function(fid, f"fn{fid}", 0, blocks, targets))
    return ProgramGraph(tuple(functions), indirect_edges)


def _reached_from_entry(edges) -> set:
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    return set(bfs_hops(adj, [ENTRY_FUNCTION]))


# ---------------------------------------------------------------------------
# Execution model
# ---------------------------------------------------------------------------


def execute_mutation(parent, graph: ProgramGraph, rng: random.Random) -> ExecutionTrace:
    """Derive a child trace from a parent seed (or from scratch when None).

    Retained parent functions seed a stochastic walk over ground-truth call
    edges; crossing an edge succeeds with probability
    FRONTIER_ADVANCE ** (1 + difficulty), so deeper conditional structure
    decays the advance geometrically. The difficulty is the call's pair
    weight, UNREACHABLE_SITE_DIFFICULTY when no call site is reachable and
    none for a hidden indirect edge. Block-level paths inside traversed
    functions decide reached targets and covered edges; the trace names
    each edge by its id in graph.edge_table.
    """
    successors, calls = graph.ground_truth_successors, graph.call_steps
    functions, block_steps = graph.functions, graph.block_steps
    parent_funcs = sorted(parent.trace.functions) if parent is not None else []
    retained = {ENTRY_FUNCTION}
    retained.update(
        f for f in parent_funcs if f != ENTRY_FUNCTION and rng.random() < LOCALITY
    )

    # Keep only what execution can actually flow into from the entry.
    funcs = set(bfs_hops(successors, [ENTRY_FUNCTION], allowed=retained))

    # The work list grows while it is walked, in FIFO order.
    work = sorted(funcs)
    for u in work:
        for v, w, _ in calls[u]:
            if v in funcs:
                continue
            difficulty = UNREACHABLE_SITE_DIFFICULTY if w is None else w
            if rng.random() < FRONTIER_ADVANCE ** (1 + difficulty):
                funcs.add(v)
                work.append(v)

    edges: set = set()
    reached: set = set()
    for fid in sorted(funcs):
        fn, steps = functions[fid], block_steps[fid]
        visited = {fn.entry}
        b = fn.entry
        for _ in range(2 * len(fn.blocks)):
            succ, ids = steps[b]
            if not succ:
                break
            k = rng.randrange(len(succ))
            edges.add(ids[k])
            b = succ[k]
            visited.add(b)
        reached.update(t.id for t in fn.targets if t.block in visited)

    edges.update(e for u in funcs for v, _, e in calls[u] if v in funcs)

    triggered = frozenset(
        tid for tid in sorted(reached)
        if rng.random() < TRIGGER_PROBABILITY * target_hardness(tid)
    )
    return ExecutionTrace(
        functions=frozenset(funcs),
        edges=frozenset(edges),
        targets_reached=frozenset(reached),
        targets_triggered=triggered,
    )


def sample_exec_time(n_functions: int, rng: random.Random) -> int:
    base = EXEC_TIME_BASE_US + EXEC_TIME_PER_FUNCTION_US * n_functions
    noise = rng.uniform(1 - EXEC_TIME_JITTER, 1 + EXEC_TIME_JITTER)
    return max(1, round(base * noise))


def sample_size(parent_size: int, rng: random.Random) -> int:
    return max(1, round(parent_size * rng.uniform(*SIZE_JITTER)))


# ---------------------------------------------------------------------------
# Campaign loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    scheduler: str
    duration: int
    rng_seed: int = 0
    scheduler_config: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of {SCHEDULERS}"
            )
        # A bool or float would run, then write a result its loader rejects.
        for name in ("duration", "rng_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int")
        if not isinstance(self.scheduler_config, SchedulerConfig):
            raise ValueError("scheduler_config must be a SchedulerConfig")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


# Checks of result-file values. A type must match exactly, so a JSON true
# is no integer. Every integer but rng_seed is an id, a tick or a count,
# so it must not be negative.


def _checked(check):
    return field(metadata={"check": check})


def _value_ok(t, v) -> bool:
    return type(v) is t and (t is not int or v >= 0)


def _is(t):
    return _checked(lambda v: _value_ok(t, v))


def _list_of(t):
    return _checked(lambda v: type(v) is list and all(_value_ok(t, x) for x in v))


def _rows(*types):
    """A list of rows, each a list whose items have exactly these types."""
    return _checked(lambda v: type(v) is list and all(
        type(r) is list and len(r) == len(types) and all(map(_value_ok, types, r))
        for r in v
    ))


def _counts(key_ok=lambda k: True):
    """An object with integer values, each key passing key_ok."""
    return _checked(lambda v: type(v) is dict and all(
        key_ok(k) and _value_ok(int, n) for k, n in v.items()
    ))


def _decimal_id(key: str) -> bool:
    try:
        return str(int(key)) == key and int(key) >= 0
    except ValueError:
        return False


# What a phase timeline row may record: the campaign start, each kind of
# novelty, and a phase change without novelty.
TIMELINE_EVENTS = ("start", "new_function", "new_reach", "new_trigger", "timeout")


class Series(Sequence):
    """A campaign's [tick, covered, reached, triggered] rows, flat in one int
    array: 32 bytes a row, where a list of four ints takes about 170."""

    def __init__(self) -> None:
        self.flat = array("q")

    def __len__(self) -> int:
        return len(self.flat) // 4

    def __getitem__(self, i):
        at = range(len(self))[i]  # an index from either end, or a range for a slice
        if isinstance(at, range):
            return [self[j] for j in at]
        return self.flat[4 * at:4 * at + 4].tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class CampaignResult:
    """One campaign's outcome; each field carries the check of its file value."""

    scheduler: str = _is(str)
    rng_seed: int = _checked(lambda v: type(v) is int)  # --seed-base may be negative
    graph_hash: str = _is(str)
    duration: int = _is(int)
    series: Sequence = _rows(int, int, int, int)  # a Series, or a list from a file
    target_hits: dict = _counts(_decimal_id)  # target id -> executions reaching it
    triggered_targets: list = _list_of(int)
    phase_timeline: list = _rows(int, str, str)  # [tick, phase, event]
    queue_stats: dict = _counts()
    final_coverage: int = _is(int)
    final_reached: int = _is(int)
    final_triggered: int = _is(int)

    def to_json_bytes(self) -> bytes:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["series"] = list(self.series)
        data["target_hits"] = {str(k): v for k, v in self.target_hits.items()}
        return canonical_json(data)

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "CampaignResult":
        """Parse a result file; InputError names the first bad or missing field."""
        where = "not a campaign result"
        data = parse_json(decode_text(raw, InputError, where), InputError, where)
        check_fields(data, where, [f.name for f in fields(cls)], error=InputError)
        for f in fields(cls):
            if not f.metadata["check"](data[f.name]):
                raise InputError(
                    f"{where}: field {f.name!r} has the wrong type, shape or sign"
                )
        data["target_hits"] = {int(k): v for k, v in data["target_hits"].items()}
        result = cls(**data)
        fault = result._contradiction()
        if fault is not None:
            raise InputError(f"{where}: {fault}")
        return result

    def _contradiction(self) -> str | None:
        """The first rule tying fields together that this result breaks, or None."""
        if self.scheduler not in SCHEDULERS:
            return f"scheduler {self.scheduler!r} is not one of {list(SCHEDULERS)}"
        start = [0, Phase.INTER_EXPLORE.value, "start"]
        if self.phase_timeline[:1] != [start]:
            return f"phase_timeline does not begin with {start}"
        phases = {p.value for p in Phase}
        previous = 0
        for tick, phase, event in self.phase_timeline:
            if tick < previous:
                return f"phase_timeline tick {tick} comes after tick {previous}"
            if tick > self.duration:
                return f"phase_timeline tick {tick} is past duration {self.duration}"
            if phase not in phases:
                return f"phase_timeline names unknown phase {phase!r}"
            if event not in TIMELINE_EVENTS:
                return f"phase_timeline names unknown event {event!r}"
            previous = tick
        triggered = self.triggered_targets
        if triggered != sorted(set(triggered)):
            return "triggered_targets is not sorted and unique"
        for tid in triggered:
            if self.target_hits.get(tid, 0) == 0:
                return f"triggered target {tid} has no hits in target_hits"
        if len(triggered) != self.final_triggered:
            return (f"triggered_targets lists {len(triggered)} targets, "
                    f"final_triggered says {self.final_triggered}")
        ticks = [row[0] for row in self.series]
        # Counting the rows first keeps a huge duration from costing a huge range.
        if len(ticks) != self.duration or ticks != list(range(1, len(ticks) + 1)):
            return f"series ticks are not 1..{self.duration}"
        for before, after in zip(self.series, self.series[1:]):
            if any(a < b for a, b in zip(after[1:], before[1:])):
                return f"series counts fall at tick {after[0]}"
        finals = [self.final_coverage, self.final_reached, self.final_triggered]
        if self.series and self.series[-1][1:] != finals:
            return f"series ends at {self.series[-1][1:]}, the final counts are {finals}"
        reached = sum(1 for hits in self.target_hits.values() if hits > 0)
        if reached != self.final_reached:
            return (f"target_hits has {reached} targets with hits, "
                    f"final_reached says {self.final_reached}")
        stats = self.queue_stats
        keys = ["executions", "n_favored", "n_seeds"]
        if sorted(stats) != keys:
            return f"queue_stats has keys {sorted(stats)}, not {keys}"
        if not stats["n_favored"] <= stats["n_seeds"] <= stats["executions"]:
            return "queue_stats breaks n_favored <= n_seeds <= executions"
        # The first input runs at tick 0, then one execution per tick.
        if stats["executions"] != self.duration + 1:
            return (f"queue_stats.executions is {stats['executions']}, "
                    f"not duration + 1 = {self.duration + 1}")
        if not re.fullmatch("[0-9a-f]{64}", self.graph_hash):
            return "graph_hash is not 64 lowercase hex digits"
        return None


def check_campaign_graph(graph: ProgramGraph, scheduler: str) -> None:
    """Raise ValueError when no campaign of this scheduler can run on graph."""
    if not graph.functions:  # every execution starts at the entry function
        raise ValueError("a campaign needs a graph with at least one function")
    if scheduler == "harmonic_directed" and not graph.targets():
        raise ValueError("harmonic_directed needs a graph with targets")


def run_campaign(graph: ProgramGraph, config: CampaignConfig) -> CampaignResult:
    """Run one campaign; fully reproducible from (graph, config)."""
    result, _queue = run_campaign_with_queue(graph, config)
    return result


def run_campaign_with_queue(graph: ProgramGraph, config: CampaignConfig):
    """run_campaign plus the final seed queue, for inspection and tests."""
    rng = random.Random(config.rng_seed)
    cfg = config.scheduler_config
    policy = config.scheduler

    check_campaign_graph(graph, policy)
    all_targets = graph.targets()
    dmap = build_distance_map(graph) if policy == "fishfuzz" else None

    ranking = TargetRanking(graph)
    fstate = FunctionExplorationState(graph)
    clock = PhaseClock()
    phase = Phase.INTER_EXPLORE

    queue: list = []
    covered: set = set()
    reached_count = trig_count = 0
    timeline: list = [[0, phase.value, "start"]]
    series = Series()

    def execute(parent, now: int):
        """Run, record and queue one input; the first (parent None) is always queued."""
        nonlocal reached_count, trig_count
        trace = execute_mutation(parent, graph, rng)
        exec_time = sample_exec_time(len(trace.functions), rng)
        size = INITIAL_SEED_SIZE if parent is None else sample_size(parent.size, rng)

        summary = ranking.record_execution(trace, now)
        summary = replace(summary, new_functions=fstate.observe(trace))
        reached_count += summary.new_reached
        trig_count += summary.new_triggered

        new_edges = not (trace.edges <= covered)
        covered.update(trace.edges)
        admitted = parent is None or new_edges or summary.new_reached > 0
        if admitted:
            queue.append(Seed(
                id=len(queue), exec_time=exec_time, size=size, trace=trace,
                parent=None if parent is None else parent.id, created_at=now,
            ))
        return summary, admitted

    dsf_cache: dict = {}

    def cached_dsf(seed: Seed, fid: int):
        key = (seed.id, fid)
        if key not in dsf_cache:
            dsf_cache[key] = dsf(seed, fid, dmap)
        return dsf_cache[key]

    # Best seed per covered edge, per reached target and over the whole
    # queue, grown with the queue.
    intra_state = BestSeeds()
    exploit_state = BestSeeds()
    harmonic_state = BestSeeds()

    def cull() -> None:
        if policy == "fishfuzz":
            if phase is Phase.INTER_EXPLORE:
                inter_function_cull(queue, fstate, dsf_fn=cached_dsf)
            elif phase is Phase.INTRA_EXPLORE:
                intra_function_cull(queue, intra_state)
            else:
                exploitation_cull(queue, ranking, graph, exploit_state, dsf_fn=cached_dsf)
        elif policy == "afl_favor":
            intra_function_cull(queue, intra_state)
        elif policy == "harmonic_directed":
            harmonic_cull(
                queue,
                lambda s: harmonic_distance(s.trace, all_targets, graph),
                harmonic_state,
            )
        # round_robin keeps no favors

    clock.update(0, execute(None, 0)[0])
    cull()

    for now in range(1, config.duration + 1):
        if policy == "round_robin":
            parent = queue[(now - 1) % len(queue)]
        else:
            parent = select_next_seed(queue, rng)
        summary, admitted = execute(parent, now)

        prev = phase
        phase = phase_step(phase, clock, now, cfg, summary)
        # Novelty names its events; a phase change without any is a timeout.
        events = [ev for ev, n in zip(
            ("new_function", "new_reach", "new_trigger"),
            (summary.new_functions, summary.new_reached, summary.new_triggered),
        ) if n] or (["timeout"] if phase is not prev else [])
        timeline.extend([now, phase.value, ev] for ev in events)
        clock.update(now, summary)

        # Hit counts move with every execution, so exploitation reculls
        # after each one to rotate service onto the least-hit targets.
        exploiting = policy == "fishfuzz" and phase is Phase.EXPLOIT
        if events or admitted or exploiting:
            cull()

        series.flat.extend((now, len(covered), reached_count, trig_count))

    result = CampaignResult(
        scheduler=policy,
        rng_seed=config.rng_seed,
        graph_hash=graph_hash(graph),
        duration=config.duration,
        series=series,
        target_hits={t.id: ranking.state(t.id).hits for t in all_targets},
        triggered_targets=[
            t.id for t in all_targets if ranking.state(t.id).triggered
        ],
        phase_timeline=timeline,
        queue_stats={
            "n_seeds": len(queue),
            "n_favored": sum(1 for s in queue if s.favor),
            "executions": config.duration + 1,
        },
        final_coverage=len(covered),
        final_reached=reached_count,
        final_triggered=trig_count,
    )
    return result, queue


# ---------------------------------------------------------------------------
# Pinned desk-scale benchmark: one fixed graph, ten fixed campaign seeds
# ---------------------------------------------------------------------------

STANDARD_SPEC = SyntheticProgramSpec(
    n_functions=200,
    blocks_per_function=(3, 8),
    branch_probability=0.4,
    call_density=1.5,
    indirect_edge_fraction=0.15,
    targets_per_function=(0, 3),
    rng_seed=11,
)

STANDARD_SEEDS = tuple(range(1, 11))

# Campaign-scale defaults for the standard benchmark: one virtual minute
# is three ticks, preserving the 30:10:60 timeout ratio while keeping the
# discovery wall inside the campaign window.
STANDARD_TICKS_PER_MINUTE = 3
STANDARD_DURATION = 3000


def standard_scheduler_config() -> SchedulerConfig:
    return SchedulerConfig(
        w_function=30 * STANDARD_TICKS_PER_MINUTE,
        w_reach=10 * STANDARD_TICKS_PER_MINUTE,
        w_trigger=60 * STANDARD_TICKS_PER_MINUTE,
    )


def standard_graph() -> ProgramGraph:
    return generate_program(STANDARD_SPEC)


def standard_config(scheduler: str, seed: int, duration: int = STANDARD_DURATION):
    return CampaignConfig(
        scheduler=scheduler,
        duration=duration,
        rng_seed=seed,
        scheduler_config=standard_scheduler_config(),
    )
