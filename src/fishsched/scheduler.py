"""Queue culling for every scheduler and the timeout-driven phase state machine.

A fishfuzz campaign widens first (inter-function exploration favors the
seed closest to each unexplored function that contains targets), then
tests reached code (plain coverage culling), then narrows onto the
least-hit reached targets (exploitation). afl_favor uses only the coverage
cull and harmonic_directed only harmonic_cull. Each cull folds, then
picks: its last step hands the ids it favors to _favor_only, the one
writer of Seed.favor, so favors never leak across phases.

Every cull takes its distance function and its fold state from its
caller, and keeps its per-key best seed in a BestSeeds state: one fold,
over the seeds queued since the last call, the way AFL updates top_rated
once per admitted seed. Every entry is (rank, seed). The two distance
culls rank seeds with _nearest, which holds the distance tie rule;
_closest, its one-function fold over the whole queue, serves the
exploitation fallback.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional

from .execution import Seed
from .graph import ProgramGraph
from .ranking import TargetRanking, UpdateSummary, order_by_hits, reached_untriggered

# Virtual-clock granularity: wall-clock timeouts are expressed in ticks,
# one tick per executed input, at this default scale.
TICKS_PER_VIRTUAL_MINUTE = 100
# Share of the reached, untriggered targets an exploitation pass services.
EXPLOIT_FRACTION = 0.20


class Phase(enum.Enum):
    INTER_EXPLORE = "inter_explore"
    INTRA_EXPLORE = "intra_explore"
    EXPLOIT = "exploit"


@dataclass
class PhaseClock:
    """Timestamps of the last novelty events, updated once per execution."""

    last_new_function: int = 0
    last_new_target_reached: int = 0
    last_new_target_triggered: int = 0

    def update(self, now: int, summary: UpdateSummary) -> None:
        if summary.new_functions > 0:
            self.last_new_function = max(self.last_new_function, now)
        if summary.new_reached > 0:
            self.last_new_target_reached = max(self.last_new_target_reached, now)
        if summary.new_triggered > 0:
            self.last_new_target_triggered = max(self.last_new_target_triggered, now)


@dataclass(frozen=True)
class SchedulerConfig:
    w_function: float = 30 * TICKS_PER_VIRTUAL_MINUTE
    w_reach: float = 10 * TICKS_PER_VIRTUAL_MINUTE
    w_trigger: float = 60 * TICKS_PER_VIRTUAL_MINUTE

    def __post_init__(self) -> None:
        for name in ("w_function", "w_reach", "w_trigger"):
            if type(getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be a number")
            if not getattr(self, name) >= 0:  # NaN fails too; inf never times out
                raise ValueError(f"{name} must be non-negative")


class FunctionExplorationState:
    """Which functions some trace has traversed, and which contain targets."""

    def __init__(self, graph: ProgramGraph) -> None:
        self.has_targets = frozenset(f.id for f in graph.functions if f.targets)
        self.explored: set = set()

    def observe(self, trace) -> int:
        new = trace.functions - self.explored
        self.explored.update(new)
        return len(new)

    def unexplored_target_functions(self) -> list[int]:
        return sorted(self.has_targets - self.explored)


def _favor_only(queue: list[Seed], ids) -> None:
    """The one writer of Seed.favor: favor the seeds whose id is in ids, no other."""
    for s in queue:
        s.favor = s.id in ids


@dataclass
class BestSeeds:
    """Per-key best seed over an append-only queue, folded incrementally.

    best maps a key to (rank, seed); seen counts the queue entries already
    folded. A queued seed never changes and every rank ends in the seed id,
    so the minimum does not depend on the order seeds are folded in.
    """

    best: dict = field(default_factory=dict)
    seen: int = 0

    def fold(self, queue: list[Seed], ranks) -> dict:
        """Fold the seeds queued since the last call, each under the
        (key, rank) pairs ranks(seed) yields; returns best."""
        if len(queue) < self.seen:
            raise ValueError("BestSeeds needs an append-only queue")
        best = self.best
        for s in queue[self.seen:]:
            for k, r in ranks(s):
                cur = best.get(k)
                if cur is None or r < cur[0]:
                    best[k] = (r, s)
        self.seen = len(queue)
        return best


def _nearest(fids, dsf_fn: Callable[[Seed, int], Optional[int]]):
    """Ranks for the distance culls: (fid, (dsf_fn(seed, fid), exec_time, id))
    for each fid in fids the seed has a finite distance to, in fids order.

    Ties on distance go to the faster, then the older seed.
    """

    def ranks(s: Seed):
        for fid in fids:
            d = dsf_fn(s, fid)
            if d is not None:
                yield fid, (d, s.exec_time, s.id)

    return ranks


def _closest(
    queue: list[Seed], fid: int, dsf_fn: Callable[[Seed, int], Optional[int]]
) -> Optional[int]:
    """The id of the seed nearest function fid by dsf_fn(seed, fid).

    The one-function fold of _nearest over the whole queue, for the
    exploitation fallback. None when no seed has a finite distance.
    """
    best = BestSeeds().fold(queue, _nearest((fid,), dsf_fn))
    return best[fid][1].id if best else None


def inter_function_cull(
    queue: list[Seed],
    fstate: FunctionExplorationState,
    state: BestSeeds,
    dsf_fn: Callable[[Seed, int], Optional[int]],
) -> None:
    """Favor the closest seed to each unexplored target function.

    state carries the closest seed per function across calls on one
    growing queue, so dsf_fn runs once per newly queued seed and unexplored
    target function; a fresh BestSeeds() folds the whole queue. Explored
    functions only grow, so each function unexplored now was unexplored
    when every earlier seed was folded, and the pick equals a _closest scan.
    """
    unexplored = fstate.unexplored_target_functions()
    best = state.fold(queue, _nearest(unexplored, dsf_fn))
    _favor_only(queue, {best[f][1].id for f in unexplored if f in best})


def serviced_targets(ranking: TargetRanking) -> list[int]:
    """The targets an exploitation pass services, least-hit first.

    Candidates are the reached targets not yet triggered; only the top
    ceil(EXPLOIT_FRACTION * n) are serviced.
    """
    ordered = order_by_hits(reached_untriggered(ranking), ranking)
    return ordered[: math.ceil(len(ordered) * EXPLOIT_FRACTION)]


def exploitation_cull(
    queue: list[Seed],
    ranking: TargetRanking,
    graph: ProgramGraph,
    state: BestSeeds,
    dsf_fn: Callable[[Seed, int], Optional[int]],
) -> list[int]:
    """Favor the fastest seed for each of the least-hit reached targets.

    A serviced target (see serviced_targets) favors the fastest seed whose
    trace reached it; if no queued seed reaches it, the minimum-distance
    seed is favored so the pass stays total. Returns the serviced targets.
    state carries the fastest reaching seed per target across calls on one
    growing queue.
    """
    reaching = state.fold(
        queue, lambda s: zip(s.trace.targets_reached, repeat((s.exec_time, s.id)))
    )
    serviced = serviced_targets(ranking)
    favored = set()
    for tid in serviced:
        hit = reaching.get(tid)
        if hit is not None:
            favored.add(hit[1].id)
            continue
        # No queued seed reaches tid, so every seed competes on distance.
        favored.add(_closest(queue, graph.target(tid).function, dsf_fn))
    _favor_only(queue, favored)
    return serviced


def harmonic_cull(
    queue: list[Seed], distance_fn: Callable[[Seed], float], state: BestSeeds
) -> None:
    """Favor the seed nearest the target set; ties go to the faster, then older seed.

    state holds the nearest seed of the queue folded so far, so distance_fn
    runs once per seed; a fresh BestSeeds() folds the whole queue.
    """
    nearest = state.fold(
        queue, lambda s: ((None, (distance_fn(s), s.exec_time, s.id)),)
    )
    _favor_only(queue, {nearest[None][1].id} if nearest else set())


def intra_function_cull(queue: list[Seed], state: BestSeeds) -> None:
    """Coverage culling: per covered edge, the smallest-and-fastest seed wins.

    Greedy marking in ascending edge order: a winner claims all of its
    edges and already-claimed edges are skipped. state is AFL's top_rated
    carried across calls on one growing queue.
    """
    top_rated = state.fold(
        queue, lambda s: zip(s.trace.edges, repeat((s.exec_time * s.size, s.id)))
    )
    claimed: set = set()
    winners = set()
    for e in sorted(top_rated):
        if e in claimed:
            continue
        winner = top_rated[e][1]
        winners.add(winner.id)
        claimed.update(winner.trace.edges)
    _favor_only(queue, winners)


def phase_step(
    phase: Phase,
    clock: PhaseClock,
    now: int,
    cfg: SchedulerConfig,
    summary: UpdateSummary,
) -> Phase:
    """Pure transition function of the phase state machine.

    A newly traversed function always moves (or keeps) the campaign in
    inter-function exploration; otherwise each phase falls through to the
    next when its novelty clock times out.
    """
    if summary.new_functions > 0:
        return Phase.INTER_EXPLORE
    if phase is Phase.INTER_EXPLORE:
        if now - clock.last_new_function >= cfg.w_function:
            return Phase.INTRA_EXPLORE
    elif phase is Phase.INTRA_EXPLORE:
        if now - clock.last_new_target_reached >= cfg.w_reach:
            return Phase.EXPLOIT
    elif phase is Phase.EXPLOIT:
        if now - clock.last_new_target_triggered >= cfg.w_trigger:
            return Phase.INTER_EXPLORE
    return phase


def select_next_seed(queue: list[Seed], rng: random.Random) -> Seed:
    """Uniform choice among favored seeds, falling back to the whole queue."""
    if not queue:
        raise ValueError("cannot select from an empty queue")
    favored = [s for s in queue if s.favor]
    if favored:
        rng.random()  # keeps the rng stream of the old skip-unfavored draw
        return rng.choice(favored)
    return rng.choice(queue)
