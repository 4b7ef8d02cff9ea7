"""Dynamic target ranking: first reach and trigger times and hit frequencies.

The ranking is the shared structure between the campaign loop (single
writer) and the cull logic and distance queries (readers). Hits count
executions whose trace reached the target, one increment per execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .execution import ExecutionTrace
from .graph import ProgramGraph


@dataclass
class TargetState:
    hits: int = 0
    first_reached_at: Optional[int] = None
    first_triggered_at: Optional[int] = None

    @property
    def reached(self) -> bool:
        return self.first_reached_at is not None

    @property
    def triggered(self) -> bool:
        return self.first_triggered_at is not None


@dataclass(frozen=True)
class UpdateSummary:
    """Novelty counts from one recorded execution, consumed by the phase clock."""

    new_functions: int = 0
    new_reached: int = 0
    new_triggered: int = 0


class TargetRanking:
    """Per-target dynamic state covering exactly the graph's target set."""

    def __init__(self, graph: ProgramGraph) -> None:
        # graph.targets() is sorted by id, so _states iterates in ascending id.
        self._states = {t.id: TargetState() for t in graph.targets()}

    def state(self, target_id: int) -> TargetState:
        try:
            return self._states[target_id]
        except KeyError:
            raise KeyError(f"unknown target id {target_id}") from None

    def record_execution(self, trace: ExecutionTrace, now: int) -> UpdateSummary:
        """Fold one execution into the ranking; returns the novelty counts.

        A trace naming an unknown target raises before anything is written.
        """
        unknown = trace.targets_reached - self._states.keys()
        if unknown:
            raise KeyError(f"unknown target id {min(unknown)}")
        new_reached = 0
        new_triggered = 0
        for tid in trace.targets_reached:
            st = self._states[tid]
            st.hits += 1
            if not st.reached:
                st.first_reached_at = now
                new_reached += 1
            if tid in trace.targets_triggered and not st.triggered:
                st.first_triggered_at = now
                new_triggered += 1
        return UpdateSummary(new_reached=new_reached, new_triggered=new_triggered)


def reached_untriggered(ranking: TargetRanking) -> list[int]:
    """Reached targets not yet triggered, ascending by id."""
    return [
        tid for tid, st in ranking._states.items() if st.reached and not st.triggered
    ]


def order_by_hits(ids: list[int], ranking: TargetRanking) -> list[int]:
    """Least-hit first; ties broken on the smaller target id."""
    return sorted(ids, key=lambda tid: (ranking.state(tid).hits, tid))


def energy_series(hits_by_target: dict) -> list[tuple[int, int]]:
    """(rank, hits) rows sorted by descending hit frequency."""
    ordered = sorted(hits_by_target.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(rank + 1, hits) for rank, (_, hits) in enumerate(ordered)]
