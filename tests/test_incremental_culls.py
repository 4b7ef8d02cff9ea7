"""Culls that carry BestSeeds state across calls favor exactly what a fresh
state favors, at every step of a queue that grows one seed at a
time while the target ranking and the explored functions move underneath it.
"""

from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched import scheduler
from fishsched.distance import build_distance_map, harmonic_distance
from fishsched.execution import ExecutionTrace, Seed, dsf
from fishsched.ranking import TargetRanking
from fishsched.scheduler import (
    BestSeeds,
    FunctionExplorationState,
    _closest,
    exploitation_cull,
    harmonic_cull,
    inter_function_cull,
    intra_function_cull,
)
from fishsched.simulator import SyntheticProgramSpec, generate_program

GRAPH = generate_program(
    SyntheticProgramSpec(n_functions=6, targets_per_function=(1, 2), rng_seed=4)
)
DMAP = build_distance_map(GRAPH)
FUNCTIONS = [f.id for f in GRAPH.functions]
TARGETS = [t.id for t in GRAPH.targets()]
OWNER = {t.id: t.function for t in GRAPH.targets()}


@st.composite
def traces(draw):
    funcs = draw(st.frozensets(st.sampled_from(FUNCTIONS), max_size=4))
    owned = [tid for tid in TARGETS if OWNER[tid] in funcs]
    reached = draw(st.frozensets(st.sampled_from(owned))) if owned else frozenset()
    triggered = frozenset()
    if reached:
        triggered = draw(st.frozensets(st.sampled_from(sorted(reached))))
    edges = draw(st.frozensets(st.integers(0, 11), max_size=5))
    return ExecutionTrace(
        functions=funcs,
        edges=edges,
        targets_reached=reached,
        targets_triggered=triggered,
    )


# One growth step: the seed to queue (few distinct times and sizes, so rank
# ties fall through to the seed id) and executions that only move the
# ranking and the explored functions, which can make a target serviced that
# no queued seed reaches.
steps = st.tuples(
    traces(), st.integers(1, 3), st.integers(1, 3), st.lists(traces(), max_size=2)
)


def _favored(queue) -> list:
    return [s.id for s in queue if s.favor]


def check_growth(steps) -> int:
    """Grow a queue step by step, checking the four culls after every append.

    Returns how many exploitation culls had to fall back to the dsf scan.
    """
    queue: list = []
    ranking = TargetRanking(GRAPH)
    fstate = FunctionExplorationState(GRAPH)
    inter_state, intra_state = BestSeeds(), BestSeeds()
    exploit_state, harmonic_state = BestSeeds(), BestSeeds()
    fallbacks = 0
    for sid, (trace, exec_time, size, ranking_only) in enumerate(steps):
        for t in (trace, *ranking_only):
            ranking.record_execution(t, sid)
            fstate.observe(t)
        queue.append(Seed(id=sid, exec_time=exec_time, size=size, trace=trace))

        unexplored = fstate.unexplored_target_functions()
        looked_up = []

        def counted_dsf(seed, fid):
            looked_up.append((seed.id, fid))
            return dsf(seed, fid, DMAP)

        inter_function_cull(queue, fstate, inter_state, counted_dsf)
        carried = _favored(queue)
        # Only the seed just queued is measured, once per unexplored function.
        assert looked_up == [(sid, fid) for fid in unexplored]
        inter_function_cull(queue, fstate, BestSeeds(), partial(dsf, dmap=DMAP))
        assert carried == _favored(queue)
        closest = set()
        for fid in unexplored:
            near = [(d, s.exec_time, s.id) for s in queue
                    if (d := dsf(s, fid, DMAP)) is not None]
            if near:
                closest.add(min(near)[2])
        assert carried == sorted(closest)
        scanned = {_closest(queue, fid, partial(dsf, dmap=DMAP)) for fid in unexplored}
        assert closest == scanned - {None}

        intra_function_cull(queue, intra_state)
        carried = _favored(queue)
        intra_function_cull(queue, BestSeeds())
        assert carried == _favored(queue)
        assert intra_state.seen == len(queue)

        measured = []

        def harmonic(seed):
            measured.append(seed.id)
            return harmonic_distance(seed.trace, GRAPH.targets(), GRAPH)

        harmonic_cull(queue, harmonic, harmonic_state)
        carried = _favored(queue)
        # Only the seed just queued is measured; the rest is carried.
        assert measured == [sid]
        harmonic_cull(queue, harmonic, BestSeeds())
        assert carried == _favored(queue)
        nearest = min(queue, key=lambda s: (harmonic(s), s.exec_time, s.id))
        assert carried == [nearest.id]

        lookups = []

        def counted(seed, fid):
            lookups.append(fid)
            return dsf(seed, fid, DMAP)

        serviced = exploitation_cull(
            queue, ranking, GRAPH, exploit_state, dsf_fn=counted
        )
        carried = _favored(queue)
        fresh = exploitation_cull(
            queue, ranking, GRAPH, BestSeeds(), partial(dsf, dmap=DMAP)
        )
        assert fresh == serviced
        assert carried == _favored(queue)

        unreached = [
            t for t in serviced if not any(t in s.trace.targets_reached for s in queue)
        ]
        # Only targets no queued seed reaches may cost a dsf lookup.
        assert sorted(set(lookups)) == sorted({OWNER[t] for t in unreached})
        fallbacks += bool(unreached)
    return fallbacks


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, min_size=1, max_size=12), st.sampled_from([0.2, 0.5, 1.0]))
def test_carried_state_favors_what_a_fresh_cull_favors(steps, fraction):
    with patch.object(scheduler, "EXPLOIT_FRACTION", fraction):
        check_growth(steps)


def test_serviced_target_without_a_reaching_seed_uses_the_dsf_scan():
    entry_only = ExecutionTrace(functions=frozenset({0}))
    far = next(tid for tid in TARGETS if OWNER[tid] != 0)
    # Only a ranking-only execution reaches the far target; the queue never does.
    reaches_far = ExecutionTrace(
        functions=frozenset({OWNER[far]}), targets_reached=frozenset({far})
    )
    steps = [(entry_only, 2, 1, [reaches_far]), (entry_only, 1, 2, [])]
    assert check_growth(steps) == 2


def test_fold_rejects_a_queue_shorter_than_seen_and_keeps_its_state():
    queue = [Seed(id=i, exec_time=1, size=1, trace=ExecutionTrace()) for i in range(3)]
    state = BestSeeds()
    best = state.fold(queue, lambda s: ((None, (s.id,)),))
    before = dict(best)
    with pytest.raises(ValueError, match="^BestSeeds needs an append-only queue$"):
        state.fold(queue[:2], lambda s: ((None, (-1,)),))
    assert state.best == before and state.seen == 3
