import math
import random
from dataclasses import FrozenInstanceError
from functools import partial

import pytest

from fishsched.distance import build_distance_map
from fishsched.execution import ExecutionTrace, Seed, dsf
from fishsched.graph import graph_from_dict
from fishsched.ranking import TargetRanking, UpdateSummary
from fishsched.scheduler import (
    BestSeeds,
    FunctionExplorationState,
    Phase,
    PhaseClock,
    SchedulerConfig,
    TICKS_PER_VIRTUAL_MINUTE,
    exploitation_cull,
    inter_function_cull,
    intra_function_cull,
    phase_step,
    select_next_seed,
)
from conftest import linear_block


def star_graph(n_leaves, targets_in=()):
    """Entry function calling n leaf functions; targets planted per leaf id."""
    funcs = [
        {"id": 0, "name": "main", "entry": 0,
         "blocks": [linear_block(0, calls=list(range(1, n_leaves + 1)))],
         "targets": []}
    ]
    tid = 0
    for leaf in range(1, n_leaves + 1):
        targets = []
        if leaf in targets_in:
            targets = [{"id": tid, "block": 0}]
            tid += 1
        funcs.append(
            {"id": leaf, "name": f"leaf{leaf}", "entry": 0,
             "blocks": [linear_block(0)], "targets": targets}
        )
    return graph_from_dict({"functions": funcs})


def seed_with(sid, funcs, exec_time=100, size=10, reached=(), edges=()):
    return Seed(
        id=sid, exec_time=exec_time, size=size,
        trace=ExecutionTrace(
            functions=frozenset(funcs),
            edges=frozenset(edges),
            targets_reached=frozenset(reached),
        ),
    )


# ---------------------------------------------------------------------------
# inter-function cull
# ---------------------------------------------------------------------------


def test_inter_cull_no_unexplored_functions_favors_nobody():
    g = star_graph(2, targets_in=(1,))
    dmap = build_distance_map(g)
    fstate = FunctionExplorationState(g)
    fstate.observe(ExecutionTrace(functions=frozenset({0, 1, 2})))
    queue = [seed_with(1, {0}), seed_with(2, {0, 1})]
    for s in queue:
        s.favor = True  # stale flags must be wiped
    inter_function_cull(queue, fstate, BestSeeds(), partial(dsf, dmap=dmap))
    assert all(not s.favor for s in queue)


def test_inter_cull_picks_argmin_distance():
    g = graph_from_dict(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [
                     linear_block(0, succ=[1, 2]),
                     linear_block(1, succ=[3], calls=[1]),
                     linear_block(2, succ=[3]),
                     linear_block(3, calls=[2]),
                 ],
                 "targets": []},
                {"id": 1, "name": "b", "entry": 0,
                 "blocks": [linear_block(0, calls=[2])], "targets": []},
                {"id": 2, "name": "t", "entry": 0,
                 "blocks": [linear_block(0)],
                 "targets": [{"id": 0, "block": 0}]},
            ]
        }
    )
    dmap = build_distance_map(g)
    fstate = FunctionExplorationState(g)
    fstate.observe(ExecutionTrace(functions=frozenset({0})))
    near = seed_with(1, {0, 1})  # dsf to fn2 is dff(1,2) = 0: fn1 calls it at entry
    far = seed_with(2, {0})  # dsf to fn2 is dff(0,2) = 1
    queue = [far, near]
    inter_function_cull(queue, fstate, BestSeeds(), partial(dsf, dmap=dmap))
    assert near.favor and not far.favor


def test_inter_cull_tie_breaks_on_exec_time_then_id():
    g = star_graph(1, targets_in=(1,))
    dmap = build_distance_map(g)
    fstate = FunctionExplorationState(g)
    fstate.observe(ExecutionTrace(functions=frozenset({0})))
    slow = seed_with(1, {0}, exec_time=900)
    fast = seed_with(2, {0}, exec_time=400)
    inter_function_cull([slow, fast], fstate, BestSeeds(), partial(dsf, dmap=dmap))
    assert fast.favor and not slow.favor

    a = seed_with(1, {0}, exec_time=400)
    b = seed_with(2, {0}, exec_time=400)
    inter_function_cull([b, a], fstate, BestSeeds(), partial(dsf, dmap=dmap))
    assert a.favor and not b.favor


def test_inter_cull_one_seed_can_serve_many_functions():
    # 4-function chain where one trace dominates: the same seed is closest
    # to both unexplored target functions and is favored exactly once.
    g = graph_from_dict(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [linear_block(0, calls=[1])], "targets": []},
                {"id": 1, "name": "b", "entry": 0,
                 "blocks": [linear_block(0, calls=[2])], "targets": []},
                {"id": 2, "name": "c", "entry": 0,
                 "blocks": [linear_block(0, calls=[3])],
                 "targets": [{"id": 0, "block": 0}]},
                {"id": 3, "name": "d", "entry": 0,
                 "blocks": [linear_block(0)],
                 "targets": [{"id": 1, "block": 0}]},
            ]
        }
    )
    dmap = build_distance_map(g)
    fstate = FunctionExplorationState(g)
    fstate.observe(ExecutionTrace(functions=frozenset({0})))
    ahead = seed_with(1, {0, 1})
    behind = seed_with(2, {0})
    queue = [behind, ahead]
    inter_function_cull(queue, fstate, BestSeeds(), partial(dsf, dmap=dmap))
    assert ahead.favor and not behind.favor
    assert sum(s.favor for s in queue) == 1


def test_inter_cull_unreachable_function_marks_nobody():
    g = graph_from_dict(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
                {"id": 1, "name": "island", "entry": 0,
                 "blocks": [linear_block(0)],
                 "targets": [{"id": 0, "block": 0}]},
            ]
        }
    )
    dmap = build_distance_map(g)
    fstate = FunctionExplorationState(g)
    fstate.observe(ExecutionTrace(functions=frozenset({0})))
    queue = [seed_with(1, {0})]
    inter_function_cull(queue, fstate, BestSeeds(), partial(dsf, dmap=dmap))
    assert not queue[0].favor


# ---------------------------------------------------------------------------
# exploitation cull
# ---------------------------------------------------------------------------


def ranking_with_hits(graph, hits, triggered=()):
    r = TargetRanking(graph)
    by_fn = {t.id: t.function for t in graph.targets()}
    for tid, n in hits.items():
        for _ in range(n):
            r.record_execution(
                ExecutionTrace(
                    functions=frozenset({by_fn[tid]}),
                    targets_reached=frozenset({tid}),
                ),
                now=1,
            )
    for tid in triggered:
        r.record_execution(
            ExecutionTrace(
                functions=frozenset({by_fn[tid]}),
                targets_reached=frozenset({tid}),
                targets_triggered=frozenset({tid}),
            ),
            now=2,
        )
    return r


def test_exploit_cull_no_reached_targets():
    g = star_graph(3, targets_in=(1, 2, 3))
    r = TargetRanking(g)
    queue = [seed_with(1, {0})]
    queue[0].favor = True
    exploitation_cull(queue, r, BestSeeds())
    assert not queue[0].favor


def test_exploit_cull_services_twenty_percent_least_hit():
    g = star_graph(10, targets_in=tuple(range(1, 11)))
    hits = {tid: 10 + tid for tid in range(10)}
    hits[7] = 1
    hits[3] = 2
    r = ranking_with_hits(g, hits)
    # one seed reaching each target; target t lives in function t+1
    queue = [
        seed_with(sid=tid + 1, funcs={0, tid + 1}, reached={tid})
        for tid in range(10)
    ]
    exploitation_cull(queue, r, BestSeeds())
    favored = sorted(s.id for s in queue if s.favor)
    assert favored == [4, 8]  # seeds reaching the two least-hit targets 7 and 3


def test_exploit_cull_prefers_fastest_reaching_seed():
    g = star_graph(1, targets_in=(1,))
    r = ranking_with_hits(g, {0: 1})
    slow = seed_with(1, {0, 1}, exec_time=900, reached={0})
    fast = seed_with(2, {0, 1}, exec_time=400, reached={0})
    exploitation_cull([slow, fast], r, BestSeeds())
    assert fast.favor and not slow.favor


def test_exploit_cull_raises_for_a_serviced_target_no_seed_reaches():
    g = star_graph(1, targets_in=(1,))
    r = ranking_with_hits(g, {0: 1})
    # target 0 is serviced, but the only queued seed never reached it
    near = seed_with(1, {0})
    near.favor = True
    with pytest.raises(ValueError, match="^no queued seed reaches serviced target 0$"):
        exploitation_cull([near], r, BestSeeds())
    assert near.favor


def test_exploit_cull_drops_triggered_targets():
    g = star_graph(2, targets_in=(1, 2))
    # target 0 triggered and least-hit (2 hits incl. the triggering one) vs 5
    r = ranking_with_hits(g, {0: 1, 1: 5}, triggered=(0,))
    s1 = seed_with(1, {0, 1}, reached={0})
    s2 = seed_with(2, {0, 2}, reached={1})
    exploitation_cull([s1, s2], r, BestSeeds())
    assert not s1.favor and s2.favor


def test_exploit_cull_ceiling_never_starves_single_candidate():
    g = star_graph(1, targets_in=(1,))
    r = ranking_with_hits(g, {0: 3})
    s = seed_with(1, {0, 1}, reached={0})
    exploitation_cull([s], r, BestSeeds())
    assert s.favor


def test_exploit_cull_liveness_rotates_service():
    g = star_graph(2, targets_in=(1, 2))
    s1 = seed_with(1, {0, 1}, reached={0})
    s2 = seed_with(2, {0, 2}, reached={1})
    queue = [s1, s2]
    r = ranking_with_hits(g, {0: 1, 1: 1})

    favored_history = []
    for round_ in range(6):
        exploitation_cull(queue, r, BestSeeds())
        favored = next(s for s in queue if s.favor)
        favored_history.append(favored.id)
        # hammer the serviced target so the other becomes least-hit
        serviced_target = 0 if favored.id == 1 else 1
        for _ in range(3):
            r.record_execution(
                ExecutionTrace(
                    functions=frozenset({serviced_target + 1}),
                    targets_reached=frozenset({serviced_target}),
                ),
                now=round_,
            )
    assert favored_history[:4] == [1, 2, 1, 2]


# ---------------------------------------------------------------------------
# intra-function cull
# ---------------------------------------------------------------------------


def test_intra_cull_single_seed_favored():
    s = seed_with(1, {0}, edges={("cfg", 0, 0, 1)})
    intra_function_cull([s], BestSeeds())
    assert s.favor


def test_intra_cull_dominated_seed_unfavored():
    e = {("cfg", 0, 0, 1), ("cfg", 0, 1, 2)}
    big = seed_with(1, {0}, exec_time=100, size=100, edges=e)
    small = seed_with(2, {0}, exec_time=50, size=50, edges=e)
    intra_function_cull([big, small], BestSeeds())
    assert small.favor and not big.favor


def test_intra_cull_greedy_combined_winner():
    # hand-simulated greedy pass: the cheap combined seed claims both edges
    e1, e2 = ("cfg", 0, 0, 1), ("cfg", 0, 0, 2)
    a = seed_with(1, {0}, exec_time=100, size=10, edges={e1})
    b = seed_with(2, {0}, exec_time=100, size=10, edges={e2})
    both = seed_with(3, {0}, exec_time=50, size=10, edges={e1, e2})
    queue = [a, b, both]
    intra_function_cull(queue, BestSeeds())
    assert both.favor and not a.favor and not b.favor


def test_intra_cull_two_winners_when_disjoint():
    e1, e2 = ("cfg", 0, 0, 1), ("cfg", 0, 0, 2)
    a = seed_with(1, {0}, exec_time=10, size=10, edges={e1})
    b = seed_with(2, {0}, exec_time=10, size=10, edges={e2})
    intra_function_cull([a, b], BestSeeds())
    assert a.favor and b.favor


# ---------------------------------------------------------------------------
# phase machine
# ---------------------------------------------------------------------------


def mins(n):
    return n * TICKS_PER_VIRTUAL_MINUTE


def test_inter_times_out_to_intra_after_30_minutes():
    cfg = SchedulerConfig()
    clock = PhaseClock(last_new_function=0)
    assert (
        phase_step(Phase.INTER_EXPLORE, clock, mins(31), cfg, UpdateSummary())
        is Phase.INTRA_EXPLORE
    )
    assert (
        phase_step(Phase.INTER_EXPLORE, clock, mins(29), cfg, UpdateSummary())
        is Phase.INTER_EXPLORE
    )


def test_new_function_returns_to_inter_from_any_phase():
    cfg = SchedulerConfig()
    clock = PhaseClock()
    bump = UpdateSummary(new_functions=1)
    for phase in Phase:
        assert phase_step(phase, clock, mins(999), cfg, bump) is Phase.INTER_EXPLORE


def test_intra_stays_when_reach_is_recent():
    cfg = SchedulerConfig()
    clock = PhaseClock(last_new_target_reached=mins(20))
    assert (
        phase_step(Phase.INTRA_EXPLORE, clock, mins(25), cfg, UpdateSummary())
        is Phase.INTRA_EXPLORE
    )
    assert (
        phase_step(Phase.INTRA_EXPLORE, clock, mins(30), cfg, UpdateSummary())
        is Phase.EXPLOIT
    )


def test_exploit_times_out_after_an_hour():
    cfg = SchedulerConfig()
    clock = PhaseClock(last_new_target_triggered=0)
    assert (
        phase_step(Phase.EXPLOIT, clock, mins(59), cfg, UpdateSummary())
        is Phase.EXPLOIT
    )
    assert (
        phase_step(Phase.EXPLOIT, clock, mins(60), cfg, UpdateSummary())
        is Phase.INTER_EXPLORE
    )


def test_degenerate_zero_timeouts_cycle():
    cfg = SchedulerConfig(w_function=0, w_reach=0, w_trigger=0)
    clock = PhaseClock()
    p = Phase.INTER_EXPLORE
    seen = [p]
    for now in range(1, 4):
        p = phase_step(p, clock, now, cfg, UpdateSummary())
        seen.append(p)
    assert seen == [
        Phase.INTER_EXPLORE,
        Phase.INTRA_EXPLORE,
        Phase.EXPLOIT,
        Phase.INTER_EXPLORE,
    ]


def test_infinite_timeouts_never_leave_inter():
    cfg = SchedulerConfig(w_function=math.inf, w_reach=math.inf, w_trigger=math.inf)
    clock = PhaseClock()
    p = Phase.INTER_EXPLORE
    for now in range(1, 100):
        p = phase_step(p, clock, now, cfg, UpdateSummary())
    assert p is Phase.INTER_EXPLORE


def test_phase_step_is_pure_replay():
    rng = random.Random(4)
    cfg = SchedulerConfig(w_function=5, w_reach=3, w_trigger=7)
    log = []
    for now in range(1, 60):
        log.append(
            (
                now,
                UpdateSummary(
                    new_functions=int(rng.random() < 0.1),
                    new_reached=int(rng.random() < 0.1),
                    new_triggered=int(rng.random() < 0.05),
                ),
            )
        )

    def replay():
        clock = PhaseClock()
        p = Phase.INTER_EXPLORE
        timeline = []
        for now, summary in log:
            p = phase_step(p, clock, now, cfg, summary)
            clock.update(now, summary)
            timeline.append(p)
        return timeline

    assert replay() == replay()


# Each id is the name pytest gave the row before ids were set; the
# list row's was its position in this table.
@pytest.mark.parametrize("name, value, kind", [
    # This ran: a bool as a number.
    pytest.param("w_function", True, "number", id="w_function-True-number"),
    # These raised a bare TypeError from the range check.
    pytest.param("w_function", "30", "number", id="w_function-30-number"),
    pytest.param("w_reach", None, "number", id="w_reach-None-number"),
    pytest.param("w_trigger", [60], "number", id="w_trigger-value3-number"),
])
def test_scheduler_config_checks_each_type_before_its_range(name, value, kind):
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}$"):
        SchedulerConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("w_function", 7.5),
    ("w_reach", float("nan")),
])
def test_scheduler_config_fields_cannot_be_set_after_the_checks(name, value):
    cfg = SchedulerConfig()
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, name, value)
    assert cfg == SchedulerConfig()


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_select_single_favored_always_chosen():
    favored = seed_with(1, {0})
    favored.favor = True
    other = seed_with(2, {0})
    rng = random.Random(0)
    for _ in range(50):
        assert select_next_seed([other, favored], rng) is favored


def test_select_falls_back_to_whole_queue():
    seeds = [seed_with(i, {0}) for i in range(1, 4)]
    rng = random.Random(1)
    picked = {select_next_seed(seeds, rng).id for _ in range(200)}
    assert picked == {1, 2, 3}


def test_select_empty_queue_raises():
    with pytest.raises(ValueError):
        select_next_seed([], random.Random(0))


def test_select_monte_carlo_all_draws_favored():
    seeds = [seed_with(i, {0}) for i in range(1, 11)]
    for s in seeds[:3]:
        s.favor = True
    rng = random.Random(42)
    draws = [select_next_seed(seeds, rng) for _ in range(10_000)]
    assert all(s.favor for s in draws)
    assert {s.id for s in draws} == {1, 2, 3}
