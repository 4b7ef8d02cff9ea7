import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched import scheduler
from fishsched.execution import ExecutionTrace
from fishsched.graph import graph_from_dict
from fishsched.ranking import (
    TargetRanking,
    energy_series,
    order_by_hits,
    reached_untriggered,
)
from fishsched.scheduler import serviced_targets
from conftest import linear_block
from oracles import oracle_ranking_replay, random_graph_dict


def graph_with_targets(n_targets):
    return graph_from_dict(
        {
            "functions": [
                {"id": 0, "name": "main", "entry": 0,
                 "blocks": [linear_block(0)],
                 "targets": [{"id": t, "block": 0} for t in range(n_targets)]},
            ]
        }
    )


def trace(reached=(), triggered=()):
    return ExecutionTrace(
        functions=frozenset({0}),
        targets_reached=frozenset(reached),
        targets_triggered=frozenset(triggered),
    )


def test_no_targets_no_change():
    r = TargetRanking(graph_with_targets(3))
    s = r.record_execution(trace(), now=1)
    assert (s.new_reached, s.new_triggered) == (0, 0)
    assert all(not r.state(t).reached for t in range(3))


def test_first_reach_sets_state():
    r = TargetRanking(graph_with_targets(3))
    s = r.record_execution(trace(reached=[1]), now=4)
    assert (s.new_reached, s.new_triggered) == (1, 0)
    st = r.state(1)
    assert st.reached and not st.triggered
    assert st.hits == 1
    assert st.first_reached_at == 4


def test_unknown_target_leaves_the_ranking_untouched():
    r = TargetRanking(graph_with_targets(2))
    with pytest.raises(KeyError, match="unknown target id 5"):
        r.record_execution(trace(reached=[0, 1, 9, 5]), now=3)
    for t in range(2):
        st = r.state(t)
        assert (st.hits, st.first_reached_at, st.first_triggered_at) == (0, None, None)


def test_two_traces_reach_then_trigger():
    # replayed by hand: hits 2, reached at t=1, triggered at t=2
    r = TargetRanking(graph_with_targets(1))
    s1 = r.record_execution(trace(reached=[0]), now=1)
    s2 = r.record_execution(trace(reached=[0], triggered=[0]), now=2)
    st = r.state(0)
    assert st.hits == 2
    assert st.reached and st.triggered
    assert st.first_reached_at == 1 and st.first_triggered_at == 2
    assert (s1.new_reached + s2.new_reached, s1.new_triggered + s2.new_triggered) \
        == (1, 1)


def test_unknown_target_in_trace_raises():
    r = TargetRanking(graph_with_targets(1))
    with pytest.raises(KeyError):
        r.record_execution(trace(reached=[9]), now=1)


def test_reached_untriggered_variants():
    r = TargetRanking(graph_with_targets(5))
    assert reached_untriggered(r) == []
    r.record_execution(trace(reached=[2]), now=1)
    assert reached_untriggered(r) == [2]
    r.record_execution(trace(reached=[0, 4], triggered=[4]), now=2)
    # 3 reached of which 1 triggered
    assert reached_untriggered(r) == [0, 2]


def test_order_by_hits_examples():
    r = TargetRanking(graph_with_targets(3))
    for _ in range(5):
        r.record_execution(trace(reached=[0]), now=1)
    r.record_execution(trace(reached=[1]), now=1)
    for _ in range(3):
        r.record_execution(trace(reached=[2]), now=1)
    assert order_by_hits([0, 1, 2], r) == [1, 2, 0]


def test_order_by_hits_tie_breaks_on_id():
    r = TargetRanking(graph_with_targets(4))
    for t in range(4):
        r.record_execution(trace(reached=[t]), now=1)
    assert order_by_hits([3, 1, 2, 0], r) == [0, 1, 2, 3]


def test_order_by_hits_unknown_id():
    r = TargetRanking(graph_with_targets(1))
    with pytest.raises(KeyError):
        order_by_hits([5], r)


def test_order_by_hits_matches_reference_sort():
    rng = random.Random(3)
    r = TargetRanking(graph_with_targets(100))
    hits = {t: rng.randrange(20) for t in range(100)}
    for t, h in hits.items():
        for _ in range(h):
            r.record_execution(trace(reached=[t]), now=1)
    ids = list(range(100))
    rng.shuffle(ids)
    got = order_by_hits(ids, r)
    expected = [t for _, t in sorted((hits[t], t) for t in ids)]
    assert got == expected
    assert sorted(got) == sorted(ids)  # permutation


def test_hits_equal_reaching_executions_exact_replay():
    rng = random.Random(8)
    g = graph_from_dict(random_graph_dict(rng, max_functions=6, target_rate=0.9))
    tids = [t.id for t in g.targets()]
    if not tids:
        return
    r = TargetRanking(g)
    expected = {t: 0 for t in tids}
    by_fn = {t.id: t.function for t in g.targets()}
    for _ in range(50):
        reached = frozenset(t for t in tids if rng.random() < 0.3)
        tr = ExecutionTrace(
            functions=frozenset(by_fn[t] for t in reached) | frozenset({0}),
            targets_reached=reached,
        )
        r.record_execution(tr, now=1)
        for t in reached:
            expected[t] += 1
    for t in tids:
        assert r.state(t).hits == expected[t]
        assert r.state(t).reached == (expected[t] >= 1)


def test_energy_series():
    series = energy_series({0: 0, 1: 2, 2: 0})
    assert series == [(1, 2), (2, 0), (3, 0)]
    assert all(series[i][1] >= series[i + 1][1] for i in range(len(series) - 1))


FRACTIONS = (0.2, 0.5, 1.0)


@st.composite
def sparse_id_replays(draw):
    """A random graph whose target ids are permuted into a sparse range, so
    they are out of function order, and a trace sequence over them with
    triggered within reached and a non-decreasing clock."""
    data = random_graph_dict(
        draw(st.randoms(use_true_random=False)), max_functions=8, target_rate=0.8
    )
    targets = [t for fn in data["functions"] for t in fn["targets"]]
    new_ids = draw(st.lists(
        st.integers(0, 1000), min_size=len(targets), max_size=len(targets), unique=True
    ))
    for target, new_id in zip(targets, new_ids):
        target["id"] = new_id
    steps = []
    now = 0
    for _ in range(draw(st.integers(0, 12))):
        reached = frozenset(t for t in new_ids if draw(st.booleans()))
        triggered = frozenset(t for t in sorted(reached) if draw(st.booleans()))
        now += draw(st.integers(0, 3))
        steps.append((reached, triggered, now))
    return graph_from_dict(data), steps


def facts(ranking, ids):
    states = {t: ranking.state(t) for t in ids}
    return {
        t: (s.reached, s.triggered, s.hits, s.first_reached_at, s.first_triggered_at)
        for t, s in states.items()
    }


@settings(max_examples=200, deadline=None)
@given(sparse_id_replays())
def test_ranking_matches_the_replay_oracle_over_sparse_permuted_ids(case):
    graph, steps = case
    ids = [t.id for t in graph.targets()]
    ranking = TargetRanking(graph)

    def serviced_at(fraction):
        with patch.object(scheduler, "EXPLOIT_FRACTION", fraction):
            return serviced_targets(ranking)

    # No target reached yet: no candidates, so nothing is serviced.
    assert reached_untriggered(ranking) == []
    assert all(serviced_at(f) == [] for f in FRACTIONS)
    for (reached, triggered, now), want in zip(
        steps, oracle_ranking_replay(ids, steps, FRACTIONS)
    ):
        summary = ranking.record_execution(
            ExecutionTrace(
                functions=frozenset({0}),
                targets_reached=reached,
                targets_triggered=triggered,
            ),
            now,
        )
        assert summary.new_functions == 0
        assert (summary.new_reached, summary.new_triggered) == want["summary"]
        assert facts(ranking, ids) == want["facts"]
        assert reached_untriggered(ranking) == want["untriggered"]
        for f in FRACTIONS:
            assert serviced_at(f) == want["serviced"][f]
