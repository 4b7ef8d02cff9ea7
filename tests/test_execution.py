import random

import pytest

from fishsched.distance import build_distance_map
from fishsched.execution import (
    ExecutionTrace,
    Seed,
    dsf,
    multi_target_distance,
    parse_trace_line,
)
from fishsched.graph import graph_from_dict
from fishsched.ranking import TargetRanking
from conftest import linear_block
from oracles import oracle_dff, random_graph_dict


def seed_of(*funcs, sid=1, exec_time=100, size=10):
    return Seed(
        id=sid, exec_time=exec_time, size=size,
        trace=ExecutionTrace(functions=frozenset(funcs)),
    )


def test_dsf_zero_when_function_traversed(chain_graph):
    dmap = build_distance_map(chain_graph)
    assert dsf(seed_of(0, 1), 1, dmap) == 0


def test_dsf_min_over_traversed(chain_graph):
    dmap = build_distance_map(chain_graph)
    assert dsf(seed_of(0), 2, dmap) == 3
    assert dsf(seed_of(0, 1), 2, dmap) == 2


def test_dsf_indirect_crossing_uses_landing_function():
    # fa -> fc direct, fc -> fd unresolved indirect, fd -> fe and fd -> ff direct;
    # a trace across the indirect edge measures fe from the landing function fd.
    g = graph_from_dict(
        {
            "functions": [
                {"id": 0, "name": "fa", "entry": 0,
                 "blocks": [linear_block(0, calls=[1])], "targets": []},
                {"id": 1, "name": "fc", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
                {"id": 2, "name": "fd", "entry": 0,
                 "blocks": [
                     linear_block(0, succ=[1, 2]),
                     linear_block(1, calls=[3]),
                     linear_block(2, calls=[4]),
                 ],
                 "targets": []},
                {"id": 3, "name": "fe", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
                {"id": 4, "name": "ff", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
            ],
            "indirect_edges": [{"from_fn": 1, "from_block": 0, "to_fn": 2}],
        }
    )
    dmap = build_distance_map(g)
    s1 = seed_of(0, 1, 2, 4)  # crossed the indirect edge into fd, then hit ff
    assert dmap.dff_value(0, 3) is None
    assert dmap.dff_value(2, 3) == 1
    assert dsf(s1, 3, dmap) == dmap.dff_value(2, 3)


def test_dsf_isolated_component_is_infinite(fig2_graph):
    dmap = build_distance_map(fig2_graph)
    assert dsf(seed_of(6), 5, dmap) is None


def test_dsf_empty_trace_counts_entry_function(chain_graph):
    dmap = build_distance_map(chain_graph)
    s = Seed(id=1, exec_time=10, size=1, trace=ExecutionTrace())
    assert dsf(s, 0, dmap) == 0
    assert dsf(s, 2, dmap) == 3


def test_dsf_unknown_function_is_keyerror_via_graph(chain_graph):
    dmap = build_distance_map(chain_graph)
    # distances to a nonexistent id are simply unreachable at the map level;
    # the graph lookup is where unknown ids fail
    with pytest.raises(KeyError):
        chain_graph.function(99)


# ---------------------------------------------------------------------------
# multi-target distance
# ---------------------------------------------------------------------------


def fresh_ranking(graph):
    return TargetRanking(graph)


def test_all_triggered_gives_zero_vector(chain_graph):
    dmap = build_distance_map(chain_graph)
    ranking = fresh_ranking(chain_graph)
    ranking.record_execution(
        ExecutionTrace(
            functions=frozenset({0, 1, 2}),
            targets_reached=frozenset({0, 1}),
            targets_triggered=frozenset({0, 1}),
        ),
        now=1,
    )
    v = multi_target_distance(seed_of(0), [0, 1], ranking, dmap, chain_graph)
    assert list(v.values()) == [0, 0]


def test_untriggered_target_with_owner_in_trace_is_zero(chain_graph):
    dmap = build_distance_map(chain_graph)
    ranking = fresh_ranking(chain_graph)
    v = multi_target_distance(seed_of(0, 1), [0], ranking, dmap, chain_graph)
    assert v[0] == 0


def test_chain_entries_one_and_three(chain_graph):
    # frozen from the Floyd-Warshall oracle on the 3-node chain
    assert oracle_dff(chain_graph)[(0, 1)] == 1
    assert oracle_dff(chain_graph)[(0, 2)] == 3
    dmap = build_distance_map(chain_graph)
    ranking = fresh_ranking(chain_graph)
    v = multi_target_distance(seed_of(0), [0, 1], ranking, dmap, chain_graph)
    assert list(v.values()) == [1, 3]


def test_vector_order_follows_input(chain_graph):
    dmap = build_distance_map(chain_graph)
    ranking = fresh_ranking(chain_graph)
    v = multi_target_distance(seed_of(0), [1, 0], ranking, dmap, chain_graph)
    assert list(v) == [1, 0]
    assert list(v.values()) == [3, 1]


def test_unknown_target_raises(chain_graph):
    dmap = build_distance_map(chain_graph)
    ranking = fresh_ranking(chain_graph)
    with pytest.raises(KeyError):
        multi_target_distance(seed_of(0), [77], ranking, dmap, chain_graph)


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


def _random_world(rng):
    g = graph_from_dict(random_graph_dict(rng, max_functions=15, target_rate=0.6))
    return g, build_distance_map(g)


def test_dsf_zero_iff_traversed_or_zero_dff():
    rng = random.Random(97)
    for _ in range(60):
        g, dmap = _random_world(rng)
        n = g.n_functions
        funcs = frozenset(
            rng.sample(range(n), rng.randint(1, n))
        )
        s = Seed(id=1, exec_time=9, size=9, trace=ExecutionTrace(functions=funcs))
        for fid in range(n):
            d = dsf(s, fid, dmap)
            zero_dff = any(dmap.dff_value(fs, fid) == 0 for fs in funcs)
            if d == 0:
                assert fid in funcs or zero_dff
            if fid in funcs or zero_dff:
                assert d == 0


def test_dsf_never_increases_as_trace_grows():
    rng = random.Random(13)
    for _ in range(40):
        g, dmap = _random_world(rng)
        n = g.n_functions
        small = set(rng.sample(range(n), rng.randint(1, n)))
        big = small | set(rng.sample(range(n), rng.randint(1, n)))
        s_small = Seed(id=1, exec_time=9, size=9,
                       trace=ExecutionTrace(functions=frozenset(small)))
        s_big = Seed(id=2, exec_time=9, size=9,
                     trace=ExecutionTrace(functions=frozenset(big)))
        for fid in range(n):
            d1 = dsf(s_small, fid, dmap)
            d2 = dsf(s_big, fid, dmap)
            if d1 is not None:
                assert d2 is not None and d2 <= d1


def test_vector_restriction_composes_entry_for_entry():
    rng = random.Random(59)
    checked = 0
    while checked < 25:
        g, dmap = _random_world(rng)
        tids = [t.id for t in g.targets()]
        if len(tids) < 2:
            continue
        checked += 1
        rng.shuffle(tids)
        cut = rng.randint(1, len(tids) - 1)
        a, b = tids[:cut], tids[cut:]
        ranking = TargetRanking(g)
        s = Seed(id=1, exec_time=9, size=9,
                 trace=ExecutionTrace(functions=frozenset({0})))
        v_all = multi_target_distance(s, a + b, ranking, dmap, g)
        v_a = multi_target_distance(s, a, ranking, dmap, g)
        v_b = multi_target_distance(s, b, ranking, dmap, g)
        for tid in a:
            assert v_all[tid] == v_a[tid]
        for tid in b:
            assert v_all[tid] == v_b[tid]


def test_triggering_zeroes_entry_for_every_seed_without_touching_others(chain_graph):
    dmap = build_distance_map(chain_graph)
    ranking = fresh_ranking(chain_graph)
    seeds = [seed_of(0, sid=1), seed_of(0, 1, sid=2)]
    before = {
        s.id: multi_target_distance(s, [0, 1], ranking, dmap, chain_graph)
        for s in seeds
    }
    ranking.record_execution(
        ExecutionTrace(
            functions=frozenset({0, 1}),
            targets_reached=frozenset({0}),
            targets_triggered=frozenset({0}),
        ),
        now=5,
    )
    for s in seeds:
        after = multi_target_distance(s, [0, 1], ranking, dmap, chain_graph)
        assert after[0] == 0
        assert after[1] == before[s.id][1]


# ---------------------------------------------------------------------------
# trace dump
# ---------------------------------------------------------------------------


def test_trace_dump_round_trip():
    s = Seed(
        id=7, exec_time=321, size=44,
        trace=ExecutionTrace(
            functions=frozenset({3, 1, 2}),
            targets_reached=frozenset({5, 9}),
            targets_triggered=frozenset({9}),
        ),
    )
    back = parse_trace_line("7; 321; 44; functions=1,2,3; reached=5,9; triggered=9")
    assert back.id == s.id
    assert back.exec_time == s.exec_time
    assert back.size == s.size
    assert back.trace == s.trace


def test_parse_trace_rejects_malformed():
    with pytest.raises(ValueError):
        parse_trace_line("1; 2; 3")
    with pytest.raises(ValueError):
        parse_trace_line("1; 2; 3; functions=0; reached=0; nope=1")


def test_trace_invariant_triggered_subset():
    with pytest.raises(ValueError):
        ExecutionTrace(
            functions=frozenset({0}),
            targets_reached=frozenset(),
            targets_triggered=frozenset({1}),
        )
