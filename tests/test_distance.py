import math
import random

import pytest

from fishsched.distance import (
    DistanceMapError,
    build_distance_map,
    harmonic_distance,
    load_distance_map,
    save_distance_map,
    weight,
)
from fishsched.execution import ExecutionTrace, dsf
from fishsched.graph import ENTRY_FUNCTION, graph_from_dict, shortest_paths
from fishsched.simulator import run_campaign_with_queue, standard_config, standard_graph
from conftest import linear_block, make_graph
from oracles import (
    all_path_conditional_cost,
    oracle_dff,
    oracle_reachable_pairs,
    oracle_weights,
    random_graph_dict,
)


def trace_of(*funcs):
    return ExecutionTrace(functions=frozenset(funcs))


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------


def test_weight_call_from_entry_block_is_zero(fig2_graph):
    assert weight(fig2_graph, 0, 1) == 0


def test_weight_no_call_is_infinite(fig2_graph):
    assert weight(fig2_graph, 1, 2) is None


def test_weight_diamond_join_is_one(diamond_graph):
    # frozen from the path-enumeration oracle on the 4-block diamond
    assert all_path_conditional_cost(diamond_graph.function(0), 0, 3) == 1
    assert weight(diamond_graph, 0, 1) == 1


def test_weight_multiple_call_sites_takes_minimum():
    g = make_graph(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [
                     linear_block(0, succ=[1, 2], calls=[1]),
                     linear_block(1, calls=[1]),
                     linear_block(2),
                 ],
                 "targets": []},
                {"id": 1, "name": "b", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
            ]
        }
    )
    assert weight(g, 0, 1) == 0  # entry call site dominates the deeper one


def test_weight_unknown_function_raises(fig2_graph):
    with pytest.raises(KeyError):
        weight(fig2_graph, 0, 99)


# ---------------------------------------------------------------------------
# build_distance_map
# ---------------------------------------------------------------------------


def test_dff_self_distance_zero(chain_graph):
    dmap = build_distance_map(chain_graph)
    for f in chain_graph.functions:
        assert dmap.dff_value(f.id, f.id) == 0


def test_dff_chain_sums_weights(chain_graph):
    # oracle: Floyd-Warshall over oracle weights on this 3-node chain
    assert oracle_weights(chain_graph)[(0, 1)] == 1
    assert oracle_weights(chain_graph)[(1, 2)] == 2
    assert oracle_dff(chain_graph)[(0, 2)] == 3

    dmap = build_distance_map(chain_graph)
    assert dmap.weights[(0, 1)] == 1
    assert dmap.weights[(1, 2)] == 2
    assert dmap.dff_value(0, 2) == 3


def test_indirect_only_connection_is_statically_infinite():
    g = graph_from_dict(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
                {"id": 1, "name": "b", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
            ],
            "indirect_edges": [{"from_fn": 0, "from_block": 0, "to_fn": 1}],
        }
    )
    dmap = build_distance_map(g)
    assert dmap.dff_value(0, 1) is None


def test_dff_oracle_equivalence_triangle_and_reachability():
    rng = random.Random(41)
    for _ in range(30):
        g = graph_from_dict(random_graph_dict(rng, max_functions=20))
        dmap = build_distance_map(g)
        expected = oracle_dff(g)
        got = dict(dmap.dff)
        assert got == expected

        reachable = oracle_reachable_pairs(g)
        n = g.n_functions
        for a in range(n):
            for b in range(n):
                assert ((a, b) in got) == ((a, b) in reachable)

        ids = list(range(n))
        for _ in range(40):
            fa, fb, fc = rng.choice(ids), rng.choice(ids), rng.choice(ids)
            dab = dmap.dff_value(fa, fb)
            dac = dmap.dff_value(fa, fc)
            dcb = dmap.dff_value(fc, fb)
            if dac is not None and dcb is not None:
                assert dab is not None and dab <= dac + dcb


# ---------------------------------------------------------------------------
# harmonic baseline
# ---------------------------------------------------------------------------


def test_harmonic_fig2_values(fig2_graph):
    targets = fig2_graph.targets()
    s1 = trace_of(0, 2, 4)
    s2 = trace_of(0, 1)
    assert harmonic_distance(s1, targets, fig2_graph) == pytest.approx(1.8, abs=1e-9)
    assert harmonic_distance(s2, targets, fig2_graph) == pytest.approx(2.25, abs=1e-9)


def test_harmonic_fig2_ranks_s1_before_s2(fig2_graph):
    # regression anchor: the baseline's bias toward the single close target
    targets = fig2_graph.targets()
    d1 = harmonic_distance(trace_of(0, 2, 4), targets, fig2_graph)
    d2 = harmonic_distance(trace_of(0, 1), targets, fig2_graph)
    assert d1 < d2


def test_harmonic_single_target_is_its_distance(fig2_graph):
    t1 = fig2_graph.target(0)  # lives in function 6
    assert harmonic_distance(trace_of(0, 2, 4), [t1], fig2_graph) == pytest.approx(1.0)
    assert harmonic_distance(trace_of(0, 1), [t1], fig2_graph) == pytest.approx(3.0)


def test_harmonic_all_unreachable_is_infinite(fig2_graph):
    targets = fig2_graph.targets()
    assert harmonic_distance(trace_of(5), [targets[2]], fig2_graph) != math.inf
    assert harmonic_distance(trace_of(6), [targets[1]], fig2_graph) == math.inf


def test_harmonic_requires_targets(fig2_graph):
    with pytest.raises(ValueError):
        harmonic_distance(trace_of(0), [], fig2_graph)


def test_harmonic_zero_distance_uses_epsilon(fig2_graph):
    # target function on the path: distance 0 enters as 0.5
    t1 = fig2_graph.target(0)
    assert harmonic_distance(trace_of(6), [t1], fig2_graph) == pytest.approx(0.5)


def test_harmonic_counts_the_entry_of_an_empty_trace(fig2_graph):
    # A trace that recorded no function still entered the program, as dsf
    # counts it: it measures like a trace of the entry function alone.
    targets = fig2_graph.targets()
    empty = harmonic_distance(trace_of(), targets, fig2_graph)
    assert empty == harmonic_distance(trace_of(ENTRY_FUNCTION), targets, fig2_graph)
    assert empty != math.inf


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, chain_graph):
    dmap = build_distance_map(chain_graph)
    path = tmp_path / "chain.map"
    save_distance_map(dmap, str(path))
    loaded = load_distance_map(str(path), chain_graph)
    assert loaded.built_from == dmap.built_from
    assert loaded.dff == dmap.dff
    assert loaded.weights == dmap.weights


def test_load_against_other_graph_rejected(tmp_path, chain_graph, fig2_graph):
    dmap = build_distance_map(chain_graph)
    path = tmp_path / "chain.map"
    save_distance_map(dmap, str(path))
    with pytest.raises(DistanceMapError, match="does not match"):
        load_distance_map(str(path), fig2_graph)


def test_empty_graph_round_trips(tmp_path):
    g = graph_from_dict({"functions": []})
    dmap = build_distance_map(g)
    path = tmp_path / "empty.map"
    save_distance_map(dmap, str(path))
    loaded = load_distance_map(str(path), g)
    assert loaded.dff == {}
    assert loaded.weights == {}


def test_corrupt_file_rejected(tmp_path, chain_graph):
    path = tmp_path / "bad.map"
    path.write_text("{not json")
    # Anchored after the file name: the tmp path holds the test's name.
    with pytest.raises(DistanceMapError, match=r"bad\.map: the built_from header differs"):
        load_distance_map(str(path), chain_graph)


def test_infinite_weights_reconstructed_on_load(tmp_path):
    # a call site unreachable from the entry gives the edge an infinite weight
    g = make_graph(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [linear_block(0), linear_block(1, calls=[1])],
                 "targets": []},
                {"id": 1, "name": "b", "entry": 0,
                 "blocks": [linear_block(0)], "targets": []},
            ]
        }
    )
    dmap = build_distance_map(g)
    assert dmap.weights[(0, 1)] is None
    path = tmp_path / "inf.map"
    save_distance_map(dmap, str(path))
    loaded = load_distance_map(str(path), g)
    assert loaded.weights == {(0, 1): None}


# ---------------------------------------------------------------------------
# shortest_paths from a seed's functions is dsf over the all-pairs map
# ---------------------------------------------------------------------------


def test_shortest_paths_from_traversed_functions_is_dsf():
    graph = standard_graph()
    _result, queue = run_campaign_with_queue(graph, standard_config("fishfuzz", 1, 300))
    dmap = build_distance_map(graph)
    adj: dict = {}
    for (a, b), w in graph.call_weights.items():
        if w is not None:
            adj.setdefault(a, []).append((b, w))
    assert len(queue) > 10
    for seed in queue:
        dist = shortest_paths(adj, seed.trace.functions)
        for f in graph.functions:
            assert dist.get(f.id) == dsf(seed, f.id, dmap), (seed.id, f.id)
