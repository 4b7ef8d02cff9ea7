"""The per-source rows of the static distance map against networkx, and the
saved bytes of the standard graph's map."""

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched.distance import build_distance_map, load_distance_map, save_distance_map
from fishsched.graph import graph_from_dict, shortest_paths
from fishsched.simulator import STANDARD_SPEC, generate_program, standard_graph
from oracles import oracle_map_bytes, oracle_weights, random_graph_dict

nx = pytest.importorskip("networkx")

# SHA-256 of save_distance_map(build_distance_map(standard_graph())).
STANDARD_MAP_SHA256 = "5883fb365bf5ea4f4afab0627bab3ce6edf9491b3454e41ebbb9618cb836bd7b"


def networkx_dff(graph) -> dict:
    """{(a, b): d} by networkx Dijkstra over the direct calls of finite weight,
    the weights taken from the Bellman-Ford block oracle."""
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.n_functions))
    for (a, b), w in oracle_weights(graph).items():
        if w is not None:
            g.add_edge(a, b, weight=w)
    return {
        (a, b): d
        for a, lengths in nx.all_pairs_dijkstra_path_length(g)
        for b, d in lengths.items()
    }


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_dff_rows_match_networkx(rng):
    graph = graph_from_dict(random_graph_dict(rng, max_functions=12))
    dmap = build_distance_map(graph)
    expected = networkx_dff(graph)
    assert dict(dmap.dff) == expected
    assert len(dmap.dff) == len(expected)

    n = graph.n_functions
    for a, b in [(n, 0), (0, n), (-1, 0), (n + 5, n)]:
        assert dmap.dff_value(a, b) is None
        assert (a, b) not in dmap.dff
    assert dmap.dff_value(n, n) == 0

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.map")
        save_distance_map(dmap, path)
        loaded = load_distance_map(path, graph)
    assert loaded.dff == dmap.dff
    assert loaded == dmap


def test_standard_map_bytes_are_pinned(tmp_path):
    path = tmp_path / "standard.map"
    save_distance_map(build_distance_map(standard_graph()), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STANDARD_MAP_SHA256


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    edge_rate=st.sampled_from([0.0, 0.5, 1.6, 4.0]),
    max_blocks=st.sampled_from([1, 8]),
    dead_call=st.booleans(),
)
def test_saved_map_is_one_canonical_json_document(rng, edge_rate, max_blocks, dead_call):
    # No calls at edge rate 0, and only zero-weight calls with one block each.
    data = random_graph_dict(rng, max_functions=30, max_blocks=max_blocks,
                             edge_rate=edge_rate)
    if dead_call:  # a call from a block the entry cannot reach has no weight
        blocks = data["functions"][0]["blocks"]
        blocks.append({"id": len(blocks), "succ": [], "calls": [0]})
    graph = graph_from_dict(data)
    dmap = build_distance_map(graph)
    assert (None in dmap.weights.values()) is dead_call
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.map"
        save_distance_map(dmap, str(path))
        assert path.read_bytes() == oracle_map_bytes(dmap)


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), edge_rate=st.floats(0.5, 4.0))
def test_rows_reusing_finished_rows_equal_one_dijkstra_per_source(rng, edge_rate):
    # Dense call cycles and zero-weight calls: callers share cycles with the
    # rows they merge, and a merged row can tie an expanded path.
    graph = graph_from_dict(
        random_graph_dict(rng, max_functions=60, edge_rate=edge_rate)
    )
    rows = build_distance_map(graph).rows
    adj = graph.call_adjacency
    assert list(rows) == [shortest_paths(adj, [s]) for s in range(graph.n_functions)]


def test_a_generated_1000_function_map_matches_networkx():
    graph = generate_program(dataclasses.replace(STANDARD_SPEC, n_functions=1000))
    dmap = build_distance_map(graph)
    assert dict(dmap.dff) == networkx_dff(graph)
