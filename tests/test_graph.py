import copy
import itertools
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched.graph import (
    ParseError,
    ValidationError,
    canonical_bytes,
    dbb,
    graph_from_dict,
    graph_hash,
    load_program,
    postorder,
    save_program,
    shortest_paths,
)
from fishsched.simulator import run_campaign, standard_config, standard_graph
from conftest import linear_block, make_graph
from oracles import all_path_conditional_cost, oracle_dbb, random_graph_dict


def test_minimal_file(tmp_path):
    path = tmp_path / "min.graph"
    path.write_text(
        json.dumps(
            {
                "functions": [
                    {"id": 0, "name": "main", "entry": 0,
                     "blocks": [{"id": 0, "succ": [], "calls": []}], "targets": []}
                ]
            }
        )
    )
    g = load_program(str(path))
    assert g.n_functions == 1
    assert g.call_edges == frozenset()
    assert g.targets() == []


def test_target_block_mismatch_rejected():
    data = {
        "functions": [
            {"id": 0, "name": "a", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": []}],
             "targets": [{"id": 0, "block": 7}]},
        ]
    }
    with pytest.raises(ValidationError, match="target/block function mismatch"):
        graph_from_dict(data)


def test_fig2_fixture_shape(fig2_graph):
    assert fig2_graph.n_functions == 7
    assert len(fig2_graph.targets()) == 3
    assert (4, 6) in fig2_graph.call_edges  # the edge that puts s1 one hop from t1


def test_unknown_fields_rejected():
    with pytest.raises(ParseError, match="unknown field"):
        graph_from_dict({"functions": [], "extra": 1})
    with pytest.raises(ParseError, match="unknown field"):
        graph_from_dict(
            {"functions": [{"id": 0, "name": "a", "entry": 0, "blocks": [],
                            "typo": 1}]}
        )


def test_successor_in_other_function_rejected():
    data = {
        "functions": [
            {"id": 0, "name": "a", "entry": 0,
             "blocks": [{"id": 0, "succ": [5], "calls": []}], "targets": []},
        ]
    }
    with pytest.raises(ValidationError, match="successor"):
        graph_from_dict(data)


def test_duplicate_target_ids_rejected():
    data = {
        "functions": [
            {"id": 0, "name": "a", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": []}],
             "targets": [{"id": 3, "block": 0}]},
            {"id": 1, "name": "b", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": []}],
             "targets": [{"id": 3, "block": 0}]},
        ]
    }
    with pytest.raises(ValidationError, match="duplicate target id"):
        graph_from_dict(data)


def test_indirect_edge_duplicating_direct_rejected():
    data = {
        "functions": [
            {"id": 0, "name": "a", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": [1]}], "targets": []},
            {"id": 1, "name": "b", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": []}], "targets": []},
        ],
        "indirect_edges": [{"from_fn": 0, "from_block": 0, "to_fn": 1}],
    }
    with pytest.raises(ValidationError, match="duplicates a direct call edge"):
        graph_from_dict(data)


def test_densify_remaps_sparse_ids():
    data = {
        "functions": [
            {"id": 10, "name": "main", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": [40]}], "targets": []},
            {"id": 40, "name": "leaf", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": []}],
             "targets": [{"id": 0, "block": 0}]},
        ],
        "indirect_edges": [{"from_fn": 40, "from_block": 0, "to_fn": 10}],
    }
    g = graph_from_dict(data)
    assert [f.id for f in g.functions] == [0, 1]
    assert g.call_edges == frozenset({(0, 1)})
    assert g.indirect_edges[0].from_fn == 1 and g.indirect_edges[0].to_fn == 0
    assert g.target(0).function == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_sparse_shuffled_ids_load_as_the_dense_graph(seed, data):
    rng = random.Random(seed)
    dense = random_graph_dict(rng, max_functions=12)
    n = len(dense["functions"])
    direct = {(f["id"], c) for f in dense["functions"]
              for b in f["blocks"] for c in b["calls"]}
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
    dense["indirect_edges"] = [
        {"from_fn": u, "from_block": 0, "to_fn": v}
        for u, v in sorted(pairs - direct) if u != v
    ]
    gaps = data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    file_id = list(itertools.accumulate(gaps))  # strictly increasing
    sparse = copy.deepcopy(dense)
    for f in sparse["functions"]:
        f["id"] = file_id[f["id"]]
        for b in f["blocks"]:
            b["calls"] = [file_id[c] for c in b["calls"]]
    for e in sparse["indirect_edges"]:
        e["from_fn"], e["to_fn"] = file_id[e["from_fn"]], file_id[e["to_fn"]]
    sparse["functions"] = data.draw(st.permutations(sparse["functions"]))
    assert canonical_bytes(graph_from_dict(sparse)) == canonical_bytes(
        graph_from_dict(dense)
    )


@st.composite
def sparse_target_graphs(draw):
    """A random graph whose target ids are permuted into a sparse range, so
    they are out of function order."""
    data = random_graph_dict(
        draw(st.randoms(use_true_random=False)), max_functions=8, target_rate=0.8
    )
    targets = [t for fn in data["functions"] for t in fn["targets"]]
    new_ids = draw(st.lists(
        st.integers(0, 1000), min_size=len(targets), max_size=len(targets), unique=True
    ))
    for target, new_id in zip(targets, new_ids):
        target["id"] = new_id
    return graph_from_dict(data)


def _probe_ids(ids):
    """Every id of ids, the ints just around them, and both bools."""
    return [*range(-3, max(ids, default=0) + 4), True, False]


@settings(max_examples=200, deadline=None)
@given(sparse_target_graphs())
def test_lookups_agree_with_the_records(graph):
    def check(lookup, records, i, message):
        if i in records:
            assert lookup(i) is records[i]
        else:
            with pytest.raises(KeyError) as err:
                lookup(i)
            assert err.value.args == (message,)

    functions = {f.id: f for f in graph.functions}
    for i in _probe_ids(functions):
        check(graph.function, functions, i, f"unknown function id {i}")
    targets = {t.id: t for f in graph.functions for t in f.targets}
    for i in _probe_ids(targets):
        check(graph.target, targets, i, f"unknown target id {i}")
    assert graph.targets() == sorted(targets.values(), key=lambda t: t.id)
    for f in graph.functions:
        blocks = {b.id: b for b in f.blocks}
        for i in _probe_ids(blocks):
            check(f.block, blocks, i, f"function {f.id} ({f.name}) has no block {i}")
            assert f.has_block(i) is (i in blocks)


def _sparse_graph() -> dict:
    """Functions 10 and 40 calling each other; 40 holds target 0."""
    return {
        "functions": [
            {"id": 10, "name": "main", "entry": 0,
             "blocks": [{"id": 0, "succ": [1]}, {"id": 1, "calls": [40]}],
             "targets": []},
            {"id": 40, "name": "leaf", "entry": 0,
             "blocks": [{"id": 0, "succ": [], "calls": []}],
             "targets": [{"id": 0, "block": 0}]},
        ],
        "indirect_edges": [{"from_fn": 40, "from_block": 0, "to_fn": 10}],
    }


# fault name -> (edit that puts the fault into _sparse_graph(), diagnostic)
SPARSE_FAULTS = {
    "foreign successor": (
        lambda d: d["functions"][1]["blocks"][0]["succ"].append(1),
        "function 40: block 0 successor 1 is not a block of the same function",
    ),
    # A repeated successor would make a one-way block count as a branch.
    "repeated successor": (
        lambda d: d["functions"][0]["blocks"][0]["succ"].append(1),
        "function 10: block 0 lists successor 1 twice",
    ),
    "unknown callee": (
        lambda d: d["functions"][0]["blocks"][1]["calls"].append(25),
        "function 10: block 1 calls unknown function 25",
    ),
    # A repeated callee or indirect edge would change graph_hash, not the program.
    "repeated callee": (
        lambda d: d["functions"][0]["blocks"][1]["calls"].append(40),
        "function 10: block 1 lists callee 40 twice",
    ),
    "repeated indirect edge": (
        lambda d: d["indirect_edges"].append(dict(d["indirect_edges"][0])),
        "indirect edge 40->10 from block 0 is listed twice",
    ),
    # Execution reads only the pair, so the same pair from another block
    # would change graph_hash without changing the program.
    "indirect edge repeated from another block": (
        lambda d: (d["functions"][1]["blocks"].append({"id": 1}),
                   d["indirect_edges"].append({"from_fn": 40, "from_block": 1,
                                               "to_fn": 10})),
        "indirect edge 40->10 from block 1 is listed twice",
    ),
    "duplicate target": (
        lambda d: d["functions"][0]["targets"].append({"id": 0, "block": 0}),
        "duplicate target id 0 (functions 10 and 40)",
    ),
    "indirect edge from a missing block": (
        lambda d: d["indirect_edges"][0].update(from_block=7),
        "indirect edge from function 40: block 7 not found",
    ),
    "indirect edge to a missing function": (
        lambda d: d["indirect_edges"][0].update(to_fn=99),
        "indirect edge 40->99 references unknown function",
    ),
}


@pytest.mark.parametrize("case", list(SPARSE_FAULTS))
def test_validation_error_names_the_file_ids(case):
    edit, message = SPARSE_FAULTS[case]
    data = _sparse_graph()
    graph_from_dict(copy.deepcopy(data))  # valid before the edit
    edit(data)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        graph_from_dict(data)


def test_parse_error_has_location():
    with pytest.raises(ParseError, match=r"functions\[0\]\.entry"):
        graph_from_dict(
            {"functions": [{"id": 0, "name": "a", "entry": -1, "blocks": []}]}
        )


# ---------------------------------------------------------------------------
# dbb
# ---------------------------------------------------------------------------


def test_dbb_same_block_is_zero(diamond_graph):
    fn = diamond_graph.function(0)
    assert dbb(fn, 0, 0) == 0


def test_dbb_straight_chain_is_zero():
    g = make_graph(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [linear_block(0, succ=[1]), linear_block(1, succ=[2]),
                            linear_block(2)],
                 "targets": []}
            ]
        }
    )
    assert dbb(g.function(0), 0, 2) == 0


def test_dbb_diamond_is_one(diamond_graph):
    fn = diamond_graph.function(0)
    # expected value frozen from the exhaustive path-enumeration oracle
    assert all_path_conditional_cost(fn, 0, 3) == 1
    assert dbb(fn, 0, 3) == 1


def test_dbb_unknown_block_raises(diamond_graph):
    with pytest.raises(KeyError):
        dbb(diamond_graph.function(0), 0, 99)


def test_dbb_unreachable_is_none():
    g = make_graph(
        {
            "functions": [
                {"id": 0, "name": "a", "entry": 0,
                 "blocks": [linear_block(0), linear_block(1)], "targets": []}
            ]
        }
    )
    assert dbb(g.function(0), 0, 1) is None


def test_dbb_entry_to_entry_zero_for_random_graphs():
    rng = random.Random(11)
    for _ in range(25):
        g = graph_from_dict(random_graph_dict(rng, max_functions=10))
        for f in g.functions:
            assert dbb(f, f.entry, f.entry) == 0


def test_dbb_matches_oracle_and_is_monotone_under_edge_addition():
    rng = random.Random(23)
    for _ in range(40):
        nb = rng.randint(2, 12)
        succ = {b: set() for b in range(nb)}
        for j in range(1, nb):
            succ[rng.randrange(j)].add(j)
        for b in range(nb):
            if rng.random() < 0.4:
                dst = rng.randrange(nb)
                if dst != b:
                    succ[b].add(dst)

        def build(s):
            return make_graph(
                {
                    "functions": [
                        {"id": 0, "name": "a", "entry": 0,
                         "blocks": [
                             {"id": b, "succ": sorted(s[b]), "calls": []}
                             for b in range(nb)
                         ],
                         "targets": []}
                    ]
                }
            ).function(0)

        fn = build(succ)
        before = {b: dbb(fn, 0, b) for b in range(nb)}
        for b in range(nb):
            assert before[b] == oracle_dbb(fn, 0, b)

        # Insert a random edge at a sink or an already-conditional block;
        # such insertions can only open new routes, never re-weight old ones,
        # so no distance may increase.
        sources = [b for b in range(nb) if len(succ[b]) != 1]
        if not sources:
            continue
        u = rng.choice(sources)
        v = rng.randrange(nb)
        if u == v or v in succ[u]:
            continue
        succ[u].add(v)
        fn2 = build(succ)
        for b in range(nb):
            after = dbb(fn2, 0, b)
            if before[b] is not None:
                assert after is not None and after <= before[b]


def test_dbb_edge_addition_at_single_successor_block_can_raise_distance():
    # Documented counterexample: making a straight-line block conditional
    # re-weights its old outgoing edge, so unrestricted monotonicity fails.
    def build(extra):
        blocks = [linear_block(0, succ=[1] + extra), linear_block(1, succ=[2]),
                  linear_block(2)]
        return make_graph(
            {"functions": [{"id": 0, "name": "a", "entry": 0, "blocks": blocks,
                            "targets": []}]}
        ).function(0)

    assert dbb(build([]), 0, 2) == 0
    assert dbb(build([2]), 0, 2) == 1


def test_round_trip_identity(tmp_path, fig2_graph):
    rng = random.Random(5)
    graphs = [fig2_graph] + [
        graph_from_dict(random_graph_dict(rng, max_functions=12)) for _ in range(10)
    ]
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.graph"
        save_program(g, str(path))
        g2 = load_program(str(path))
        assert g2 == g
        assert graph_hash(g2) == graph_hash(g)


def test_a_graph_pickles_after_a_campaign_has_used_it():
    g = standard_graph()
    config = standard_config("fishfuzz", 1, duration=50)
    first = run_campaign(g, config).to_json_bytes()
    g2 = pickle.loads(pickle.dumps(g))
    assert g2 == g
    assert "call_adjacency" in vars(g) and "call_adjacency" not in vars(g2)
    assert run_campaign(g2, config).to_json_bytes() == first


def test_shortest_paths_matches_networkx_dijkstra():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        adj: dict = {}
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for _ in range(rng.randint(0, 3 * n)):
            u, v, w = rng.randrange(n), rng.randrange(n), rng.randint(0, 3)
            if u != v and not g.has_edge(u, v):
                adj.setdefault(u, []).append((v, w))
                g.add_edge(u, v, weight=w)
        sources = rng.sample(range(n), rng.randint(1, n))
        expected = nx.multi_source_dijkstra_path_length(g, sources)
        assert shortest_paths(adj, sources) == expected


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_postorder_lists_each_node_once_and_callees_first_on_a_dag(rng):
    n = rng.randint(1, 40)
    adj: dict = {}
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        adj.setdefault(u, []).append((v, rng.randint(0, 3)))
    assert sorted(postorder(adj, n)) == list(range(n))

    # Edges only from a higher to a lower id: acyclic, so every callee
    # finishes before each of its callers.
    dag = {u: [(v, w) for v, w in vs if v < u] for u, vs in adj.items()}
    position = {u: k for k, u in enumerate(postorder(dag, n))}
    for u, vs in dag.items():
        for v, _ in vs:
            assert position[v] < position[u]


def test_postorder_of_a_long_chain_needs_no_recursion():
    n = 50_000
    chain = {u: [(u + 1, 0)] for u in range(n - 1)}
    assert postorder(chain, n) == list(range(n - 1, -1, -1))
