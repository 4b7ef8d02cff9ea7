"""The distance-map loader accepts only the bytes analyze writes for the graph.

A map is a pure function of its graph, so the loader never parses one: it
compares the file against the graph's own map, part by part, and rejects any
other file with one line naming the first part that differs.
"""

import dataclasses
import gc
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched import distance
from fishsched.distance import (
    DistanceMapError,
    build_distance_map,
    load_distance_map,
    save_distance_map,
)
from fishsched.graph import canonical_json, graph_from_dict, graph_hash
from fishsched.simulator import STANDARD_SPEC, generate_program
from oracles import oracle_map_bytes, random_graph_dict


@pytest.fixture
def saved_map(tmp_path, chain_graph):
    """The chain graph's map as a JSON object, and a writer that saves an edit
    as analyze would write it."""
    path = tmp_path / "chain.map"
    save_distance_map(build_distance_map(chain_graph), str(path))
    data = json.loads(path.read_bytes())

    def write(edited) -> str:
        path.write_bytes(canonical_json(edited))
        return str(path)

    return data, write


# The part each message names, as "<part> differs from ...".
HEADER = "the built_from header differs"
WEIGHTS = "the weight list differs"
ROW_0 = "the dff row of function 0 differs"

# The chain graph has functions 0..2 and call edges (0,1) and (1,2); row 0
# of its dff is [0, 0, 0], in the row of function 0. Each case puts one bad
# row in place of the first row of its list.
BAD_ROWS = {
    "weight row of two fields": ("weights", [0, 1]),
    "weight row of four fields": ("weights", [0, 1, 1, 1]),
    "weight row with a float": ("weights", [0, 1, 1.5]),
    "weight row with a string": ("weights", [0, "1", 1]),
    "weight row that is a number": ("weights", 7),
    "weight row that is a string": ("weights", "abc"),
    "weight row with null": ("weights", [0, 1, None]),
    "negative weight": ("weights", [0, 1, -1]),
    "weight for a non-call edge": ("weights", [0, 2, 3]),
    "dff row with a bool": ("dff", [0, 0, True]),
    "dff row of two fields": ("dff", [0, 1]),
    "dff row with a nested list": ("dff", [0, [1], 1]),
    "dff row with NaN": ("dff", [0, 0, float("nan")]),
    "dff row with unknown function": ("dff", [0, 3, 4]),
    "dff row with negative function": ("dff", [-1, 0, 4]),
    "negative dff": ("dff", [0, 0, -3]),
    "duplicate dff row": ("dff", [1, 2, 2]),
    "weight the graph disagrees with": ("weights", [0, 1, 5]),
}


@pytest.mark.parametrize("case", list(BAD_ROWS))
def test_malformed_row_is_rejected(saved_map, chain_graph, case):
    data, write = saved_map
    field, row = BAD_ROWS[case]
    data[field][0] = row
    path = write(data)
    message = {"weights": WEIGHTS, "dff": ROW_0}[field]
    with pytest.raises(DistanceMapError, match=f"^{path}: {message} from the map"):
        load_distance_map(path, chain_graph)


def test_missing_weight_row_is_rejected(saved_map, chain_graph):
    data, write = saved_map
    del data["weights"][0]
    with pytest.raises(DistanceMapError, match=WEIGHTS):
        load_distance_map(write(data), chain_graph)


def test_malformed_document_is_rejected(saved_map, chain_graph):
    data, write = saved_map
    with pytest.raises(DistanceMapError, match=HEADER):
        load_distance_map(write([data]), chain_graph)
    data["dff"] = {"0": 1}
    with pytest.raises(DistanceMapError, match=HEADER):
        load_distance_map(write(data), chain_graph)


def test_unknown_field_is_rejected(saved_map, chain_graph):
    data, write = saved_map
    data["colour"] = 1
    with pytest.raises(DistanceMapError, match=HEADER):
        load_distance_map(write(data), chain_graph)


def test_untouched_map_still_loads(saved_map, chain_graph):
    data, write = saved_map
    loaded = load_distance_map(write(data), chain_graph)
    assert loaded == build_distance_map(chain_graph)


def test_non_utf8_map_is_rejected(tmp_path, chain_graph):
    path = tmp_path / "binary.map"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(DistanceMapError, match=HEADER):
        load_distance_map(str(path), chain_graph)


@pytest.mark.parametrize(
    "field, pair, bad", [("weights", [1, 2], [True, 2]), ("dff", [1, 1], [True, True])]
)
def test_bool_function_id_is_rejected(saved_map, chain_graph, field, pair, bad):
    # true == 1 in Python, but analyze writes an id as digits.
    data, write = saved_map
    index = next(i for i, r in enumerate(data[field]) if r[:2] == pair)
    data[field][index] = bad + data[field][index][2:]
    part = {"weights": WEIGHTS, "dff": "the dff row of function 1 differs"}[field]
    with pytest.raises(DistanceMapError, match=part):
        load_distance_map(write(data), chain_graph)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(saved_map, chain_graph, enabled):
    data, write = saved_map
    clean = write(data)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        load_distance_map(clean, chain_graph)
        assert gc.isenabled() is enabled
        data["dff"][0] = [0, 0, -1]
        with pytest.raises(DistanceMapError):
            load_distance_map(write(data), chain_graph)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_canonical_map_loads_by_comparison(tmp_path):
    graph = generate_program(dataclasses.replace(STANDARD_SPEC, n_functions=200))
    path = tmp_path / "standard.map"
    save_distance_map(build_distance_map(graph), str(path))
    loaded = load_distance_map(str(path), graph)
    assert loaded.rows == build_distance_map(graph).rows
    assert loaded.built_from == graph_hash(graph)


def test_map_with_spaces_is_rejected(saved_map, chain_graph):
    data, write = saved_map
    path = Path(write(data))
    canonical = path.read_bytes()
    path.write_text(json.dumps(data))
    with pytest.raises(DistanceMapError, match=HEADER):
        load_distance_map(str(path), chain_graph)
    path.write_bytes(canonical.replace(b"[1,1,0]", b"[1, 1,0]"))
    with pytest.raises(DistanceMapError, match="the dff row of function 1 differs"):
        load_distance_map(str(path), chain_graph)


@pytest.mark.parametrize("dump", [canonical_json, lambda d: json.dumps(d).encode()])
def test_tampered_well_formed_row_is_rejected(tmp_path, chain_graph, dump):
    # dff(0, 2) is 3; a row the graph cannot have never reaches a query.
    path = tmp_path / "chain.map"
    save_distance_map(build_distance_map(chain_graph), str(path))
    data = json.loads(path.read_bytes())
    index = data["dff"].index([0, 2, 3])
    data["dff"][index] = [0, 2, 7]
    path.write_bytes(dump(data))
    with pytest.raises(DistanceMapError, match=ROW_0 if dump is canonical_json else HEADER):
        load_distance_map(str(path), chain_graph)


def test_canonical_map_with_trailing_bytes_is_rejected(tmp_path, chain_graph):
    path = tmp_path / "chain.map"
    save_distance_map(build_distance_map(chain_graph), str(path))
    canonical = path.read_bytes()
    end = f"ends at byte {len(canonical)}, the file at byte {len(canonical) + 1}"
    for extra in (b"\n", b"x"):
        path.write_bytes(canonical + extra)
        with pytest.raises(DistanceMapError, match=end):
            load_distance_map(str(path), chain_graph)


def test_map_of_another_graph_is_rejected_before_any_build(tmp_path, monkeypatch):
    def wide(seed):
        return generate_program(
            dataclasses.replace(STANDARD_SPEC, n_functions=2000, rng_seed=seed)
        )

    path = tmp_path / "seed11.map"
    save_distance_map(build_distance_map(wide(11)), str(path))
    graph = wide(12)
    builds = []
    real = distance.build_distance_map

    def counted(g):
        builds.append(1)
        return real(g)

    monkeypatch.setattr(distance, "build_distance_map", counted)
    with pytest.raises(DistanceMapError, match="does not match the supplied graph"):
        load_distance_map(str(path), graph)
    assert builds == []


@st.composite
def map_files(draw, saved: bytes):
    """saved as is, reformatted, or with one slice replaced by a few bytes."""
    spaced = json.dumps(json.loads(saved)).encode()
    i = draw(st.integers(0, len(saved)))
    j = draw(st.integers(i, min(len(saved), i + 8)))
    fill = st.sampled_from([b"", b" ", b"\n", b",", b"0", b"1", b"[", b"]"])
    return draw(st.sampled_from([saved, spaced, saved + b"\n"])
                | st.just(saved[:i] + draw(fill | st.binary(max_size=3)) + saved[j:]))


@settings(max_examples=200, deadline=None)
@given(graph_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_map_loads_if_and_only_if_it_is_the_saved_bytes(graph_seed, data):
    graph = graph_from_dict(random_graph_dict(random.Random(graph_seed), max_functions=8))
    built = build_distance_map(graph)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.map"
        save_distance_map(built, str(path))
        raw = data.draw(map_files(path.read_bytes()))
        path.write_bytes(raw)
        if raw == oracle_map_bytes(built):
            assert load_distance_map(str(path), graph) == built
        else:
            with pytest.raises(DistanceMapError, match=f"^{path}: "):
                load_distance_map(str(path), graph)


# ---------------------------------------------------------------------------
# Memory: a map is written and checked one source row at a time
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def map_1000(tmp_path_factory):
    """A generated 1000-function graph, its cached derived data built, and
    its saved map."""
    graph = generate_program(dataclasses.replace(STANDARD_SPEC, n_functions=1000))
    dmap = build_distance_map(graph)
    path = tmp_path_factory.mktemp("map") / "g1000.map"
    save_distance_map(dmap, str(path))
    return graph, dmap, path


def traced_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) allocates beyond what is live already."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peaks_below_a_bare_parse_of_the_file(map_1000):
    graph, _dmap, path = map_1000
    text = path.read_text()
    assert traced_peak(load_distance_map, str(path), graph) < traced_peak(
        json.loads, text
    )


def test_save_peaks_below_the_file_size(map_1000, tmp_path):
    _graph, dmap, path = map_1000
    out = tmp_path / "again.map"
    peak = traced_peak(save_distance_map, dmap, str(out))
    assert out.read_bytes() == path.read_bytes()
    assert peak < path.stat().st_size
