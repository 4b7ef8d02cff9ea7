"""The distance-map loader accepts only what save_distance_map can write."""

import dataclasses
import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from fishsched import distance
from fishsched.distance import (
    DistanceMapError,
    build_distance_map,
    load_distance_map,
    save_distance_map,
)
from fishsched.graph import canonical_json, graph_hash
from fishsched.simulator import STANDARD_SPEC, generate_program


@pytest.fixture
def saved_map(tmp_path, chain_graph):
    """The chain graph's map as a JSON object, and a writer that saves an edit."""
    path = tmp_path / "chain.map"
    save_distance_map(build_distance_map(chain_graph), str(path))
    data = json.loads(path.read_text())

    def write(edited) -> str:
        path.write_text(json.dumps(edited))
        return str(path)

    return data, write


NOT_THREE = "is not three integers"

# The chain graph has functions 0..2 and call edges (0,1) and (1,2); row 0
# of its dff is [0, 0, 0]. Each case puts one bad row in place of row 0.
BAD_ROWS = {
    "weight row of two fields": ("weights", [0, 1], NOT_THREE),
    "weight row of four fields": ("weights", [0, 1, 1, 1], NOT_THREE),
    "weight row with a float": ("weights", [0, 1, 1.5], "1.5 is not an integer"),
    "weight row with a string": ("weights", [0, "1", 1], NOT_THREE),
    "weight row that is a number": ("weights", 7, NOT_THREE),
    "weight row that is a string": ("weights", "abc", NOT_THREE),
    "weight row with null": ("weights", [0, 1, None], NOT_THREE),
    "negative weight": ("weights", [0, 1, -1], "negative distance"),
    "weight for a non-call edge": ("weights", [0, 2, 3], "non-call-edge"),
    "dff row with a bool": ("dff", [0, 0, True], NOT_THREE),
    "dff row of two fields": ("dff", [0, 1], NOT_THREE),
    "dff row with a nested list": ("dff", [0, [1], 1], NOT_THREE),
    "dff row with NaN": ("dff", [0, 0, float("nan")], "NaN is not an integer"),
    "dff row with unknown function": ("dff", [0, 3, 4], "unknown function 3"),
    "dff row with negative function": ("dff", [-1, 0, 4], "unknown function -1"),
    "negative dff": ("dff", [0, 0, -3], "negative distance"),
    "duplicate dff row": ("dff", [1, 2, 2], "two rows for one function pair"),
    "weight the graph disagrees with": (
        "weights", [0, 1, 5], r"weight \(0,1\) is 5, the graph's is 1"
    ),
}


@pytest.mark.parametrize("case", list(BAD_ROWS))
def test_malformed_row_is_rejected(saved_map, chain_graph, case):
    data, write = saved_map
    field, row, message = BAD_ROWS[case]
    data[field][0] = row
    with pytest.raises(DistanceMapError, match=message):
        load_distance_map(write(data), chain_graph)


def test_missing_weight_row_is_rejected(saved_map, chain_graph):
    # A deleted row cannot be written as one bad row in place of another.
    data, write = saved_map
    del data["weights"][0]
    with pytest.raises(DistanceMapError, match="1 of the graph's weights are missing"):
        load_distance_map(write(data), chain_graph)


def test_malformed_document_is_rejected(saved_map, chain_graph):
    data, write = saved_map
    with pytest.raises(DistanceMapError, match="expected a JSON object"):
        load_distance_map(write([data]), chain_graph)
    data["dff"] = {"0": 1}
    with pytest.raises(DistanceMapError, match="'dff' is not a list"):
        load_distance_map(write(data), chain_graph)


def test_unknown_field_is_rejected(saved_map, chain_graph):
    data, write = saved_map
    data["colour"] = 1
    with pytest.raises(DistanceMapError, match=r"unknown field\(s\) \['colour'\]"):
        load_distance_map(write(data), chain_graph)


def test_untouched_map_still_loads(saved_map, chain_graph):
    data, write = saved_map
    loaded = load_distance_map(write(data), chain_graph)
    assert loaded == build_distance_map(chain_graph)


def test_non_utf8_map_is_rejected(tmp_path, chain_graph):
    path = tmp_path / "binary.map"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(DistanceMapError, match="corrupt"):
        load_distance_map(str(path), chain_graph)


@pytest.mark.parametrize(
    "field, pair, bad", [("weights", [1, 2], [True, 2]), ("dff", [1, 1], [True, True])]
)
def test_bool_function_id_is_rejected(saved_map, chain_graph, field, pair, bad):
    # An earlier row already names function 1, so a set of the ids would
    # keep that 1 and drop the true that equals it.
    data, write = saved_map
    index = next(i for i, r in enumerate(data[field]) if r[:2] == pair)
    assert any(1 in r[:2] for r in data[field][:index])
    data[field][index] = bad + data[field][index][2:]
    with pytest.raises(DistanceMapError, match=NOT_THREE):
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


@pytest.fixture
def parses(monkeypatch):
    """The number of map files load_distance_map has parsed as JSON."""
    calls = []
    real = distance.parse_json

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(distance, "parse_json", counted)
    return calls


def test_canonical_map_loads_by_comparison(tmp_path, parses):
    graph = generate_program(dataclasses.replace(STANDARD_SPEC, n_functions=200))
    path = tmp_path / "standard.map"
    save_distance_map(build_distance_map(graph), str(path))
    loaded = load_distance_map(str(path), graph)
    assert loaded.rows == build_distance_map(graph).rows
    assert loaded.built_from == graph_hash(graph)
    assert parses == []


def test_map_with_spaces_is_parsed_to_equal_rows(saved_map, chain_graph, parses):
    data, write = saved_map
    path = write(data)
    assert b", " in Path(path).read_bytes()
    loaded = load_distance_map(path, chain_graph)
    assert loaded.rows == build_distance_map(chain_graph).rows
    assert parses == [1]


@pytest.mark.parametrize("dump", [canonical_json, lambda d: json.dumps(d).encode()])
def test_tampered_well_formed_row_loads_with_its_value(tmp_path, chain_graph, dump):
    # dff(0, 2) is 3; a well-formed row the graph cannot have is not the
    # loader's to reject: the distance query checks each answer it prints.
    path = tmp_path / "chain.map"
    save_distance_map(build_distance_map(chain_graph), str(path))
    data = json.loads(path.read_bytes())
    index = data["dff"].index([0, 2, 3])
    data["dff"][index] = [0, 2, 7]
    path.write_bytes(dump(data))
    assert load_distance_map(str(path), chain_graph).dff_value(0, 2) == 7


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


def test_canonical_map_with_trailing_bytes_is_parsed(tmp_path, chain_graph, parses):
    path = tmp_path / "chain.map"
    save_distance_map(build_distance_map(chain_graph), str(path))
    canonical = path.read_bytes()
    path.write_bytes(canonical + b"\n")
    assert load_distance_map(str(path), chain_graph) == build_distance_map(chain_graph)
    path.write_bytes(canonical + b"x")
    with pytest.raises(DistanceMapError, match="corrupt file: line 2: Extra data"):
        load_distance_map(str(path), chain_graph)
    assert parses == [1, 1]
