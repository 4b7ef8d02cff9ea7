"""Every input loader either loads a file or raises InputError, whatever the bytes.

Each loader is fed arbitrary bytes, its valid file with a slice replaced, and,
for the JSON formats, its valid file with values dropped or replaced. A map's
valid file is the bytes analyze writes. When the loader rejects a file, the
CLI command that reads it must exit 2 with one ``fishsched:`` line on stderr
and write nothing.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched.cli import _read_trace, _spec_from_file, main
from fishsched.distance import build_distance_map, load_distance_map, save_distance_map
from fishsched.graph import (
    InputError, canonical_json, graph_to_dict, load_program, save_program,
)
from fishsched.simulator import (
    CampaignConfig,
    CampaignResult,
    SyntheticProgramSpec,
    generate_program,
    run_campaign,
)

GRAPH = generate_program(
    SyntheticProgramSpec(n_functions=4, targets_per_function=(1, 2), rng_seed=2)
)
SPEC = {"n_functions": 5, "rng_seed": 4, "blocks_per_function": [2, 3],
        "call_density": 1.5}
TRACE = "1; 50; 8; functions=0,1; reached=0; triggered=\n"
RESULT = json.loads(
    run_campaign(GRAPH, CampaignConfig(scheduler="fishfuzz", duration=20)).to_json_bytes()
)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The graph and map files every command reads besides the fuzzed one."""
    tmp = tmp_path_factory.mktemp("world")
    graph, dmap = str(tmp / "w.graph"), str(tmp / "w.map")
    save_program(GRAPH, graph)
    save_distance_map(build_distance_map(GRAPH), dmap)
    return graph, dmap


def _saved_map() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m"
        save_distance_map(build_distance_map(GRAPH), str(path))
        return path.read_bytes()


# kind -> (valid file as JSON data, text or bytes, loader, CLI argv reading it)
LOADERS = {
    "graph": (
        graph_to_dict(GRAPH),
        load_program,
        lambda path, out, world: ["analyze", "--graph", path, "--out", out],
    ),
    "map": (
        _saved_map(),
        lambda path: load_distance_map(path, GRAPH),
        lambda path, out, world: ["distance", "--graph", world[0], "--map", path,
                                  "--dff", "0", "1"],
    ),
    "spec": (
        SPEC,
        _spec_from_file,
        lambda path, out, world: ["simulate", "--spec", path, "--duration", "1",
                                  "--out", out],
    ),
    "trace": (
        TRACE,
        _read_trace,
        lambda path, out, world: ["distance", "--graph", world[0], "--map", world[1],
                                  "--harmonic", path],
    ),
    "result": (
        RESULT,
        lambda path: CampaignResult.from_json_bytes(Path(path).read_bytes()),
        lambda path, out, world: ["report", "--kind", "growth", "--out", out, path],
    ),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 30) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mutate(draw, value):
    """value with one nested value dropped or replaced by any JSON value."""
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(
            range(len(value)) if isinstance(value, list) else sorted(value)
        ))
        if draw(st.integers(0, 4)) == 0:
            del value[key]
        else:
            value[key] = _mutate(draw, value[key])
        return value
    return draw(json_values)


@st.composite
def mutated_json(draw, valid):
    data = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        data = _mutate(draw, data)
    return canonical_json(data)


@st.composite
def spliced(draw, valid: bytes):
    """valid with one slice replaced by a few arbitrary bytes or characters."""
    i = draw(st.integers(0, len(valid)))
    j = draw(st.integers(i, len(valid)))
    fill = st.binary(max_size=6) | st.text(max_size=6).map(str.encode)
    return valid[:i] + draw(fill) + valid[j:]


def _as_bytes(valid) -> bytes:
    if isinstance(valid, str):
        return valid.encode("utf-8")
    return valid if isinstance(valid, bytes) else canonical_json(valid)


def _as_data(kind):
    """The valid file of a JSON kind as JSON data."""
    valid = LOADERS[kind][0]
    return json.loads(valid) if isinstance(valid, bytes) else copy.deepcopy(valid)


def inputs(kind):
    valid = LOADERS[kind][0]
    fuzzed = st.binary(max_size=64) | spliced(_as_bytes(valid))
    if isinstance(valid, str):
        return fuzzed
    return fuzzed | mutated_json(_as_data(kind))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", list(LOADERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_input_loads_or_is_one_diagnostic_line(world, kind, data):
    raw = data.draw(inputs(kind))
    _valid, load, argv = LOADERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = str(Path(tmp) / "input"), Path(tmp) / "out"
        Path(path).write_bytes(raw)
        try:
            load(path)
        except InputError:
            pass
        else:
            return
        code, stdout, stderr = _run_cli(argv(path, str(out), world))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("fishsched: ") and stderr.count("\n") == 1
        assert not out.exists()


def _without_a_required_field(kind):
    data = _as_data(kind)
    record = data["functions"][0] if kind == "graph" else data
    del record[{"graph": "entry", "map": "dff", "spec": "n_functions",
                "result": "rng_seed"}[kind]]
    return data


RECORD_FAULTS = {
    "not an object": (lambda kind: [], "expected a JSON object"),
    "missing field": (_without_a_required_field, "missing field"),
    "unknown field": (lambda kind: {**_as_data(kind), "colour": 1},
                      "unknown field(s) ['colour']"),
}
# A map is never parsed; each record fault breaks the header analyze writes.
MAP_FAULT = "the built_from header differs"


@pytest.mark.parametrize("kind", ["graph", "map", "spec", "result"])
@pytest.mark.parametrize("fault", list(RECORD_FAULTS))
def test_every_json_loader_checks_its_records_alike(tmp_path, kind, fault):
    make, expected = RECORD_FAULTS[fault]
    path = tmp_path / "input"
    path.write_bytes(canonical_json(make(kind)))
    with pytest.raises(InputError) as exc:
        LOADERS[kind][1](str(path))
    assert (MAP_FAULT if kind == "map" else expected) in str(exc.value)


def test_valid_inputs_load(world):
    """The files the mutations start from are themselves valid."""
    for kind, (valid, load, _argv) in LOADERS.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(_as_bytes(valid))
            load(str(path))
