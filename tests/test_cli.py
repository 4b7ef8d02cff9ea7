import csv
import json
import tempfile
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched import cli
from fishsched.cli import main
from fishsched.graph import canonical_json, load_program, save_program
from fishsched.simulator import (
    CampaignConfig,
    CampaignResult,
    SyntheticProgramSpec,
    generate_program,
    run_campaign,
)
from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_graph_file(tmp_path):
    g = generate_program(
        SyntheticProgramSpec(n_functions=25, targets_per_function=(0, 2), rng_seed=6)
    )
    path = tmp_path / "small.graph"
    save_program(g, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_fig2_summary(tmp_path, capsys, fig2_paths):
    out = tmp_path / "fig2.map"
    code, stdout, stderr = run_cli(
        capsys, "analyze", "--graph", fig2_paths["graph"], "--out", str(out)
    )
    assert code == 0 and stderr == ""
    assert "targets=3" in stdout
    assert "functions=7" in stdout
    assert out.exists()


def test_analyze_rerun_is_byte_identical(tmp_path, capsys, fig2_paths):
    outs = [tmp_path / "a.map", tmp_path / "b.map"]
    for out in outs:
        code, _, _ = run_cli(
            capsys, "analyze", "--graph", fig2_paths["graph"], "--out", str(out)
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_analyze_missing_file(tmp_path, capsys):
    code, stdout, stderr = run_cli(
        capsys, "analyze", "--graph", str(tmp_path / "nope.graph"),
        "--out", str(tmp_path / "x.map"),
    )
    assert code == 2
    assert "no such file" in stderr
    assert stdout == ""


def test_analyze_unwritable_output(tmp_path, capsys, fig2_paths):
    out = tmp_path / "missing_dir" / "x.map"
    code, _stdout, stderr = run_cli(
        capsys, "analyze", "--graph", fig2_paths["graph"], "--out", str(out)
    )
    assert code == 3
    assert stderr != ""


def test_analyze_invalid_graph(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text('{"functions": [{"id": 0}]}')
    code, _stdout, stderr = run_cli(
        capsys, "analyze", "--graph", str(bad), "--out", str(tmp_path / "x.map")
    )
    assert code == 2
    assert stderr != ""


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


@pytest.fixture
def fig2_map(tmp_path, capsys, fig2_paths):
    out = tmp_path / "fig2.map"
    code, _, _ = run_cli(
        capsys, "analyze", "--graph", fig2_paths["graph"], "--out", str(out)
    )
    assert code == 0
    return str(out)


def test_distance_dff_self_is_zero(capsys, fig2_paths, fig2_map):
    code, stdout, stderr = run_cli(
        capsys, "distance", "--graph", fig2_paths["graph"], "--map", fig2_map,
        "--dff", "3", "3",
    )
    assert code == 0 and stderr == ""
    assert stdout.strip() == "0"


def test_distance_harmonic_s1(capsys, fig2_paths, fig2_map):
    code, stdout, _ = run_cli(
        capsys, "distance", "--graph", fig2_paths["graph"], "--map", fig2_map,
        "--harmonic", fig2_paths["s1"],
    )
    assert code == 0
    assert stdout.strip() == "1.8"


def test_distance_harmonic_s2(capsys, fig2_paths, fig2_map):
    code, stdout, _ = run_cli(
        capsys, "distance", "--graph", fig2_paths["graph"], "--map", fig2_map,
        "--harmonic", fig2_paths["s2"],
    )
    assert code == 0
    assert stdout.strip() == "2.25"


def test_distance_dsf_and_multi(capsys, tmp_path, chain_graph):
    # weighted 3-function chain: dff(0,1)=1, dff(0,2)=3
    graph_path = tmp_path / "chain.graph"
    save_program(chain_graph, str(graph_path))
    map_path = tmp_path / "chain.map"
    code, _, _ = run_cli(
        capsys, "analyze", "--graph", str(graph_path), "--out", str(map_path)
    )
    assert code == 0
    trace_path = tmp_path / "s.trace"
    trace_path.write_text("1; 50; 8; functions=0; reached=; triggered=\n")

    code, stdout, _ = run_cli(
        capsys, "distance", "--graph", str(graph_path), "--map", str(map_path),
        "--dsf", str(trace_path), "2",
    )
    assert code == 0
    assert stdout.strip() == "3"

    code, stdout, _ = run_cli(
        capsys, "distance", "--graph", str(graph_path), "--map", str(map_path),
        "--multi", str(trace_path), "0,1",
    )
    assert code == 0
    assert stdout.splitlines() == ["0 1", "1 3"]


def test_distance_hash_mismatch(capsys, tmp_path, fig2_map, small_graph_file):
    code, _stdout, stderr = run_cli(
        capsys, "distance", "--graph", small_graph_file, "--map", fig2_map,
        "--dff", "0", "0",
    )
    assert code == 2
    assert "does not match" in stderr


def test_distance_unknown_id(capsys, fig2_paths, fig2_map):
    code, _stdout, stderr = run_cli(
        capsys, "distance", "--graph", fig2_paths["graph"], "--map", fig2_map,
        "--dff", "0", "99",
    )
    assert code == 2
    assert stderr != ""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_zero_duration(tmp_path, capsys, small_graph_file):
    out = tmp_path / "out"
    code, _stdout, stderr = run_cli(
        capsys, "simulate", "--graph", small_graph_file,
        "--scheduler", "fishfuzz", "--duration", "0", "--out", str(out),
    )
    assert code == 0 and stderr == ""
    (result_file,) = sorted(out.glob("result_*.json"))
    data = json.loads(result_file.read_text())
    assert data["series"] == []


def test_simulate_compare_writes_all_campaigns(tmp_path, capsys, small_graph_file):
    out = tmp_path / "cmp"
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--graph", small_graph_file,
        "--compare", "fishfuzz,round_robin", "--seeds", "2",
        "--duration", "60", "--out", str(out),
    )
    assert code == 0 and stderr == ""
    results = sorted(out.glob("result_*.json"))
    assert len(results) == 4  # 2 schedulers x 2 seeds
    assert (out / "comparison.csv").exists()
    assert "fishfuzz" in stdout


def test_simulate_without_compare_keeps_no_written_result(
    tmp_path, capsys, small_graph_file, monkeypatch
):
    # Only --compare reads the results back, so without it each result is
    # freed once written, and many seeds peak no higher than one.
    written = []

    def run_and_watch(graph, config):
        # The loop still holds the previous result until this call returns.
        assert all(ref() is None for ref in written[:-1])
        result = run_campaign(graph, config)
        written.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run_campaign", run_and_watch)
    code, _stdout, stderr = run_cli(
        capsys, "simulate", "--graph", small_graph_file, "--scheduler", "round_robin",
        "--duration", "5", "--seeds", "4", "--out", str(tmp_path / "out"),
    )
    assert code == 0 and stderr == ""
    assert len(written) == 4


def test_simulate_compare_peak_does_not_grow_with_seeds(tmp_path, capsys, small_graph_file):
    # --compare keeps only each campaign's summary. Keeping its result would
    # hold a 32-byte series row per tick, so 6 more campaigns of 1000 ticks
    # would raise the peak by several times one campaign's 32,000 bytes.
    def traced_peak(seeds, duration=1000):
        tracemalloc.start()
        code, _stdout, stderr = run_cli(
            capsys, "simulate", "--graph", small_graph_file,
            "--compare", "round_robin,afl_favor", "--duration", str(duration),
            "--seeds", str(seeds), "--out", str(tmp_path / f"out{seeds}_{duration}"),
        )
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 0 and stderr == ""
        return peak

    traced_peak(1, duration=50)  # what any first run allocates once
    assert traced_peak(4) - traced_peak(1) < 1000 * 32


def test_simulate_rerun_is_byte_identical(tmp_path, capsys, small_graph_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", small_graph_file,
            "--scheduler", "afl_favor", "--duration", "80",
            "--seeds", "1", "--out", str(out),
        )
        assert code == 0
    f1 = sorted(out1.glob("*.json"))[0].read_bytes()
    f2 = sorted(out2.glob("*.json"))[0].read_bytes()
    assert f1 == f2


def test_simulate_seed_base_names_the_first_seed(tmp_path, capsys, small_graph_file):
    out = tmp_path / "based"
    code, _stdout, stderr = run_cli(
        capsys, "simulate", "--graph", small_graph_file, "--scheduler", "round_robin",
        "--duration", "20", "--seed-base", "33", "--out", str(out),
    )
    assert code == 0 and stderr == ""
    assert [p.name for p in out.iterdir()] == ["result_round_robin_33.json"]


def test_result_of_a_negative_seed_loads(tmp_path, capsys, small_graph_file):
    out = tmp_path / "based"
    code, _stdout, stderr = run_cli(
        capsys, "simulate", "--graph", small_graph_file, "--scheduler", "round_robin",
        "--duration", "20", "--seed-base", "-3", "--out", str(out),
    )
    assert code == 0 and stderr == ""
    (result,) = out.iterdir()
    assert result.name == "result_round_robin_-3.json"
    code, _stdout, stderr = run_cli(
        capsys, "report", "--kind", "growth", "--out", str(tmp_path / "g.csv"),
        str(result),
    )
    assert code == 0 and stderr == ""


def test_simulate_requires_spec_or_graph(tmp_path, capsys):
    code, _stdout, stderr = run_cli(
        capsys, "simulate", "--scheduler", "fishfuzz", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert stderr.count("\n") == 1
    assert "one of the arguments --spec --graph is required" in stderr


def test_simulate_spec_file(tmp_path, capsys):
    spec = {"n_functions": 15, "rng_seed": 4, "targets_per_function": [0, 2]}
    spec_path = tmp_path / "world.spec"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "spec_out"
    code, _stdout, stderr = run_cli(
        capsys, "simulate", "--spec", str(spec_path),
        "--scheduler", "fishfuzz", "--duration", "30", "--out", str(out),
    )
    assert code == 0 and stderr == ""
    assert len(list(out.glob("result_*.json"))) == 1


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@pytest.fixture
def result_file(tmp_path, small_graph_file):
    g = load_program(small_graph_file)
    r = run_campaign(g, CampaignConfig(scheduler="fishfuzz", duration=150, rng_seed=2))
    path = tmp_path / "r.json"
    path.write_bytes(r.to_json_bytes())
    return str(path), r


def test_report_energy(tmp_path, capsys, result_file):
    path, r = result_file
    out = tmp_path / "energy.csv"
    code, _stdout, stderr = run_cli(
        capsys, "report", "--kind", "energy", "--out", str(out), path
    )
    assert code == 0 and stderr == ""
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["rank", "hits"]
    assert len(rows) - 1 == len(r.target_hits)
    hits = [int(row[1]) for row in rows[1:]]
    assert hits == sorted(hits, reverse=True)
    assert [int(row[0]) for row in rows[1:]] == list(range(1, len(hits) + 1))


def test_report_phases_partitions_time(tmp_path, capsys, result_file):
    path, r = result_file
    out = tmp_path / "phases.csv"
    code, _stdout, _ = run_cli(
        capsys, "report", "--kind", "phases", "--out", str(out), path
    )
    assert code == 0
    rows = list(csv.reader(out.open()))[1:]
    times = [int(t) for t, _ in rows]
    assert times[0] == 0
    assert times == sorted(times)
    assert all(t < r.duration for t in times[1:])
    assert all(phase in ("inter_explore", "intra_explore", "exploit")
               for _, phase in rows)


def test_report_growth_merges_results(tmp_path, capsys, small_graph_file):
    g = load_program(small_graph_file)
    paths = []
    for sched in ("fishfuzz", "round_robin"):
        r = run_campaign(g, CampaignConfig(scheduler=sched, duration=40, rng_seed=1))
        p = tmp_path / f"{sched}.json"
        p.write_bytes(r.to_json_bytes())
        paths.append(str(p))
    out = tmp_path / "growth.csv"
    code, _stdout, _ = run_cli(
        capsys, "report", "--kind", "growth", "--out", str(out), *paths
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["scheduler", "seed", "time", "cov", "reach", "trig"]
    schedulers = {row[0] for row in rows[1:]}
    assert schedulers == {"fishfuzz", "round_robin"}
    assert len(rows) - 1 == 80


def test_report_unknown_kind_rejected(tmp_path, capsys, result_file):
    path, _ = result_file
    code, _stdout, stderr = run_cli(
        capsys, "report", "--kind", "pie", "--out", str(tmp_path / "x.csv"), path
    )
    assert code == 2
    assert stderr.startswith("fishsched: argument --kind: invalid choice: 'pie'")


def test_report_missing_result(tmp_path, capsys):
    code, _stdout, stderr = run_cli(
        capsys, "report", "--kind", "energy", "--out", str(tmp_path / "x.csv"),
        str(tmp_path / "nope.json"),
    )
    assert code == 2
    assert "no such file" in stderr


# ---------------------------------------------------------------------------
# malformed input: one diagnostic line and exit 2, never a traceback
# ---------------------------------------------------------------------------


def _write(path, data):
    path.write_bytes(canonical_json(data))
    return str(path)


def _spec(tmp_path, **fields):
    return ["simulate", "--spec", _write(tmp_path / "s.spec", {"n_functions": 5, **fields})]


def _result_without(tmp_path, graph_file, key):
    g = load_program(graph_file)
    data = json.loads(
        run_campaign(g, CampaignConfig(scheduler="round_robin", duration=5)).to_json_bytes()
    )
    del data[key]
    return _write(tmp_path / "partial.json", data)


def _map_with_short_weight_row(tmp_path, graph_file):
    map_path = tmp_path / "g.map"
    assert main(["analyze", "--graph", graph_file, "--out", str(map_path)]) == 0
    data = json.loads(map_path.read_text())
    data["weights"][0] = data["weights"][0][:2]
    return _write(map_path, data)


def _map_with_a_wrong_weight(tmp_path, graph_file):
    map_path = Path(_map_of(tmp_path, graph_file))
    data = json.loads(map_path.read_text())
    data["weights"][0][2] += 1
    return _write(map_path, data)


def _map_of(tmp_path, graph_file):
    map_path = tmp_path / "g.map"
    assert main(["analyze", "--graph", graph_file, "--out", str(map_path)]) == 0
    return str(map_path)


def _fig2_map_with(tmp_path, old_row, new_row):
    """The fig2 graph and its map with dff row old_row replaced by new_row,
    or new_row added when old_row is None."""
    graph_file = str(FIXTURES / "fig2.graph")
    map_path = Path(_map_of(tmp_path, graph_file))
    data = json.loads(map_path.read_text())
    if old_row is None:
        data["dff"].append(new_row)
    else:
        data["dff"][data["dff"].index(old_row)] = new_row
    return ["distance", "--graph", graph_file, "--map", _write(map_path, data)]


def _file(tmp_path, name, content):
    """A file holding content (text or bytes); a directory when content is None."""
    path = tmp_path / name
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _distance(tmp, g, *query, map_file=None):
    return ["distance", "--graph", g, "--map", map_file or _map_of(tmp, g), *query]


def _trace(tmp, functions="0", reached=""):
    return _file(tmp, "s.trace", f"1; 50; 8; functions={functions}; reached={reached}; "
                                 "triggered=\n")


DEEP = "[" * 100_000
LONG_INT = "1" * 5000


BAD_INPUTS = {
    "spec unknown key": (
        lambda tmp, g: _spec(tmp, colour=1),
        "unknown field(s) ['colour']",
    ),
    "spec without n_functions": (
        lambda tmp, g: ["simulate", "--spec", _write(tmp / "s.spec", {"rng_seed": 1})],
        "s.spec: missing field 'n_functions'",
    ),
    "spec field of the wrong type": (
        lambda tmp, g: _spec(tmp, n_functions=2.5),
        "field 'n_functions' has the wrong type",
    ),
    "spec range of three numbers": (
        lambda tmp, g: _spec(tmp, blocks_per_function=[1, 2, 3]),
        "field 'blocks_per_function' has the wrong type",
    ),
    "spec with an infinite density": (
        lambda tmp, g: _spec(tmp, call_density=float("inf")),
        "field 'call_density' has the wrong type",
    ),
    "negative duration": (
        lambda tmp, g: ["simulate", "--graph", g, "--duration", "-5"],
        "duration must be non-negative",
    ),
    # A NaN timeout compares false with every clock, so it would never fire.
    **{f"{flag} of NaN": (
        lambda tmp, g, flag=flag: ["simulate", "--graph", g, flag, "nan"],
        f"{flag[2:].replace('-', '_')} must be non-negative",
    ) for flag in ("--w-function", "--w-reach", "--w-trigger")},
    # Every campaign starts at the entry function.
    "campaign on a graph without functions": (
        lambda tmp, g: ["simulate", "--graph", _write(tmp / "empty.json", {"functions": []}),
                        "--scheduler", "round_robin", "--duration", "2"],
        "fishsched: a campaign needs a graph with at least one function\n",
    ),
    # The exploitation pass has no knobs, and a tick is one execution.
    **{f"removed flag {' '.join(flag)}": (
        lambda tmp, g, flag=flag: ["simulate", "--graph", g, *flag],
        f"unrecognized arguments: {' '.join(flag)}",
    ) for flag in (("--exploit-fraction", "0.5"), ("--exploit-include-triggered",),
                   ("--executions-per-tick", "2"))},
    # A campaign's size is bounded like a spec's: a huge count is refused, not
    # run. The NaN timeout is rejected while the campaigns are configured, so
    # the bound's message shows it is checked before that, and no campaign
    # runs if the bound is ever missed.
    "oversized --seeds": (
        lambda tmp, g: ["simulate", "--graph", g, "--compare", "fishfuzz,afl_favor",
                        "--seeds", str(cli.MAX_SEEDS + 1), "--w-reach", "nan"],
        f"--seeds must be at most {cli.MAX_SEEDS}",
    ),
    "oversized --duration": (
        lambda tmp, g: ["simulate", "--graph", g, "--duration", str(cli.MAX_DURATION + 1),
                        "--w-reach", "nan"],
        f"--duration must be at most {cli.MAX_DURATION}",
    ),
    "compare with zero seeds": (
        lambda tmp, g: ["simulate", "--graph", g, "--compare", "fishfuzz,afl_favor",
                        "--seeds", "0"],
        "--seeds must be at least 1",
    ),
    "compare of a single campaign": (
        lambda tmp, g: ["simulate", "--graph", g, "--compare", "fishfuzz"],
        "--compare needs at least two campaigns",
    ),
    "compare of an empty list": (
        lambda tmp, g: ["simulate", "--graph", g, "--compare", ""],
        "unknown scheduler in ['']",
    ),
    "compare naming a scheduler twice": (
        lambda tmp, g: ["simulate", "--graph", g, "--compare", "round_robin,round_robin",
                        "--seeds", "2"],
        "--compare names a scheduler twice: round_robin,round_robin",
    ),
    "result is a list": (
        lambda tmp, g: ["report", "--kind", "growth", "--out", str(tmp / "x.csv"),
                        _write(tmp / "list.json", [1, 2])],
        "list.json: not a campaign result",
    ),
    "result missing a key": (
        lambda tmp, g: ["report", "--kind", "growth", "--out", str(tmp / "x.csv"),
                        _result_without(tmp, g, "rng_seed")],
        "partial.json: not a campaign result: missing field 'rng_seed'",
    ),
    # Ids, ticks and counts in a result are never negative.
    **{f"result with a negative {name}": (
        lambda tmp, g, fields=fields: ["report", "--kind", "energy",
                                       "--out", str(tmp / "out"),
                                       _result_with(tmp, g, **fields)],
        f"field {next(iter(fields))!r} has the wrong type, shape or sign",
    ) for name, fields in {
        "target id": {"target_hits": {"-1": 3}},
        "hit count": {"target_hits": {"0": -3}},
        "triggered target": {"triggered_targets": [-5]},
        "duration": {"duration": -7},
        "series tick": {"series": [[-1, 0, 0, 0]]},
        "phase timeline tick": {"phase_timeline": [[-1, "exploit", "timeout"]]},
    }.items()},
    # A result whose fields contradict each other does not load either.
    **{f"result with {name}": (
        lambda tmp, g, fields=fields: ["report", "--kind", "phases",
                                       "--out", str(tmp / "out"),
                                       _result_with(tmp, g, **fields)],
        f"bad.json: not a campaign result: {expected}",
    ) for name, (fields, expected) in {
        "an unknown scheduler": (
            {"scheduler": "alphabetical"},
            "scheduler 'alphabetical' is not one of",
        ),
        "a timeline of a bogus phase and event": (
            {"phase_timeline": [[0, "bogus", "nothing"], [5, "inter_explore", "x"]]},
            "phase_timeline does not begin with [0, 'inter_explore', 'start']",
        ),
        "an empty timeline": (
            {"phase_timeline": []},
            "phase_timeline does not begin with",
        ),
        "a timeline tick that decreases": (
            {"phase_timeline": [[0, "inter_explore", "start"],
                                [5, "intra_explore", "timeout"],
                                [3, "exploit", "timeout"]]},
            "phase_timeline tick 3 comes after tick 5",
        ),
        "a timeline tick past the duration": (
            {"phase_timeline": [[0, "inter_explore", "start"],
                                [21, "exploit", "timeout"]]},
            "phase_timeline tick 21 is past duration 20",
        ),
        "a timeline of an unknown phase": (
            {"phase_timeline": [[0, "inter_explore", "start"], [5, "bogus", "timeout"]]},
            "phase_timeline names unknown phase 'bogus'",
        ),
        "a timeline of an unknown event": (
            {"phase_timeline": [[0, "inter_explore", "start"], [5, "exploit", "x"]]},
            "phase_timeline names unknown event 'x'",
        ),
        "unsorted triggered targets": (
            {"target_hits": {"0": 2, "1": 1}, "triggered_targets": [1, 0],
             "final_triggered": 2},
            "triggered_targets is not sorted and unique",
        ),
        "a triggered target listed twice": (
            {"target_hits": {"0": 2}, "triggered_targets": [0, 0], "final_triggered": 2},
            "triggered_targets is not sorted and unique",
        ),
        "a triggered target that is no target_hits key": (
            {"triggered_targets": [99999]},
            "triggered target 99999 has no hits in target_hits",
        ),
        "a triggered target without hits": (
            {"target_hits": {"0": 0}, "triggered_targets": [0], "final_triggered": 1},
            "triggered target 0 has no hits in target_hits",
        ),
        "more triggered targets than final_triggered": (
            {"target_hits": {"0": 2}, "triggered_targets": [0], "final_triggered": 3},
            "triggered_targets lists 1 targets, final_triggered says 3",
        ),
        # The base result is a 20-tick campaign that ends at coverage 64,
        # 13 reached and 2 triggered targets (8 and 24), with 13 seeds,
        # 4 favored, after 21 executions.
        "a final_coverage, a series cut short and an extra queue_stats key": (
            {"final_coverage": 7, "series": [[1, 4, 0, 0], [2, 4, 0, 0], [3, 8, 0, 0]],
             "queue_stats": {"executions": 21, "n_favored": 4, "n_seeds": 13, "x": 1}},
            "series ticks are not 1..20",
        ),
        "a series tick missing": (
            {"series": [[t, 64, 13, 2] for t in range(1, 22) if t != 7]},
            "series ticks are not 1..20",
        ),
        "a series count that falls": (
            {"series": [[t, 65 if t == 19 else 64, 13, 2] for t in range(1, 21)]},
            "series counts fall at tick 20",
        ),
        "a series that ends below the final counts": (
            {"final_coverage": 70},
            "series ends at [64, 13, 2], the final counts are [70, 13, 2]",
        ),
        "a final_reached that is not the targets with hits": (
            {"target_hits": {"8": 1, "24": 1}},
            "target_hits has 2 targets with hits, final_reached says 13",
        ),
        "an extra queue_stats key": (
            {"queue_stats": {"executions": 21, "n_favored": 4, "n_seeds": 13, "x": 1}},
            "queue_stats has keys ['executions', 'n_favored', 'n_seeds', 'x'], "
            "not ['executions', 'n_favored', 'n_seeds']",
        ),
        "more favored seeds than seeds": (
            {"queue_stats": {"executions": 21, "n_favored": 14, "n_seeds": 13}},
            "queue_stats breaks n_favored <= n_seeds <= executions",
        ),
        "more seeds than executions": (
            {"queue_stats": {"executions": 12, "n_favored": 4, "n_seeds": 13}},
            "queue_stats breaks n_favored <= n_seeds <= executions",
        ),
        "more executions than one per tick": (
            {"queue_stats": {"executions": 22, "n_favored": 4, "n_seeds": 13}},
            "queue_stats.executions is 22, not duration + 1 = 21",
        ),
        "an uppercase graph_hash": (
            {"graph_hash": "F" * 64},
            "graph_hash is not 64 lowercase hex digits",
        ),
    }.items()},
    # A graph or spec that parses but breaks a rule still names its file.
    "graph with a negative entry": (
        lambda tmp, g: ["analyze", "--graph", _graph_with(tmp, "entry", -1),
                        "--out", str(tmp / "out")],
        "bad_entry.graph: functions[0].entry: expected non-negative "
        "integer, got -1\n",
    ),
    "graph calling an unknown function": (
        lambda tmp, g: ["analyze", "--graph", _graph_with(tmp, "calls", [99]),
                        "--out", str(tmp / "out")],
        "bad_calls.graph: function 0: block 0 calls unknown function 99\n",
    ),
    "graph listing a callee twice": (
        lambda tmp, g: ["analyze", "--graph", _graph_with(tmp, "calls", [1, 1]),
                        "--out", str(tmp / "out")],
        "bad_calls.graph: function 0: block 0 lists callee 1 twice\n",
    ),
    "spec of an empty targets_per_function range": (
        lambda tmp, g: _spec(tmp, targets_per_function=[3, 1]),
        "s.spec: targets_per_function range must satisfy",
    ),
    "map weight row of two fields": (
        lambda tmp, g: ["distance", "--graph", g, "--dff", "0", "1",
                        "--map", _map_with_short_weight_row(tmp, g)],
        "g.map: the weight list differs from the map analyze writes for this graph\n",
    ),
    "map weight the graph disagrees with": (
        lambda tmp, g: ["distance", "--graph", g, "--dff", "0", "1",
                        "--map", _map_with_a_wrong_weight(tmp, g)],
        "g.map: the weight list differs from the map analyze writes for this graph\n",
    ),
    # A row the graph cannot have is rejected on load, whichever query reads it.
    "map dff row the graph disagrees with, read by --dff": (
        lambda tmp, g: _fig2_map_with(tmp, [0, 1, 0], [0, 1, 99]) + ["--dff", "0", "1"],
        "g.map: the dff row of function 0 differs from the map analyze writes",
    ),
    "map dff row the graph disagrees with, read by --dsf": (
        lambda tmp, g: _fig2_map_with(tmp, [0, 1, 0], [0, 1, 99])
        + ["--dsf", _trace(tmp, functions="0"), "1"],
        "g.map: the dff row of function 0 differs from the map analyze writes",
    ),
    "map dff row the graph lacks, read by --dff": (
        lambda tmp, g: _fig2_map_with(tmp, None, [6, 0, 3]) + ["--dff", "6", "0"],
        "g.map: the end of the dff list differs from the map analyze writes",
    ),
    "map dff row the graph lacks, read by --multi": (
        lambda tmp, g: _fig2_map_with(tmp, None, [6, 5, 3])
        + ["--multi", _trace(tmp, functions="6"), "0,1"],
        "g.map: the end of the dff list differs from the map analyze writes",
    ),
    # A path that exists but cannot be read.
    "graph is a directory": (
        lambda tmp, g: ["analyze", "--graph", _file(tmp, "d", None),
                        "--out", str(tmp / "out")],
        "d: Is a directory",
    ),
    "spec is a directory": (
        lambda tmp, g: ["simulate", "--spec", _file(tmp, "d", None)],
        "d: Is a directory",
    ),
    "map is a directory": (
        lambda tmp, g: _distance(tmp, g, "--dff", "0", "1",
                                 map_file=_file(tmp, "d", None)),
        "d: Is a directory",
    ),
    "trace is a directory": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _file(tmp, "d", None), "1"),
        "d: Is a directory",
    ),
    "result is a directory": (
        lambda tmp, g: ["report", "--kind", "growth", "--out", str(tmp / "out"),
                        _file(tmp, "d", None)],
        "cannot read",
    ),
    # JSON nested past the parser's recursion limit, or an over-long integer.
    # A map is never parsed: its header is not the one analyze writes.
    "graph nested too deeply": (
        lambda tmp, g: ["analyze", "--graph", _file(tmp, "deep", DEEP),
                        "--out", str(tmp / "out")],
        "deep: maximum recursion depth exceeded",
    ),
    "spec nested too deeply": (
        lambda tmp, g: ["simulate", "--spec", _file(tmp, "deep", DEEP)],
        "deep: maximum recursion depth exceeded",
    ),
    "map nested too deeply": (
        lambda tmp, g: _distance(tmp, g, "--dff", "0", "1",
                                 map_file=_file(tmp, "deep", DEEP)),
        "deep: the built_from header differs",
    ),
    "graph integer too long": (
        lambda tmp, g: ["analyze", "--graph", _file(tmp, "long", LONG_INT),
                        "--out", str(tmp / "out")],
        "long: Exceeds the limit",
    ),
    "map integer too long": (
        lambda tmp, g: _distance(tmp, g, "--dff", "0", "1",
                                 map_file=_file(tmp, "long", LONG_INT)),
        "long: the built_from header differs",
    ),
    "spec probability too large for a float": (
        lambda tmp, g: _spec(tmp, branch_probability=10**400),
        "branch_probability must be in [0, 1]",
    ),
    # Not UTF-8: the message names the file.
    "spec not UTF-8": (
        lambda tmp, g: ["simulate", "--spec", _file(tmp, "s.spec", b"\xff\xfe{")],
        "s.spec: not UTF-8 text",
    ),
    "trace not UTF-8": (
        lambda tmp, g: _distance(tmp, g, "--harmonic", _file(tmp, "s.trace", b"\xff;")),
        "s.trace: not UTF-8 text",
    ),
    # An id the graph lacks is an error, not a distance of inf.
    "dsf to an unknown function": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _trace(tmp), "99999"),
        "fishsched: unknown function id 99999",
    ),
    "dsf from a trace naming an unknown function": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _trace(tmp, functions="0,99999"),
                                 "1"),
        "fishsched: unknown function id 99999",
    ),
    "dff from a negative function id": (
        lambda tmp, g: _distance(tmp, g, "--dff", "-1", "0"),
        "fishsched: unknown function id -1\n",
    ),
    "dsf from a trace naming a negative function id": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _trace(tmp, functions="-1"), "1"),
        "fishsched: unknown function id -1\n",
    ),
    # Ids are ASCII decimal: int() would also read 1_0 as 10, an Arabic-Indic
    # three as 3 and +1 as 1.
    "trace naming a function with an underscore": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _trace(tmp, functions="0,1_0"), "1"),
        "s.trace: expected a decimal integer, got '1_0'\n",
    ),
    "trace naming a function in Arabic-Indic digits": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _file(
            tmp, "s.trace",
            "1; 50; 8; functions=\u0663; reached=; triggered=\n".encode(),
        ), "1"),
        "s.trace: expected a decimal integer, got '\u0663'\n",
    ),
    # A bare field name would otherwise read as an empty set.
    "trace field without an equals sign": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _file(
            tmp, "s.trace", "1; 50; 8; functions; reached; triggered\n",
        ), "0"),
        "s.trace: trace field 'functions' has no '='\n",
    ),
    "dsf to a function with an underscore": (
        lambda tmp, g: _distance(tmp, g, "--dsf", _trace(tmp), "1_0"),
        "fishsched: expected a decimal integer, got '1_0'\n",
    ),
    "multi with a plus-signed target": (
        lambda tmp, g: _distance(tmp, g, "--multi", _trace(tmp), "+1"),
        "fishsched: expected a decimal integer, got '+1'\n",
    ),
    "harmonic of a trace naming an unknown function": (
        lambda tmp, g: _distance(tmp, g, "--harmonic", _trace(tmp, functions="99999")),
        "fishsched: unknown function id 99999",
    ),
    "multi with an unknown target": (
        lambda tmp, g: _distance(tmp, g, "--multi", _trace(tmp), "77777"),
        "fishsched: unknown target id 77777\n",
    ),
    "multi naming no target": (
        lambda tmp, g: _distance(tmp, g, "--multi", _trace(tmp), ","),
        "fishsched: --multi names no target: ','\n",
    ),
    "harmonic of a trace reaching an unknown target": (
        lambda tmp, g: _distance(tmp, g, "--harmonic", _trace(tmp, reached="77777")),
        "fishsched: unknown target id 77777\n",
    ),
    # A spec that loads must not ask generate_program for unbounded work.
    "spec asking for 1e300 calls per function": (
        lambda tmp, g: _spec(tmp, n_functions=2, call_density=1e300),
        "call_density must be at most n_functions - 1 = 1",
    ),
    "spec asking for more call pairs than exist": (
        lambda tmp, g: _spec(tmp, call_density=4.5),
        "call_density must be at most n_functions - 1 = 4",
    ),
    "spec with too many functions": (
        lambda tmp, g: _spec(tmp, n_functions=100_001),
        "n_functions must be in [1, 100000]",
    ),
    "spec with too many blocks per function": (
        lambda tmp, g: _spec(tmp, blocks_per_function=[1, 1001]),
        "1 <= lo <= hi <= 1000",
    ),
    "spec with too many targets per function": (
        lambda tmp, g: _spec(tmp, targets_per_function=[0, 101]),
        "0 <= lo <= hi <= 100",
    ),
    "spec with too many calls in total": (
        lambda tmp, g: _spec(tmp, n_functions=1000, call_density=999),
        "n_functions * call_density must be at most 150000",
    ),
    "spec with too many blocks in total": (
        lambda tmp, g: _spec(tmp, n_functions=1000, blocks_per_function=[1, 1000]),
        "n_functions * blocks_per_function[1] must be at most 800000",
    ),
    "spec with too many targets in total": (
        lambda tmp, g: _spec(tmp, n_functions=3001, targets_per_function=[0, 100]),
        "n_functions * targets_per_function[1] must be at most 300000",
    ),
    # The harmonic baseline has nothing to aim at on a graph without targets.
    "harmonic_directed on a targetless graph": (
        lambda tmp, g: _spec(tmp, targets_per_function=[0, 0])
        + ["--scheduler", "harmonic_directed"],
        "fishsched: harmonic_directed needs a graph with targets",
    ),
    "compare with harmonic_directed on a targetless graph": (
        lambda tmp, g: _spec(tmp, targets_per_function=[0, 0])
        + ["--compare", "fishfuzz,harmonic_directed"],
        "fishsched: harmonic_directed needs a graph with targets",
    ),
}


def _assert_one_diagnostic_line(capsys, argv, expected):
    capsys.readouterr()
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("fishsched: ") and stderr.count("\n") == 1
    assert expected in stderr


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_malformed_input_is_one_diagnostic_line(tmp_path, capsys, small_graph_file, case):
    build, expected = BAD_INPUTS[case]
    argv = build(tmp_path, small_graph_file)
    out_dir = tmp_path / "out"
    if argv[0] == "simulate":
        argv += ["--out", str(out_dir)]
    _assert_one_diagnostic_line(capsys, argv, expected)
    assert not out_dir.exists()  # rejected before any output is made


# Command lines argparse rejects: main returns 2 for them like for BAD_INPUTS.
USAGE_ERRORS = {
    "non-integer --dff": (
        lambda tmp, g: _distance(tmp, g, "--dff", "a", "1"),
        "argument --dff: invalid parse_decimal value: 'a'",
    ),
    "non-integer --duration": (
        lambda tmp, g: ["simulate", "--graph", g, "--duration", "x", "--out", str(tmp)],
        "argument --duration: invalid int value: 'x'",
    ),
    "non-integer --seeds": (
        lambda tmp, g: ["simulate", "--graph", g, "--seeds", "z", "--out", str(tmp)],
        "argument --seeds: invalid int value: 'z'",
    ),
    "unknown flag": (
        lambda tmp, g: ["analyze", "--graph", g, "--out", str(tmp / "x"), "--colour"],
        "unrecognized arguments: --colour",
    ),
    "missing --out": (
        lambda tmp, g: ["analyze", "--graph", g],
        "the following arguments are required: --out",
    ),
    "no subcommand": (
        lambda tmp, g: [],
        "the following arguments are required: command",
    ),
    # Exactly one distance query, one program and one way to pick schedulers.
    "--dff with --dsf": (
        lambda tmp, g: _distance(tmp, g, "--dff", "0", "1", "--dsf", _trace(tmp), "1"),
        "argument --dsf: not allowed with argument --dff",
    ),
    "distance with no query": (
        lambda tmp, g: _distance(tmp, g),
        "one of the arguments --dff --dsf --multi --harmonic is required",
    ),
    "--spec with --graph": (
        lambda tmp, g: ["simulate", "--spec", "standard", "--graph", g,
                        "--out", str(tmp / "x")],
        "argument --graph: not allowed with argument --spec",
    ),
    "--scheduler with --compare": (
        lambda tmp, g: ["simulate", "--graph", g, "--scheduler", "afl_favor",
                        "--compare", "fishfuzz,round_robin", "--out", str(tmp / "x")],
        "argument --compare: not allowed with argument --scheduler",
    ),
    "--scheduler fishfuzz with --compare": (
        lambda tmp, g: ["simulate", "--graph", g, "--scheduler", "fishfuzz",
                        "--compare", "afl_favor,round_robin", "--out", str(tmp / "x")],
        "argument --compare: not allowed with argument --scheduler",
    ),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_is_one_diagnostic_line(tmp_path, capsys, small_graph_file, case):
    build, expected = USAGE_ERRORS[case]
    _assert_one_diagnostic_line(capsys, build(tmp_path, small_graph_file), expected)


@pytest.mark.parametrize("argv", [["--help"], ["distance", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: fishsched") and captured.err == ""


def _graph_with(tmp, field, value):
    """The small graph file with one list field of the first function,
    its first block or the top level replaced by value."""
    data = json.loads(open(tmp / "small.graph", encoding="utf-8").read())
    fn = data["functions"][0]
    if field in ("succ", "calls"):
        fn["blocks"][0][field] = value
    elif field in ("functions", "indirect_edges"):
        data[field] = value
    else:
        fn[field] = value
    return _write(tmp / f"bad_{field}.graph", data)


def _not_utf8(tmp):
    path = tmp / "not_utf8.graph"
    path.write_bytes(b"\xff\xfe{")
    return str(path)


BAD_GRAPHS = {
    "not UTF-8": (_not_utf8, "not UTF-8 text"),
    **{
        f"{field} is a number": (
            lambda tmp, field=field: _graph_with(tmp, field, 5),
            "expected list" if field != "functions" else "non-list 'functions'",
        )
        for field in (
            "functions", "blocks", "succ", "calls", "targets", "indirect_edges"
        )
    },
    "blocks is an object": (
        lambda tmp: _graph_with(tmp, "blocks", {"id": 0}),
        "functions[0].blocks: expected list",
    ),
    "succ holds a string": (
        lambda tmp: _graph_with(tmp, "succ", [1, "x"]),
        "functions[0].blocks[0].succ[1]: expected non-negative integer, got 'x'",
    ),
}


@pytest.mark.parametrize("case", list(BAD_GRAPHS))
def test_analyze_malformed_graph_is_one_diagnostic_line(
    tmp_path, capsys, small_graph_file, case
):
    build, expected = BAD_GRAPHS[case]
    out = tmp_path / "x.map"
    code, stdout, stderr = run_cli(capsys, "analyze", "--graph", build(tmp_path),
                                   "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("fishsched: ") and stderr.count("\n") == 1
    assert expected in stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed result files: the report must not trip over a bad field
# ---------------------------------------------------------------------------


def _result_data(graph_file):
    g = load_program(graph_file)
    config = CampaignConfig(scheduler="fishfuzz", duration=20)
    return json.loads(run_campaign(g, config).to_json_bytes())


def _result_with(tmp, graph_file, name="bad.json", **fields):
    return _write(tmp / name, {**_result_data(graph_file), **fields})


BAD_RESULTS = {
    "series row of two numbers": (
        "growth",
        lambda tmp, g: [_result_with(tmp, g, series=[[1, 2]])],
        "field 'series'",
    ),
    "target hit count is a string": (
        "energy",
        lambda tmp, g: [_result_with(tmp, g, target_hits={"1": "x"})],
        "field 'target_hits'",
    ),
    "target id is not a number": (
        "energy",
        lambda tmp, g: [_result_with(tmp, g, target_hits={"x": 1})],
        "field 'target_hits' has the wrong type, shape or sign",
    ),
    "phase timeline row of one number": (
        "phases",
        lambda tmp, g: [_result_with(tmp, g, phase_timeline=[[0]])],
        "field 'phase_timeline'",
    ),
    "string seed beside an integer seed": (
        "growth",
        lambda tmp, g: [_result_with(tmp, g, "good.json"),
                        _result_with(tmp, g, rng_seed="x")],
        "field 'rng_seed'",
    ),
    "nesting deeper than the parser's recursion limit": (
        "growth",
        lambda tmp, g: [_deeply_nested(tmp)],
        "recursion",
    ),
}


def _deeply_nested(tmp):
    path = tmp / "bad.json"
    path.write_text("[" * 100_000)
    return str(path)


@pytest.mark.parametrize("case", list(BAD_RESULTS))
def test_report_malformed_result_is_one_diagnostic_line(
    tmp_path, capsys, small_graph_file, case
):
    kind, build, expected = BAD_RESULTS[case]
    out = tmp_path / "x.csv"
    paths = build(tmp_path, small_graph_file)
    code, stdout, stderr = run_cli(capsys, "report", "--kind", kind, "--out", str(out),
                                   *paths)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("fishsched: ") and stderr.count("\n") == 1
    assert "bad.json: not a campaign result" in stderr and expected in stderr
    assert not out.exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
RESULT_FIELDS = [f.name for f in fields(CampaignResult)]


def _valid_results():
    g = generate_program(SyntheticProgramSpec(n_functions=8, rng_seed=3))
    return [
        json.loads(run_campaign(g, CampaignConfig(scheduler=s, duration=30)).to_json_bytes())
        for s in ("fishfuzz", "round_robin")
    ]


VALID_RESULTS = _valid_results()
# Values of the right type and shape, however odd, for each result field.
_ints = st.integers()
_short_text = st.text(max_size=4)
WELL_TYPED = {
    **{name: _ints for name in ("rng_seed", "duration", "final_coverage",
                                "final_reached", "final_triggered")},
    "scheduler": _short_text,
    "graph_hash": _short_text,
    "series": st.lists(st.lists(_ints, min_size=4, max_size=4), max_size=3),
    "target_hits": st.dictionaries(_ints.map(str), _ints, max_size=3),
    "triggered_targets": st.lists(_ints, max_size=3),
    "phase_timeline": st.lists(
        st.tuples(_ints, _short_text, _short_text).map(list), max_size=3
    ),
    "queue_stats": st.dictionaries(_short_text, _ints, max_size=3),
}


@st.composite
def result_objects(draw):
    """A real result with some fields dropped or replaced, or any object."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.dictionaries(st.sampled_from(RESULT_FIELDS) | _short_text,
                                    json_values, max_size=14))
    data = dict(draw(st.sampled_from(VALID_RESULTS)))
    for name in draw(st.lists(st.sampled_from(RESULT_FIELDS), max_size=3)):
        how = draw(st.integers(0, 3))
        if how == 0:
            data.pop(name, None)
        elif how == 1:
            data[name] = draw(json_values)
        else:
            data[name] = draw(WELL_TYPED[name])
    return data


@settings(max_examples=200, deadline=None)
@given(result_objects())
def test_any_result_object_loads_or_is_rejected(data):
    raw = json.dumps(data).encode("utf-8")
    try:
        result = CampaignResult.from_json_bytes(raw)
    except ValueError:
        return
    assert CampaignResult.from_json_bytes(result.to_json_bytes()) == result
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.json"
        path.write_bytes(raw)
        for kind in ("energy", "phases", "growth"):
            out = Path(tmp) / f"{kind}.csv"
            assert main(["report", "--kind", kind, "--out", str(out), str(path)]) == 0
