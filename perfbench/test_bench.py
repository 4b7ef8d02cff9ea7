"""The benchmark's own test: a tiny plan, run twice, gives identical exact
counts, passes every output check and prints the schema BENCHMARK.json names.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run._import_program(), "fishsched sources not found next to perfbench/"

from fishsched.simulator import SyntheticProgramSpec  # noqa: E402
from workloads import Plan  # noqa: E402

TINY = Plan(
    name="tiny",
    spec=SyntheticProgramSpec(n_functions=40, rng_seed=5),
    campaigns=tuple(
        (sched, seed)
        for sched in ("fishfuzz", "afl_favor", "round_robin", "harmonic_directed")
        for seed in (1, 2)
    ),
    ticks=300,
    compare=True,
    check_sources=8,
)

# Counts a later change may rest a claim on; each must repeat exactly.
EXACT = (
    "simulator.executions",
    "simulator.admitted",
    "simulator.admit_ratio",
    "scheduler.inter_function_cull.calls",
    "scheduler.intra_function_cull.calls",
    "scheduler.exploitation_cull.calls",
    "scheduler.cull_effective_ratio",
    "execution.dsf_lookups",
    "execution.dsf_misses",
    "distance.dff_pairs",
)


def _run(tmp_path, name: str, trace: bool) -> dict:
    workdir = tmp_path / name
    workdir.mkdir()
    report = run.run(TINY, 1, 0, trace, str(workdir), probe_sizes=(30,))
    json.dumps(report["result"])  # the result line must serialise
    return report


def _check_result(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return _run(tmp, "a", True), _run(tmp, "b", True)


def test_exact_counts_repeat(traced_twice):
    first, second = (r["result"]["metrics"] for r in traced_twice)
    for name in EXACT + tuple(n for n in run.PER_LAYER if n.endswith(".calls")):
        assert first[name]["value"] == second[name]["value"], name
    assert first["execution.dsf_lookups"]["value"] > first["execution.dsf_misses"]["value"] > 0
    assert first["scheduler.exploitation_cull.calls"]["value"] > 0
    assert traced_twice[0]["digest"] == traced_twice[1]["digest"]


def test_traced_schema(traced_twice):
    for report in traced_twice:
        _check_result(report["result"], run.PER_LAYER)
        assert report["repetitions"] == 2  # one untraced, one traced


def test_untraced_schema(tmp_path, traced_twice):
    report = _run(tmp_path, "c", False)
    _check_result(report["result"], run.END_TO_END)
    assert all(e["value"] > 0 for e in report["result"]["metrics"].values())
    assert report["digest"] == traced_twice[0]["digest"]
    assert set(report["machine"]) == {"cpu", "nproc", "python", "peak_rss_mb"}


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
