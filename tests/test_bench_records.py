"""Every committed BENCH_*.json records the benchmark BENCHMARK.json declares:
its workloads only, and, in each untraced run, exactly its end-to-end metrics
with their units, from a correct run with no failed operation.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
ALL_METRICS = {**END_TO_END, **{m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_benchmark(path):
    record = json.loads(path.read_text())
    runs = record["runs"] + record.get("traced_runs", [])
    assert runs
    assert {run["workload"] for run in runs} <= WORKLOADS
    assert set(record.get("summary", {})) <= WORKLOADS
    for run in runs:
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if run["trace"] == 0:
            assert units == END_TO_END
        else:
            assert units.items() <= ALL_METRICS.items()
