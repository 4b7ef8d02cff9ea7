"""Campaign output does not depend on the interpreter's string-hash seed.

Sets and dicts of strings iterate in a hash-seed-dependent order, so any
walk driven by such an order would show up here as differing bytes. The
bytes themselves are pinned too, so a refactor cannot change them unseen.
"""

import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import fishsched
from fishsched.compare import compare_campaigns
from fishsched.graph import graph_from_dict, graph_hash, graph_to_dict
from fishsched.scheduler import SchedulerConfig
from fishsched.simulator import (
    SCHEDULERS,
    CampaignConfig,
    SyntheticProgramSpec,
    generate_program,
    run_campaign_with_queue,
)

SRC = Path(fishsched.__file__).resolve().parents[1]


def _simulate(out: Path, hash_seed: str):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(SRC)
    # Short phase windows so that all three fishfuzz phases occur.
    proc = subprocess.run(
        [sys.executable, "-m", "fishsched.cli", "simulate", "--spec", "standard",
         "--compare", ",".join(SCHEDULERS), "--seeds", "2", "--duration", "400",
         "--w-function", "20", "--w-reach", "10", "--w-trigger", "40",
         "--out", str(out)],
        env=env, capture_output=True, timeout=300, check=True,
    )
    return proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_outputs_identical_across_hash_seeds(tmp_path):
    runs = {seed: _simulate(tmp_path / seed, seed) for seed in ("0", "1", "12345")}
    stdout, files = runs["0"]
    assert len(files) == 2 * len(SCHEDULERS) + 1  # results plus comparison.csv
    assert b'"exploit"' in files["result_fishfuzz_1.json"]
    for seed in ("1", "12345"):
        assert runs[seed][0] == stdout, f"stdout differs under PYTHONHASHSEED={seed}"
        assert runs[seed][1] == files, f"result bytes differ under PYTHONHASHSEED={seed}"


# SHA-256 of every output of _simulate, pinned when the scheduler and the
# campaign loop were last refactored; a refactor must leave each one unchanged.
PINNED_SHA256 = {
    "comparison.csv": "5f754386089d5d39c8efe92698883d96652f79dbb9f816706dbc3f634d6a1838",
    "result_afl_favor_1.json": "ff95af5ff537c3351a1852fa560eb6e0d3597f69dd97cb7fd825a53bba651c71",
    "result_afl_favor_2.json": "1dd1fd57bad2a8ad29cf5a1b01dcd05fd08a9a01fd02a3b497f7b3bc434df104",
    "result_fishfuzz_1.json": "79a2f7a5844379bb69b3c236c06c3e7dfaccf809be346fae41e818fb32984a31",
    "result_fishfuzz_2.json": "2646094315b1781c7b3a02c1ebf8057e806b84bd02aea5c620cc8c14f214e3a0",
    "result_harmonic_directed_1.json": "623054911e8632f04d4cd220e0b6df6c08caaf2b53273de00e9f0d303d4382eb",
    "result_harmonic_directed_2.json": "2eb9ca55828c196fe80de4653f93d1c9a98d081be7938d7e73e6430df93838cb",
    "result_round_robin_1.json": "729e8876d21fc4d68165005e2a81d6dd85d34d3574afdbacdf7344aa55149470",
    "result_round_robin_2.json": "81792f0335735db5590dbed7c6a1fb66efed2dfdf43e676c9f2da854f50df305",
}
PINNED_STDOUT_SHA256 = "d4c4ba996a4c93799506568288c0cc08ffcd230d9aac0d6d97249856bcbde79e"


def test_outputs_match_pinned_digests(tmp_path):
    stdout, files = _simulate(tmp_path, "0")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == PINNED_SHA256
    assert hashlib.sha256(stdout).hexdigest() == PINNED_STDOUT_SHA256


SWEEP_PIN = Path(__file__).parent / "fixtures" / "standard_sweep.sha256"


def test_standard_sweep_matches_its_pin_file(standard_results):
    # The session's 40 standard campaigns are the ones the CI step "Standard
    # sweep pin" runs through the CLI, so their files are rebuilt here as
    # simulate --compare writes them: each result, comparison.csv, stdout.
    results = [r for by_seed in standard_results.results.values()
               for r in by_seed.values()]
    files = {f"result_{r.scheduler}_{r.rng_seed}.json": r.to_json_bytes()
             for r in results}
    report = compare_campaigns(results)
    table = io.StringIO(newline="")
    csv.writer(table).writerows(report.csv_rows())
    files["comparison.csv"] = table.getvalue().encode()
    files["stdout.txt"] = (report.text_table() + "\n").encode()
    pinned = {}
    for line in SWEEP_PIN.read_text().splitlines():
        digest, name = line.split()
        pinned[name.removeprefix("sweep/")] = digest
    assert len(pinned) == 42
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in files.items()} == pinned


# SHA-256 of each scheduler's result bytes and final queue over 451
# executions, long enough for all three phases, so each seed's parent and
# creation tick are pinned as well.
PINNED_QUEUE_SHA256 = {
    "fishfuzz": "be42c1b629ec7a43cbda21fce457a7d214f03440c5104255a2f19aefea164e3a",
    "round_robin": "d22d1cec2bc76367c6870baca82a529b0b636a204a414a81d3be24780684807a",
    "afl_favor": "5802a500fcababb2e6a69a04ab7d7dbdad2e172b3c44ddd3d72a5ec10fd66247",
    "harmonic_directed": "a3a881737cd3a028c87c9162ce07f51ba94198767f40fe19bd9d09523e639f70",
}


def test_multi_execution_ticks_match_pinned_digests():
    graph = generate_program(
        SyntheticProgramSpec(
            n_functions=40, indirect_edge_fraction=0.15, targets_per_function=(0, 2),
            rng_seed=21,
        )
    )
    digests = {}
    for scheduler in SCHEDULERS:
        config = CampaignConfig(
            scheduler=scheduler, duration=450, rng_seed=7,
            scheduler_config=SchedulerConfig(w_function=60, w_reach=30, w_trigger=120),
        )
        result, queue = run_campaign_with_queue(graph, config)
        assert result.queue_stats["executions"] == 1 + 450
        assert {phase for _, phase, _ in result.phase_timeline} == {
            "inter_explore", "intra_explore", "exploit"}
        digest = hashlib.sha256(result.to_json_bytes())
        digest.update(repr([
            (s.id, s.parent, s.created_at, s.exec_time, s.size, s.favor) for s in queue
        ]).encode())
        digests[scheduler] = digest.hexdigest()
    assert digests == PINNED_QUEUE_SHA256


# SHA-256 of each scheduler's result bytes and final queue on a graph whose
# target ids descend across functions, so the ranking cannot lean on ids that
# follow function order.
PINNED_DESCENDING_IDS_SHA256 = {
    "fishfuzz": "dccdef677fb700c7488a3aceac01c8c64d5e96e907bd16e1dba0a04baaa806ac",
    "round_robin": "87c93f8117f696849da926e0567ebc6068f38a9698c7bb624ce333518710f52d",
    "afl_favor": "86dbb0a708901f09c98d21201ba0c6419cd39c72cfd44dbdd846cc0e7cb9244a",
    "harmonic_directed": "676a93066d760c001238dfd85debfd493b849ef04a1da94f312fc79074959035",
}


def test_descending_target_ids_match_pinned_digests():
    data = graph_to_dict(generate_program(
        SyntheticProgramSpec(n_functions=40, targets_per_function=(0, 3), rng_seed=5)
    ))
    targets = [t for fn in data["functions"] for t in fn["targets"]]
    for t in targets:
        t["id"] = 3 * (len(targets) - 1 - t["id"]) + 7
    graph = graph_from_dict(data)
    by_function = [t.id for f in graph.functions for t in f.targets]
    assert by_function == sorted(by_function, reverse=True)
    digests = {}
    for scheduler in SCHEDULERS:
        config = CampaignConfig(
            scheduler=scheduler, duration=300, rng_seed=3,
            scheduler_config=SchedulerConfig(w_function=20, w_reach=10, w_trigger=40),
        )
        result, queue = run_campaign_with_queue(graph, config)
        if scheduler == "fishfuzz":
            assert "exploit" in {phase for _, phase, _ in result.phase_timeline}
            assert result.final_reached >= 2
        digest = hashlib.sha256(result.to_json_bytes())
        digest.update(repr([
            (s.id, s.parent, s.created_at, s.exec_time, s.size, s.favor) for s in queue
        ]).encode())
        digests[scheduler] = digest.hexdigest()
    assert digests == PINNED_DESCENDING_IDS_SHA256


# graph_hash of generated programs, keyed by (n_functions, branch_probability,
# indirect_edge_fraction, targets_per_function): one, two and forty
# functions, no block and every block branching, no call edge and every call
# edge indirect, no targets and several per function. The last row takes the
# step that hides one function when no indirect edge cuts reachability. So
# the order of every rng draw of the generator is pinned.
PINNED_GRAPH_SHA256 = {
    (1, 0, 0, (0, 0)): "98fc2b8031dfd3ddfbf1157abaed3a2fced2ac0d019bac30b1a2ba94d964c5a3",
    (1, 1, 1, (2, 5)): "eeaea3a7f7ecd6ecd12b4b24c88467d88400da4a08d73248b49a939230311549",
    (2, 0, 1, (2, 5)): "cd6456ac5c3e106f01fa7c8ad4b816b79dc0ecf7006f0b099147b8c5130bfd6c",
    (2, 1, 0, (0, 0)): "a5a52ba19dffa75c0bfe6d05c058dca2b7daf66750598088c2aabe363b4ae66a",
    (40, 0, 0, (2, 5)): "789071475e76663950a4fc2cf22483fa0c7a6d052cbbcf013cd0e471836f108f",
    (40, 1, 1, (0, 0)): "99b5f40b4d4d4277652730e863a2c32a1428b085c226496e6ada1f920f658ffa",
    (40, 1, 0, (2, 5)): "daebd344c36090635980cbec33b914731e3e9027daba06e34f8d996ebef903a5",
    (40, 0, 1, (0, 0)): "13d762402659b0e497d6848096c0a3f321c345a5294239d9d5ae1990845127f0",
    (40, 0.5, 0.01, (2, 5)): "52dfd7c56f289fb1a4b86edefa3d91d783b7f299ec7f843888f88bd9de8ec9b4",
}


def test_generated_graphs_match_pinned_hashes():
    hashes = {
        (n, branch, indirect, targets): graph_hash(generate_program(SyntheticProgramSpec(
            n_functions=n, branch_probability=branch, indirect_edge_fraction=indirect,
            targets_per_function=targets, call_density=1, rng_seed=3,
        )))
        for n, branch, indirect, targets in PINNED_GRAPH_SHA256
    }
    assert hashes == PINNED_GRAPH_SHA256
