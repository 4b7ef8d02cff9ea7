"""Campaign output does not depend on the interpreter's string-hash seed.

Sets and dicts of strings iterate in a hash-seed-dependent order, so any
walk driven by such an order would show up here as differing bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import fishsched
from fishsched.simulator import SCHEDULERS

SRC = Path(fishsched.__file__).resolve().parents[1]


def _simulate(out: Path, hash_seed: str):
    env = {k: v for k, v in os.environ.items() if k != "FISHSCHED_SEED"}
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
