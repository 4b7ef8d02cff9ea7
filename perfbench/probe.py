"""Size probe: time the analysis path on one generated graph, in its own process.

Run by ``run.py --trace 1`` once per size, so that each size gets its own
peak resident memory. Prints one JSON object.

    python3 perfbench/probe.py --functions 1000 --dir .perfbench_work/probe
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from fishsched.distance import build_distance_map, load_distance_map, save_distance_map  # noqa: E402
from fishsched.graph import load_program, save_program  # noqa: E402
from fishsched.simulator import STANDARD_SPEC, generate_program  # noqa: E402
from run import peak_rss_mb  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--functions", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory for the graph and map files")
    args = parser.parse_args()
    graph_path = os.path.join(args.dir, f"probe{args.functions}.graph")
    map_path = os.path.join(args.dir, f"probe{args.functions}.map")
    out = {}

    start = time.perf_counter()
    graph = generate_program(replace(STANDARD_SPEC, n_functions=args.functions))
    out["generate_s"] = time.perf_counter() - start
    save_program(graph, graph_path)

    start = time.perf_counter()
    graph = load_program(graph_path)
    out["load_s"] = time.perf_counter() - start

    start = time.perf_counter()
    dmap = build_distance_map(graph)
    out["build_s"] = time.perf_counter() - start
    out["dff_pairs"] = len(dmap.dff)

    start = time.perf_counter()
    save_distance_map(dmap, map_path)
    out["save_s"] = time.perf_counter() - start
    del dmap

    start = time.perf_counter()
    load_distance_map(map_path, graph)
    out["load_map_s"] = time.perf_counter() - start

    out["peak_rss_mb"] = peak_rss_mb()
    os.remove(graph_path)
    os.remove(map_path)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
