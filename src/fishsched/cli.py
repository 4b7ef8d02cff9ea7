"""Command-line entry point tying analysis, simulation, and reporting together.

All diagnostics go to stderr, data to files or stdout; exit status 0 means
no diagnostic was emitted. Every subcommand is deterministic: identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .compare import compare_campaigns
from .distance import (
    DistanceMapError,
    build_distance_map,
    harmonic_distance,
    load_distance_map,
    save_distance_map,
)
from .execution import dsf, multi_target_distance, parse_trace_line
from .graph import GraphError, load_program
from .ranking import energy_series
from .simulator import (
    STANDARD_SPEC,
    CampaignConfig,
    CampaignResult,
    SCHEDULERS,
    SyntheticProgramSpec,
    generate_program,
    run_campaign,
    standard_scheduler_config,
)
from .scheduler import SchedulerConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OUTPUT = 3

SEED_ENV = "FISHSCHED_SEED"


def _err(message: str) -> None:
    print(f"fishsched: {message}", file=sys.stderr)


def _fmt_distance(value) -> str:
    return "inf" if value is None else str(value)


def _fmt_float(value: float) -> str:
    return format(value, ".12g")


def _load_graph(path: str):
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    return load_program(path)


def _read_trace(path: str):
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                return parse_trace_line(line)
    raise ValueError(f"{path}: no trace line found")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    try:
        graph = _load_graph(args.graph)
    except (FileNotFoundError, GraphError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    dmap = build_distance_map(graph)
    try:
        save_distance_map(dmap, args.out)
    except OSError as exc:
        _err(f"cannot write {args.out}: {exc}")
        return EXIT_OUTPUT
    n_targets = len(graph.targets())
    finite = sum(1 for (a, b) in dmap.dff if a != b)
    print(
        f"functions={graph.n_functions} targets={n_targets} finite_dff_pairs={finite}"
    )
    return EXIT_OK


def cmd_distance(args) -> int:
    try:
        graph = _load_graph(args.graph)
        dmap = load_distance_map(args.map, graph)
    except (FileNotFoundError, GraphError, DistanceMapError) as exc:
        _err(str(exc))
        return EXIT_INPUT

    try:
        if args.dff is not None:
            fa, fb = args.dff
            graph.function(fa)
            graph.function(fb)
            print(_fmt_distance(dmap.dff_value(fa, fb)))
        elif args.dsf is not None:
            trace_path, fid = args.dsf
            seed = _read_trace(trace_path)
            print(_fmt_distance(dsf(seed, int(fid), dmap)))
        elif args.multi is not None:
            trace_path, id_list = args.multi
            seed = _read_trace(trace_path)
            targets = [int(x) for x in id_list.split(",") if x]
            ranking = _ranking_from_trace(graph, seed)
            vector = multi_target_distance(seed, targets, ranking, dmap, graph)
            for tid in targets:
                print(f"{tid} {_fmt_distance(vector[tid])}")
        elif args.harmonic is not None:
            seed = _read_trace(args.harmonic)
            value = harmonic_distance(seed.trace, graph.targets(), graph)
            print(_fmt_float(value))
        else:
            _err("one of --dff/--dsf/--multi/--harmonic is required")
            return EXIT_INPUT
    except (FileNotFoundError, KeyError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    return EXIT_OK


def _ranking_from_trace(graph, seed):
    from .ranking import TargetRanking

    ranking = TargetRanking(graph)
    ranking.record_execution(seed.trace, 0)
    return ranking


def _spec_from_file(path: str) -> SyntheticProgramSpec:
    if path == "standard":
        return STANDARD_SPEC
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(SyntheticProgramSpec)})
    if unknown:
        raise ValueError(f"{path}: unknown field(s) {unknown}")
    kwargs = dict(data)
    for key, value in data.items():
        if key in ("blocks_per_function", "targets_per_function"):
            ok = isinstance(value, list) and len(value) == 2
            ok = ok and all(type(v) is int for v in value)
            kwargs[key] = tuple(value) if ok else value
        elif key in ("n_functions", "rng_seed"):
            ok = type(value) is int
        else:
            ok = type(value) in (int, float) and math.isfinite(value)
        if not ok:
            raise ValueError(f"{path}: field '{key}' has the wrong type: {value!r}")
    return SyntheticProgramSpec(**kwargs)


def _scheduler_config(args) -> SchedulerConfig:
    cfg = standard_scheduler_config() if args.spec == "standard" else SchedulerConfig()
    overrides = {}
    if args.w_function is not None:
        overrides["w_function"] = args.w_function
    if args.w_reach is not None:
        overrides["w_reach"] = args.w_reach
    if args.w_trigger is not None:
        overrides["w_trigger"] = args.w_trigger
    if args.exploit_fraction is not None:
        overrides["exploit_fraction"] = args.exploit_fraction
    if args.exploit_include_triggered:
        overrides["exploit_include_triggered"] = True
    return replace(cfg, **overrides) if overrides else cfg


def cmd_simulate(args) -> int:
    if (args.spec is None) == (args.graph is None):
        _err("exactly one of --spec or --graph is required")
        return EXIT_INPUT
    schedulers = args.compare.split(",") if args.compare else [args.scheduler]
    if any(s not in SCHEDULERS for s in schedulers):
        _err(f"unknown scheduler in {schedulers}; expected one of {list(SCHEDULERS)}")
        return EXIT_INPUT

    try:
        if args.graph is not None:
            graph = _load_graph(args.graph)
        else:
            graph = generate_program(_spec_from_file(args.spec))
    except (FileNotFoundError, GraphError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT

    seed_base = args.seed_base
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            seed_base = int(env_seed)
        except ValueError:
            _err(f"{SEED_ENV} must be an integer, got {env_seed!r}")
            return EXIT_INPUT

    # Every campaign is configured, and so validated, before anything is written.
    if args.seeds < 1:
        _err("--seeds must be at least 1")
        return EXIT_INPUT
    if args.compare and len(schedulers) * args.seeds < 2:
        _err("--compare needs at least two campaigns")
        return EXIT_INPUT
    try:
        sched_cfg = _scheduler_config(args)
        configs = [
            CampaignConfig(
                scheduler=scheduler,
                duration=args.duration,
                executions_per_tick=args.executions_per_tick,
                rng_seed=seed_base + k,
                scheduler_config=sched_cfg,
            )
            for scheduler in schedulers
            for k in range(args.seeds)
        ]
    except ValueError as exc:
        _err(str(exc))
        return EXIT_INPUT

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _err(f"cannot create {out_dir}: {exc}")
        return EXIT_OUTPUT

    results = []
    try:
        for config in configs:
            result = run_campaign(graph, config)
            results.append(result)
            path = out_dir / f"result_{config.scheduler}_{config.rng_seed}.json"
            path.write_bytes(result.to_json_bytes())
    except OSError as exc:
        _err(f"cannot write results: {exc}")
        return EXIT_OUTPUT

    if args.compare:
        report = compare_campaigns(results)
        try:
            with open(out_dir / "comparison.csv", "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerows(report.csv_rows())
        except OSError as exc:
            _err(f"cannot write comparison: {exc}")
            return EXIT_OUTPUT
        print(report.text_table())
    return EXIT_OK


def _load_results(paths) -> list[CampaignResult]:
    results = []
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"no such file: {p}")
        try:
            results.append(CampaignResult.from_json_bytes(Path(p).read_bytes()))
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
    return results


def cmd_report(args) -> int:
    try:
        results = _load_results(args.results)
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT

    rows: list[list] = []
    if args.kind == "energy":
        if len(results) != 1:
            _err("energy report takes exactly one result file")
            return EXIT_INPUT
        rows.append(["rank", "hits"])
        rows.extend(list(r) for r in energy_series(results[0].target_hits))
    elif args.kind == "phases":
        if len(results) != 1:
            _err("phases report takes exactly one result file")
            return EXIT_INPUT
        rows.append(["time", "phase"])
        rows.extend(_phase_bands(results[0]))
    else:  # growth
        rows.append(["scheduler", "seed", "time", "cov", "reach", "trig"])
        for r in sorted(results, key=lambda r: (r.scheduler, r.rng_seed)):
            for t, cov, reach, trig in r.series:
                rows.append([r.scheduler, r.rng_seed, t, cov, reach, trig])

    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(rows)
    except OSError as exc:
        _err(f"cannot write {args.out}: {exc}")
        return EXIT_OUTPUT
    return EXIT_OK


def _phase_bands(result: CampaignResult) -> list[list]:
    """Band starts (time, phase); consecutive rows partition [0, duration]."""
    bands: list[list] = []
    current = None
    for t, phase, _event in result.phase_timeline:
        if phase != current:
            bands.append([t, phase])
            current = phase
    if not bands:
        bands.append([0, "inter_explore"])
    return bands


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishsched",
        description="Directed fuzzing scheduler analysis and campaign simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build and save a static distance map")
    p.add_argument("--graph", required=True, help="program graph file (JSON)")
    p.add_argument("--out", required=True, help="output distance-map file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("distance", help="query distances for inspection")
    p.add_argument("--graph", required=True, help="program graph file (JSON)")
    p.add_argument("--map", required=True, help="distance-map file from 'analyze'")
    p.add_argument("--dff", nargs=2, type=int, metavar=("A", "B"),
                   help="function-to-function distance")
    p.add_argument("--dsf", nargs=2, metavar=("TRACE", "F"),
                   help="seed-to-function distance from a trace file")
    p.add_argument("--multi", nargs=2, metavar=("TRACE", "T1,T2,..."),
                   help="per-target distance vector from a trace file")
    p.add_argument("--harmonic", metavar="TRACE",
                   help="harmonic-average baseline distance for a trace file")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("simulate", help="run campaigns and write result files")
    p.add_argument("--spec", help="synthetic program spec JSON file, or 'standard'")
    p.add_argument("--graph", help="program graph file (JSON)")
    p.add_argument("--scheduler", default="fishfuzz", choices=SCHEDULERS,
                   help="scheduler policy (default: fishfuzz)")
    p.add_argument("--compare", metavar="S1,S2,...",
                   help="run several schedulers over identical seeds and compare")
    p.add_argument("--duration", type=int, default=1000,
                   help="campaign length in ticks (default: 1000)")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of campaign rng seeds (default: 1)")
    p.add_argument("--seed-base", type=int, default=1,
                   help=f"first rng seed; ${SEED_ENV} overrides (default: 1)")
    p.add_argument("--executions-per-tick", type=int, default=1,
                   help="executions per virtual tick (default: 1)")
    p.add_argument("--w-function", type=float, default=None,
                   help="ticks without a new function before leaving inter-exploration")
    p.add_argument("--w-reach", type=float, default=None,
                   help="ticks without a new reached target before exploitation")
    p.add_argument("--w-trigger", type=float, default=None,
                   help="ticks without a new triggered target before re-exploring")
    p.add_argument("--exploit-fraction", type=float, default=None,
                   help="fraction of least-hit reached targets serviced (default: 0.2)")
    p.add_argument("--exploit-include-triggered", action="store_true",
                   help="keep triggered targets in the exploitation candidate list")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="emit plot data from result files")
    p.add_argument("--kind", required=True, choices=("energy", "phases", "growth"))
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("results", nargs="+", help="campaign result files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
