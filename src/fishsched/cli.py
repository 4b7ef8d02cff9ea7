"""Command-line entry point tying analysis, simulation, and reporting together.

All diagnostics go to stderr, data to files or stdout. The exit status is
0 on success, 2 on bad input (one ``fishsched:`` line on stderr) and 3 when
an output cannot be written. Every subcommand is deterministic: identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields, replace
from pathlib import Path

from .compare import compare_campaigns, summarize
from .distance import (
    build_distance_map,
    harmonic_distance,
    load_distance_map,
    save_distance_map,
)
from .execution import (
    ExecutionTrace, dsf, multi_target_distance, parse_decimal, parse_trace_line,
)
from .graph import (
    InputError, check_fields, decode_text, load_program, read_bytes, read_json,
)
from .ranking import TargetRanking, energy_series
from .simulator import (
    STANDARD_SPEC,
    CampaignConfig,
    CampaignResult,
    SCHEDULERS,
    SpecError,
    SyntheticProgramSpec,
    check_campaign_graph,
    generate_program,
    run_campaign,
    standard_scheduler_config,
)
from .scheduler import SchedulerConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OUTPUT = 3

# Upper bounds on simulate's campaign size, so that no command line asks for
# unbounded work: a tick keeps a 32-byte series row and writes about 25 bytes.
MAX_SEEDS = 10_000
MAX_DURATION = 1_000_000


def _err(message: str) -> None:
    print(f"fishsched: {message}", file=sys.stderr)


def _fmt_distance(value) -> str:
    return "inf" if value is None else str(value)


def _fmt_float(value: float) -> str:
    return format(value, ".12g")


def _read_trace(path: str):
    for line in decode_text(read_bytes(path), InputError, path).splitlines():
        if line.strip():
            try:
                return parse_trace_line(line)
            except ValueError as exc:
                raise InputError(f"{path}: {exc.args[0]}") from None
    raise InputError(f"{path}: no trace line found")


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands: bad input raises InputError, main() turns it into exit 2
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> None:
    graph = load_program(args.graph)
    dmap = build_distance_map(graph)
    save_distance_map(dmap, args.out)
    n_targets = len(graph.targets())
    finite = len(dmap.dff) - graph.n_functions  # each row holds its source at 0
    print(
        f"functions={graph.n_functions} targets={n_targets} finite_dff_pairs={finite}"
    )


def cmd_distance(args) -> None:
    graph = load_program(args.graph)
    dmap = load_distance_map(args.map, graph)
    seed, fids, tids = None, [], []
    if args.dff is not None:
        fids = args.dff
    elif args.dsf is not None:
        seed, fids = _read_trace(args.dsf[0]), [parse_decimal(args.dsf[1])]
    elif args.multi is not None:
        seed = _read_trace(args.multi[0])
        tids = [parse_decimal(t) for t in args.multi[1].split(",") if t]
    else:
        seed = _read_trace(args.harmonic)
    # Every id the query names, on the command line or in the trace, must be
    # in the graph: a distance to an unknown function would print as inf.
    trace = seed.trace if seed is not None else ExecutionTrace()
    try:
        for fid in [*fids, *trace.functions]:
            graph.function(fid)
        for tid in [*tids, *trace.targets_reached]:
            graph.target(tid)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None
    if args.multi is not None and not tids:
        raise InputError(f"--multi names no target: {args.multi[1]!r}")

    if args.harmonic is not None:  # the hop-count baseline uses no map entry
        if not graph.targets():
            raise InputError(f"{args.graph}: --harmonic needs a graph with targets")
        print(_fmt_float(harmonic_distance(trace, graph.targets(), graph)))
        return

    if args.dff is not None:
        print(_fmt_distance(dmap.dff_value(*fids)))
    elif args.dsf is not None:
        print(_fmt_distance(dsf(seed, fids[0], dmap)))
    else:
        ranking = TargetRanking(graph)
        ranking.record_execution(trace, 0)
        vector = multi_target_distance(seed, tids, ranking, dmap, graph)
        print("\n".join(f"{tid} {_fmt_distance(vector[tid])}" for tid in tids))


def _spec_from_file(path: str) -> SyntheticProgramSpec:
    if path == "standard":
        return STANDARD_SPEC
    data = read_json(path, SpecError)
    optional = [f.name for f in fields(SyntheticProgramSpec)]
    check_fields(data, path, ("n_functions",), optional, error=SpecError)
    # The spec checks each value; JSON has no tuples, so its ranges are lists.
    kwargs = {k: tuple(v) if type(v) is list else v for k, v in data.items()}
    try:
        return SyntheticProgramSpec(**kwargs)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


def _scheduler_config(args) -> SchedulerConfig:
    cfg = standard_scheduler_config() if args.spec == "standard" else SchedulerConfig()
    # Each flag given overrides the SchedulerConfig field of the same name.
    given = vars(args)
    return replace(cfg, **{f.name: given[f.name] for f in fields(SchedulerConfig)
                           if given[f.name] is not None})


def cmd_simulate(args) -> None:
    schedulers = (args.compare.split(",") if args.compare is not None
                  else [args.scheduler or "fishfuzz"])
    if any(s not in SCHEDULERS for s in schedulers):
        raise InputError(
            f"unknown scheduler in {schedulers}; expected one of {list(SCHEDULERS)}"
        )
    if len(set(schedulers)) != len(schedulers):
        raise InputError(f"--compare names a scheduler twice: {args.compare}")
    if args.graph is not None:
        graph = load_program(args.graph)
    else:
        graph = generate_program(_spec_from_file(args.spec))

    # Every campaign is configured, and so validated, before anything is written.
    if args.seeds < 1:
        raise InputError("--seeds must be at least 1")
    if args.seeds > MAX_SEEDS:
        raise InputError(f"--seeds must be at most {MAX_SEEDS}")
    if args.duration > MAX_DURATION:
        raise InputError(f"--duration must be at most {MAX_DURATION}")
    if args.compare and len(schedulers) * args.seeds < 2:
        raise InputError("--compare needs at least two campaigns")
    try:
        sched_cfg = _scheduler_config(args)
        configs = [
            CampaignConfig(
                scheduler=scheduler,
                duration=args.duration,
                rng_seed=args.seed_base + k,
                scheduler_config=sched_cfg,
            )
            for scheduler in schedulers
            for k in range(args.seeds)
        ]
        for scheduler in schedulers:
            check_campaign_graph(graph, scheduler)
    except ValueError as exc:
        raise InputError(exc.args[0]) from None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = []  # only --compare reads a campaign again, and only its summary
    for config in configs:
        result = run_campaign(graph, config)
        if args.compare:
            summaries.append(summarize(result))
        path = out_dir / f"result_{config.scheduler}_{config.rng_seed}.json"
        path.write_bytes(result.to_json_bytes())

    if args.compare:
        report = compare_campaigns(summaries)
        _write_csv(out_dir / "comparison.csv", report.csv_rows())
        print(report.text_table())


def _load_result(path: str) -> CampaignResult:
    raw = read_bytes(path)
    try:
        return CampaignResult.from_json_bytes(raw)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_report(args) -> None:
    results = [_load_result(p) for p in args.results]
    if args.kind != "growth" and len(results) != 1:
        raise InputError(f"{args.kind} report takes exactly one result file")
    if args.kind == "energy":
        rows = [["rank", "hits"], *energy_series(results[0].target_hits)]
    elif args.kind == "phases":
        rows = [["time", "phase"], *_phase_bands(results[0])]
    else:  # growth
        rows = [["scheduler", "seed", "time", "cov", "reach", "trig"]]
        for r in sorted(results, key=lambda r: (r.scheduler, r.rng_seed)):
            rows.extend([r.scheduler, r.rng_seed, *point] for point in r.series)
    _write_csv(args.out, rows)


def _phase_bands(result: CampaignResult) -> list[list]:
    """Band starts (time, phase); consecutive rows partition [0, duration]."""
    bands: list[list] = []
    current = None
    for t, phase, _event in result.phase_timeline:
        if phase != current:
            bands.append([t, phase])
            current = phase
    return bands


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A flag argparse rejects is an InputError, so main() makes it one
    fishsched: line and exit 2, like any other bad input. Subparsers are made
    of the same class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--dff", nargs=2, type=parse_decimal, metavar=("A", "B"),
                       help="function-to-function distance")
    query.add_argument("--dsf", nargs=2, metavar=("TRACE", "F"),
                       help="seed-to-function distance from a trace file")
    query.add_argument("--multi", nargs=2, metavar=("TRACE", "T1,T2,..."),
                       help="per-target distance vector from a trace file")
    query.add_argument("--harmonic", metavar="TRACE",
                       help="harmonic-average baseline distance for a trace file")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("simulate", help="run campaigns and write result files")
    program = p.add_mutually_exclusive_group(required=True)
    program.add_argument("--spec",
                         help="synthetic program spec JSON file, or 'standard'")
    program.add_argument("--graph", help="program graph file (JSON)")
    # No default here: argparse's group check ignores a value that is the
    # default object, and an interned "fishfuzz" can be that very object.
    policy = p.add_mutually_exclusive_group()
    policy.add_argument("--scheduler", choices=SCHEDULERS,
                        help="scheduler policy (default: fishfuzz)")
    policy.add_argument("--compare", metavar="S1,S2,...",
                        help="run several schedulers over identical seeds and compare")
    p.add_argument("--duration", type=int, default=1000,
                   help="campaign length in ticks (default: 1000)")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of campaign rng seeds (default: 1)")
    p.add_argument("--seed-base", type=int, default=1,
                   help="first rng seed (default: 1)")
    p.add_argument("--w-function", type=float, default=None,
                   help="ticks without a new function before leaving inter-exploration")
    p.add_argument("--w-reach", type=float, default=None,
                   help="ticks without a new reached target before exploitation")
    p.add_argument("--w-trigger", type=float, default=None,
                   help="ticks without a new triggered target before re-exploring")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="emit plot data from result files")
    p.add_argument("--kind", required=True, choices=("energy", "phases", "growth"))
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("results", nargs="+", help="campaign result files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except InputError as exc:
        _err(str(exc))
        return EXIT_INPUT
    except OSError as exc:
        # Inputs are read only through graph.read_bytes, which turns every
        # OSError into an InputError; what is left is an output we could not
        # write.
        _err(f"cannot write output: {exc}")
        return EXIT_OUTPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
