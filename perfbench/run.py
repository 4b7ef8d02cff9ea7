"""fishsched benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload std-directed --seed 3 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload once untraced and once traced, plus the size probe, and
prints the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. README.md next
to this file explains the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("std-directed", "std-baselines", "wide")
PROBE_SIZES = (200, 1000, 2000)

END_TO_END = {
    "sweep_s": "s",
    "execs_per_s": "1/s",
    "analyze_s": "s",
    "query_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = ("simulator", "scheduler", "execution", "ranking", "distance", "graph", "compare", "cli")
# Spans whose call count and total time are reported on their own.
SPAN_TOTALS = (
    "simulator.execute_mutation",
    "simulator.generate_program",
    "scheduler.inter_function_cull",
    "scheduler.intra_function_cull",
    "scheduler.exploitation_cull",
    "scheduler.select_next_seed",
    "scheduler.phase_step",
    "execution.multi_target_distance",
    "ranking.record_execution",
    "ranking.order_by_hits",
    "ranking.reached_untriggered",
    "distance.build_distance_map",
    "distance.save_distance_map",
    "distance.load_distance_map",
    "distance.harmonic_distance",
    "graph.load_program",
    "graph.graph_hash",
    "compare.compare_campaigns",
    "compare.rank_sum_p",
)
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in
       (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    **{f"{name}.{m}": u for name in SPAN_TOTALS for m, u in (("calls", "count"), ("s", "s"))},
    "simulator.execute_mutation.p50_us": "us",
    "simulator.execute_mutation.p99_us": "us",
    "simulator.run_campaign.self_s": "s",
    "simulator.executions": "count",
    "simulator.admitted": "count",
    "simulator.admit_ratio": "ratio",
    "scheduler.cull_effective_ratio": "ratio",
    "execution.dsf_lookups": "count",
    "execution.dsf_misses": "count",
    "execution.dsf_miss_ratio": "ratio",
    "distance.dff_pairs": "count",
    "cli.analyze.self_s": "s",
    "cli.distance.self_s": "s",
    "tracing.untraced_sweep_s": "s",
    "tracing.traced_sweep_s": "s",
    "tracing.overhead": "ratio",
    **{f"size{n}.{m}": u for n in PROBE_SIZES for m, u in (
        ("generate_s", "s"), ("load_s", "s"), ("build_s", "s"), ("save_s", "s"),
        ("load_map_s", "s"), ("peak_rss_mb", "MB"), ("dff_pairs", "count"))},
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program() -> bool:
    """Put the checkout's src/ first on sys.path; never use an installed copy."""
    src = ROOT / "src"
    if not (src / "fishsched" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import fishsched

    return Path(fishsched.__file__).resolve().is_relative_to(src.resolve())


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB.

    VmHWM starts afresh at exec; ru_maxrss can carry the peak of the process
    that started this one, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _plain(key, name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# Checks and accounting
# ---------------------------------------------------------------------------


def check(plan, inputs, reps, seed: int) -> tuple[list, int, int]:
    """Check every output; returns (problems, attempted, failed operations)."""
    import checks  # imports networkx, so only after peak RSS was read
    from workloads import DEFAULT_SEED, operation_of

    first = reps[0]
    failed = set()
    problems = []

    def flag(rep: int, key: str, found) -> None:
        for p in found:
            problems.append(f"{key}: {p}")
            failed.add((rep, operation_of(key)))

    for i, rep in enumerate(reps):
        for key in sorted(rep.failed):
            flag(i, key, ["operation failed"])
        for key in sorted(set(rep.digests) | set(first.digests)):
            if rep.digests.get(key) != first.digests.get(key):
                flag(i, key, [f"repetition {i} output differs from repetition 0"])
    maps = {k: v for k, v in first.digests.items() if k.startswith("map:")}
    for key, digest in maps.items():
        if digest != maps["map:0"]:
            flag(0, key, ["map differs from the first analyze call's map"])

    with open(inputs.graph_path, "rb") as fh:
        ref = checks.Reference(fh.read())
    for result in first.results:
        key = f"campaign:{result.scheduler}:{result.rng_seed}"
        flag(0, key, checks.campaign_problems(result, plan.ticks, ref.sha))
    sources = list(range(ref.n_functions))
    if plan.check_sources:
        rng = random.Random(f"{seed}/check")
        picked = set(rng.sample(sources, plan.check_sources))
        picked.update(int(tail[1]) for _, tail in inputs.queries if tail[0] == "--dff")
        sources = sorted(picked)
    flag(0, "map:0", ref.map_problems(first.map_bytes, sources))
    for key, text in first.stdout.items():
        if key.startswith("cli:analyze:"):
            flag(0, key, ref.analyze_problems(text, first.map_bytes))
    for slot in range(len(plan.slots)):
        for qkey, tail in inputs.queries:
            key = f"{qkey}:{slot}"
            flag(0, key, ref.query_problems(tail, first.stdout[key], inputs.traces))
    if seed == DEFAULT_SEED:
        for key in checks.golden_mismatches(plan.name, first.digests):
            flag(0, key, ["output differs from the pinned SHA-256"])
    # A pinned output with no operation behind it is a problem, not a failed call.
    failed = {(i, k) for i, k in failed if k in reps[i].ops}
    attempted = sum(len(rep.ops) for rep in reps)
    return problems, attempted, len(failed)


def output_digest(rep) -> str:
    lines = "".join(f"{k} {v}\n" for k, v in sorted(rep.digests.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(inputs, reps, rss: float) -> dict:
    campaign_s = sum(r.campaign_s for r in reps)
    return {
        "sweep_s": statistics.median(r.sweep_s for r in reps),
        "execs_per_s": sum(r.executions for r in reps) / campaign_s,
        "analyze_s": statistics.median(t for r in reps for t in r.analyze_s),
        "query_s_p50": statistics.median(t for r in reps for t in r.query_s),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(inputs.setup_s + [t for r in reps for t in r.setup_s]),
    }


def per_layer(tracer, base, traced, probe: dict) -> dict:
    from spans import CULLS

    spans = tracer.spans
    own = tracer.self_times()
    out = {name: 0 for name in PER_LAYER}
    durations: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        durations.setdefault(name, []).append(end - start)
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += own[i] / 1e9
        outer = parent
        while outer >= 0 and spans[outer][0].split(".", 1)[0] != layer:
            outer = spans[outer][3]
        if outer < 0:
            out[f"{layer}.total_s"] += (end - start) / 1e9
        if name in ("cli.analyze", "cli.distance", "simulator.run_campaign"):
            out[f"{name}.self_s"] += own[i] / 1e9
        if name == "execution.dsf" and parent >= 0 and spans[parent][0] in CULLS:
            out["execution.dsf_misses"] += 1
    for name in SPAN_TOTALS:
        ds = durations.get(name, [])
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.s"] = sum(ds) / 1e9
    mut = sorted(durations.get("simulator.execute_mutation", [0]))
    out["simulator.execute_mutation.p50_us"] = statistics.median(mut) / 1e3
    out["simulator.execute_mutation.p99_us"] = mut[min(len(mut) - 1, int(0.99 * len(mut)))] / 1e3

    stats = [r.queue_stats for r in traced.results]
    out["simulator.executions"] = sum(q["executions"] for q in stats)
    out["simulator.admitted"] = sum(q["n_seeds"] - 1 for q in stats)
    out["simulator.admit_ratio"] = out["simulator.admitted"] / max(out["simulator.executions"], 1)
    counts = tracer.counts
    culls = sum(counts[f"{c}.calls"] for c in CULLS)
    out["scheduler.cull_effective_ratio"] = counts["scheduler.culls_effective"] / culls if culls else 0
    out["execution.dsf_lookups"] = counts["execution.dsf_lookups"]
    lookups = out["execution.dsf_lookups"]
    out["execution.dsf_miss_ratio"] = out["execution.dsf_misses"] / lookups if lookups else 0
    out["distance.dff_pairs"] = counts["distance.dff_pairs"]
    out["tracing.untraced_sweep_s"] = base.sweep_s
    out["tracing.traced_sweep_s"] = traced.sweep_s
    out["tracing.overhead"] = traced.sweep_s / base.sweep_s
    for n, values in probe.items():
        for m, v in values.items():
            out[f"size{n}.{m}"] = v
    return out


def size_probe(workdir: str, sizes) -> dict:
    """Each size in its own process, one after another."""
    env = {k: v for k, v in os.environ.items() if k != "FISHSCHED_SEED"}
    found = {}
    for n in sizes:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             "--functions", str(n), "--dir", workdir],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        found[n] = json.loads(proc.stdout.strip().splitlines()[-1])
    return found


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(plan, seed: int, seconds: float, trace: bool, workdir: str,
        probe_sizes=PROBE_SIZES) -> dict:
    """Run one workload plan; returns the report (result line plus details)."""
    import fishsched
    import spans
    import workloads

    tracer = spans.Tracer()

    def traced_call(key, name, fn, *args):
        tracer.context(key)
        return tracer.call(name, fn, *args)

    inputs = workloads.setup(plan, seed, workdir, traced_call if trace else _plain)

    reps = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        reps.append(workloads.run_rep(plan, inputs, _plain, keep_map=not reps))
        took = time.perf_counter() - began
        if trace or time.perf_counter() - start + took > seconds:
            break
    rss = peak_rss_mb()
    probe = {}
    if trace:
        tracer.install(fishsched)
        try:
            reps.append(workloads.run_rep(plan, inputs, traced_call))
        finally:
            tracer.uninstall()
        probe = size_probe(workdir, probe_sizes)

    problems, attempted, failed = check(plan, inputs, reps, seed)
    if trace:
        metrics = per_layer(tracer, reps[0], reps[1], probe)
        units = PER_LAYER
    else:
        metrics = end_to_end(inputs, reps, rss)
        units = END_TO_END
    return {
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
        "workload": plan.name,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "digest": output_digest(reps[0]),
        "outputs": reps[0].digests,
        "problems": problems,
        "machine": machine(),
        "tracer": tracer if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fishsched benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Only --seed picks the inputs; the CLI's seed override must not leak in.
    os.environ.pop("FISHSCHED_SEED", None)
    if not _import_program():
        return _fail(f"no fishsched sources under {ROOT / 'src'}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from workloads import make_plan

    plan = make_plan(args.workload, args.seed)
    WORKDIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=WORKDIR)
    try:
        report = run(plan, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer")
    if tracer is not None:
        tracer.write(str(WORKDIR / f"{stem}.spans.tsv"))
    with open(WORKDIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    result = report["result"]
    for p in report["problems"]:
        print(f"problem: {p}")
    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    print(f"digest: {args.workload} {report['digest']}")
    print(f"error_rate: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    print(f"details: {WORKDIR.name}/{stem}.json")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
