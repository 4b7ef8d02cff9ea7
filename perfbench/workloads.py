"""The benchmark's workloads: their inputs, made from the workload seed, and one
repetition of their work.

Every workload writes one program graph file (set-up), then repeats a unit
of closed-loop work: ``analyze`` calls, ``distance`` queries through the
in-process CLI, and campaigns, each call starting after the previous one
ends. Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field, replace

import fishsched
from fishsched import cli, compare, simulator
from fishsched.graph import save_program

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Plan:
    """A workload, fixed once its seed is known."""

    name: str
    spec: simulator.SyntheticProgramSpec
    campaigns: tuple  # (scheduler, campaign seed) pairs, run in this order
    ticks: int
    compare: bool = False
    query_kinds: tuple = ("dff", "dff", "dsf", "dsf", "multi", "harmonic")
    check_sources: int = 0  # dff rows checked against networkx; 0 means all
    campaigns_per_slot: int = 1

    @property
    def slots(self) -> list:
        """Campaign groups; each follows one set-up, analyze and query round."""
        k = self.campaigns_per_slot
        return [self.campaigns[i:i + k] for i in range(0, len(self.campaigns), k)]


WIDE_SPEC = replace(simulator.STANDARD_SPEC, n_functions=2000)


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{seed}/campaigns")
    standard = simulator.STANDARD_SEEDS
    if workload == "std-directed":
        seeds = sorted(rng.sample(standard, 7))
        return Plan(
            name=workload,
            spec=simulator.STANDARD_SPEC,
            campaigns=tuple(("fishfuzz", s) for s in seeds),
            ticks=simulator.STANDARD_DURATION,
        )
    if workload == "std-baselines":
        seeds = sorted(rng.sample(standard, 3))
        return Plan(
            name=workload,
            spec=simulator.STANDARD_SPEC,
            campaigns=tuple(
                (sched, s)
                for sched in ("afl_favor", "round_robin", "harmonic_directed")
                for s in seeds
            ),
            ticks=simulator.STANDARD_DURATION,
            compare=True,
            # No dsf here: this workload is the control for dsf changes.
            query_kinds=("dff", "dff", "harmonic", "harmonic"),
        )
    if workload == "wide":
        return Plan(
            name=workload,
            spec=WIDE_SPEC,
            # Pinned like the graph: across workload seeds, three seed-drawn
            # campaigns took 4.8-7.6 s in all, too wide for any bound.
            campaigns=tuple(("fishfuzz", s) for s in standard[:3]),
            ticks=40,
            query_kinds=("dff", "dsf", "multi", "harmonic"),
            check_sources=24,
            campaigns_per_slot=3,
        )
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Inputs: graph file, trace files and distance queries
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    graph: fishsched.ProgramGraph
    graph_path: str
    map_path: str
    setup_s: list
    traces: dict = field(default_factory=dict)  # path -> (functions, reached, triggered)
    queries: list = field(default_factory=list)  # (key, argv tail)


def write_graph(plan: Plan, path: str, timed):
    """Set-up: generate the graph and write its file; returns (graph, seconds)."""
    start = time.perf_counter()
    with fresh_heap():
        graph = timed("setup", "simulator.generate_program", simulator.generate_program, plan.spec)
        save_program(graph, path)
    return graph, time.perf_counter() - start


def setup(plan: Plan, seed: int, workdir: str, timed) -> Inputs:
    """Write the graph file and two trace files; pick the queries from the seed."""
    graph_path = os.path.join(workdir, "program.graph")
    graph, took = write_graph(plan, graph_path, timed)
    inputs = Inputs(graph, graph_path, os.path.join(workdir, "program.map"), [took])
    rng = random.Random(f"{seed}/queries")
    n = graph.n_functions
    paths = []
    for i in range(2):
        funcs = sorted(rng.sample(range(n), rng.randint(1, 6)))
        reached = sorted(
            t.id for f in funcs for t in graph.function(f).targets if rng.random() < 0.5
        )
        triggered = [t for t in reached if rng.random() < 0.3]
        path = os.path.join(workdir, f"seed{i}.trace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"{i + 1}; {rng.randint(50, 500)}; {rng.randint(1, 256)}; "
                f"functions={_ids(funcs)}; reached={_ids(reached)}; "
                f"triggered={_ids(triggered)}\n"
            )
        inputs.traces[path] = (funcs, reached, triggered)
        paths.append(path)
    callees: dict = {}
    for a, b in sorted(graph.call_edges):
        callees.setdefault(a, []).append(b)

    def near(f: int) -> int:
        """A function 0-3 direct calls away from f, so answers are rarely inf."""
        for _ in range(rng.randint(0, 3)):
            if f not in callees:
                break
            f = rng.choice(callees[f])
        return f

    target_ids = [t.id for t in graph.targets()]
    for i, kind in enumerate(plan.query_kinds):
        trace = paths[i % 2]
        funcs = inputs.traces[trace][0]
        if kind == "dff":
            a = rng.randrange(n)
            tail = ["--dff", str(a), str(near(a))]
        elif kind == "dsf":
            tail = ["--dsf", trace, str(near(rng.choice(funcs)))]
        elif kind == "multi":
            own = [t.id for f in funcs for t in graph.function(f).targets]
            picked = rng.sample(own, min(3, len(own))) + rng.sample(target_ids, 3)
            tail = ["--multi", trace, _ids(sorted(set(picked)))]
        else:
            tail = ["--harmonic", trace]
        inputs.queries.append((f"cli:distance:{i}:{kind}", tail))
    return inputs


def _ids(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# One repetition of a workload's work
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    setup_s: list = field(default_factory=list)
    analyze_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    campaign_s: float = 0.0
    compare_s: float = 0.0
    executions: int = 0
    digests: dict = field(default_factory=dict)  # output key -> sha256
    stdout: dict = field(default_factory=dict)  # CLI operation key -> text
    results: list = field(default_factory=list)  # CampaignResult, run order
    ops: list = field(default_factory=list)  # operation keys, run order
    failed: set = field(default_factory=set)  # keys of failed operations
    map_bytes: bytes = b""

    @property
    def sweep_s(self) -> float:
        return self.campaign_s + self.compare_s


def operation_of(output_key: str) -> str:
    """The operation that wrote an output: a map file is written by analyze."""
    return output_key.replace("map:", "cli:analyze:", 1)


@contextlib.contextmanager
def fresh_heap():
    """Hide the benchmark's own heap from the collector during one operation.

    Without this, a call's garbage-collection cost grows with the results
    earlier operations left alive, so its time would depend on what ran
    before it. A standalone CLI process starts with a small heap too.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(rep: Rep, key: str, argv: list, timed, label: str) -> float:
    out, err = io.StringIO(), io.StringIO()
    rep.ops.append(key)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), fresh_heap():
        try:
            code = timed(key, label, cli.main, argv)
        except (Exception, SystemExit):  # counted as a failed operation
            code = -1
    elapsed = time.perf_counter() - start
    if code != 0:
        rep.failed.add(key)
    rep.stdout[key] = out.getvalue()
    rep.digests[key] = _sha(out.getvalue().encode("utf-8"))
    return elapsed


def run_rep(plan: Plan, inputs: Inputs, timed, keep_map: bool = False) -> Rep:
    """Run the workload's unit of work once.

    Each slot of campaigns is preceded by set-up, one ``analyze`` and one
    round of ``distance`` queries. Spreading the short calls over
    the whole repetition keeps their medians from resting on one burst of
    machine noise. ``timed(key, name, fn, *args)`` calls fn for operation
    ``key``; the traced run records it as a span called ``name``.
    """
    rep = Rep()
    analyze = ["analyze", "--graph", inputs.graph_path, "--out", inputs.map_path]
    graph_only = os.path.join(os.path.dirname(inputs.graph_path), "setup.graph")
    for slot, campaigns in enumerate(plan.slots):
        rep.setup_s.append(write_graph(plan, graph_only, timed)[1])
        key = f"cli:analyze:{slot}"
        rep.analyze_s.append(_cli(rep, key, analyze, timed, "cli.analyze"))
        with open(inputs.map_path, "rb") as fh:
            raw = fh.read()
        rep.digests[f"map:{slot}"] = _sha(raw)
        if keep_map and slot == 0:
            rep.map_bytes = raw
        for qkey, tail in inputs.queries:
            argv = ["distance", "--graph", inputs.graph_path, "--map", inputs.map_path]
            rep.query_s.append(_cli(rep, f"{qkey}:{slot}", argv + tail, timed, "cli.distance"))

        for scheduler, cseed in campaigns:
            key = f"campaign:{scheduler}:{cseed}"
            rep.ops.append(key)
            config = simulator.standard_config(scheduler, cseed, plan.ticks)
            start = time.perf_counter()
            try:
                with fresh_heap():
                    result = timed(
                        key, "simulator.run_campaign", simulator.run_campaign, inputs.graph, config
                    )
            except Exception:  # counted as a failed operation
                rep.failed.add(key)
                continue
            finally:
                rep.campaign_s += time.perf_counter() - start
            rep.executions += result.queue_stats["executions"]
            rep.results.append(result)
            rep.digests[key] = _sha(result.to_json_bytes())

    if plan.compare:
        rep.ops.append("compare")
        start = time.perf_counter()
        try:
            with fresh_heap():
                report = timed(
                    "compare", "compare.compare_campaigns", compare.compare_campaigns, rep.results
                )
            text = "\n".join(",".join(map(str, row)) for row in report.csv_rows())
            text += "\n" + report.text_table() + "\n"
            rep.digests["compare"] = _sha(text.encode("utf-8"))
        except Exception:  # counted as a failed operation
            rep.failed.add("compare")
        rep.compare_s = time.perf_counter() - start
    return rep
