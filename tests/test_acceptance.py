"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s and on failure)
and enforces the criterion's runtime budget.
"""

import math
import random
import time
from functools import partial

from fishsched.cli import main as cli_main
from fishsched.compare import gini, never_hit_count
from fishsched.distance import build_distance_map, harmonic_distance
from fishsched.execution import ExecutionTrace, Seed, dsf, multi_target_distance
from fishsched.graph import ENTRY_FUNCTION, graph_from_dict, load_program
from fishsched.ranking import TargetRanking, UpdateSummary
from fishsched.scheduler import (
    BestSeeds,
    FunctionExplorationState,
    Phase,
    PhaseClock,
    SchedulerConfig,
    exploitation_cull,
    inter_function_cull,
    phase_step,
)
from fishsched.simulator import STANDARD_SEEDS
from conftest import FIXTURES
from oracles import oracle_dff, random_graph_dict


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Baseline reproduction on the hand-encoded fixture
# ---------------------------------------------------------------------------


def test_fig2_baseline_reproduction():
    t0 = time.monotonic()
    graph = load_program(str(FIXTURES / "fig2.graph"))
    targets = graph.targets()
    s1 = ExecutionTrace(functions=frozenset({0, 2, 4}))
    s2 = ExecutionTrace(functions=frozenset({0, 1}))
    d1 = harmonic_distance(s1, targets, graph)
    d2 = harmonic_distance(s2, targets, graph)
    elapsed = time.monotonic() - t0
    ok = abs(d1 - 1.8) < 1e-9 and abs(d2 - 2.25) < 1e-9 and elapsed < 1.0
    report(
        "fig2-baseline",
        ok,
        f"s1={d1!r} s2={d2!r} elapsed={elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# 2. Static-distance oracle equivalence
# ---------------------------------------------------------------------------


def test_static_distance_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(271828)
    mismatches = 0
    for _ in range(200):
        graph = graph_from_dict(random_graph_dict(rng, max_functions=50, max_blocks=8))
        dmap = build_distance_map(graph)
        if dict(dmap.dff) != oracle_dff(graph):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(
        "static-distance-oracle",
        ok,
        f"graphs=200 mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Seed-distance contracts
# ---------------------------------------------------------------------------


def test_distance_contracts():
    t0 = time.monotonic()
    rng = random.Random(31415)
    cases = 0
    failures = []
    for _ in range(100):
        graph = graph_from_dict(
            random_graph_dict(rng, max_functions=15, target_rate=0.7)
        )
        dmap = build_distance_map(graph)
        n = graph.n_functions
        tids = [t.id for t in graph.targets()]

        ranking = TargetRanking(graph)
        by_fn = {t.id: t.function for t in graph.targets()}
        triggered = {t for t in tids if rng.random() < 0.3}
        for tid in sorted(triggered):
            ranking.record_execution(
                ExecutionTrace(
                    functions=frozenset({by_fn[tid]}),
                    targets_reached=frozenset({tid}),
                    targets_triggered=frozenset({tid}),
                ),
                now=1,
            )

        for _ in range(10):
            cases += 1
            funcs = frozenset(rng.sample(range(n), rng.randint(1, n)))
            seed = Seed(id=1, exec_time=7, size=7,
                        trace=ExecutionTrace(functions=funcs))
            fid = rng.randrange(n)
            d = dsf(seed, fid, dmap)
            zero_dff = any(dmap.dff_value(fs, fid) == 0 for fs in funcs)
            if (d == 0) != (fid in funcs or zero_dff):
                failures.append("zero-iff")

            if tids:
                vector = multi_target_distance(seed, tids, ranking, dmap, graph)
                if any(vector[t] != 0 for t in triggered):
                    failures.append("triggered-nonzero")
                cut = rng.randint(0, len(tids))
                a, b = tids[:cut], tids[cut:]
                va = multi_target_distance(seed, a, ranking, dmap, graph)
                vb = multi_target_distance(seed, b, ranking, dmap, graph)
                if any(vector[t] != va[t] for t in a) or any(
                    vector[t] != vb[t] for t in b
                ):
                    failures.append("restriction")
    elapsed = time.monotonic() - t0
    ok = not failures and cases >= 1000 and elapsed < 10.0
    report(
        "distance-contracts",
        ok,
        f"cases={cases} failures={sorted(set(failures))} elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Cull-pass fidelity against exhaustive scans
# ---------------------------------------------------------------------------


def _random_cull_state(rng):
    graph = graph_from_dict(
        random_graph_dict(rng, max_functions=12, target_rate=0.8)
    )
    dmap = build_distance_map(graph)
    n = graph.n_functions
    tids = [t.id for t in graph.targets()]
    by_fn = {t.id: t.function for t in graph.targets()}

    queue = []
    for sid in range(rng.randint(2, 12)):
        funcs = frozenset(rng.sample(range(n), rng.randint(1, n)))
        reached = frozenset(
            t for t in tids if by_fn[t] in funcs and rng.random() < 0.5
        )
        queue.append(
            Seed(
                id=sid,
                exec_time=rng.choice((100, 200, 200, 300)),
                size=rng.randint(1, 50),
                trace=ExecutionTrace(functions=funcs, targets_reached=reached),
            )
        )

    fstate = FunctionExplorationState(graph)
    fstate.observe(
        ExecutionTrace(
            functions=frozenset(rng.sample(range(n), rng.randint(1, n)))
        )
    )

    ranking = TargetRanking(graph)
    for tid in tids:
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 6)):
                ranking.record_execution(
                    ExecutionTrace(
                        functions=frozenset({by_fn[tid]}),
                        targets_reached=frozenset({tid}),
                    ),
                    now=1,
                )
            if rng.random() < 0.25:
                ranking.record_execution(
                    ExecutionTrace(
                        functions=frozenset({by_fn[tid]}),
                        targets_reached=frozenset({tid}),
                        targets_triggered=frozenset({tid}),
                    ),
                    now=2,
                )
    return graph, dmap, queue, fstate, ranking


def test_cull_fidelity_exhaustive_scan():
    t0 = time.monotonic()
    rng = random.Random(161803)
    states = 0
    failures = []
    while states < 500:
        graph, dmap, queue, fstate, ranking = _random_cull_state(rng)
        states += 1

        inter_function_cull(queue, fstate, partial(dsf, dmap=dmap))
        expected = set()
        for fid in sorted(fstate.has_targets - fstate.explored):
            best = None
            for s in queue:
                d = dsf(s, fid, dmap)
                if d is None:
                    continue
                key = (d, s.exec_time, s.id)
                if best is None or key < best[0]:
                    best = (key, s.id)
            if best is not None:
                expected.add(best[1])
        got = {s.id for s in queue if s.favor}
        if got != expected:
            failures.append("inter")

        exploitation_cull(queue, ranking, graph, BestSeeds(), partial(dsf, dmap=dmap))
        candidates = [
            t.id
            for t in graph.targets()
            if ranking.state(t.id).reached and not ranking.state(t.id).triggered
        ]
        ordered = sorted(candidates, key=lambda t: (ranking.state(t).hits, t))
        serviced = ordered[: math.ceil(len(ordered) * 0.2)]
        expected = set()
        for tid in serviced:
            fn = graph.target(tid).function
            reaching = [s for s in queue if tid in s.trace.targets_reached]
            if reaching:
                expected.add(min(reaching, key=lambda s: (s.exec_time, s.id)).id)
            else:
                finite = [
                    (dsf(s, fn, dmap), s.exec_time, s.id)
                    for s in queue
                    if dsf(s, fn, dmap) is not None
                ]
                if finite:
                    expected.add(min(finite)[2])
        got = {s.id for s in queue if s.favor}
        if got != expected:
            failures.append("exploit")
        if serviced and len(ordered) >= 1:
            if len(serviced) != math.ceil(len(ordered) * 0.2):
                failures.append("threshold")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    report(
        "cull-fidelity",
        ok,
        f"states={states} failures={sorted(set(failures))} elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Phase state machine replay against a golden timeline
# ---------------------------------------------------------------------------


def test_phase_fsm_replay_golden():
    # Golden timeline derived by hand from the transition rules: the clock
    # holds only past events, so a summary refreshes it after stepping.
    cfg = SchedulerConfig()  # 30min/10min/1h at 100 ticks per virtual minute
    log = [
        (100, UpdateSummary(new_functions=1), "inter_explore"),   # f=100
        (2000, UpdateSummary(new_reached=1), "inter_explore"),    # r=2000
        (3050, UpdateSummary(new_reached=1), "inter_explore"),    # r=3050
        (3099, UpdateSummary(), "inter_explore"),                 # 2999 < 3000
        (3100, UpdateSummary(), "intra_explore"),   # 30 min without functions
        (4049, UpdateSummary(), "intra_explore"),                 # 999 < 1000
        (4050, UpdateSummary(), "exploit"),         # 10 min without reaches
        (4200, UpdateSummary(new_triggered=1), "exploit"),        # tr=4200
        (10199, UpdateSummary(), "exploit"),                      # 5999 < 6000
        (10200, UpdateSummary(), "inter_explore"),  # 1 h without triggers
        (10300, UpdateSummary(new_functions=1), "inter_explore"),  # f=10300
        (13500, UpdateSummary(new_reached=1), "intra_explore"),   # 3200 >= 3000
        (14499, UpdateSummary(), "intra_explore"),                # 999 < 1000
        (14500, UpdateSummary(), "exploit"),        # 10 min without reaches
        (15000, UpdateSummary(new_functions=1), "inter_explore"),  # event rule
        (20000, UpdateSummary(), "intra_explore"),                # 5000 >= 3000
    ]
    clock = PhaseClock()
    phase = Phase.INTER_EXPLORE
    got = []
    for now, summary, _expected in log:
        phase = phase_step(phase, clock, now, cfg, summary)
        clock.update(now, summary)
        got.append(phase.value)
    golden = [expected for _, _, expected in log]
    report(
        "phase-fsm-replay",
        got == golden,
        f"timeline={'match' if got == golden else list(zip(golden, got))}",
    )


# ---------------------------------------------------------------------------
# 6/7. Scheduler A/B on the pinned benchmark
# ---------------------------------------------------------------------------

WIN_THRESHOLD = 8


def test_rq2_energy_balance(standard_results):
    t0 = time.monotonic()
    zero_wins = 0
    gini_wins = 0
    for seed in STANDARD_SEEDS:
        ff = standard_results.results["fishfuzz"][seed]
        afl = standard_results.results["afl_favor"][seed]
        if never_hit_count(ff) < never_hit_count(afl):
            zero_wins += 1
        if gini(list(ff.target_hits.values())) <= gini(list(afl.target_hits.values())):
            gini_wins += 1
    elapsed = standard_results.build_seconds + (time.monotonic() - t0)
    ok = zero_wins >= WIN_THRESHOLD and gini_wins >= WIN_THRESHOLD and elapsed < 300
    report(
        "rq2-energy-balance",
        ok,
        f"never-hit wins={zero_wins}/10 gini wins={gini_wins}/10 "
        f"elapsed={elapsed:.0f}s",
    )


def test_rq1_directional_reach(standard_results):
    t0 = time.monotonic()
    rr_wins = 0
    hd_wins = 0
    for seed in STANDARD_SEEDS:
        ff = standard_results.results["fishfuzz"][seed].final_reached
        if ff >= standard_results.results["round_robin"][seed].final_reached:
            rr_wins += 1
        if ff >= standard_results.results["harmonic_directed"][seed].final_reached:
            hd_wins += 1
    elapsed = standard_results.build_seconds + (time.monotonic() - t0)
    ok = rr_wins >= WIN_THRESHOLD and hd_wins >= WIN_THRESHOLD and elapsed < 300
    report(
        "rq1-directional-reach",
        ok,
        f"vs round_robin={rr_wins}/10 vs harmonic={hd_wins}/10 "
        f"elapsed={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Indirect-call approximation
# ---------------------------------------------------------------------------


def test_indirect_call_approximation(standard_results):
    graph = standard_results.graph
    dmap = standard_results.dmap
    target_fns = sorted({t.function for t in graph.targets()})
    per_campaign = {}
    violations = 0
    for seed, queue in standard_results.queues.items():
        count = 0
        for s in queue:
            funcs = s.trace.functions
            for fd in sorted(funcs):
                if fd == ENTRY_FUNCTION:
                    continue
                others = [f for f in funcs if f != fd]
                if any(dmap.dff_value(fo, fd) is not None for fo in others):
                    continue  # fd is statically connected; not an indirect landing
                for fe in target_fns:
                    if fe in funcs:
                        continue
                    d_land = dmap.dff_value(fd, fe)
                    if d_land is None:
                        continue
                    if any(dmap.dff_value(fo, fe) is not None for fo in others):
                        continue
                    count += 1
                    if dsf(s, fe, dmap) != d_land:
                        violations += 1
        per_campaign[seed] = count
    ok = violations == 0 and all(c >= 20 for c in per_campaign.values())
    report(
        "indirect-call-approximation",
        ok,
        f"occurrences per campaign min={min(per_campaign.values())} "
        f"violations={violations}",
    )


# ---------------------------------------------------------------------------
# 9. Determinism of the simulate command
# ---------------------------------------------------------------------------


def test_simulate_determinism(tmp_path, capsys):
    graph_path = tmp_path / "world.graph"
    from fishsched.graph import save_program
    from fishsched.simulator import SyntheticProgramSpec, generate_program

    save_program(
        generate_program(
            SyntheticProgramSpec(
                n_functions=30, targets_per_function=(0, 2), rng_seed=12
            )
        ),
        str(graph_path),
    )
    configs = [
        ["simulate", "--graph", str(graph_path), "--scheduler", "fishfuzz",
         "--duration", "120", "--seeds", "1"],
        ["simulate", "--graph", str(graph_path),
         "--compare", "fishfuzz,round_robin", "--duration", "60", "--seeds", "2"],
        ["simulate", "--graph", str(graph_path), "--scheduler", "harmonic_directed",
         "--duration", "160", "--seeds", "1"],
    ]
    identical = True
    for i, argv in enumerate(configs):
        dirs = [tmp_path / f"run{i}_{j}" for j in (0, 1)]
        snapshots = []
        for d in dirs:
            code = cli_main(argv + ["--out", str(d)])
            capsys.readouterr()
            assert code == 0
            snapshots.append(
                {p.name: p.read_bytes() for p in sorted(d.iterdir())}
            )
        if snapshots[0] != snapshots[1]:
            identical = False
    report("simulate-determinism", identical, f"configs={len(configs)}")
