import random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fishsched import scheduler, simulator
from fishsched.distance import build_distance_map
from fishsched.execution import ExecutionTrace, Seed, dsf
from fishsched.graph import ENTRY_FUNCTION, graph_from_dict, graph_hash, graph_to_dict
from fishsched.scheduler import SchedulerConfig
from fishsched.simulator import (
    CampaignConfig,
    CampaignResult,
    SCHEDULERS,
    SpecError,
    SyntheticProgramSpec,
    execute_mutation,
    generate_program,
    run_campaign,
    run_campaign_with_queue,
    sample_exec_time,
    standard_graph,
    target_hardness,
)
from conftest import linear_block
from oracles import oracle_campaign, oracle_execute_mutation, random_graph_dict


def weight0_chain(n):
    """Single-block functions calling the next one: all edge weights zero."""
    return graph_from_dict(
        {
            "functions": [
                {"id": i, "name": f"f{i}", "entry": 0,
                 "blocks": [{"id": 0, "succ": [],
                             "calls": [i + 1] if i < n - 1 else []}],
                 "targets": []}
                for i in range(n)
            ]
        }
    )


def seed_of(trace):
    return Seed(id=0, exec_time=10, size=10, trace=trace)


# ---------------------------------------------------------------------------
# program generation
# ---------------------------------------------------------------------------


def test_single_function_spec():
    g = generate_program(SyntheticProgramSpec(n_functions=1, rng_seed=0))
    assert g.n_functions == 1
    assert g.call_edges == frozenset()
    assert g.indirect_edges == ()


def test_generation_is_deterministic():
    spec = SyntheticProgramSpec(n_functions=30, rng_seed=5)
    g1 = generate_program(spec)
    g2 = generate_program(spec)
    assert g1 == g2
    assert graph_hash(g1) == graph_hash(g2)


@settings(max_examples=100, deadline=None)
@given(
    n_functions=st.integers(1, 12),
    blocks=st.tuples(st.integers(1, 4), st.integers(0, 4)),
    targets=st.tuples(st.integers(0, 2), st.integers(0, 3)),
    branch_probability=st.floats(0, 1),
    indirect_edge_fraction=st.floats(0, 1),
    rng_seed=st.integers(0, 2**16),
)
def test_generated_graph_equals_its_saved_and_loaded_copy(
    n_functions, blocks, targets, branch_probability, indirect_edge_fraction, rng_seed
):
    g = generate_program(SyntheticProgramSpec(
        n_functions=n_functions,
        blocks_per_function=(blocks[0], blocks[0] + blocks[1]),
        branch_probability=branch_probability,
        call_density=min(1.5, n_functions - 1),
        indirect_edge_fraction=indirect_edge_fraction,
        targets_per_function=(targets[0], targets[0] + targets[1]),
        rng_seed=rng_seed,
    ))
    back = graph_from_dict(graph_to_dict(g))
    assert back == g
    assert graph_hash(back) == graph_hash(g)


def test_generation_differs_across_seeds():
    a = generate_program(SyntheticProgramSpec(n_functions=30, rng_seed=5))
    b = generate_program(SyntheticProgramSpec(n_functions=30, rng_seed=6))
    assert graph_hash(a) != graph_hash(b)


def test_indirect_edges_hide_reachability():
    spec = SyntheticProgramSpec(
        n_functions=50, indirect_edge_fraction=0.2, rng_seed=7
    )
    g = generate_program(spec)

    def closure(pairs):
        adj = {}
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
        seen = {ENTRY_FUNCTION}
        work = [ENTRY_FUNCTION]
        while work:
            u = work.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    work.append(v)
        return seen

    static = closure(g.call_edges)
    full = closure(g.ground_truth)
    assert len(static) < len(full)
    assert full == set(range(g.n_functions))  # union connects everything


def test_positive_indirect_fraction_forces_an_indirect_only_function():
    # fraction small enough to round to zero indirect edges: the generator
    # must still hide at least one function from static reachability
    g = generate_program(
        SyntheticProgramSpec(n_functions=10, indirect_edge_fraction=0.01, rng_seed=3)
    )
    assert len(g.indirect_edges) >= 1

    def closure(pairs):
        adj: dict = {}
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
        seen = {ENTRY_FUNCTION}
        work = [ENTRY_FUNCTION]
        while work:
            u = work.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    work.append(v)
        return seen

    assert closure(g.ground_truth) - closure(g.call_edges)


def test_infeasible_specs_rejected():
    with pytest.raises(SpecError):
        SyntheticProgramSpec(n_functions=0)
    with pytest.raises(SpecError):
        SyntheticProgramSpec(n_functions=5, blocks_per_function=(0, 3))
    with pytest.raises(SpecError):
        SyntheticProgramSpec(n_functions=5, branch_probability=1.5)


def test_specs_at_the_upper_bounds_load():
    SyntheticProgramSpec(n_functions=1)  # one function: no call pair to bound
    SyntheticProgramSpec(n_functions=2, call_density=1)
    SyntheticProgramSpec(n_functions=100_000)
    SyntheticProgramSpec(
        n_functions=5, blocks_per_function=(1, 1000), targets_per_function=(0, 100)
    )


@pytest.mark.parametrize("name, value", [
    ("n_functions", True),
    ("n_functions", 2.5),
    ("call_density", "x"),
    ("blocks_per_function", (1.5, 3)),
    ("rng_seed", 1.5),
    ("targets_per_function", [0, 3]),
])
def test_spec_values_of_the_wrong_type_are_rejected(name, value):
    with pytest.raises(SpecError, match=f"field '{name}' has the wrong type"):
        SyntheticProgramSpec(**{"n_functions": 5, name: value})


# ---------------------------------------------------------------------------
# mutation model
# ---------------------------------------------------------------------------


def test_degenerate_parameters_freeze_trace(monkeypatch):
    g = weight0_chain(4)
    parent = seed_of(ExecutionTrace(functions=frozenset({0, 1, 2})))
    monkeypatch.setattr(simulator, "LOCALITY", 1.0)
    monkeypatch.setattr(simulator, "FRONTIER_ADVANCE", 0.0)
    child = execute_mutation(parent, g, random.Random(2))
    assert child.functions == parent.trace.functions


def test_full_advance_covers_ground_truth_closure(monkeypatch):
    g = weight0_chain(5)
    parent = seed_of(ExecutionTrace(functions=frozenset({0})))
    monkeypatch.setattr(simulator, "LOCALITY", 1.0)
    monkeypatch.setattr(simulator, "FRONTIER_ADVANCE", 1.0)
    child = execute_mutation(parent, g, random.Random(1))
    assert child.functions == frozenset(range(5))


def test_chain_advance_frequency_matches_geometric_model(monkeypatch):
    # weight-0 chain edge: crossing probability equals FRONTIER_ADVANCE
    g = weight0_chain(2)
    parent = seed_of(ExecutionTrace(functions=frozenset({0})))
    monkeypatch.setattr(simulator, "LOCALITY", 1.0)
    monkeypatch.setattr(simulator, "FRONTIER_ADVANCE", 0.5)
    rng = random.Random(13)
    hits = sum(
        1 in execute_mutation(parent, g, rng).functions
        for _ in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_trigger_frequency_matches_the_per_target_hardness(monkeypatch):
    # Both targets sit on the entry block of the entry function, so every
    # execution reaches them and each triggers with its own probability.
    g = graph_from_dict({"functions": [
        {"id": 0, "name": "main", "entry": 0, "blocks": [linear_block(0)],
         "targets": [{"id": 0, "block": 0}, {"id": 1, "block": 0}]},
    ]})
    monkeypatch.setattr(simulator, "TRIGGER_PROBABILITY", 0.8)
    rng = random.Random(13)
    triggered = {0: 0, 1: 0}
    for _ in range(10_000):
        for tid in execute_mutation(None, g, rng).targets_triggered:
            triggered[tid] += 1
    for tid, n in triggered.items():
        assert abs(n / 10_000 - 0.8 * target_hardness(tid)) < 0.02


def test_mutation_deterministic_given_rng_state():
    g = standard_graph()
    parent = seed_of(ExecutionTrace(functions=frozenset({0})))
    t1 = execute_mutation(parent, g, random.Random(77))
    t2 = execute_mutation(parent, g, random.Random(77))
    assert t1 == t2


def test_traces_stay_inside_ground_truth():
    g = generate_program(
        SyntheticProgramSpec(n_functions=40, indirect_edge_fraction=0.25, rng_seed=3)
    )
    gt = g.ground_truth
    gt_adj = {}
    for a, b in gt:
        gt_adj.setdefault(a, set()).add(b)
    rng = random.Random(4)
    trace = execute_mutation(None, g, rng)
    for _ in range(200):
        trace = execute_mutation(seed_of(trace), g, rng)
        # every non-entry function is reachable from the entry inside the trace
        seen = {ENTRY_FUNCTION}
        work = [ENTRY_FUNCTION]
        while work:
            u = work.pop()
            for v in gt_adj.get(u, ()):
                if v in trace.functions and v not in seen:
                    seen.add(v)
                    work.append(v)
        assert seen == set(trace.functions)
        # covered call edges all exist in the ground truth
        for e in trace.edges:
            edge = g.edge_table[e]
            if edge[0] == "call":
                assert (edge[1], edge[2]) in gt
        # reached targets live in traversed functions
        for tid in trace.targets_reached:
            assert g.target(tid).function in trace.functions


def assert_mutations_match_the_reference(g, rng_seed, advance, steps=25):
    # The edge index: ascending, so its ids sort as its edges do, and exactly
    # the call edges over ground_truth and the cfg edges of every block.
    table = g.edge_table
    assert all(a < b for a, b in zip(table, table[1:]))
    assert set(table) == {("call", u, v) for u, v in g.ground_truth} | {
        ("cfg", f.id, b.id, s) for f in g.functions for b in f.blocks for s in b.successors
    }
    ids = {e: i for i, e in enumerate(table)}
    pick = random.Random(rng_seed)
    new_rng, old_rng = random.Random(rng_seed), random.Random(rng_seed)
    new_traces, old_traces = [None], [None]
    with patch.object(simulator, "FRONTIER_ADVANCE", advance):
        for _ in range(steps):
            k = pick.randrange(len(new_traces))
            new_parent, old_parent = new_traces[k], old_traces[k]
            new = execute_mutation(new_parent and seed_of(new_parent), g, new_rng)
            old = oracle_execute_mutation(old_parent and seed_of(old_parent), g, old_rng)
            assert {table[e] for e in new.edges} == old.edges
            assert {ids[e] for e in old.edges} == new.edges
            assert new.functions == old.functions
            assert new.targets_reached == old.targets_reached
            assert new.targets_triggered == old.targets_triggered
            assert new_rng.getstate() == old_rng.getstate()
            new_traces.append(new)
            old_traces.append(old)


def with_rare_edges(data, rng):
    """data with sparse, unsorted block ids, a dead call site and hidden calls.

    Each function's blocks are renamed onto a shuffled range with gaps, kept
    in file order; function 0 gains an unreachable block calling a function it
    calls nowhere else (a pair weight of None); and up to three pairs that are
    not direct calls become indirect edges.
    """
    functions = data["functions"]
    for fn in functions:
        names = [7 * k + 3 for k in range(len(fn["blocks"]))]
        rng.shuffle(names)
        fn["entry"] = names[fn["entry"]]
        for b in fn["blocks"]:
            b["id"] = names[b["id"]]
            b["succ"] = [names[x] for x in b["succ"]]
        for t in fn["targets"]:
            t["block"] = names[t["block"]]
    direct = {(fn["id"], c) for fn in functions for b in fn["blocks"] for c in b["calls"]}
    others = [v for v in range(1, len(functions)) if (0, v) not in direct]
    if others:
        dead = {"id": 1, "succ": [functions[0]["entry"]], "calls": [others[0]]}
        functions[0]["blocks"].append(dead)
        direct.add((0, others[0]))
    hidden = {}
    for _ in range(3):
        u, v = rng.randrange(len(functions)), rng.randrange(len(functions))
        if u != v and (u, v) not in direct:
            block = rng.choice(functions[u]["blocks"])["id"]
            hidden[u, v] = {"from_fn": u, "from_block": block, "to_fn": v}
    data["indirect_edges"] = list(hidden.values())
    return data


@settings(max_examples=150, deadline=None)
@given(
    graph_seed=st.integers(0, 2**32),
    rare=st.booleans(),
    rng_seed=st.integers(0, 2**16),
    advance=st.sampled_from([0.25, 0.6, 1.0]),
)
def test_mutation_matches_the_tuple_reference_on_random_graphs(
    graph_seed, rare, rng_seed, advance
):
    rng = random.Random(graph_seed)
    data = random_graph_dict(rng, max_functions=20)
    g = graph_from_dict(with_rare_edges(data, rng) if rare else data)
    assert_mutations_match_the_reference(g, rng_seed, advance)


@settings(max_examples=100, deadline=None)
@given(
    n_functions=st.integers(1, 30),
    branch_probability=st.floats(0, 1),
    indirect_edge_fraction=st.floats(0, 1),
    graph_seed=st.integers(0, 2**16),
    rng_seed=st.integers(0, 2**16),
    advance=st.sampled_from([0.25, 0.6, 1.0]),
)
def test_mutation_matches_the_tuple_reference_on_generated_graphs(
    n_functions, branch_probability, indirect_edge_fraction, graph_seed, rng_seed,
    advance,
):
    g = generate_program(SyntheticProgramSpec(
        n_functions=n_functions,
        branch_probability=branch_probability,
        call_density=min(1.5, n_functions - 1),
        indirect_edge_fraction=indirect_edge_fraction,
        rng_seed=graph_seed,
    ))
    assert_mutations_match_the_reference(g, rng_seed, advance)


def test_closer_is_likelier_calibration():
    # Binned Monte Carlo over the pinned standard world: the probability of
    # reaching a function may not rise with its seed distance.
    g = standard_graph()
    dmap = build_distance_map(g)
    rng = random.Random(9)
    counts: dict = {}
    totals: dict = {}
    parents = [execute_mutation(None, g, rng)]
    dist_cache: dict = {}
    all_fids = [f.id for f in g.functions]
    for _ in range(4000):
        ptrace = parents[rng.randrange(len(parents))]
        if ptrace.functions not in dist_cache:
            dist_cache[ptrace.functions] = {
                fid: dsf(seed_of(ptrace), fid, dmap)
                for fid in all_fids
                if fid not in ptrace.functions
            }
        dists = dist_cache[ptrace.functions]
        child = execute_mutation(seed_of(ptrace), g, rng)
        if len(parents) < 200 and rng.random() < 0.2:
            parents.append(child)
        for fid, d in dists.items():
            if d is None:
                continue
            b = min(d, 3)
            totals[b] = totals.get(b, 0) + 1
            if fid in child.functions:
                counts[b] = counts.get(b, 0) + 1
    freq = [counts.get(b, 0) / totals[b] for b in sorted(totals)]
    assert all(a >= b for a, b in zip(freq, freq[1:])), freq


def test_exec_time_scales_with_trace_size(monkeypatch):
    monkeypatch.setattr(simulator, "EXEC_TIME_JITTER", 0.0)
    rng = random.Random(0)
    small = sample_exec_time(5, rng)
    large = sample_exec_time(100, rng)
    assert small < large


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def small_world():
    return generate_program(
        SyntheticProgramSpec(
            n_functions=40, indirect_edge_fraction=0.15, targets_per_function=(0, 2),
            rng_seed=21,
        )
    )


def test_zero_duration_campaign():
    g = small_world()
    r = run_campaign(g, CampaignConfig(scheduler="fishfuzz", duration=0, rng_seed=1))
    assert r.series == []
    assert r.queue_stats["n_seeds"] == 1
    assert r.queue_stats["executions"] == 1


def test_campaign_replay_is_bit_identical():
    g = small_world()
    cfg = CampaignConfig(scheduler="fishfuzz", duration=300, rng_seed=9)
    r1 = run_campaign(g, cfg)
    r2 = run_campaign(g, cfg)
    assert r1.to_json_bytes() == r2.to_json_bytes()


def test_campaign_series_monotone():
    g = small_world()
    for sched in ("fishfuzz", "round_robin", "afl_favor", "harmonic_directed"):
        r = run_campaign(g, CampaignConfig(scheduler=sched, duration=200, rng_seed=3))
        for col in (1, 2, 3):
            values = [row[col] for row in r.series]
            assert all(a <= b for a, b in zip(values, values[1:]))
        assert r.final_coverage == r.series[-1][1]
        assert r.final_reached == r.series[-1][2]
        assert r.final_triggered == r.series[-1][3]


def test_campaign_series_is_flat_and_reads_as_its_rows():
    g = small_world()
    r = run_campaign(g, CampaignConfig(scheduler="fishfuzz", duration=200, rng_seed=3))
    rows = [list(row) for row in r.series]
    assert type(r.series) is simulator.Series
    assert len(r.series.flat) == 4 * len(rows) == 4 * 200
    assert r.series.flat.itemsize == 8  # 32 bytes a row
    assert [row[0] for row in rows] == list(range(1, 201))
    assert r.series == rows and rows == r.series and r.series != rows[:-1]
    assert r.series[-1] == rows[-1] and r.series[5:9] == rows[5:9]
    assert r.series[::-1] == rows[::-1]
    with pytest.raises(IndexError):
        r.series[200]
    loaded = CampaignResult.from_json_bytes(r.to_json_bytes())
    assert loaded.series == rows and loaded == r
    assert loaded.to_json_bytes() == r.to_json_bytes()


def test_campaign_timeline_well_formed():
    g = small_world()
    r = run_campaign(g, CampaignConfig(scheduler="fishfuzz", duration=400, rng_seed=5))
    assert r.phase_timeline[0] == [0, "inter_explore", "start"]
    times = [row[0] for row in r.phase_timeline]
    assert times == sorted(times)
    assert all(0 <= t <= r.duration for t in times)
    events = {row[2] for row in r.phase_timeline}
    assert events <= {"start", "new_function", "new_reach", "new_trigger", "timeout"}


def test_admission_requires_novelty():
    g = small_world()
    _result, queue = run_campaign_with_queue(
        g, CampaignConfig(scheduler="round_robin", duration=300, rng_seed=2)
    )
    covered: set = set()
    reached: set = set()
    for s in sorted(queue, key=lambda s: s.created_at):
        if s.id == 0:
            covered |= s.trace.edges
            reached |= s.trace.targets_reached
            continue
        assert (not s.trace.edges <= covered) or (
            not s.trace.targets_reached <= reached
        )
        covered |= s.trace.edges
        reached |= s.trace.targets_reached


@pytest.mark.parametrize("scheduler", simulator.SCHEDULERS)
def test_hit_targets_are_the_targets_queued_seeds_reach(scheduler):
    # The first execution to reach a target has new_reached > 0, so it is
    # queued, and the queue only grows. So in a campaign every serviced
    # target has a queued seed reaching it, and exploitation_cull never
    # raises its "no queued seed reaches serviced target" ValueError.
    g = generate_program(SyntheticProgramSpec(n_functions=40, rng_seed=7))
    exploited = 0
    for seed in (1, 2, 3):
        config = CampaignConfig(
            scheduler=scheduler, duration=300, rng_seed=seed,
            scheduler_config=simulator.standard_scheduler_config(),
        )
        result, queue = run_campaign_with_queue(g, config)
        hit = {tid for tid, n in result.target_hits.items() if n > 0}
        assert hit
        assert hit == set().union(*(s.trace.targets_reached for s in queue))
        exploited += any(row[1] == "exploit" for row in result.phase_timeline)
    # Some fishfuzz campaign ran exploitation culls, so the precondition held
    # where it is needed (seed 2 enters exploit; seeds 1 and 3 never leave
    # inter_explore).
    assert exploited or scheduler != "fishfuzz"


def test_first_input_is_queued_without_novelty():
    # One function of one block: the first trace covers no edge and reaches
    # no target, and is still queued as seed 0. harmonic_directed needs a
    # target to aim at, so it cannot run here.
    g = weight0_chain(1)
    for sched in ("fishfuzz", "round_robin", "afl_favor"):
        result, queue = run_campaign_with_queue(
            g, CampaignConfig(scheduler=sched, duration=5, rng_seed=1)
        )
        assert queue[0].trace.edges == frozenset()
        assert queue[0].trace.targets_reached == frozenset()
        assert (queue[0].id, queue[0].parent, queue[0].created_at) == (0, None, 0)
        assert len(queue) == 1
        assert result.queue_stats["executions"] == 6


def test_harmonic_directed_without_targets_fails_before_executing(monkeypatch):
    def no_execution(*args):
        raise AssertionError("an input was executed")

    monkeypatch.setattr(simulator, "execute_mutation", no_execution)
    config = CampaignConfig(scheduler="harmonic_directed", duration=5)
    with pytest.raises(ValueError, match="harmonic_directed needs a graph with targets"):
        run_campaign_with_queue(weight0_chain(1), config)


def test_empty_graph_fails_before_executing(monkeypatch):
    def no_execution(*args):
        raise AssertionError("an input was executed")

    monkeypatch.setattr(simulator, "execute_mutation", no_execution)
    empty = graph_from_dict({"functions": []})
    for sched in simulator.SCHEDULERS:
        config = CampaignConfig(scheduler=sched, duration=5)
        with pytest.raises(ValueError, match="at least one function"):
            run_campaign_with_queue(empty, config)


def test_result_json_round_trip():
    g = small_world()
    r = run_campaign(g, CampaignConfig(scheduler="afl_favor", duration=100, rng_seed=4))
    back = CampaignResult.from_json_bytes(r.to_json_bytes())
    assert back == r


@settings(max_examples=150, deadline=None)
@given(
    n_functions=st.integers(1, 12),
    graph_seed=st.integers(0, 2**16),
    scheduler=st.sampled_from(SCHEDULERS),
    duration=st.integers(0, 120),
    rng_seed=st.integers(-5, 2**16),
    timeout=st.integers(0, 20),
)
def test_every_simulated_result_reloads_to_the_same_bytes(
    n_functions, graph_seed, scheduler, duration, rng_seed, timeout
):
    # Every function holds a target, so harmonic_directed can run on any graph;
    # short timeouts walk the fishfuzz phases within the duration.
    g = generate_program(SyntheticProgramSpec(
        n_functions=n_functions, call_density=1.0, targets_per_function=(1, 2),
        rng_seed=graph_seed,
    ))
    config = CampaignConfig(
        scheduler=scheduler, duration=duration, rng_seed=rng_seed,
        scheduler_config=SchedulerConfig(
            w_function=timeout, w_reach=timeout, w_trigger=timeout
        ),
    )
    raw = run_campaign(g, config).to_json_bytes()
    assert CampaignResult.from_json_bytes(raw).to_json_bytes() == raw


@settings(max_examples=200, deadline=None)
@given(
    graph_seed=st.integers(0, 2**32),
    policy=st.sampled_from(SCHEDULERS),
    duration=st.integers(0, 300),
    rng_seed=st.integers(0, 2**16),
    windows=st.tuples(*[st.integers(0, 25)] * 3),
    fraction=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_campaign_matches_the_reference_campaign(
    graph_seed, policy, duration, rng_seed, windows, fraction,
):
    # Short windows walk the fishfuzz phases, and their carried cull state,
    # several times within the duration.
    g = graph_from_dict(random_graph_dict(random.Random(graph_seed), max_functions=20))
    assume(policy != "harmonic_directed" or g.targets())
    config = CampaignConfig(
        scheduler=policy, duration=duration, rng_seed=rng_seed,
        scheduler_config=SchedulerConfig(*windows),
    )
    # The oracle reads the fraction at each cull, so one patch serves both.
    with patch.object(scheduler, "EXPLOIT_FRACTION", fraction):
        result, queue = run_campaign_with_queue(g, config)
        fields, rows = oracle_campaign(g, config)
    expected = CampaignResult(graph_hash=graph_hash(g), **fields)
    assert result.to_json_bytes() == expected.to_json_bytes()
    assert [(s.id, s.parent, s.created_at, s.exec_time, s.size, s.favor)
            for s in queue] == rows


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        CampaignConfig(scheduler="alphabetical", duration=10)


@pytest.mark.parametrize("name, value", [
    ("duration", True),
    ("duration", 5.0),
    ("rng_seed", True),
    ("rng_seed", 2.5),
])
def test_campaign_config_rejects_a_value_its_result_could_not_hold(name, value):
    # Such a campaign would run, then write a result that from_json_bytes rejects.
    # A negative rng_seed stays valid; the round-trip property test above runs one.
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        CampaignConfig("afl_favor", **{"duration": 5, name: value})


@pytest.mark.parametrize("value", [None, {"w_function": 30}])
def test_campaign_config_rejects_a_scheduler_config_of_another_type(value):
    # None used to fail only inside the loop, with an AttributeError.
    with pytest.raises(ValueError, match="scheduler_config must be a SchedulerConfig"):
        CampaignConfig("fishfuzz", 5, scheduler_config=value)


# ---------------------------------------------------------------------------
# phase dynamics on the pinned benchmark
# ---------------------------------------------------------------------------


def _phase_occupancy(result, lo, hi):
    bands = []
    current = None
    for t, phase, _event in result.phase_timeline:
        if phase != current:
            bands.append((t, phase))
            current = phase
    spans: dict = {}
    for i, (t, phase) in enumerate(bands):
        end = bands[i + 1][0] if i + 1 < len(bands) else result.duration
        a, b = max(t, lo), min(end, hi)
        if b > a:
            spans[phase] = spans.get(phase, 0) + (b - a)
    return spans


def test_phase_dynamics_explore_early_exploit_late(standard_results):
    # Exploration phases dominate the opening third of the campaign and
    # exploitation the closing third, on at least 8 of the 10 pinned seeds.
    early_ok = 0
    late_ok = 0
    for seed, result in standard_results.results["fishfuzz"].items():
        third = result.duration // 3
        first = _phase_occupancy(result, 0, third)
        last = _phase_occupancy(result, result.duration - third, result.duration)
        explore_first = first.get("inter_explore", 0) + first.get("intra_explore", 0)
        explore_last = last.get("inter_explore", 0) + last.get("intra_explore", 0)
        if explore_first > first.get("exploit", 0):
            early_ok += 1
        if last.get("exploit", 0) > explore_last:
            late_ok += 1
    assert early_ok >= 8, early_ok
    assert late_ok >= 8, late_ok
