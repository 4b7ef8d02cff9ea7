"""Independent brute-force oracles the production code is checked against.

These deliberately use different algorithms than the package: exhaustive
path enumeration and Floyd-Warshall instead of 0/1-BFS and Dijkstra.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from types import SimpleNamespace

from fishsched import scheduler, simulator
from fishsched.distance import HARMONIC_ZERO_EPSILON
from fishsched.execution import ExecutionTrace
from fishsched.graph import ENTRY_FUNCTION, bfs_hops, canonical_json
from fishsched.simulator import (
    INITIAL_SEED_SIZE,
    execute_mutation,
    sample_exec_time,
    sample_size,
    target_hardness,
)

INF = float("inf")


def oracle_dbb(function, src: int, dst: int):
    """Min conditional-edge count via DFS over all simple paths (+ revisits).

    Uses iterative relaxation over the block adjacency: Bellman-Ford style,
    which is exhaustive and independent of the deque-based search.
    """
    blocks = {b.id: b for b in function.blocks}
    dist = {b: INF for b in blocks}
    dist[src] = 0
    for _ in range(len(blocks)):
        changed = False
        for b in blocks.values():
            if dist[b.id] == INF:
                continue
            w = 1 if len(b.successors) >= 2 else 0
            for s in b.successors:
                if dist[b.id] + w < dist[s]:
                    dist[s] = dist[b.id] + w
                    changed = True
        if not changed:
            break
    return None if dist[dst] == INF else int(dist[dst])


def oracle_weights(graph):
    """Eq-style pair weights from the Bellman-Ford block oracle."""
    weights = {}
    for f in graph.functions:
        sites = {}
        for b in f.blocks:
            for callee in b.calls:
                sites.setdefault(callee, []).append(b.id)
        for callee, blocks in sites.items():
            ds = [oracle_dbb(f, f.entry, b) for b in blocks]
            finite = [d for d in ds if d is not None]
            weights[(f.id, callee)] = min(finite) if finite else None
    return weights


def oracle_dff(graph):
    """All-pairs shortest path over the weighted call graph via Floyd-Warshall."""
    return _floyd_warshall(graph.n_functions, oracle_weights(graph))


def _floyd_warshall(n, weights):
    """{(i, j): shortest distance} over n nodes; a weight of None is no edge."""
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (a, b), w in weights.items():
        if w is not None and w < dist[a][b]:
            dist[a][b] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                nd = dik + dk[j]
                if nd < di[j]:
                    di[j] = nd
    return {
        (i, j): int(dist[i][j])
        for i in range(n)
        for j in range(n)
        if dist[i][j] != INF
    }


def oracle_map_bytes(dmap) -> bytes:
    """A saved distance map as one JSON document: canonical_json of its
    built_from, its finite weights and its dff, rows in ascending pair order."""
    return canonical_json({
        "built_from": dmap.built_from,
        "weights": [
            [a, b, w] for (a, b), w in sorted(dmap.weights.items()) if w is not None
        ],
        "dff": [[a, b, row[b]] for a, row in enumerate(dmap.rows) for b in sorted(row)],
    })


def oracle_reachable_pairs(graph):
    """Plain direct-call reachability, for the infinite-iff-unreachable check."""
    n = graph.n_functions
    adj = {f.id: set() for f in graph.functions}
    for a, b in graph.call_edges:
        adj[a].add(b)
    pairs = set()
    for s in range(n):
        seen = {s}
        work = [s]
        while work:
            u = work.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    work.append(v)
        pairs.update((s, t) for t in seen)
    return pairs


def random_graph_dict(
    rng: random.Random,
    max_functions: int = 50,
    max_blocks: int = 8,
    target_rate: float = 0.3,
    edge_rate: float = 1.6,
) -> dict:
    """Random graph-file dict for oracle-equivalence and property tests."""
    n = rng.randint(1, max_functions)
    functions = []
    tid = 0
    for fid in range(n):
        nb = rng.randint(1, max_blocks)
        succ = {b: set() for b in range(nb)}
        for j in range(1, nb):
            if rng.random() < 0.9:
                succ[rng.randrange(j)].add(j)
        for b in range(nb):
            if nb > 1 and rng.random() < 0.35:
                dst = rng.randrange(nb)
                if dst != b:
                    succ[b].add(dst)
        blocks = [
            {"id": b, "succ": sorted(succ[b]), "calls": []} for b in range(nb)
        ]
        targets = []
        if rng.random() < target_rate:
            targets.append({"id": tid, "block": rng.randrange(nb)})
            tid += 1
        functions.append(
            {"id": fid, "name": f"fn{fid}", "entry": 0, "blocks": blocks,
             "targets": targets}
        )
    # Call sites go only in entry-reachable blocks, like a call graph
    # derived from live code.
    live_blocks = []
    for fn in functions:
        succ = {b["id"]: b["succ"] for b in fn["blocks"]}
        seen = {0}
        work = [0]
        while work:
            u = work.pop()
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    work.append(v)
        live_blocks.append(sorted(seen))

    n_edges = round(edge_rate * n)
    placed = set()
    for _ in range(n_edges * 3):
        if len(placed) >= n_edges or n < 2:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in placed:
            continue
        placed.add((u, v))
        block = rng.choice(live_blocks[u])
        functions[u]["blocks"][block]["calls"].append(v)
    return {"functions": functions}


def _difficulty(graph, u: int, v: int) -> int:
    """Conditional depth of crossing u->v; hidden indirect edges cost none."""
    w = graph.call_weights.get((u, v), 0)
    return simulator.UNREACHABLE_SITE_DIFFICULTY if w is None else w


def oracle_execute_mutation(parent, graph, rng: random.Random) -> ExecutionTrace:
    """execute_mutation as it was before traces carried edge ids.

    Each covered edge is the tuple ("cfg", fid, block, successor) or
    ("call", caller, callee), each block is looked up by its id and each
    difficulty in call_weights, with the same rng draws in the same order.
    The constants are read from the simulator at each call, so a test that
    patches them patches this reference too.
    """
    successors = graph.ground_truth_successors
    parent_funcs = sorted(parent.trace.functions) if parent is not None else []
    retained = {ENTRY_FUNCTION}
    retained.update(
        f for f in parent_funcs
        if f != ENTRY_FUNCTION and rng.random() < simulator.LOCALITY
    )

    # Keep only what execution can actually flow into from the entry.
    funcs = set(bfs_hops(successors, [ENTRY_FUNCTION], allowed=retained))

    # The work list grows while it is walked, in FIFO order.
    work = sorted(funcs)
    for u in work:
        for v in successors[u]:
            if v in funcs:
                continue
            if rng.random() < simulator.FRONTIER_ADVANCE ** (1 + _difficulty(graph, u, v)):
                funcs.add(v)
                work.append(v)

    edges: set = set()
    reached: set = set()
    for fid in sorted(funcs):
        fn = graph.function(fid)
        blocks = {block.id: block for block in fn.blocks}
        visited = {fn.entry}
        b = fn.entry
        for _ in range(2 * len(fn.blocks)):
            succ = blocks[b].successors
            if not succ:
                break
            nxt = succ[rng.randrange(len(succ))]
            edges.add(("cfg", fid, b, nxt))
            b = nxt
            visited.add(b)
        reached.update(t.id for t in fn.targets if t.block in visited)

    edges.update(("call", u, v) for u in funcs for v in successors[u] if v in funcs)

    triggered = frozenset(
        tid for tid in sorted(reached)
        if rng.random() < simulator.TRIGGER_PROBABILITY * target_hardness(tid)
    )
    return ExecutionTrace(
        functions=frozenset(funcs),
        edges=frozenset(edges),
        targets_reached=frozenset(reached),
        targets_triggered=triggered,
    )


def all_path_conditional_cost(function, src: int, dst: int, limit: int = 12):
    """True exhaustive simple-path enumeration for tiny block graphs."""
    blocks = {b.id: b for b in function.blocks}
    best = [None]

    def walk(u, cost, seen):
        if u == dst:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        if len(seen) > limit:
            return
        b = blocks[u]
        w = 1 if len(b.successors) >= 2 else 0
        for s in b.successors:
            if s not in seen:
                walk(s, cost + w, seen | {s})

    walk(src, 0, {src})
    return best[0]


def oracle_rank_sum_p(xs, ys) -> float:
    """Exact two-sided Mann-Whitney p-value by enumerating every labelling.

    Each pooled value gets its midrank (values below it, plus the middle of
    its tie block); every choice of n1 pooled positions as group one is one
    labelling, and the p-value is the share whose U is at least as far from
    its mean as the observed U.
    """
    n1, n2 = len(xs), len(ys)
    pooled = list(xs) + list(ys)
    ranks = [
        sum(1 for w in pooled if w < v) + (sum(1 for w in pooled if w == v) + 1) / 2
        for v in pooled
    ]
    min_offset = n1 * (n1 + 1) / 2
    mean_u = n1 * n2 / 2
    dev = abs(sum(ranks[:n1]) - min_offset - mean_u) - 1e-12
    count = 0
    total = 0
    for combo in itertools.combinations(range(n1 + n2), n1):
        total += 1
        u = sum(ranks[i] for i in combo) - min_offset
        if abs(u - mean_u) >= dev:
            count += 1
    return count / total


def oracle_normal_rank_sum_p(xs, ys) -> float:
    """Two-sided Mann-Whitney p-value from the normal approximation.

    Midranks by counting, as in oracle_rank_sum_p; the variance of U is
    corrected for each tie block of size t by t^3 - t, and |U - mean| is
    shrunk by the continuity correction of 1/2 before it is standardised.
    """
    n1, n2 = len(xs), len(ys)
    n = n1 + n2
    pooled = list(xs) + list(ys)
    ranks = [
        sum(1 for w in pooled if w < v) + (sum(1 for w in pooled if w == v) + 1) / 2
        for v in pooled
    ]
    u = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    mean_u = n1 * n2 / 2
    ties = sum(pooled.count(v) ** 3 - pooled.count(v) for v in set(pooled))
    var_u = n1 * n2 / 12 * ((n + 1) - ties / (n * (n - 1)))
    if var_u == 0:
        return 1.0
    z = max(0.0, (abs(u - mean_u) - 0.5) / math.sqrt(var_u))
    return min(1.0, 2.0 * (1.0 - statistics.NormalDist().cdf(z)))


def oracle_ranking_replay(target_ids, steps, fractions=(0.2, 0.5, 1.0)):
    """The target ranking, replayed with explicit flags and sorted passes.

    steps is a list of (reached, triggered, now). Each step first walks the
    reached ids in sorted order (one hit each, flagging the first reach),
    then the triggered ids in sorted order (flagging the first trigger).
    Returns one snapshot per step:
      facts: tid -> (reached, triggered, hits, first_reached_at,
        first_triggered_at);
      summary: (new_reached, new_triggered) of the step;
      untriggered: the reached ids not triggered, sorted by id;
      serviced: fraction -> the untriggered ids ordered by (hits, id), cut
        to the first ceil(fraction * count).
    """
    flags = {
        t: {"reached": False, "triggered": False, "hits": 0,
            "first_reached_at": None, "first_triggered_at": None}
        for t in target_ids
    }
    snapshots = []
    for reached, triggered, now in steps:
        new_reached = new_triggered = 0
        for t in sorted(reached):
            flags[t]["hits"] += 1
            if not flags[t]["reached"]:
                flags[t]["reached"] = True
                flags[t]["first_reached_at"] = now
                new_reached += 1
        for t in sorted(triggered):
            if not flags[t]["triggered"]:
                flags[t]["triggered"] = True
                flags[t]["first_triggered_at"] = now
                new_triggered += 1
        untriggered = sorted(
            t for t in flags if flags[t]["reached"] and not flags[t]["triggered"]
        )
        by_hits = sorted(untriggered, key=lambda t: (flags[t]["hits"], t))
        serviced = {f: by_hits[: math.ceil(len(by_hits) * f)] for f in fractions}
        snapshots.append({
            "facts": {
                t: (s["reached"], s["triggered"], s["hits"],
                    s["first_reached_at"], s["first_triggered_at"])
                for t, s in flags.items()
            },
            "summary": (new_reached, new_triggered),
            "untriggered": untriggered,
            "serviced": serviced,
        })
    return snapshots


def oracle_campaign(graph, config):
    """A campaign restated brute force: (result fields, final queue rows).

    Only the execution model is shared with the package: execute_mutation,
    sample_exec_time and sample_size own the rng stream. Nothing is carried
    from one cull to the next: after every execution each cull scans the
    whole queue afresh, with dsf over oracle_dff, hop counts over
    Floyd-Warshall, the serviced targets by a full sort and each best seed
    by a full scan. The fields are those of a CampaignResult but graph_hash;
    each queue row is (id, parent, created_at, exec_time, size, favor).
    """
    cfg = config.scheduler_config
    policy = config.scheduler
    rng = random.Random(config.rng_seed)
    owner = {t.id: t.function for t in sorted(graph.targets(), key=lambda t: t.id)}
    has_targets = set(owner.values())
    dff = oracle_dff(graph)
    hops = _floyd_warshall(graph.n_functions, {e: 1 for e in graph.call_edges})
    # target id -> [hits, first reached at, first triggered at], by ascending id
    state = {tid: [0, None, None] for tid in owner}
    explored: set = set()
    covered: set = set()
    queue: list = []
    executions = 0
    phase = "inter_explore"
    last = {"new_function": 0, "new_reach": 0, "new_trigger": 0}
    timeline = [[0, phase, "start"]]
    series = []

    def distance(table, seed, fid):
        """The least table[(f, fid)] over the seed's traversed functions f, or None."""
        ds = [table[(f, fid)] for f in seed.trace.functions or {0} if (f, fid) in table]
        return min(ds) if ds else None

    def closest(fid):
        keys = [(d, s.exec_time, s.id) for s in queue
                if (d := distance(dff, s, fid)) is not None]
        return min(keys)[2] if keys else None

    def harmonic(seed):
        ds = [d for fid in owner.values()
              if (d := distance(hops, seed, fid)) is not None]
        # Added in target order, as harmonic_distance does; sum() may round
        # differently.
        inv_sum = 0.0
        for d in ds:
            inv_sum += 1.0 / (d or HARMONIC_ZERO_EPSILON)
        return len(ds) / inv_sum if ds else INF

    def coverage_winners():
        top_rated = {}
        for e in set().union(*(s.trace.edges for s in queue)):
            top_rated[e] = min(
                (s.exec_time * s.size, s.id) for s in queue if e in s.trace.edges
            )[1]
        claimed: set = set()
        winners = set()
        for e in sorted(top_rated):
            if e not in claimed:
                winners.add(top_rated[e])
                claimed |= queue[top_rated[e]].trace.edges
        return winners

    def exploit_winners():
        candidates = sorted(
            (st[0], tid) for tid, st in state.items()
            if st[1] is not None and st[2] is None
        )
        # Read at each call, so a test that patches the package's fraction
        # patches this oracle's too.
        serviced = math.ceil(len(candidates) * scheduler.EXPLOIT_FRACTION)
        winners = set()
        for _, tid in candidates[:serviced]:
            reaching = [(s.exec_time, s.id) for s in queue
                        if tid in s.trace.targets_reached]
            winners.add(min(reaching)[1] if reaching else closest(owner[tid]))
        return winners

    def cull():
        if policy == "round_robin":
            return
        if policy == "afl_favor":
            winners = coverage_winners()
        elif policy == "harmonic_directed":
            winners = {min((harmonic(s), s.exec_time, s.id) for s in queue)[2]}
        elif phase == "inter_explore":
            winners = {closest(fid) for fid in has_targets - explored}
        elif phase == "intra_explore":
            winners = coverage_winners()
        else:
            winners = exploit_winners()
        for s in queue:
            s.favor = s.id in winners

    def execute(parent, now):
        """Run, record and maybe queue one input; returns its novelty counts."""
        nonlocal executions
        trace = execute_mutation(parent, graph, rng)
        exec_time = sample_exec_time(len(trace.functions), rng)
        size = INITIAL_SEED_SIZE if parent is None else sample_size(parent.size, rng)
        executions += 1
        novelty = {"new_function": len(trace.functions - explored),
                   "new_reach": 0, "new_trigger": 0}
        explored.update(trace.functions)
        for tid in sorted(trace.targets_reached):
            st = state[tid]
            st[0] += 1
            if st[1] is None:
                st[1] = now
                novelty["new_reach"] += 1
            if tid in trace.targets_triggered and st[2] is None:
                st[2] = now
                novelty["new_trigger"] += 1
        admitted = (parent is None or not trace.edges <= covered
                    or novelty["new_reach"] > 0)
        covered.update(trace.edges)
        if admitted:
            queue.append(SimpleNamespace(
                id=len(queue), parent=None if parent is None else parent.id,
                created_at=now, exec_time=exec_time, size=size, trace=trace,
                favor=False,
            ))
        return novelty

    execute(None, 0)
    cull()
    for now in range(1, config.duration + 1):
        if policy == "round_robin":
            parent = queue[(executions - 1) % len(queue)]
        else:
            favored = [s for s in queue if s.favor]
            if favored:
                rng.random()  # the campaign draws once more when it has favourites
                parent = rng.choice(favored)
            else:
                parent = rng.choice(queue)
        novelty = execute(parent, now)

        before = phase
        quiet = {ev: now - t for ev, t in last.items()}
        if novelty["new_function"]:
            phase = "inter_explore"
        elif phase == "inter_explore" and quiet["new_function"] >= cfg.w_function:
            phase = "intra_explore"
        elif phase == "intra_explore" and quiet["new_reach"] >= cfg.w_reach:
            phase = "exploit"
        elif phase == "exploit" and quiet["new_trigger"] >= cfg.w_trigger:
            phase = "inter_explore"
        events = [ev for ev, n in novelty.items() if n]
        for ev in events:
            last[ev] = now
        if not events and phase != before:
            events = ["timeout"]
        timeline.extend([now, phase, ev] for ev in events)
        cull()
        series.append([
            now, len(covered),
            sum(st[1] is not None for st in state.values()),
            sum(st[2] is not None for st in state.values()),
        ])

    fields = {
        "scheduler": policy,
        "rng_seed": config.rng_seed,
        "duration": config.duration,
        "series": series,
        "target_hits": {tid: st[0] for tid, st in state.items()},
        "triggered_targets": [tid for tid, st in state.items() if st[2] is not None],
        "phase_timeline": timeline,
        "queue_stats": {
            "n_seeds": len(queue),
            "n_favored": sum(s.favor for s in queue),
            "executions": executions,
        },
        "final_coverage": len(covered),
        "final_reached": sum(st[1] is not None for st in state.values()),
        "final_triggered": sum(st[2] is not None for st in state.values()),
    }
    rows = [(s.id, s.parent, s.created_at, s.exec_time, s.size, s.favor) for s in queue]
    return fields, rows
