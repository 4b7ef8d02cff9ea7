"""Span tracing for the benchmark, installed from outside the program.

fishsched modules bind their collaborators with ``from .x import y``, so a
call goes through the *calling* module's namespace. The tracer therefore
rebinds each traced name in every module that calls it, and restores the
originals on exit. Spans live in memory as tuples and are written out once,
after the measured work.

The dsf function a campaign hands to its cull passes is called millions of
times per campaign; it is counted, never spanned, so its time lands in the
self time of the cull that called it.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute) -> span name. The layer of a span is the part of its
# name before the first dot, which is the defining module's name.
PATCHES = {
    ("simulator", "execute_mutation"): "simulator.execute_mutation",
    ("simulator", "build_distance_map"): "distance.build_distance_map",
    ("simulator", "harmonic_distance"): "distance.harmonic_distance",
    ("simulator", "dsf"): "execution.dsf",
    ("simulator", "graph_hash"): "graph.graph_hash",
    ("simulator", "order_by_hits"): "ranking.order_by_hits",
    ("simulator", "reached_untriggered"): "ranking.reached_untriggered",
    ("simulator", "inter_function_cull"): "scheduler.inter_function_cull",
    ("simulator", "intra_function_cull"): "scheduler.intra_function_cull",
    ("simulator", "exploitation_cull"): "scheduler.exploitation_cull",
    ("simulator", "phase_step"): "scheduler.phase_step",
    ("simulator", "select_next_seed"): "scheduler.select_next_seed",
    ("scheduler", "order_by_hits"): "ranking.order_by_hits",
    ("scheduler", "reached_untriggered"): "ranking.reached_untriggered",
    ("distance", "graph_hash"): "graph.graph_hash",
    ("cli", "load_program"): "graph.load_program",
    ("cli", "build_distance_map"): "distance.build_distance_map",
    ("cli", "save_distance_map"): "distance.save_distance_map",
    ("cli", "load_distance_map"): "distance.load_distance_map",
    ("cli", "harmonic_distance"): "distance.harmonic_distance",
    ("cli", "dsf"): "execution.dsf",
    ("cli", "multi_target_distance"): "execution.multi_target_distance",
    ("compare", "rank_sum_p"): "compare.rank_sum_p",
}
CULLS = (
    "scheduler.inter_function_cull",
    "scheduler.intra_function_cull",
    "scheduler.exploitation_cull",
)


def _favoured(queue) -> frozenset:
    return frozenset(s.id for s in queue if s.favor)


class Tracer:
    """Records spans (name, start, end, parent, context) and exact counts."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent_index, context)
        self.contexts: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def context(self, label: str) -> None:
        """Tag every span until the next call with this campaign or call label."""
        self.contexts.append(label)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, len(self.contexts) - 1)

    def _wrap(self, name: str, fn):
        call = self.call
        if name in CULLS:
            return self._wrap_cull(name, fn)
        if name == "distance.build_distance_map":
            counts = self.counts

            def build(*args, **kwargs):
                dmap = call(name, fn, *args, **kwargs)
                counts["distance.dff_pairs"] = len(dmap.dff)
                return dmap

            return build

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def _wrap_cull(self, name: str, fn):
        call = self.call
        counts = self.counts

        def traced(queue, *args, **kwargs):
            dsf_fn = kwargs.get("dsf_fn")
            if dsf_fn is not None:
                n = [0]

                def counted(seed, fid):
                    n[0] += 1
                    return dsf_fn(seed, fid)

                kwargs["dsf_fn"] = counted
            before = _favoured(queue)
            try:
                return call(name, fn, queue, *args, **kwargs)
            finally:
                if dsf_fn is not None:
                    counts["execution.dsf_lookups"] += n[0]
                counts[name + ".calls"] += 1
                if _favoured(queue) != before:
                    counts["scheduler.culls_effective"] += 1

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Rebind every traced name in the calling modules of ``package``."""
        modules = {m: getattr(package, m) for m in {m for m, _ in PATCHES}}
        for (mod, attr), name in PATCHES.items():
            module = modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        ranking_cls = package.ranking.TargetRanking
        original = ranking_cls.record_execution
        self._saved.append((ranking_cls, "record_execution", original))
        call = self.call

        def record_execution(ranking, trace, now):
            return call("ranking.record_execution", original, ranking, trace, now)

        ranking_cls.record_execution = record_execution

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover (ns)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        """Write the spans as tab-separated rows, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tcontext\n")
            for i, (name, start, end, parent, ctx) in enumerate(self.spans):
                label = self.contexts[ctx] if ctx >= 0 else ""
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{label}\n")
