"""Head-to-head campaign comparison: aggregates, Gini, rank-sum p-values."""

from __future__ import annotations

import itertools
import math
import statistics
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

from .simulator import CampaignResult

# The exact rank-sum distribution is used up to this many total samples;
# larger groups fall back to the normal approximation.
EXACT_LIMIT = 20


def gini(values) -> float:
    """Gini coefficient of a non-negative distribution; 0 for an empty or flat one."""
    xs = sorted(values)
    n = len(xs)
    total = sum(xs)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum((i + 1) * x for i, x in enumerate(xs))
    return (2.0 * weighted) / (n * total) - (n + 1) / n


def _midranks(values: list[float]) -> list[float]:
    """Each value's mean 1-based position among its ties in sorted order."""
    ordered = sorted(values)
    return [(bisect_left(ordered, v) + 1 + bisect_right(ordered, v)) / 2 for v in values]


def rank_sum_p(xs: list[float], ys: list[float]) -> float:
    """Two-sided Mann-Whitney p-value.

    Exact when the pooled sample is small: over every assignment of group
    labels to the pooled midranks, the fraction whose U deviates from its
    mean at least as much as the observed U. The assignments are counted by
    their rank sum (the Mann-Whitney recurrence over doubled midranks, all
    integers), not enumerated. Normal approximation with tie correction
    otherwise.
    """
    n1, n2 = len(xs), len(ys)
    if n1 == 0 or n2 == 0:
        raise ValueError("rank_sum_p requires non-empty groups")
    pooled = list(xs) + list(ys)
    ranks = _midranks(pooled)
    r1 = sum(ranks[:n1])
    u_obs = r1 - n1 * (n1 + 1) / 2
    mean_u = n1 * n2 / 2

    if n1 + n2 <= EXACT_LIMIT:
        dev = abs(u_obs - mean_u) - 1e-12
        min_offset = n1 * (n1 + 1) / 2
        # ways[k][s]: k-subsets of the pooled samples with doubled rank sum s
        ways = [Counter() for _ in range(n1 + 1)]
        ways[0][0] = 1
        for r in ranks:
            r2 = round(2 * r)
            for k in range(n1, 0, -1):
                for s, c in ways[k - 1].items():
                    ways[k][s + r2] += c
        count = sum(
            c for s, c in ways[n1].items() if abs(s / 2 - min_offset - mean_u) >= dev
        )
        return count / math.comb(n1 + n2, n1)

    n = n1 + n2
    tie_term = sum(t**3 - t for t in Counter(pooled).values())
    var_u = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u == 0:
        return 1.0
    z = (abs(u_obs - mean_u) - 0.5) / math.sqrt(var_u)
    z = max(z, 0.0)
    return min(1.0, 2.0 * (1.0 - statistics.NormalDist().cdf(z)))


def never_hit_count(result: CampaignResult) -> int:
    """Targets with zero hit frequency at the end of the campaign."""
    return sum(1 for hits in result.target_hits.values() if hits == 0)


# Each reported metric's value in one campaign, in text-table order.
METRICS = {
    "coverage": lambda r: r.final_coverage,
    "reached": lambda r: r.final_reached,
    "triggered": lambda r: r.final_triggered,
    "never_hit": never_hit_count,
    "gini": lambda r: gini(r.target_hits.values()),
}
# The metrics whose scheduler pairs get a delta and a rank-sum p-value.
PAIRWISE = ("coverage", "reached", "triggered")


@dataclass(frozen=True)
class CampaignSummary:
    """What compare_campaigns reads of one campaign: a few hundred bytes,
    where its result holds a series row per tick."""

    scheduler: str
    rng_seed: int
    graph_hash: str
    values: dict  # metric -> its value in this campaign, in METRICS order


def summarize(result: CampaignResult) -> CampaignSummary:
    return CampaignSummary(
        scheduler=result.scheduler,
        rng_seed=result.rng_seed,
        graph_hash=result.graph_hash,
        values={metric: value(result) for metric, value in METRICS.items()},
    )


@dataclass(frozen=True)
class SchedulerAggregate:
    scheduler: str
    seeds: list
    values: dict  # metric -> its value in each campaign, in seed order

    def means(self) -> dict:
        return {metric: sum(xs) / len(xs) for metric, xs in self.values.items()}


@dataclass(frozen=True)
class ComparisonReport:
    aggregates: dict  # scheduler -> SchedulerAggregate
    pairwise: dict  # (sched_a, sched_b) -> {metric: {"delta":..., "p":...}}

    def csv_rows(self) -> list[list]:
        rows: list[list] = [["section", "scheduler", "metric", "value"]]
        for name in sorted(self.aggregates):
            agg = self.aggregates[name]
            rows.append(["group", name, "n_seeds", len(agg.seeds)])
            for metric, value in sorted(agg.means().items()):
                rows.append(["group", name, f"mean_{metric}", _fmt(value)])
        for (a, b) in sorted(self.pairwise):
            for metric, stats in sorted(self.pairwise[(a, b)].items()):
                rows.append(
                    ["pair", f"{a}|{b}", f"{metric}_delta", _fmt(stats["delta"])]
                )
                rows.append(["pair", f"{a}|{b}", f"{metric}_p", _fmt(stats["p"])])
        return rows

    def text_table(self) -> str:
        lines = []
        header = f"{'scheduler':<20} {'cov':>10} {'reach':>8} {'trig':>8} {'zero':>6} {'gini':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(self.aggregates):
            m = self.aggregates[name].means()
            lines.append(
                f"{name:<20} {m['coverage']:>10.1f} {m['reached']:>8.1f} "
                f"{m['triggered']:>8.1f} {m['never_hit']:>6.1f} {m['gini']:>8.4f}"
            )
        for (a, b) in sorted(self.pairwise):
            stats = self.pairwise[(a, b)]
            lines.append(
                f"{a} vs {b}: "
                + "  ".join(
                    f"{metric} delta={s['delta']:+.2f} p={s['p']:.4f}"
                    for metric, s in sorted(stats.items())
                )
            )
        return "\n".join(lines)


def _fmt(value: float) -> str:
    return format(value, ".10g")


def compare_campaigns(results: list) -> ComparisonReport:
    """Aggregate per scheduler and test pairwise differences across rng seeds.

    Each of results is a CampaignResult or its CampaignSummary.
    """
    if len(results) < 2:
        raise ValueError("compare_campaigns requires at least two results")
    if len({r.graph_hash for r in results}) > 1:
        raise ValueError("mismatched graphs: results were produced on different graphs")

    by_sched: dict[str, list[CampaignSummary]] = {}
    for r in results:
        summary = r if isinstance(r, CampaignSummary) else summarize(r)
        by_sched.setdefault(r.scheduler, []).append(summary)

    aggregates = {}
    for name, rs in by_sched.items():
        rs = sorted(rs, key=lambda r: r.rng_seed)
        aggregates[name] = SchedulerAggregate(
            scheduler=name,
            seeds=[r.rng_seed for r in rs],
            values={metric: [r.values[metric] for r in rs] for metric in METRICS},
        )

    names = sorted(aggregates)
    pairs = (
        list(itertools.combinations(names, 2))
        if len(names) > 1
        else [(names[0], names[0])]
    )
    pairwise = {}
    for a, b in pairs:
        agg_a, agg_b = aggregates[a], aggregates[b]
        means_a, means_b = agg_a.means(), agg_b.means()
        stats = {}
        for metric in PAIRWISE:
            stats[metric] = {
                "delta": means_a[metric] - means_b[metric],
                "p": rank_sum_p(agg_a.values[metric], agg_b.values[metric]),
            }
        pairwise[(a, b)] = stats
    return ComparisonReport(aggregates=aggregates, pairwise=pairwise)
