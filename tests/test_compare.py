import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishsched.compare import (
    EXACT_LIMIT,
    compare_campaigns,
    gini,
    never_hit_count,
    rank_sum_p,
)
from fishsched.simulator import (
    CampaignConfig,
    SyntheticProgramSpec,
    generate_program,
    run_campaign,
)
from oracles import oracle_normal_rank_sum_p, oracle_rank_sum_p


def test_gini_flat_distribution_is_zero():
    assert gini([4, 4, 4, 4]) == pytest.approx(0.0)


def test_gini_concentrated_distribution():
    # closed form on 4 values: sum of |xi - xj| = 96, 2 * n * sum = 128
    assert gini([16, 0, 0, 0]) == pytest.approx(0.75)


def test_gini_edge_cases():
    assert gini([]) == 0.0
    assert gini([0, 0, 0]) == 0.0
    assert gini([5]) == 0.0


def test_gini_matches_pairwise_definition():
    values = [3, 1, 4, 1, 5, 9, 2, 6]
    n = len(values)
    pairwise = sum(abs(a - b) for a in values for b in values)
    expected = pairwise / (2 * n * sum(values))
    assert gini(values) == pytest.approx(expected)


def test_rank_sum_two_singletons_is_one():
    # exact enumeration over the 2 label assignments
    assert rank_sum_p([1.0], [2.0]) == pytest.approx(1.0)


def test_rank_sum_identical_groups_is_one():
    assert rank_sum_p([5.0, 5.0], [5.0, 5.0]) == pytest.approx(1.0)


def test_rank_sum_small_exact_value():
    # {1,2} vs {3,4}: 2 of 6 assignments deviate at least as much -> 1/3
    assert rank_sum_p([1.0, 2.0], [3.0, 4.0]) == pytest.approx(1 / 3)


def test_rank_sum_symmetry():
    xs, ys = [1.0, 5.0, 3.0], [2.0, 8.0, 9.0, 4.0]
    assert rank_sum_p(xs, ys) == pytest.approx(rank_sum_p(ys, xs))


def test_rank_sum_matches_scipy_when_available():
    scipy_stats = pytest.importorskip("scipy.stats")
    xs = [12.0, 7.0, 22.0, 9.0, 14.0]
    ys = [8.0, 30.0, 27.0, 25.0, 19.0]
    expected = scipy_stats.mannwhitneyu(xs, ys, alternative="two-sided").pvalue
    assert rank_sum_p(xs, ys) == pytest.approx(expected, abs=1e-9)


def test_rank_sum_rejects_empty():
    with pytest.raises(ValueError):
        rank_sum_p([], [1.0])


def test_rank_sum_large_samples_use_normal_approximation():
    xs = list(range(15))
    ys = [x + 0.5 for x in range(15)]
    p = rank_sum_p([float(x) for x in xs], ys)
    assert 0.0 <= p <= 1.0


# Few distinct values, so that most draws hold tie blocks of several sizes.
tied_values = st.sampled_from([0, 1, 1.5, 2, 3.25, 7])


@st.composite
def large_tied_samples(draw):
    """Two groups whose pooled size takes rank_sum_p past the exact branch."""
    n1 = draw(st.integers(1, 2 * EXACT_LIMIT))
    n2 = draw(st.integers(max(1, EXACT_LIMIT + 1 - n1), 2 * EXACT_LIMIT))
    return (draw(st.lists(tied_values, min_size=n1, max_size=n1)),
            draw(st.lists(tied_values, min_size=n2, max_size=n2)))


@settings(max_examples=300, deadline=None)
@given(large_tied_samples())
def test_rank_sum_normal_approximation_equals_the_oracle(samples):
    xs, ys = samples
    assert rank_sum_p(xs, ys) == oracle_normal_rank_sum_p(xs, ys)


def test_rank_sum_normal_approximation_of_equal_values_is_one():
    assert rank_sum_p([4.0] * 11, [4.0] * 12) == 1.0


def test_rank_sum_normal_approximation_matches_scipy_when_available():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(314159)
    for _ in range(300):
        n1 = rng.randint(1, 2 * EXACT_LIMIT)
        n2 = rng.randint(max(1, EXACT_LIMIT + 1 - n1), 2 * EXACT_LIMIT)
        pool = rng.sample([0.0, 1.0, 1.5, 2.0, 3.25, 7.0, 9.5], rng.randint(2, 7))
        xs = [rng.choice(pool) for _ in range(n1)]
        ys = [rng.choice(pool) for _ in range(n2)]
        if len(set(xs + ys)) == 1:
            continue  # no variance: scipy returns nan, rank_sum_p 1.0
        expected = scipy_stats.mannwhitneyu(
            xs, ys, alternative="two-sided", method="asymptotic", use_continuity=True
        ).pvalue
        assert rank_sum_p(xs, ys) == pytest.approx(expected, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# compare_campaigns
# ---------------------------------------------------------------------------


def world():
    return generate_program(
        SyntheticProgramSpec(n_functions=30, targets_per_function=(0, 2), rng_seed=2)
    )


def results_for(graph, schedulers, seeds, duration=150):
    out = []
    for sched in schedulers:
        for seed in seeds:
            out.append(
                run_campaign(
                    graph,
                    CampaignConfig(scheduler=sched, duration=duration, rng_seed=seed),
                )
            )
    return out


def test_identical_result_compared_with_itself():
    g = world()
    (r,) = results_for(g, ["fishfuzz"], [1])
    report = compare_campaigns([r, r])
    ((pair, stats),) = list(report.pairwise.items())
    assert pair == ("fishfuzz", "fishfuzz")
    for metric in ("coverage", "reached", "triggered"):
        assert stats[metric]["delta"] == 0
        assert stats[metric]["p"] == pytest.approx(1.0)


def test_compare_requires_matching_graphs():
    g1 = world()
    g2 = generate_program(
        SyntheticProgramSpec(n_functions=30, targets_per_function=(0, 2), rng_seed=3)
    )
    (r1,) = results_for(g1, ["fishfuzz"], [1])
    (r2,) = results_for(g2, ["round_robin"], [1])
    with pytest.raises(ValueError, match="mismatched graphs"):
        compare_campaigns([r1, r2])


def test_compare_requires_two_results():
    g = world()
    (r,) = results_for(g, ["fishfuzz"], [1])
    with pytest.raises(ValueError):
        compare_campaigns([r])


def test_compare_aggregates_and_pairs():
    g = world()
    rs = results_for(g, ["fishfuzz", "round_robin"], [1, 2, 3])
    report = compare_campaigns(rs)
    assert set(report.aggregates) == {"fishfuzz", "round_robin"}
    assert report.aggregates["fishfuzz"].seeds == [1, 2, 3]
    assert list(report.pairwise) == [("fishfuzz", "round_robin")]
    rows = report.csv_rows()
    assert rows[0] == ["section", "scheduler", "metric", "value"]
    assert any(row[0] == "pair" for row in rows)
    table = report.text_table()
    assert "fishfuzz" in table and "round_robin" in table


def test_never_hit_count():
    g = world()
    (r,) = results_for(g, ["round_robin"], [5], duration=20)
    manual = sum(1 for h in r.target_hits.values() if h == 0)
    assert never_hit_count(r) == manual


def test_rank_sum_exact_p_equals_enumeration():
    # Few distinct values force ties; halves and quarters are fractional.
    rng = random.Random(271828)
    cases = [([float(i) for i in range(10)], [float(i) + 0.5 for i in range(10)])]
    cases.append(([1.0] * 10, [1.0] * 9 + [2.0]))
    while len(cases) < 60:
        n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
        pool = [rng.choice((0, 1, 2)) + rng.choice((0.0, 0.25, 0.5)) for _ in range(4)]
        values = [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-5, 5)
                  for _ in range(n1 + n2)]
        cases.append((values[:n1], values[n1:]))
    for xs, ys in cases:
        assert rank_sum_p(xs, ys) == oracle_rank_sum_p(xs, ys), (xs, ys)
