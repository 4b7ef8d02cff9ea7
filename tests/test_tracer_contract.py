"""The benchmark's tracer (perfbench/spans.py) rebinds names inside fishsched
modules. Each name it patches must exist, and campaigns must call through
them, or a traced benchmark run fails or silently measures nothing.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import fishsched
import fishsched.cli  # noqa: F401  (the tracer patches names in fishsched.cli)
from fishsched.scheduler import SchedulerConfig
from fishsched.simulator import (
    SCHEDULERS,
    CampaignConfig,
    SyntheticProgramSpec,
    generate_program,
    run_campaign,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = [
        f"fishsched.{module}.{name}"
        for module, name in _spans().PATCHES
        if not hasattr(importlib.import_module(f"fishsched.{module}"), name)
    ]
    assert missing == []


def test_campaigns_call_through_the_traced_names():
    original = fishsched.simulator.execute_mutation
    tracer = _spans().Tracer()
    tracer.install(fishsched)
    try:
        graph = generate_program(SyntheticProgramSpec(n_functions=30, rng_seed=3))
        cfg = SchedulerConfig(w_function=20, w_reach=10, w_trigger=40)
        for scheduler in SCHEDULERS:
            run_campaign(
                graph, CampaignConfig(scheduler, duration=300, scheduler_config=cfg)
            )
    finally:
        tracer.uninstall()
    assert fishsched.simulator.execute_mutation is original

    spans = Counter(name for name, *_ in tracer.spans)
    assert spans["simulator.execute_mutation"] == len(SCHEDULERS) * 301
    assert spans["distance.build_distance_map"] == 1  # fishfuzz only
    assert spans["distance.harmonic_distance"] > 0  # harmonic_directed
    for cull in ("inter_function_cull", "intra_function_cull", "exploitation_cull"):
        assert spans[f"scheduler.{cull}"] > 0, cull
    assert tracer.counts["execution.dsf_lookups"] > 0  # culls got dsf_fn=


def test_every_campaign_side_span_is_recorded():
    # A traced name that campaigns stop calling leaves its per-layer metric at
    # 0 with nothing failing. simulator binds order_by_hits and
    # reached_untriggered without calling them, so names, not bindings, count.
    spans_module = _spans()
    tracer = spans_module.Tracer()
    tracer.install(fishsched)
    try:
        graph = generate_program(SyntheticProgramSpec(n_functions=30, rng_seed=3))
        cfg = SchedulerConfig(w_function=20, w_reach=10, w_trigger=40)
        for scheduler in SCHEDULERS:
            run_campaign(
                graph, CampaignConfig(scheduler, duration=300, scheduler_config=cfg)
            )
    finally:
        tracer.uninstall()

    expected = {
        name for (module, _), name in spans_module.PATCHES.items()
        if module in ("simulator", "scheduler", "distance")
    }
    recorded = {name for name, *_ in tracer.spans}
    assert expected
    assert sorted(expected - recorded) == []
