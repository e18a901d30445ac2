"""Tests of the benchmark's own machinery: input generation, the Pareto
oracle, span self times, the tracer's wrapping and the speed probe."""

import json
import random
from pathlib import Path

import carboncast as cc
import pytest

from checks import brute_force_flags, pareto_flags
from run import (WORKLOADS, Outcome, extra_layer_metrics, latency_metrics, layer_metrics,
                 percentile, tail, timed)
from spans import Tracer, import_times_ms, layer_totals, self_times
from speed import KernelProbe
from workloads import EstimateMix, cli_sweep_config, sweep_grid


@pytest.fixture(scope="module")
def catalogs():
    return cc.catalog.resolve_catalogs()


def test_estimate_mix_is_deterministic_per_seed(catalogs):
    a, b, c = (EstimateMix(seed, catalogs) for seed in (7, 7, 8))
    first = [next(a) for _ in range(200)]
    assert first == [next(b) for _ in range(200)]
    assert first != [next(c) for _ in range(200)]
    assert a.tally.shares() == b.tally.shares()


def test_sweep_and_cli_inputs_are_deterministic_per_seed():
    assert sweep_grid(random.Random("s"), 300, invalid=3) == sweep_grid(random.Random("s"), 300, invalid=3)
    assert cli_sweep_config(random.Random(1)) == cli_sweep_config(random.Random(1))
    assert cli_sweep_config(random.Random(1)) != cli_sweep_config(random.Random(2))


def test_estimate_mix_inputs_are_all_distinct(catalogs):
    mix = EstimateMix(3, catalogs)
    ops = [next(mix) for _ in range(500)]
    assert len({repr(payload) for _, payload in ops}) == len(ops)


def test_sweep_grid_marks_each_kind_of_broken_point():
    grid, bad = sweep_grid(random.Random(0), 50, invalid=3)
    broken = {arch.name: (arch, tokens) for arch, tokens in grid if arch.name in bad}
    assert len(broken) == 3
    assert sorted(tokens for _, tokens in broken.values() if tokens <= 0) == [-1e9, 0.0]
    assert any(a.is_moe and not a.vocab_size and a.base_model_param_count is None
               for a, _ in broken.values())


@pytest.mark.parametrize("seed", range(40))
def test_pareto_oracle_matches_brute_force_with_ties(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    # Few distinct coordinates, so equal losses, equal carbons and exact
    # duplicates all occur.
    values = [(rng.randint(0, 5) / 2, rng.randint(0, 5) / 4) for _ in range(n)]
    assert pareto_flags(values) == brute_force_flags(values)


def test_pareto_oracle_on_hand_cases():
    assert pareto_flags([(1, 1), (1, 1)]) == [False, False]      # equal pairs
    assert pareto_flags([(1, 2), (1, 1)]) == [True, False]       # same loss
    assert pareto_flags([(2, 1), (1, 1)]) == [True, False]       # same carbon
    assert pareto_flags([(1, 3), (2, 2), (3, 1)]) == [False] * 3  # a frontier


def test_self_time_subtracts_nested_children():
    spans = [("root", -1, 0, 100), ("a", 0, 10, 40), ("a1", 1, 15, 25), ("b", 0, 50, 70)]
    assert self_times(spans) == [50, 20, 10, 20]
    assert layer_totals(spans + [("b", 0, 80, 90)]) == {
        "root": (1, 40), "a": (1, 20), "a1": (1, 10), "b": (2, 30)}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [("p", -1, 0, 10), ("c", 0, 2, 6), ("c", 0, 4, 8), ("c", 0, 9, 12)]
    assert self_times(spans)[0] == 10 - (6 + 1)


def test_tracer_wraps_functions_under_their_callers_names(catalogs):
    original = cc.pipeline.count_params
    req = next(r for kind, r in EstimateMix(1, catalogs) if kind == "estimate")
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert cc.pipeline.count_params is not original
        assert cc.validation.count_params is cc.pipeline.count_params
        report = cc.estimate(req)
    finally:
        restore()
    assert cc.pipeline.count_params is original and cc.params.count_params is original
    assert report == cc.estimate(req)
    spans = tracer.records()
    assert spans[0][:2] == ("pipeline.estimate", -1)
    names = {name for name, parent, _, _ in spans if parent == 0}
    assert {"params.count_params", "efficiency.optimal_efficiency", "operational",
            "embodied.fleet_embodied"} <= names
    assert any(name == "catalog.default_anchors" for name, *_ in spans) == (req.anchors is None)


def test_import_times_are_read_from_importtime_lines():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1200 |      85000 | numpy\n"
              "import time:       300 |      16000 | yaml\n"
              "import time:       100 |     160000 | carboncast.cli\n"
              "config error: something\n")
    assert import_times_ms(stderr) == {"numpy": 85.0, "yaml": 16.0, "carboncast": 160.0}


def test_tail_is_p90_only_with_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert tail(values) == (90, "p90")
    assert tail(values[:99]) == (99, "max of 99")


def test_benchmark_json_lists_every_metric_the_run_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = {**layer_metrics({}, 1, 1), **extra_layer_metrics()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}
    end_to_end = {"setup_s": "s", "peak_rss_mb": "MB",
                  **{k: u for k, (_, u) in latency_metrics([1.0] * 20).items()}}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == end_to_end
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_probe_scale_takes_the_median_of_nearby_probes():
    probe = KernelProbe()
    probe.at.extend([0.0, 0.2, 0.4, 5.0])
    probe.ns.extend([1_000_000, 2_000_000, 4_000_000, 8_000_000])
    assert probe.scale(0.2, 0.2) == 0.5            # three probes within 0.6 s
    assert probe.scale(5.0, 5.0) == 0.25           # too few: the three nearest


def test_timed_subtracts_probe_time_and_counts_exceptions():
    class Probe:
        stolen_ns = 0

    def busy():
        Probe.stolen_ns += 10**9  # as if a probe ran for 1 s inside the call
        return "done"

    outcome = Outcome()
    result, ns, start, end = timed(outcome, "busy", Probe, busy)
    assert result == "done" and ns < 0 < end - start
    result, _, _, _ = timed(outcome, "boom", None, lambda: 1 / 0)
    assert result is None and (outcome.attempted, outcome.failed) == (1, 1)
