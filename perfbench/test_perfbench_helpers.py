"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench_helpers.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_util import (  # noqa: E402
    PROBE_REF_S,
    BenchError,
    at_reference_speed,
    block_median,
    checked_percentile,
    comparable,
    mix_metrics,
    repeat_rounds,
    samples_beyond,
    self_time,
    speed_probe,
    tail_percentile,
    tracing_overhead,
)
from layers import LayerTracer  # noqa: E402


# ---- the tail-percentile rule ----------------------------------------------

def test_samples_beyond_counts_order_statistics_above_the_rank():
    assert samples_beyond(100, 50.0) == 50
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(999, 99.0) == 10
    assert samples_beyond(100, 90.0) == 10


def test_tail_rule_picks_highest_percentile_with_ten_beyond():
    assert tail_percentile(20000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 99.0
    assert tail_percentile(900) == 95.0
    assert tail_percentile(101) == 90.0


def test_tail_rule_refuses_without_enough_samples():
    with pytest.raises(BenchError):
        tail_percentile(30)


def test_checked_percentile_refuses_a_tail_without_ten_beyond():
    values = [float(i) for i in range(500)]
    with pytest.raises(BenchError):
        checked_percentile(values, 99.0)
    assert checked_percentile(values, 95.0) == pytest.approx(474.05)


def test_block_median_drops_the_incomplete_block_and_resists_a_burst():
    values = [1.0] * 30 + [50.0] * 10 + [1.0] * 25  # the burst fills one block
    assert block_median(values, 10, max) == 1.0


def test_block_median_refuses_without_one_full_block():
    with pytest.raises(BenchError):
        block_median([1.0] * 9, 10, max)


# ---- throughput and latency of an operation mix -----------------------------

def test_mix_metrics_counts_operations_per_second_spent():
    got = mix_metrics({"a": [1.0, 3.0], "b": [0.5, 0.5, 1.0]})
    assert got["ops_per_s"] == {"value": pytest.approx(5 / 6.0), "unit": "1/s"}


def test_mix_metrics_latency_weighs_every_kind_the_same():
    # kind means 2 s and 0.5 s: their geometric mean is 1 s
    got = mix_metrics({"a": [1.0, 3.0], "b": [0.5]})
    assert got["op_latency_ms"] == {"value": pytest.approx(1000.0), "unit": "ms"}
    slower_b = mix_metrics({"a": [1.0, 3.0], "b": [1.0]})
    slower_a = mix_metrics({"a": [2.0, 6.0], "b": [0.5]})
    assert slower_a["op_latency_ms"]["value"] == pytest.approx(
        slower_b["op_latency_ms"]["value"])


def test_mix_metrics_refuses_a_kind_without_samples():
    with pytest.raises(BenchError):
        mix_metrics({"a": [1.0], "b": []})


def test_repeat_rounds_stops_near_the_time_given():
    clock = [0.0]

    def one_round():
        clock[0] += 3.0

    import bench_util

    real = bench_util.time.perf_counter
    bench_util.time.perf_counter = lambda: clock[0]
    try:
        # rounds end at 3, 6 and 9; a fourth would end at 12, more than
        # half a round past 10
        assert repeat_rounds(10.0, one_round) == 3
        clock[0] = 0.0
        assert repeat_rounds(11.0, one_round) == 4
        clock[0] = 0.0
        assert repeat_rounds(0.0, one_round) == 1
    finally:
        bench_util.time.perf_counter = real


# ---- times at reference speed -------------------------------------------------

def test_a_time_on_a_core_twice_as_slow_counts_half():
    assert at_reference_speed(3.0, 2 * PROBE_REF_S) == pytest.approx(1.5)
    assert at_reference_speed(3.0, PROBE_REF_S) == pytest.approx(3.0)


def test_speed_probe_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    assert speed_probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_serve_loop_stretches_take_the_slowdown_of_the_probes_around_them():
    from wl_serve import Slowdowns

    probes = Slowdowns()
    probes.add(10.0, 11.0, PROBE_REF_S)      # full speed
    probes.add(20.0, 21.0, 3 * PROBE_REF_S)  # three times slower
    assert probes.at(5.0) == pytest.approx(1.0)
    assert probes.at(15.0) == pytest.approx(2.0)
    assert probes.at(25.0) == pytest.approx(3.0)
    # 10 s at 1x, 9 s at 2x, 9 s at 3x; the probes' own 2 s are left out
    assert probes.reference_seconds(0.0, 30.0) == pytest.approx(10 + 4.5 + 3)


# ---- self time --------------------------------------------------------------

def test_self_time_without_children_is_the_duration():
    assert self_time((1.0, 4.0), []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert self_time((0.0, 10.0), [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_nested_children_once():
    # (2, 3) lies inside (1, 4)
    assert self_time((0.0, 10.0), [(1.0, 4.0), (2.0, 3.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    assert self_time((0.0, 10.0), [(1.0, 5.0), (3.0, 7.0), (6.0, 8.0)]) == pytest.approx(3.0)


def test_self_time_ignores_child_time_outside_the_span():
    assert self_time((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


def test_layer_tracer_self_time_excludes_wrapped_callees():
    ticks = iter(range(100))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("symbolic", "inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("transform", "pass", body)
    outer()  # clock: outer 0, inner 1-2, inner 3-4, outer end 5
    assert tracer.inclusive_s["pass"] == 5.0
    assert tracer.self_s["symbolic"] == 2.0
    assert tracer.self_s["transform"] == 3.0
    assert tracer.calls["inner"] == 2


def test_layer_tracer_counts_recursion_once_in_inclusive_time():
    ticks = iter(range(100))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    box = {}

    def rec(n):
        if n:
            box["f"](n - 1)

    box["f"] = tracer.wrap("symbolic", "rec", rec)
    box["f"](2)  # starts 0, 1, 2; ends 3, 4, 5
    assert tracer.calls["rec"] == 3
    assert tracer.inclusive_s["rec"] == 5.0
    assert tracer.self_s["symbolic"] == 5.0


# ---- tracing overhead --------------------------------------------------------

def test_tracing_overhead_is_traced_minus_untraced():
    extra, ratio = tracing_overhead(12.0, 10.0)
    assert extra == pytest.approx(2.0)
    assert ratio == pytest.approx(0.2)


def test_tracing_overhead_can_be_negative_noise():
    extra, ratio = tracing_overhead(9.5, 10.0)
    assert extra == pytest.approx(-0.5)
    assert ratio == pytest.approx(-0.05)


def test_tracing_overhead_needs_a_positive_base():
    with pytest.raises(BenchError):
        tracing_overhead(1.0, 0.0)


# ---- provenance ---------------------------------------------------------------

def test_results_from_different_hosts_are_not_comparable():
    a = {"nproc": 2, "cpu": "x", "python": "3.11.7", "numpy": "2.4.6", "seed": 1}
    assert comparable(a, dict(a, seed=2)) == []
    assert comparable(a, dict(a, nproc=4)) == ["nproc"]
