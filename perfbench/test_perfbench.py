"""Tests for the benchmark's own helpers: span arithmetic, the tail
percentile rule, metric names, and installing the span wrappers."""

import json
import re
import threading
from pathlib import Path

import numpy as np

import layers
import run
import scenarios
from spans import Span, Tracer, covered, layer_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(id, parent, layer, start, end, thread=1):
    return Span(id, parent, layer, f"{layer}.call", thread, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, None, "outer", 0.0, 10.0),
        span(1, 0, "inner", 2.0, 5.0),
        span(2, 1, "leaf", 3.0, 4.0),
        span(3, 0, "outer", 6.0, 8.0),  # the layer calling itself
    ]
    times = layer_times(spans)
    assert times["outer"]["calls"] == 2
    assert times["outer"]["self_s"] == (10.0 - 3.0 - 2.0) + 2.0
    assert times["outer"]["busy_s"] == 10.0  # the nested call is not counted twice
    assert times["inner"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    assert times["leaf"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_self_time_with_children_on_other_threads():
    spans = [
        span(0, None, "dispatch", 0.0, 10.0, thread=1),
        span(1, 0, "shard", 1.0, 6.0, thread=2),
        span(2, 0, "shard", 4.0, 9.0, thread=3),
    ]
    times = layer_times(spans)
    # The children overlap; the parent is busy itself only outside [1, 9].
    assert times["dispatch"]["self_s"] == 2.0
    # Busy time summed over threads exceeds the 8 s of wall time covered.
    assert times["shard"]["busy_s"] == 10.0


def test_covered_clips_to_the_span_and_merges_overlaps():
    assert covered(2.0, 8.0, [(0.0, 3.0), (2.5, 4.0), (7.0, 12.0)]) == 3.0
    assert covered(0.0, 1.0, []) == 0.0


def test_worker_spans_are_parented_to_the_dispatching_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    parent = tracer.open("crossbar.sharding", "dispatch")
    worker = threading.Thread(
        target=lambda: tracer.close(tracer.open("crossbar.operator", "matmat"))
    )
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(parent)
    child, recorded_parent = tracer.spans
    assert recorded_parent is parent
    assert child.parent == parent.id and child.thread != parent.thread


def test_tail_percentile_keeps_ten_samples_beyond():
    assert scenarios.tail_percentile(np.arange(1.0, 1001.0)) == (99.0, 990.0, 10)
    assert scenarios.tail_percentile(np.arange(1.0, 1000.0)) == (90.0, 900.0, 99)
    assert scenarios.tail_percentile(np.arange(1.0, 16.0)) == (50.0, 8.0, 7)


def test_metric_names_and_units_match_the_benchmark_file():
    per_layer = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    end_to_end = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert per_layer == dict(layers.PER_LAYER)
    assert end_to_end == dict(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(scenarios.WORKLOADS)
    for name in [*per_layer, *end_to_end, *run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_install_and_remove_restore_the_original_functions():
    from repro.crossbar.converters import Dac

    def current():
        out = []
        for _, module, owner, name, _ in layers.TARGETS:
            holder = __import__(module, fromlist=["_"])
            if owner is not None:
                holder = getattr(holder, owner)
            out.append(vars(holder)[name])
        return out

    originals = current()
    tracer = Tracer()
    saved = layers.install(tracer)
    try:
        wrapped = current()
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        Dac(bits=8).to_voltages(np.zeros((4, 3)))
    finally:
        layers.remove(saved)
    assert all(c is o for c, o in zip(current(), originals))
    (recorded,) = tracer.spans
    assert recorded.layer == "crossbar.converters"
    assert recorded.info == {"conversions": 12}


def test_layer_metrics_average_repeats_whose_span_ids_restart():
    def repeat():
        read = span(2, 1, "crossbar.array", 1.0, 3.0)
        read.name = "CrossbarArray.mvm"
        read.info = {"columns": 4, "macs": 400, "gemm": (10, 10, 4)}
        return [
            span(0, None, "perfbench", 0.0, 5.0),
            span(1, 0, "crossbar.operator", 0.5, 4.0),
            read,
        ]

    one = layers.layer_metrics([repeat()], {}, floor_s=0.5)
    two = layers.layer_metrics([repeat(), repeat()], {}, floor_s=0.5)
    assert one == two
    assert one["crossbar.array.busy_s"] == one["crossbar.array.self_s"] == 2.0
    assert one["crossbar.operator.self_s"] == 1.5
    assert one["crossbar.array.floor_ratio"] == 4.0
    assert one["crossbar.array.ns_per_mac"] == 2.0 * 1e9 / 400
    assert one["crossbar.maintenance.busy_s"] == 0.0
