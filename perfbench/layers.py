"""Span wrappers around each layer's public functions, and the
per-layer metrics computed from their spans.

:func:`install` replaces each target in :data:`TARGETS` on its class or
module with a wrapper that records one span per call and returns the
original result untouched: the wrappers draw no random numbers and
change no order, so a traced run must reproduce an untraced one bit for
bit.  :func:`remove` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

import spans as spans_mod


def _array_info(args, result):
    voltages = np.asarray(args[1])
    width = voltages.shape[1] if voltages.ndim == 2 else 1
    lines_in, lines_out = voltages.shape[0], np.shape(result)[0]
    return {
        "columns": width,
        "macs": lines_in * lines_out * width,
        "gemm": (lines_out, lines_in, width),
    }


def _conversions(args, result):
    return {"conversions": int(np.size(args[1]))}


def _pulses(args, result):
    return {"pulses": int(result.n_pulses)}


def _windows(per_block):
    def info(args, result):
        fleet, block = args[0], np.asarray(args[1])
        width = block.shape[1] if block.ndim == 2 else 1
        return {"windows": per_block * -(-width // fleet.batch_window)}

    return info


def _request(args, result):
    return {"ref": result.id} if result is not None else None


def _last_block(args, result):
    return {"ref": result[-1].block_id} if result else None


# (layer, module, owner class or None for a module function, function, info)
# ``info(args, result)`` returns counts to attach to the span, read at
# its boundary; its ``ref`` entry, if any, becomes the span's request or
# block id (the last block a serving step dispatched).  ``program_and_verify`` is wrapped where CrossbarArray
# looks it up; ``amp_recover_batch`` where the workloads call it.
TARGETS = (
    ("crossbar.array", "repro.crossbar.array", "CrossbarArray", "mvm", _array_info),
    ("crossbar.array", "repro.crossbar.array", "CrossbarArray", "mvm_t", _array_info),
    ("devices.pcm", "repro.devices.pcm", "PcmDevice", "drifted", None),
    ("devices.pcm", "repro.devices.pcm", "PcmDevice", "read", None),
    ("crossbar.converters", "repro.crossbar.converters", "Dac", "to_voltages", _conversions),
    ("crossbar.converters", "repro.crossbar.converters", "Adc", "quantize", _conversions),
    *(
        ("crossbar.operator", "repro.crossbar.operator", "CrossbarOperator", name, None)
        for name in (
            "matmat", "rmatmat", "matvec", "rmatvec", "calibrate", "read_error", "reprogram",
        )
    ),
    ("crossbar.sharding", "repro.crossbar.sharding", "ShardedOperator", "matmat", _windows(1)),
    ("crossbar.sharding", "repro.crossbar.sharding", "ShardedOperator", "rmatmat", _windows(1)),
    ("crossbar.sharding", "repro.crossbar.sharding", "ShardedOperator", "fused_sweep", _windows(2)),
    ("crossbar.sharding", "repro.crossbar.sharding", "ShardedOperator", "advance_time", None),
    ("crossbar.programming", "repro.crossbar.array", None, "program_and_verify", _pulses),
    ("crossbar.maintenance", "repro.crossbar.maintenance", "FleetMaintenance", "sweep", None),
    ("crossbar.lifetime", "repro.crossbar.lifetime", "LifetimeSimulator", "run", None),
    ("crossbar.lifetime", "repro.crossbar.lifetime", "FaultInjector", "advance", None),
    ("signal.amp", "repro.signal.amp", None, "amp_recover_batch", None),
    ("serving", "repro.serving.server", "FleetServer", "replay", None),
    ("serving", "repro.serving.server", "FleetServer", "submit", _request),
    ("serving", "repro.serving.server", "FleetServer", "step", _last_block),
    ("serving", "repro.serving.server", "FleetServer", "flush", _last_block),
)

# Every per-layer metric, with its unit, in the order it is reported.
PER_LAYER = (
    ("crossbar.array.calls", "count"),
    ("crossbar.array.busy_s", "s"),
    ("crossbar.array.self_s", "s"),
    ("crossbar.array.columns", "count"),
    ("crossbar.array.ns_per_mac", "ns"),
    ("crossbar.array.floor_ratio", "ratio"),
    ("crossbar.array.cache_miss_share", "ratio"),
    ("devices.pcm.drift_calls", "count"),
    ("devices.pcm.busy_s", "s"),
    ("crossbar.converters.calls", "count"),
    ("crossbar.converters.busy_s", "s"),
    ("crossbar.converters.conversions", "count"),
    ("crossbar.operator.calls", "count"),
    ("crossbar.operator.busy_s", "s"),
    ("crossbar.operator.self_s", "s"),
    ("crossbar.operator.live_share", "ratio"),
    ("crossbar.sharding.calls", "count"),
    ("crossbar.sharding.busy_s", "s"),
    ("crossbar.sharding.self_s", "s"),
    ("crossbar.sharding.windows", "count"),
    ("crossbar.sharding.load_imbalance", "ratio"),
    ("crossbar.programming.calls", "count"),
    ("crossbar.programming.busy_s", "s"),
    ("crossbar.programming.pulses", "count"),
    ("crossbar.maintenance.sweeps", "count"),
    ("crossbar.maintenance.busy_s", "s"),
    ("crossbar.maintenance.self_s", "s"),
    ("crossbar.maintenance.calibrations", "count"),
    ("crossbar.maintenance.reprograms", "count"),
    ("crossbar.maintenance.retirements", "count"),
    ("crossbar.maintenance.probes", "count"),
    ("crossbar.lifetime.busy_s", "s"),
    ("crossbar.lifetime.self_s", "s"),
    ("crossbar.lifetime.fault_events", "count"),
    ("signal.amp.busy_s", "s"),
    ("signal.amp.self_s", "s"),
    ("signal.amp.sweeps", "count"),
    ("signal.amp.active_share", "ratio"),
    ("serving.calls", "count"),
    ("serving.busy_s", "s"),
    ("serving.self_s", "s"),
    ("serving.blocks", "count"),
    ("serving.block_fill", "ratio"),
    ("serving.sim_latency_p50_s", "s"),
    ("serving.sim_latency_tail_s", "s"),
    ("serving.sim_latency_tail_pct", "%"),
    ("serving.sim_latency_tail_beyond", "count"),
    ("serving.slo_met_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def _wrap(tracer, layer, name, original, info):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.open(layer, name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if info is not None:
            span.info = info(args, result)
            if span.info is not None:
                span.ref = span.info.pop("ref", None)
        return result

    return traced


def install(tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what :func:`remove` needs to undo it."""
    saved = []
    try:
        for layer, module, owner, name, info in TARGETS:
            holder = importlib.import_module(module)
            if owner is not None:
                holder = getattr(holder, owner)
            original = vars(holder)[name]
            label = f"{owner or module}.{name}"
            setattr(holder, name, _wrap(tracer, layer, label, original, info))
            saved.append((holder, name, original))
    except BaseException:
        remove(saved)
        raise
    return saved


def remove(saved) -> None:
    """Restore the original functions, last wrapped first."""
    for holder, name, original in reversed(saved):
        setattr(holder, name, original)


def dense_floor_s(spans) -> float:
    """Host time of one dense GEMM per recorded array read, same shapes.

    Each ``crossbar.array`` span recorded its product as ``(out, in, B)``;
    the floor multiplies an ``(out, in)`` matrix by an ``(in, B)`` block
    for each, on this thread, which is the least work that read could do.
    """
    shapes = [span.info["gemm"] for span in spans if span.layer == "crossbar.array"]
    rng = np.random.default_rng(0)
    operands = {}
    for out, inner, width in set(shapes):
        operands.setdefault((out, inner), rng.standard_normal((out, inner)))
        operands.setdefault((inner, width), rng.standard_normal((inner, width)))
    start = time.perf_counter()
    for out, inner, width in shapes:
        operands[(out, inner)] @ operands[(inner, width)]
    return time.perf_counter() - start


def layer_metrics(runs, counts: dict, floor_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_share``.

    ``runs`` holds the spans of each traced repeat (span ids are unique
    within a repeat only); sums are reported per repeat.  ``counts``
    are the per-layer counts the workload read from the layers' own
    counters; ``floor_s`` is the dense floor of one repeat.  A layer the
    workload never enters reports zeros.
    """
    repeats = len(runs)
    times: dict[str, dict[str, float]] = {}
    misses = 0
    for spans in runs:
        for layer, entry in spans_mod.layer_times(spans).items():
            total = times.setdefault(layer, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                total[key] += value
        # A read that finds no cached drifted conductance recomputes it.
        by_id = {span.id: span for span in spans}
        misses += sum(
            1
            for span in spans
            if span.name == "PcmDevice.drifted"
            and span.parent in by_id
            and by_id[span.parent].layer == "crossbar.array"
        )
    spans = [span for run in runs for span in run]

    def per_repeat(layer, key):
        return sum(s.info[key] for s in spans if s.layer == layer and s.info) / repeats

    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            out[name] = times.get(layer, {}).get(key, 0.0) / repeats
        elif name in counts:
            out[name] = float(counts[name])
    out["crossbar.maintenance.sweeps"] = (
        times.get("crossbar.maintenance", {}).get("calls", 0.0) / repeats
    )
    array_calls = out["crossbar.array.calls"]
    array_busy = out["crossbar.array.busy_s"]
    macs = per_repeat("crossbar.array", "macs")
    out["crossbar.array.columns"] = per_repeat("crossbar.array", "columns")
    out["crossbar.array.ns_per_mac"] = array_busy * 1e9 / macs if macs else 0.0
    out["crossbar.array.floor_ratio"] = array_busy / floor_s if floor_s else 0.0
    out["crossbar.array.cache_miss_share"] = (
        misses / repeats / array_calls if array_calls else 0.0
    )
    out["devices.pcm.drift_calls"] = (
        sum(1 for span in spans if span.name == "PcmDevice.drifted") / repeats
    )
    out["crossbar.converters.conversions"] = per_repeat("crossbar.converters", "conversions")
    out["crossbar.sharding.windows"] = per_repeat("crossbar.sharding", "windows")
    out["crossbar.programming.pulses"] = per_repeat("crossbar.programming", "pulses")
    return {
        name: out.get(name, 0.0)
        for name, _unit in PER_LAYER
        if name != "trace.overhead_share"
    }
