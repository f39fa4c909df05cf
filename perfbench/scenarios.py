"""The benchmark's three workloads.

Each workload has three parts.  ``inputs(seed)`` draws everything a run
needs from the seed: matrices, signals, arrival traces and the device
and probe seeds.  ``setup(inputs)`` builds and programs the fleet; this
is the part ``setup_s`` times.  ``run(inputs, state)`` is the timed
part.  It returns an :class:`Outcome` whose ``fingerprint`` holds every
output, counter and log of the repeat, so two repeats can be compared
bit for bit.

The repro modules are reached through module attributes at call time
(``amp.amp_recover_batch``, not a name imported once), so the span
wrappers that ``layers.py`` installs on those attributes see every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import repro.signal.amp as amp
from repro.crossbar import (
    FaultInjector,
    FleetMaintenance,
    LifetimeSimulator,
    ShardedOperator,
)
from repro.energy import CrossbarCostModel
from repro.serving import FleetServer, VirtualClock
from repro.signal import CsProblem

TENANTS = ("alice", "bob", "carol")
# serve_stream and fleet_lifetime keep one matrix for every benchmark
# seed, as a deployed fleet holds one model while its traffic, device
# noise and probes change.  Drawn per seed, the matrix's peak-to-RMS
# ratio sets the differential coding scale, and with it the modelled
# error: served NMSE ranged 0.0057-0.0073 over ten seeds.
FLEET_MATRIX_SEED = 0

# Output ceilings.  Each sits well above what every seed tried while
# the benchmark was built, and far below what a broken read path gives
# (an unscaled or transposed product lands at NMSE >= 1).
AMP_NMSE_CEILING = 0.1
SERVE_ERROR_CEILING = 0.05
LIFETIME_NMSE_CEILING = 0.3


@dataclass
class Outcome:
    """What one timed repeat of a workload did.

    ``ops`` counts the workload's unit of work (recoveries, requests or
    lifetime steps); ``mvms`` the logical MVMs on the merged fleet
    counters.  ``layer_counts`` are per-layer counts read from the
    layers' own public counters when the repeat ends.
    """

    attempted: int
    failed: int
    ops: int
    mvms: int
    nmse: float
    energy_nj_per_mvm: float
    checks: dict[str, bool]
    fingerprint: dict
    layer_counts: dict[str, float] = field(default_factory=dict)


def digest(array: np.ndarray) -> str:
    """A bitwise fingerprint of an array: its dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def child_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds derived from one seed."""
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


def tail_percentile(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Percentiles are taken from the ladder 50, 90, 99, 99.9, ... by the
    nearest-rank rule; returns ``(percentile, value, samples_beyond)``.
    Fewer than 20 samples fall back to the median with what lies beyond
    it.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    if n == 0:
        raise ValueError("no samples")
    best = None
    for pct in (50.0, 90.0, 99.0, 99.9, 99.99, 99.999):
        rank = max(1, math.ceil(round(n * pct / 100.0, 9)))
        beyond = n - rank
        if beyond < 10:
            break
        best = (pct, float(ordered[rank - 1]), beyond)
    if best is None:
        rank = max(1, math.ceil(n * 0.5))
        best = (50.0, float(ordered[rank - 1]), n - rank)
    return best


def energy_nj_per_mvm(fleet) -> float:
    """Modelled energy of the fleet's whole ledger per logical MVM."""
    m, n = fleet.shape
    stats = fleet.stats
    model = CrossbarCostModel(rows=n, cols=m, devices_per_cell=2)
    mvms = stats["n_matvec"] + stats["n_rmatvec"]
    return model.energy_from_stats(stats)["total_energy_j"] / mvms * 1e9


def load_imbalance(fleet) -> float:
    """Largest active-column load over the mean, across live shards."""
    loads = [
        load
        for load, retired in zip(fleet.loads, fleet.retired_shards)
        if not retired
    ]
    mean = sum(loads) / len(loads) if loads else 0.0
    return max(loads) / mean if mean else 0.0


def merged_equals_shard_sums(fleet) -> bool:
    """The fleet's merged counters, recomputed here from its shards.

    ``ShardedOperator.stats`` sums its shards today; the check keeps any
    faster way of keeping merged counters honest about every key.
    """
    merged: dict[str, int] = {}
    for stats in fleet.shard_stats:
        for key, value in stats.items():
            merged[key] = merged.get(key, 0) + value
    return merged == fleet.stats


def _fleet_counts(fleet) -> dict[str, float]:
    stats = fleet.stats
    logical = stats["n_matvec"] + stats["n_rmatvec"]
    live = stats["n_live_matvec"] + stats["n_live_rmatvec"]
    return {
        "crossbar.operator.live_share": live / logical if logical else 0.0,
        "crossbar.sharding.load_imbalance": load_imbalance(fleet),
    }


# -- amp_fleet ----------------------------------------------------------------

AMP_N, AMP_M, AMP_K, AMP_BATCH = 1024, 512, 40, 512


def amp_inputs(seed: int) -> dict:
    problem_seed, fleet_seed = child_seeds(seed, 2)
    problem = CsProblem.generate_batch(
        n=AMP_N, m=AMP_M, k=AMP_K, batch=AMP_BATCH, seed=problem_seed
    )
    return {"problem": problem, "fleet_seed": fleet_seed}


def amp_setup(inputs: dict):
    return ShardedOperator.from_matrix(
        inputs["problem"].matrix,
        n_shards=2,
        batch_window=64,
        schedule="greedy",
        parallelism="threads",
        stream="per_shard",
        tile_shape=(256, 256),
        seed=inputs["fleet_seed"],
    )


def amp_run(inputs: dict, fleet) -> Outcome:
    problem = inputs["problem"]
    try:
        result = amp.amp_recover_batch(
            problem.measurements,
            fleet,
            n=AMP_N,
            iterations=60,
            stagnation_window=5,
        )
    finally:
        fleet.shutdown()
    estimates = result.estimates
    finite = np.all(np.isfinite(estimates), axis=0)
    nmse = (
        float(np.mean(problem.recovery_nmse(estimates)[finite]))
        if finite.any()
        else math.inf
    )
    stats = fleet.stats
    active = result.active_counts
    counts = _fleet_counts(fleet)
    counts.update(
        {
            "signal.amp.sweeps": float(result.sweeps),
            "signal.amp.active_share": sum(active) / (len(active) * AMP_BATCH),
        }
    )
    return Outcome(
        attempted=AMP_BATCH,
        failed=int(np.count_nonzero(~finite)),
        ops=AMP_BATCH,
        mvms=stats["n_matvec"] + stats["n_rmatvec"],
        nmse=nmse,
        energy_nj_per_mvm=energy_nj_per_mvm(fleet),
        checks={
            "estimates_finite": bool(finite.all()),
            "nmse_below_ceiling": nmse < AMP_NMSE_CEILING,
        },
        fingerprint={
            "estimates": digest(estimates),
            "iterations": digest(result.iterations),
            "active_counts": tuple(active),
            "stats": stats,
            "loads": fleet.loads,
        },
        layer_counts=counts,
    )


# -- serve_stream -------------------------------------------------------------

SERVE_M, SERVE_N = 256, 512
SERVE_REQUESTS = 6000
SERVE_RATE_RPS = 1024.0
SERVE_MATVEC_SHARE = 0.7
SERVE_BLOCK_COLUMNS = 64
SERVE_SLO_S = 0.5


def fleet_matrix(m: int, n: int) -> np.ndarray:
    return np.random.default_rng(FLEET_MATRIX_SEED).standard_normal((m, n))


def serve_inputs(seed: int) -> dict:
    trace_seed, fleet_seed = child_seeds(seed, 2)
    matrix = fleet_matrix(SERVE_M, SERVE_N)
    rng = np.random.default_rng(trace_seed)
    arrivals = np.cumsum(rng.exponential(1.0 / SERVE_RATE_RPS, SERVE_REQUESTS))
    tenants = rng.integers(len(TENANTS), size=SERVE_REQUESTS)
    forward = rng.random(SERVE_REQUESTS) < SERVE_MATVEC_SHARE
    events = []
    for at_s, tenant, is_forward in zip(arrivals, tenants, forward):
        kind = "matvec" if is_forward else "rmatvec"
        length = SERVE_N if is_forward else SERVE_M
        events.append(
            (float(at_s), TENANTS[tenant], kind, rng.standard_normal(length))
        )
    return {"matrix": matrix, "events": events, "fleet_seed": fleet_seed}


def serve_setup(inputs: dict):
    fleet = ShardedOperator.from_matrix(
        inputs["matrix"],
        n_shards=2,
        batch_window=32,
        stream="per_shard",
        tile_shape=(256, 256),
        seed=inputs["fleet_seed"],
    )
    return FleetServer(
        fleet,
        VirtualClock(),
        block_columns=SERVE_BLOCK_COLUMNS,
        coalesce_budget_s=0.1,
        window_service_s=0.025,
        slo_s=SERVE_SLO_S,
    )


def serve_run(inputs: dict, server) -> Outcome:
    fleet = server.fleet
    before = fleet.stats
    server.replay(inputs["events"])
    after = fleet.stats
    delta = {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] != before.get(key, 0)
    }
    events = inputs["events"]
    served = [
        result for result in server.completed if result.status == "served"
    ]
    ids = sorted(result.request.id for result in server.completed)
    once = ids == list(range(len(events)))
    # Pooled over every served value: a per-request mean is carried by
    # the few requests whose exact product happens to be small.
    matrix = inputs["matrix"]
    error_energy = signal_energy = 0.0
    values = []
    for result in served:
        request = result.request
        if request.kind == "matvec":
            exact = matrix @ request.vector
        else:
            exact = matrix.T @ request.vector
        error_energy += float(np.sum((result.value - exact) ** 2))
        signal_energy += float(np.sum(exact**2))
        values.append(result.value)
    nmse = error_energy / signal_energy if signal_energy else math.inf
    latencies = [result.latency_s for result in served]
    tail_pct, tail_s, tail_n = tail_percentile(latencies)
    within_slo = sum(1 for latency in latencies if latency <= SERVE_SLO_S)
    blocks = server.block_log
    counts = _fleet_counts(fleet)
    counts.update(
        {
            "serving.blocks": float(len(blocks)),
            "serving.block_fill": float(
                np.mean([block.columns for block in blocks]) / SERVE_BLOCK_COLUMNS
            ),
            "serving.sim_latency_p50_s": float(np.median(latencies)),
            "serving.sim_latency_tail_s": tail_s,
            "serving.sim_latency_tail_pct": tail_pct,
            "serving.sim_latency_tail_beyond": float(tail_n),
            "serving.slo_met_share": within_slo / len(events),
        }
    )
    return Outcome(
        attempted=len(events),
        failed=len(events) - len(served),
        ops=len(served),
        mvms=delta.get("n_matvec", 0) + delta.get("n_rmatvec", 0),
        nmse=nmse,
        energy_nj_per_mvm=energy_nj_per_mvm(fleet),
        checks={
            "every_request_completed_once": once,
            "served_counters_equal_fleet_delta": server.served_counters == delta,
            "error_below_ceiling": nmse < SERVE_ERROR_CEILING,
        },
        fingerprint={
            "values": digest(np.concatenate(values)) if values else None,
            "block_log": tuple(blocks),
            "stats": after,
            "served_counters": server.served_counters,
        },
        layer_counts=counts,
    )


# -- fleet_lifetime -----------------------------------------------------------

LIFE_M, LIFE_N = 256, 512
LIFE_STEPS = 200
# The fault stream is the same for every benchmark seed.  Drawn per
# seed, the Poisson arrivals gave 1 to 4 fault events per life, so the
# maintenance work (and host time) of a run swung by ~1.8x between
# seeds, and a seed whose arrivals hit all three shards retired the
# whole fleet.  With this stream every seed sees the same fault
# schedule (one event, late in life, on one shard) while the device
# noise, the probes and the traffic still follow the seed.
LIFE_FAULT_SEED = 0


def lifetime_inputs(seed: int) -> dict:
    return {"matrix": fleet_matrix(LIFE_M, LIFE_N), "seeds": child_seeds(seed, 3)}


def lifetime_setup(inputs: dict):
    fleet_seed, policy_seed, traffic_seed = inputs["seeds"]
    fleet = ShardedOperator.from_matrix(
        inputs["matrix"],
        n_shards=3,
        batch_window=16,
        stream="per_shard",
        tile_shape=(256, 256),
        seed=fleet_seed,
    )
    policy = FleetMaintenance(
        fleet,
        gain_error_budget=0.02,
        reprogram_after_s=6e5,
        calibration_error_threshold=0.13,
        verify_error_budget=0.09,
        n_probes=8,
        seed=policy_seed,
    )
    injector = FaultInjector(
        fleet, rate_per_s=1.25e-7, fraction_per_event=1e-2, seed=LIFE_FAULT_SEED
    )
    simulator = LifetimeSimulator(
        fleet, injector=injector, step_seconds=2e4, batch=48, seed=traffic_seed
    )
    return fleet, policy, simulator


def lifetime_run(inputs: dict, state) -> Outcome:
    fleet, policy, simulator = state
    result = simulator.run(LIFE_STEPS)
    stats = fleet.stats
    served = sum(result.served)
    envelope = result.nmse_envelope
    counts = _fleet_counts(fleet)
    counts.update(
        {
            "crossbar.maintenance.calibrations": float(policy.n_calibrations),
            "crossbar.maintenance.reprograms": float(policy.n_reprograms),
            "crossbar.maintenance.retirements": float(policy.n_retirements),
            "crossbar.maintenance.probes": float(policy.n_calibration_probes),
            "crossbar.lifetime.fault_events": float(len(result.fault_events)),
        }
    )
    return Outcome(
        attempted=LIFE_STEPS,
        failed=LIFE_STEPS - served,
        ops=served,
        mvms=stats["n_matvec"] + stats["n_rmatvec"],
        nmse=envelope,
        energy_nj_per_mvm=energy_nj_per_mvm(fleet),
        checks={
            "merged_stats_equal_shard_sums": merged_equals_shard_sums(fleet),
            "every_step_served": served == LIFE_STEPS,
            "nmse_envelope_below_ceiling": bool(envelope < LIFETIME_NMSE_CEILING),
        },
        fingerprint={
            "nmse": digest(np.array(result.nmse)),
            "served": tuple(result.served),
            "retirements": tuple(result.retirements),
            "fault_events": tuple(result.fault_events),
            "actions": tuple(policy.actions),
            "stats": stats,
        },
        layer_counts=counts,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    ops_name: str
    inputs: object
    setup: object
    run: object


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("amp_fleet", "recoveries_per_s", amp_inputs, amp_setup, amp_run),
        Workload("serve_stream", "requests_per_s", serve_inputs, serve_setup, serve_run),
        Workload(
            "fleet_lifetime", "steps_per_s", lifetime_inputs, lifetime_setup, lifetime_run
        ),
    )
}
