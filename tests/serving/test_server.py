"""Unit tests for the synchronous FleetServer core.

Everything here runs on a :class:`VirtualClock`: coalescing, the
busy-line service model, SLO bookkeeping, admission overload behaviour
and the largest-remainder tenant attribution are all pure functions of
the submitted trace.  The cross-layer bitwise/counter invariants live
in ``tests/integration/test_serving.py``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.crossbar import ShardedOperator
from repro.serving import (
    AdmissionController,
    FleetServer,
    VirtualClock,
)
from repro.serving.server import _largest_remainder


@pytest.fixture
def fleet(small_matrix):
    return ShardedOperator.from_matrix(
        small_matrix, n_shards=2, batch_window=4, backend="exact"
    )


class FlakyFleet:
    """A fleet whose listed dispatch calls (0-based) raise; every other
    call, and ``stats``, goes to the wrapped fleet."""

    def __init__(self, fleet, fail_on=(0,)):
        self.fleet = fleet
        self.fail_on = set(fail_on)
        self.calls = 0
        self.shape = fleet.shape
        self.batch_window = fleet.batch_window

    @property
    def stats(self):
        return self.fleet.stats

    def _dispatch(self, product, block):
        call = self.calls
        self.calls += 1
        if call in self.fail_on:
            raise RuntimeError("dispatch failed")
        return getattr(self.fleet, product)(block)

    def matmat(self, block):
        return self._dispatch("matmat", block)

    def rmatmat(self, block):
        return self._dispatch("rmatmat", block)


def assert_conserved(server):
    """Per tenant: every submission is served, shed, rejected or queued."""
    queued = {}
    for kind in ("matvec", "rmatvec"):
        lane = server.queue._lanes[kind]
        for request in lane:
            queued[request.tenant] = queued.get(request.tenant, 0) + 1
    for tenant in server.tenants:
        entry = server.tenant_requests(tenant)
        outcomes = entry["served"] + entry["shed"] + entry["rejected"]
        assert entry["submitted"] == outcomes + queued.get(tenant, 0)


def make_server(fleet, **kwargs):
    kwargs.setdefault("coalesce_budget_s", 1.0)
    kwargs.setdefault("window_service_s", 0.5)
    return FleetServer(fleet, VirtualClock(), **kwargs)


class TestVirtualClock:
    def test_starts_where_told_and_advances(self):
        clock = VirtualClock(3.0)
        assert clock.now() == 3.0
        assert clock.advance(2.5) == 5.5

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_advance(self, bad):
        with pytest.raises(ValueError):
            VirtualClock().advance(bad)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start_s"):
            VirtualClock(-1.0)


class TestSubmitValidation:
    def test_rejects_unknown_kind(self, fleet, rng):
        server = make_server(fleet)
        with pytest.raises(ValueError, match="kind"):
            server.submit(rng.standard_normal(20), kind="matmat")

    def test_rejects_wrong_shape_per_direction(self, fleet, rng):
        server = make_server(fleet)
        m, n = fleet.shape
        with pytest.raises(ValueError, match="matvec request"):
            server.submit(rng.standard_normal(m), kind="matvec")
        with pytest.raises(ValueError, match="rmatvec request"):
            server.submit(rng.standard_normal(n), kind="rmatvec")
        with pytest.raises(ValueError, match="shape"):
            server.submit(rng.standard_normal((n, 1)), kind="matvec")

    def test_default_block_columns_is_fleet_window(self, fleet):
        server = make_server(fleet)
        assert server.queue.block_columns == fleet.batch_window

    def test_rejects_negative_service_time(self, fleet):
        with pytest.raises(ValueError, match="window_service_s"):
            make_server(fleet, window_service_s=-0.5)


class TestCoalescing:
    def test_full_block_dispatches_at_once(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        served = server.step()
        assert len(served) == 4
        assert len(server.block_log) == 1
        block = server.block_log[0]
        assert block.columns == 4 and block.windows == 1
        assert block.dispatched_at_s == 0.0

    def test_partial_block_waits_for_budget(self, fleet, rng):
        server = make_server(fleet)
        server.submit(rng.standard_normal(fleet.shape[1]))
        assert server.step() == []
        server.advance(0.99)
        assert server.step() == []
        server.advance(0.01)
        served = server.step()
        assert len(served) == 1
        assert served[0].queue_latency_s == pytest.approx(1.0)

    def test_directions_never_share_a_block(self, fleet, rng):
        server = make_server(fleet)
        m, n = fleet.shape
        for _ in range(2):
            server.submit(rng.standard_normal(n), kind="matvec")
            server.submit(rng.standard_normal(m), kind="rmatvec")
        served = server.flush()
        assert len(served) == 4
        kinds = [block.kind for block in server.block_log]
        assert sorted(kinds) == ["matvec", "rmatvec"]

    def test_oversized_backlog_splits_into_blocks(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        for _ in range(10):
            server.submit(rng.standard_normal(n))
        server.step()
        # two full blocks release immediately, the ragged tail waits
        assert [block.columns for block in server.block_log] == [4, 4]
        assert server.queue.depth == 2
        server.flush()
        assert [block.columns for block in server.block_log] == [4, 4, 2]

    def test_results_demux_to_their_requests(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        vectors = [rng.standard_normal(n) for _ in range(4)]
        requests = [server.submit(vector) for vector in vectors]
        server.step()
        for request, vector in zip(requests, vectors):
            result = server.results[request.id]
            assert result.status == "served"
            np.testing.assert_allclose(result.value, fleet.matrix @ vector)


class TestServiceModel:
    def test_service_time_counts_windows(self, fleet, rng):
        server = make_server(fleet, block_columns=8, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(6):
            server.submit(rng.standard_normal(n))
        served = server.step()
        block = server.block_log[0]
        assert block.windows == 2  # ceil(6 / batch_window=4)
        assert block.completed_at_s == pytest.approx(1.0)
        assert all(r.service_latency_s == pytest.approx(1.0) for r in served)

    def test_busy_line_queues_back_to_back_blocks(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        first, second = server.block_log
        assert first.completed_at_s == pytest.approx(0.5)
        # the line is busy until 0.5, so the second block starts there
        assert second.dispatched_at_s == pytest.approx(0.5)
        assert second.completed_at_s == pytest.approx(1.0)

    def test_idle_line_recovers(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        server.advance(10.0)
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        assert server.block_log[1].dispatched_at_s == pytest.approx(10.0)


class TestSloTracking:
    def test_violations_counted_per_tenant(self, fleet, rng):
        server = make_server(
            fleet, slo_s={"tight": 0.1, "loose": 100.0}, coalesce_budget_s=0.0
        )
        n = fleet.shape[1]
        server.submit(rng.standard_normal(n), tenant="tight")
        server.submit(rng.standard_normal(n), tenant="loose")
        server.step()
        assert server.tenant_requests("tight")["slo_violations"] == 1
        assert server.tenant_requests("loose")["slo_violations"] == 0

    def test_scalar_slo_applies_to_every_tenant(self, fleet, rng):
        server = make_server(fleet, slo_s=0.1, coalesce_budget_s=0.0)
        server.submit(rng.standard_normal(fleet.shape[1]), tenant="anyone")
        server.step()
        assert server.latency_summary()["slo_violations"] == 1.0

    def test_summary_reports_percentiles(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(8):
            server.submit(rng.standard_normal(n))
        server.step()
        summary = server.latency_summary()
        assert summary["n_served"] == 8.0
        assert summary["latency_p50_s"] <= summary["latency_p99_s"]
        assert summary["latency_p99_s"] <= summary["latency_max_s"]


class TestAdmission:
    def test_reject_returns_none_and_counts(self, fleet, rng):
        server = make_server(fleet, admission=AdmissionController(2))
        n = fleet.shape[1]
        assert server.submit(rng.standard_normal(n)) is not None
        assert server.submit(rng.standard_normal(n)) is not None
        assert server.submit(rng.standard_normal(n)) is None
        assert server.queue.depth == 2
        assert server.latency_summary()["n_rejected"] == 1.0

    def test_shed_oldest_completes_victim_without_value(self, fleet, rng):
        server = make_server(
            fleet, admission=AdmissionController(2, policy="shed_oldest")
        )
        n = fleet.shape[1]
        first = server.submit(rng.standard_normal(n))
        server.submit(rng.standard_normal(n))
        third = server.submit(rng.standard_normal(n))
        assert third is not None
        assert server.queue.depth == 2
        victim = server.results[first.id]
        assert victim.status == "shed" and victim.value is None
        assert server.tenant_requests("default")["shed"] == 1


class TestDispatchFailure:
    def test_raising_dispatch_keeps_its_block_queued(self, fleet, rng):
        """A fleet that raises mid-dispatch loses no request: the block
        stays queued in order, nothing is billed, and every tenant's
        ledger still balances."""
        server = make_server(fleet)
        fleet.retire_shard(0)
        request = server.submit(rng.standard_normal(fleet.shape[1]), tenant="a")
        fleet.retire_shard(1)
        server.advance(1.0)  # past the coalesce budget: the block is due
        stats_before = dict(fleet.stats)
        with pytest.raises(RuntimeError, match="all shards are retired"):
            server.step()
        assert server.queue.depth == 1
        entry = server.tenant_requests("a")
        outcomes = entry["served"] + entry["shed"] + entry["rejected"]
        assert entry["submitted"] == outcomes + server.queue.depth == 1
        assert server.queue.peek_block("matvec") == [request]
        assert request.id not in server.results
        assert server.completed == [] and server.block_log == []
        assert fleet.stats == stats_before
        assert server.served_counters == {}
        assert server.tenant_stats("a") == {
            "n_matvec": 0,
            "n_rmatvec": 0,
            "dac_conversions": 0,
            "adc_conversions": 0,
        }


    @pytest.mark.parametrize("kind", ["matvec", "rmatvec"])
    def test_retired_fleet_keeps_either_lane_queued(self, fleet, rng, kind):
        server = make_server(fleet)
        rows = fleet.shape[1] if kind == "matvec" else fleet.shape[0]
        requests = [
            server.submit(rng.standard_normal(rows), tenant=t, kind=kind)
            for t in ("a", "b", "a")
        ]
        fleet.retire_shard(0)
        fleet.retire_shard(1)
        server.advance(1.0)
        stats_before = dict(fleet.stats)
        with pytest.raises(RuntimeError, match="all shards are retired"):
            server.step()
        assert server.queue.peek_block(kind) == requests
        assert server.queue.depth == 3
        assert fleet.stats == stats_before
        assert server.completed == [] and server.block_log == []
        assert_conserved(server)

    def test_retry_serves_the_kept_block_in_order(self, fleet, rng):
        flaky = FlakyFleet(fleet, fail_on={0})
        server = make_server(flaky)
        n = fleet.shape[1]
        vectors = [rng.standard_normal(n) for _ in range(3)]
        requests = [
            server.submit(vector, tenant=tenant)
            for vector, tenant in zip(vectors, ("a", "b", "a"))
        ]
        server.advance(1.0)
        stats_before = dict(fleet.stats)
        with pytest.raises(RuntimeError, match="dispatch failed"):
            server.step()
        served = server.step()
        assert [result.request for result in served] == requests
        for result, vector in zip(served, vectors):
            np.testing.assert_allclose(result.value, fleet.matrix @ vector)
        (block,) = server.block_log
        assert block.block_id == 0
        assert block.request_ids == tuple(r.id for r in requests)
        assert all(result.block_id == 0 for result in served)
        delta = {
            key: value - stats_before.get(key, 0)
            for key, value in fleet.stats.items()
            if value != stats_before.get(key, 0)
        }
        assert server.served_counters == delta
        assert_conserved(server)

    def test_failed_attempt_does_not_occupy_the_service_line(self, fleet, rng):
        server = make_server(FlakyFleet(fleet, fail_on={0}))
        server.submit(rng.standard_normal(fleet.shape[1]))
        server.advance(1.0)
        with pytest.raises(RuntimeError):
            server.step()
        (result,) = server.step()
        assert result.dispatched_at_s == pytest.approx(1.0)
        assert result.completed_at_s == pytest.approx(1.5)
        assert result.queue_latency_s == pytest.approx(1.0)

    def test_failure_keeps_the_coalesce_deadline(self, fleet, rng):
        server = make_server(FlakyFleet(fleet, fail_on={0}))
        server.submit(rng.standard_normal(fleet.shape[1]))
        server.advance(0.25)
        server.submit(rng.standard_normal(fleet.shape[1]))
        deadline = server.next_deadline_s()
        server.advance(1.0)
        with pytest.raises(RuntimeError):
            server.step()
        assert server.next_deadline_s() == deadline == pytest.approx(1.0)
        assert server.queue.due("matvec", server.clock.now())

    def test_failure_mid_backlog_keeps_the_unserved_tail(self, fleet, rng):
        server = make_server(FlakyFleet(fleet, fail_on={1}))
        n = fleet.shape[1]
        requests = [server.submit(rng.standard_normal(n)) for _ in range(10)]
        with pytest.raises(RuntimeError):
            server.step()
        # the first full block went through before the second one raised
        assert [r.request for r in server.completed] == requests[:4]
        assert [b.request_ids for b in server.block_log] == [(0, 1, 2, 3)]
        assert server.queue.peek_block("matvec") == requests[4:8]
        assert server.queue.depth == 6
        assert_conserved(server)
        server.flush()
        assert [b.request_ids for b in server.block_log] == [
            (0, 1, 2, 3), (4, 5, 6, 7), (8, 9),
        ]
        assert [r.request for r in server.completed] == requests
        assert_conserved(server)

    def test_flush_failure_leaves_both_lanes_queued(self, fleet, rng):
        server = make_server(FlakyFleet(fleet, fail_on={0}))
        m, n = fleet.shape
        server.submit(rng.standard_normal(n), kind="matvec")
        server.submit(rng.standard_normal(m), kind="rmatvec")
        with pytest.raises(RuntimeError):
            server.flush()
        assert server.queue.lane_depth("matvec") == 1
        assert server.queue.lane_depth("rmatvec") == 1
        served = server.flush()
        assert sorted(r.request.kind for r in served) == ["matvec", "rmatvec"]
        assert server.queue.depth == 0

    def test_replay_failure_keeps_the_trace_accounted(self, fleet, rng):
        server = make_server(FlakyFleet(fleet, fail_on={1}))
        n = fleet.shape[1]
        events = [
            (0.1 * i, "ab"[i % 2], "matvec", rng.standard_normal(n))
            for i in range(9)
        ]
        with pytest.raises(RuntimeError):
            server.replay(events)
        assert len(server.completed) == 4
        assert_conserved(server)
        submitted = sum(
            server.tenant_requests(t)["submitted"] for t in server.tenants
        )
        assert submitted == len(server.completed) + server.queue.depth

    def test_failure_after_shedding_conserves_every_tenant(self, fleet, rng):
        server = make_server(
            FlakyFleet(fleet, fail_on={0}),
            admission=AdmissionController(2, policy="shed_oldest"),
        )
        n = fleet.shape[1]
        for tenant in ("a", "b", "a"):
            server.submit(rng.standard_normal(n), tenant=tenant)
        assert server.tenant_requests("a")["shed"] == 1
        server.advance(1.0)
        with pytest.raises(RuntimeError):
            server.step()
        assert server.queue.depth == 2
        assert_conserved(server)
        server.step()
        assert server.queue.depth == 0
        assert server.tenant_requests("a")["served"] == 1
        assert server.tenant_requests("b")["served"] == 1
        assert_conserved(server)


class TestLargestRemainder:
    def test_exact_and_deterministic(self):
        shares = _largest_remainder(10, {"a": 1, "b": 1, "c": 1})
        assert sum(shares.values()) == 10
        assert shares == {"a": 4, "b": 3, "c": 3}

    def test_proportionality(self):
        shares = _largest_remainder(100, {"big": 3, "small": 1})
        assert shares == {"big": 75, "small": 25}

    @pytest.mark.parametrize("value", [0, 1, 7, 97])
    def test_always_sums_exactly(self, value):
        weights = {"a": 5, "b": 3, "c": 2, "d": 7}
        shares = _largest_remainder(value, weights)
        assert sum(shares.values()) == value
        assert all(share >= 0 for share in shares.values())


class TestReplay:
    def test_rejects_time_travel(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        events = [
            (1.0, "t", "matvec", rng.standard_normal(n)),
            (0.5, "t", "matvec", rng.standard_normal(n)),
        ]
        with pytest.raises(ValueError, match="non-decreasing"):
            server.replay(events)

    def test_drain_serves_everything(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        events = [
            (0.1 * i, "t", "matvec", rng.standard_normal(n)) for i in range(7)
        ]
        results = server.replay(events)
        assert len(results) == 7
        assert all(result.status == "served" for result in results)
        assert server.queue.depth == 0

    def test_partial_blocks_dispatch_at_their_deadline(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        # one lonely request, then a long gap before the next arrival:
        # the first block must dispatch at its coalesce deadline (1.0),
        # not when the second request shows up at t=50.
        events = [
            (0.0, "t", "matvec", rng.standard_normal(n)),
            (50.0, "t", "matvec", rng.standard_normal(n)),
        ]
        server.replay(events)
        assert server.block_log[0].dispatched_at_s == pytest.approx(1.0)


# A small crossbar-backed serve: each dispatch moves six counters, so a
# set-ordered delta shows up in the ledger's key order.
_SERVE_SCRIPT = """
import numpy as np
from repro.crossbar import ShardedOperator
from repro.serving import FleetServer, VirtualClock

matrix = np.random.default_rng(0).standard_normal((12, 20))
fleet = ShardedOperator.from_matrix(matrix, n_shards=2, batch_window=4, seed=0)
server = FleetServer(fleet, VirtualClock(), coalesce_budget_s=1.0)
rng = np.random.default_rng(1)
for i in range(6):
    kind = "matvec" if i % 2 else "rmatvec"
    server.submit(rng.standard_normal(20 if i % 2 else 12), tenant=f"t{i % 3}", kind=kind)
server.flush()
print(list(server.served_counters))
print([list(server.tenant_stats(t)) for t in server.tenants])
"""


class TestLedgerKeyOrder:
    def test_key_order_does_not_depend_on_the_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", _SERVE_SCRIPT],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert "adc_conversions" in outputs[0]
        assert outputs[0] == outputs[1]
