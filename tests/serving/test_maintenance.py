"""Drift maintenance under serving: the fleet's attached policy.

A :class:`~repro.crossbar.FleetMaintenance` policy registers itself on
the fleet and sweeps inside every dispatch, so under a
:class:`~repro.serving.FleetServer` maintenance runs exactly when
traffic does.  Pins the predictive trigger feeding it (zero-probe
forecast, due after the forecast crossing, healthy after a sweep,
ever-longer intervals), the served-sweep schedule, and the billing
split: tenants pay for their traffic, the policy's ledger for upkeep.
"""

import math

import numpy as np
import pytest

from repro.crossbar import FleetMaintenance, ShardedOperator
from repro.crossbar.lifetime import DriftPredictor, FaultInjector
from repro.energy import CrossbarCostModel
from repro.serving import FleetServer, VirtualClock

UPKEEP_KEYS = (
    "n_calibrations",
    "n_calibration_probes",
    "n_reprograms",
    "n_program_pulses",
)


def make_fleet(backend="crossbar", seed=5):
    matrix = np.random.default_rng(3).standard_normal((10, 6)) / 4.0
    return ShardedOperator.from_matrix(
        matrix,
        n_shards=2,
        batch_window=3,
        backend=backend,
        seed=seed if backend == "crossbar" else None,
    )


def make_server(fleet, **kwargs):
    kwargs.setdefault("coalesce_budget_s", 0.2)
    kwargs.setdefault("window_service_s", 0.3)
    return FleetServer(fleet, VirtualClock(), **kwargs)


def seconds_until_due(fleet, budget=0.01):
    """Earliest forecast crossing of ``budget`` over the fleet's shards."""
    return min(
        DriftPredictor.from_operator(shard).seconds_until(
            budget,
            age_seconds=shard.age_seconds,
            calibrated_at_s=shard.age_seconds - shard.staleness_seconds,
        )
        for shard in fleet.shards
    )


def counter_delta(before, after):
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in after.keys() | before.keys()
    }


class TestForecast:
    def test_fresh_fleet_is_not_due(self):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        assert all(policy.due(shard) is None for shard in fleet.shards)
        remaining = seconds_until_due(fleet)
        assert remaining > 0.0 and math.isfinite(remaining)

    def test_forecast_crosses_the_budget_after_aging(self):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        fleet.advance_time(seconds_until_due(fleet) + 1.0)
        assert seconds_until_due(fleet) == 0.0
        assert "calibrate" in [policy.due(shard) for shard in fleet.shards]

    def test_forecast_spends_no_probes(self):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        fleet.advance_time(1e6)
        before = fleet.stats
        for shard in fleet.shards:
            assert policy.predicted_gain_error(shard) > 0.01
            assert policy.due(shard) == "calibrate"
        seconds_until_due(fleet)
        assert fleet.stats == before
        assert policy.actions == []

    def test_exact_fleet_is_never_due_predictively(self, rng):
        fleet = make_fleet(backend="exact")
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        server = make_server(fleet)
        server.advance(1e9)
        server.submit(rng.standard_normal(6))
        server.flush()
        assert policy.actions == []
        assert all(value == 0 for value in policy.stats.values())


class TestServedSweeps:
    def test_not_due_means_no_sweep(self, rng):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        server = make_server(fleet)
        server.submit(rng.standard_normal(6))
        server.flush()
        assert policy.actions == []
        assert all(value == 0 for value in policy.stats.values())

    def test_idle_server_runs_no_sweep(self):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        server = make_server(fleet)
        server.advance(seconds_until_due(fleet) + 1.0)
        assert server.step() == []
        assert server.flush() == []
        assert policy.actions == []  # sweeps ride dispatches only

    def test_due_sweep_runs_inside_the_next_dispatch(self, rng):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        server = make_server(fleet, coalesce_budget_s=0.0)
        elapsed = seconds_until_due(fleet) + 1.0
        server.advance(elapsed)
        server.submit(rng.standard_normal(6))
        (served,) = server.step()
        assert served.status == "served"
        assert [action.action for action in policy.actions] == [
            "calibrate",
            "calibrate",
        ]
        assert all(
            action.staleness_s == pytest.approx(elapsed)
            for action in policy.actions
        )
        assert fleet.shard_staleness == (0.0, 0.0)

    def test_sweep_resets_due_state(self, rng):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        server = make_server(fleet, coalesce_budget_s=0.0)
        server.advance(seconds_until_due(fleet) + 1.0)
        server.submit(rng.standard_normal(6))
        server.step()
        swept = len(policy.actions)
        assert swept > 0
        server.submit(rng.standard_normal(6))
        server.step()
        assert len(policy.actions) == swept  # healthy again: no second sweep
        assert all(policy.due(shard) is None for shard in fleet.shards)
        assert seconds_until_due(fleet) > 0.0

    def test_forecast_schedule_stretches_with_age(self, rng):
        # the paper's power-law drift: each predictive interval is longer
        # than the one before, so a serving deployment probes ever less.
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=7)
        server = make_server(fleet, coalesce_budget_s=0.0)
        intervals = []
        for _ in range(3):
            remaining = seconds_until_due(fleet)
            assert math.isfinite(remaining)
            intervals.append(remaining)
            server.advance(remaining + 1e-3)
            server.submit(rng.standard_normal(6))
            server.step()
        assert policy.n_calibrations >= 3
        assert intervals[1] > intervals[0]
        assert intervals[2] > intervals[1]

    def test_sweep_leaves_the_block_timing_alone(self, rng):
        """Upkeep occupies no service time: the block log of a swept
        stream equals that of the same stream without a policy."""
        vectors = [rng.standard_normal(6) for _ in range(7)]
        logs = []
        for with_policy in (False, True):
            fleet = make_fleet()
            if with_policy:
                policy = FleetMaintenance(
                    fleet, recalibrate_after_s=0.5, seed=7
                )
            server = make_server(fleet)
            for vector in vectors:
                server.advance(0.4)
                server.submit(vector, tenant="alice")
                server.step()
            server.flush()
            logs.append(server.block_log)
        assert policy.n_calibrations > 0
        assert logs[0] == logs[1]

    def test_served_values_match_a_manually_swept_twin(self, rng):
        block = rng.standard_normal((6, 3))
        served_fleet, twin_fleet = make_fleet(), make_fleet()
        FleetMaintenance(served_fleet, gain_error_budget=0.01, seed=7)
        twin_policy = FleetMaintenance(
            twin_fleet, gain_error_budget=0.01, seed=7
        )
        server = make_server(served_fleet)
        elapsed = seconds_until_due(served_fleet) + 1.0
        server.advance(elapsed)
        for column in block.T:
            server.submit(column)
        served = server.flush()
        twin_fleet.advance_time(elapsed)
        assert twin_policy.sweep()
        expected = twin_fleet.matmat(block)
        np.testing.assert_array_equal(
            np.stack([result.value for result in served], axis=1), expected
        )
        assert served_fleet.maintenance.actions == twin_policy.actions


class TestUpkeepBilling:
    def serve_aging_stream(self, rng, kinds=("matvec", "rmatvec"), **policy):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, seed=7, **policy)
        baseline = fleet.stats
        server = make_server(fleet)
        m, n = fleet.shape
        for i in range(40):
            server.advance(0.15)
            kind = kinds[i % len(kinds)]
            server.submit(
                rng.standard_normal(n if kind == "matvec" else m),
                tenant=("alice", "bob")[i % 2],
                kind=kind,
            )
            server.step()
        server.flush()
        return fleet, policy, server, counter_delta(baseline, fleet.stats)

    @pytest.mark.parametrize(
        "kinds", [("matvec",), ("rmatvec",)], ids=["matvec", "rmatvec"]
    )
    def test_served_plus_upkeep_is_the_fleet_delta(self, rng, kinds):
        fleet, policy, server, delta = self.serve_aging_stream(
            rng, kinds=kinds, recalibrate_after_s=0.5
        )
        assert policy.n_calibrations > 1
        served, upkeep = server.served_counters, policy.stats
        for key, value in delta.items():
            assert served.get(key, 0) + upkeep.get(key, 0) == value, key

    def test_tenants_pay_one_read_per_request(self, rng):
        fleet, policy, server, _ = self.serve_aging_stream(
            rng, recalibrate_after_s=0.5
        )
        assert policy.n_calibration_probes > 0
        for tenant in server.tenants:
            ledger = server.tenant_stats(tenant)
            requests = server.tenant_requests(tenant)
            assert (
                ledger.get("n_matvec", 0) + ledger.get("n_rmatvec", 0)
                == requests["served"]
                == 20
            )

    @pytest.mark.parametrize(
        "policy",
        [
            pytest.param({"recalibrate_after_s": 0.5}, id="calibrate"),
            pytest.param({"reprogram_after_s": 1.5}, id="reprogram"),
        ],
    )
    def test_tenant_ledgers_carry_no_upkeep(self, rng, policy):
        fleet, policy, server, delta = self.serve_aging_stream(rng, **policy)
        assert policy.actions
        assert any(delta.get(key, 0) for key in UPKEEP_KEYS)
        for tenant in server.tenants:
            ledger = server.tenant_stats(tenant)
            assert all(ledger.get(key, 0) == 0 for key in UPKEEP_KEYS)
        for key in UPKEEP_KEYS:
            assert policy.stats.get(key, 0) == delta.get(key, 0), key

    def test_upkeep_is_priced_apart_from_traffic(self, rng):
        fleet, policy, server, delta = self.serve_aging_stream(
            rng, recalibrate_after_s=0.5
        )
        model = CrossbarCostModel(rows=10, cols=6, devices_per_cell=2)
        total = model.energy_from_stats(delta)["total_energy_j"]
        upkeep = model.energy_from_stats(policy.stats)["total_energy_j"]
        traffic = sum(
            model.energy_from_stats(server.tenant_stats(tenant))[
                "total_energy_j"
            ]
            for tenant in server.tenants
        )
        assert upkeep > 0.0 and traffic > 0.0
        assert traffic + upkeep == pytest.approx(total, rel=1e-12)


class TestFixedBehaviour:
    """What the options deleted with the second maintenance path used
    to switch is now fixed: the policy always attaches, the server clock
    always ages the fleet, replay always drains, faults stick at either
    polarity and forecasts give up at a fixed horizon."""

    @pytest.mark.parametrize(
        "keyword",
        ["attach", "predictor", "verify_probes", "programming_iterations"],
    )
    def test_fleet_maintenance_rejects_removed_keyword(self, keyword):
        with pytest.raises(TypeError):
            FleetMaintenance(
                make_fleet(), recalibrate_after_s=1.0, **{keyword: None}
            )

    def test_policy_always_attaches(self):
        fleet = make_fleet()
        policy = FleetMaintenance(fleet, recalibrate_after_s=1.0)
        assert fleet.maintenance is policy

    def test_fleet_server_takes_no_maintenance_argument(self):
        with pytest.raises(TypeError):
            FleetServer(make_fleet(), maintenance=None)

    def test_advance_ages_fleet_and_clock_in_lockstep(self):
        fleet = make_fleet()
        server = make_server(fleet)
        assert server.advance(5.0) == 5.0
        assert fleet.shard_ages == (5.0, 5.0)
        assert server.clock.now() == 5.0

    def test_replay_serves_a_partial_tail_block(self, rng):
        server = make_server(make_fleet(), coalesce_budget_s=100.0)
        events = [(0.0, "alice", "matvec", rng.standard_normal(6))]
        (result,) = server.replay(events)
        assert result.status == "served"
        assert server.queue.lane_depth("matvec") == 0

    def test_fault_injector_takes_no_mode(self):
        with pytest.raises(TypeError):
            FaultInjector(make_fleet(), rate_per_s=0.0, mode="reset")

    def test_fault_injector_sticks_both_polarities(self):
        fleet = make_fleet()
        injector = FaultInjector(
            fleet, rate_per_s=1.0, fraction_per_event=0.2, seed=4
        )
        assert injector.advance(5.0)
        device = fleet.shards[0].device
        stuck = np.concatenate(
            [
                array._stuck_values[array._stuck_mask]
                for shard in fleet.shards
                for pair in shard._tiles.values()
                for array in (pair.positive, pair.negative)
            ]
        )
        assert set(np.unique(stuck)) == {device.g_min, device.g_max}

    def test_unreachable_budget_is_never_due(self):
        # drift has a finite power-law ceiling: a gain error of 100 % is
        # never forecast, so the search gives up at its fixed horizon.
        predictor = DriftPredictor.from_operator(make_fleet().shards[0])
        assert predictor.seconds_until(1.0) == math.inf
