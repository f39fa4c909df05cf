"""Lifecycle invariants of the sharded fleet under drift.

Three contracts make the fleet lifecycle layer safe to deploy on top of
the scheduler:

* **clock-blind scheduling** — drift clocks are not scheduler inputs:
  an aged fleet, however heterogeneous its ages, with maintenance
  disabled or idle, dispatches *bitwise* like a fresh one on an
  exact-device backend, and an idle policy consumes no RNG;
* **restoration** — recalibrating a drifted fleet brings the AMP-fleet
  NMSE back inside the fresh-fleet envelope, while the stale twin stays
  far outside it;
* **counter fidelity** — merged fleet ``stats`` equal the key-wise sum
  of ``shard_stats`` *including* the new calibration/programming
  counters, under every schedule, and the maintenance policy's counter
  deltas split the fleet bill exactly into serving plus maintenance.
"""

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarOperator,
    DenseOperator,
    FleetMaintenance,
    ShardedOperator,
)
from repro.devices import PcmDevice
from repro.energy import CrossbarCostModel
from repro.signal import CsProblem, amp_recover_batch

COUNTER_KEYS = (
    "n_matvec",
    "n_rmatvec",
    "n_live_matvec",
    "n_live_rmatvec",
    "dac_conversions",
    "adc_conversions",
)
LIFECYCLE_KEYS = (
    "n_calibrations",
    "n_calibration_probes",
    "n_reprograms",
    "n_program_pulses",
)

GRID = [
    (1, 4, 8),
    (2, 3, 8),
    (3, 5, 4),
    (4, 2, 7),
]


def counters(operator):
    stats = operator.stats
    return {key: stats[key] for key in COUNTER_KEYS if key in stats}


class TestEqualAgeEquivalence:
    """Invariant (a): aged fleets + idle/absent maintenance == fresh."""

    @pytest.mark.parametrize("parallelism", ["serial", "threads"])
    @pytest.mark.parametrize("schedule", ["round_robin", "greedy"])
    @pytest.mark.parametrize("shards,window,batch", GRID)
    def test_aged_fleet_schedules_like_a_fresh_one(
        self, shards, window, batch, schedule, parallelism, rng
    ):
        matrix = rng.standard_normal((18, 30))
        blocks = [rng.standard_normal((30, width)) for width in (batch, 3, 1)]
        blocks[1][:, 1] = 0.0  # a dead column in a ragged block
        z_block = rng.standard_normal((18, batch))
        fleets = [
            ShardedOperator.from_matrix(
                matrix,
                n_shards=shards,
                batch_window=window,
                schedule=schedule,
                parallelism=parallelism,
                device=PcmDevice.ideal(),
                seed=0,
            )
            for _ in range(2)
        ]
        fresh, aged = fleets
        ages = (8e6, 0.0, 2e6, 4e6)[:shards]
        for index, age in enumerate(ages):
            aged.advance_time(age, shard=index)
        assert aged.shard_ages == ages
        try:
            for x_block in blocks:
                assert aged.plan_assignments(x_block) == fresh.plan_assignments(
                    x_block
                )
                assert np.array_equal(aged.matmat(x_block), fresh.matmat(x_block))
            assert np.array_equal(aged.rmatmat(z_block), fresh.rmatmat(z_block))
            assert aged.loads == fresh.loads
            assert aged.shard_stats == fresh.shard_stats
        finally:
            for fleet in fleets:
                fleet.shutdown()

    def test_attached_idle_maintenance_is_bitwise_invisible(self, rng):
        """A policy whose thresholds are never crossed performs no work
        and consumes no RNG — bitwise invisible even on the *noisy*
        backend, where any stray draw would shift every result."""
        matrix = rng.standard_normal((12, 20))
        x_block = rng.standard_normal((20, 7))
        plain = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=3, seed=9
        )
        watched = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=3, seed=9
        )
        policy = FleetMaintenance(watched, recalibrate_after_s=1e12, seed=1)
        watched.advance_time(1e5)
        plain.advance_time(1e5)
        assert np.array_equal(watched.matmat(x_block), plain.matmat(x_block))
        assert policy.actions == []
        assert counters(watched) == counters(plain)
        merged = watched.stats
        assert all(merged[key] == 0 for key in LIFECYCLE_KEYS)


class TestRestoration:
    """Invariant (b): recalibration restores the fresh-fleet envelope."""

    @pytest.fixture(scope="class")
    def recoveries(self):
        fleet_problem = CsProblem.generate_batch(
            n=64, m=32, k=4, batch=8, seed=21
        )

        def build():
            return ShardedOperator.from_matrix(
                fleet_problem.matrix,
                n_shards=2,
                batch_window=3,
                dac_bits=8,
                adc_bits=8,
                seed=3,
            )

        kwargs = dict(iterations=20, ground_truth=fleet_problem.signals)
        fresh = build()
        fresh_result = amp_recover_batch(
            fleet_problem.measurements, fresh, 64, **kwargs
        )
        stale = build()
        stale.advance_time(1e6)
        stale_result = amp_recover_batch(
            fleet_problem.measurements, stale, 64, **kwargs
        )
        maintained = build()
        maintained.advance_time(1e6)
        policy = FleetMaintenance(
            maintained, recalibrate_after_s=1e3, n_probes=16, seed=5
        )
        maintained_result = amp_recover_batch(
            fleet_problem.measurements, maintained, 64, **kwargs
        )
        return fresh_result, stale_result, maintained_result, policy

    def test_drift_degrades_and_recalibration_restores(self, recoveries):
        fresh, stale, maintained, policy = recoveries
        fresh_mean = float(fresh.final_nmse.mean())
        stale_mean = float(stale.final_nmse.mean())
        maintained_mean = float(maintained.final_nmse.mean())
        # the stale fleet is far outside the fresh envelope...
        assert stale_mean > 4.0 * fresh_mean
        # ...the recalibrated fleet is back inside it...
        assert maintained_mean < 3.0 * fresh_mean
        # ...and far below the stale twin.
        assert maintained_mean < stale_mean / 3.0

    def test_maintenance_happened_before_the_first_window(self, recoveries):
        _, _, _, policy = recoveries
        # both shards were recalibrated, once each, by the first sweep
        assert [action.action for action in policy.actions] == [
            "calibrate",
            "calibrate",
        ]
        assert sorted(action.shard for action in policy.actions) == [0, 1]
        # drift decays conductance, so the fitted gains compensate up
        assert all(action.gain > 1.0 for action in policy.actions)


class TestCounterFidelity:
    """Invariant (c): merged stats == sum of shard stats, lifecycle
    counters included, under both schedules."""

    @pytest.mark.parametrize("schedule", ["round_robin", "greedy"])
    def test_merged_stats_sum_shard_stats_with_lifecycle(self, schedule, rng):
        matrix = rng.standard_normal((12, 20))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=2, schedule=schedule, seed=11
        )
        policy = FleetMaintenance(
            fleet,
            recalibrate_after_s=1e3,
            reprogram_after_s=1e7,
            n_probes=4,
            seed=12,
        )
        for age in (1e4, 1e8):
            fleet.advance_time(age)
            fleet.matmat(rng.standard_normal((20, 7)))
        merged = fleet.stats
        per_shard = fleet.shard_stats
        for key, value in merged.items():
            assert value == sum(stats[key] for stats in per_shard)
        # both kinds of maintenance actually happened and were counted
        assert merged["n_calibrations"] == 3
        assert merged["n_calibration_probes"] == 12
        assert merged["n_reprograms"] == 3
        assert merged["n_program_pulses"] > 0
        assert policy.n_calibration_probes == merged["n_calibration_probes"]
        assert policy.n_program_pulses == merged["n_program_pulses"]

    def test_bill_splits_into_serving_plus_maintenance(self, rng):
        matrix = rng.standard_normal((12, 20))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=3, seed=4
        )
        policy = FleetMaintenance(
            fleet, recalibrate_after_s=1e3, n_probes=8, seed=6
        )
        fleet.advance_time(1e5)
        fleet.matmat(rng.standard_normal((20, 8)))
        model = CrossbarCostModel(rows=12, cols=20, devices_per_cell=2)
        total = model.energy_from_stats(fleet.stats)
        maintenance = model.energy_from_stats(policy.stats)
        serving_stats = {
            key: value - policy.stats.get(key, 0)
            for key, value in fleet.stats.items()
        }
        serving = model.energy_from_stats(serving_stats)
        assert maintenance["total_energy_j"] > 0
        assert serving["calibration_energy_j"] == 0.0
        assert total["total_energy_j"] == pytest.approx(
            serving["total_energy_j"] + maintenance["total_energy_j"],
            rel=1e-12,
        )


THRESHOLDS = (
    "recalibrate_after_s",
    "reprogram_after_s",
    "gain_error_budget",
    "calibration_error_threshold",
    "verify_error_budget",
)


class TestMaintenancePolicy:
    @pytest.mark.parametrize(
        "kwargs, match",
        [({}, "at least one")]
        + [
            ({"recalibrate_after_s": 1.0, name: bad}, name)
            for name in THRESHOLDS
            for bad in (0.0, -1.0)
        ]
        + [
            ({"recalibrate_after_s": 1.0, "n_probes": 0}, "n_probes"),
        ],
    )
    def test_validation(self, rng, kwargs, match):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=1, batch_window=2,
            backend="exact",
        )
        with pytest.raises(ValueError, match=match):
            FleetMaintenance(fleet, **kwargs)

    def test_verify_budget_rewrites_the_whole_shard(self, rng):
        """A verified rewrite is a whole-shard reprogram: the drift
        clock and the gain reset, and the verify error is logged."""
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((8, 10)), n_shards=1, batch_window=2,
            seed=2, tile_shape=(5, 4),
        )
        policy = FleetMaintenance(
            fleet, reprogram_after_s=1e3, verify_error_budget=10.0, seed=3
        )
        fleet.advance_time(1e6)
        (action,) = policy.sweep()
        shard = fleet.shards[0]
        assert action.action == "reprogram"
        assert action.verify_error == shard.last_reprogram_error
        assert action.verify_error <= 10.0
        assert action.pulses > 0
        assert shard.stats["n_reprograms"] == 1
        assert shard.age_seconds == 0.0 and shard.staleness_seconds == 0.0
        assert shard.gain == 1.0
        assert action.probes == policy.n_probes  # verify reads n_probes

    def test_rewrite_counters_stay_separable(self, rng):
        """Serving plus maintenance counters sum to the fleet total,
        key by key, when the service is a rewrite."""
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((8, 10)), n_shards=2, batch_window=2, seed=2
        )
        policy = FleetMaintenance(fleet, reprogram_after_s=1e3, seed=3)
        stream = np.random.default_rng(5)
        fleet.matmat(stream.standard_normal((10, 6)))
        serving_before = fleet.stats
        fleet.advance_time(1e6)
        policy.sweep()
        assert fleet.stats == {
            key: serving_before.get(key, 0) + policy.stats.get(key, 0)
            for key in fleet.stats
        }
        assert policy.stats["n_reprograms"] == 2
        assert policy.stats["n_program_pulses"] == policy.n_program_pulses > 0
        fleet.matmat(stream.standard_normal((10, 4)))
        for key, value in policy.stats.items():
            assert fleet.stats.get(key, 0) >= value

    def test_exact_shards_never_serviced(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator(
            [
                DenseOperator(matrix),
                CrossbarOperator(matrix, seed=0),
            ],
            batch_window=2,
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=1.0, seed=1)
        fleet.advance_time(1e6)
        actions = policy.sweep()
        assert [action.shard for action in actions] == [1]
        assert policy.due(fleet.shards[0]) is None

    def test_calibration_error_escalates_to_reprogram(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=1, batch_window=2, seed=2
        )
        policy = FleetMaintenance(
            fleet,
            recalibrate_after_s=1e3,
            calibration_error_threshold=0.1,
            n_probes=8,
            seed=3,
        )
        fleet.advance_time(1e8)  # deep drift: > 10 % left after the gain fit
        (action,) = policy.sweep()
        assert action.action == "reprogram"
        assert action.probes == 8  # the escalating fit was still paid for
        assert action.pulses > 0
        shard = fleet.shards[0]
        assert shard.gain == 1.0
        assert shard.age_seconds == 0.0
        assert shard.staleness_seconds == 0.0
        # the rewritten array serves accurately again without any
        # digital gain compensation
        x = rng.standard_normal(10)
        error = np.linalg.norm(shard.matvec(x) - matrix @ x)
        assert error / np.linalg.norm(matrix @ x) < 0.1

    def test_manual_sweep_and_dispatch_share_one_schedule(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=1, batch_window=2, seed=7
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=1e3, seed=8)
        assert fleet.maintenance is policy
        fleet.advance_time(1e6)
        assert policy.sweep()[0].action == "calibrate"
        fleet.matmat(rng.standard_normal((10, 3)))  # nothing left due
        assert len(policy.actions) == 1

    def test_sweep_is_idempotent_until_staleness_regrows(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=9
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=1e3, seed=10)
        fleet.advance_time(1e5)
        assert len(policy.sweep()) == 2
        assert policy.sweep() == []  # staleness reset by the first sweep
        fleet.advance_time(1e5, shard=0)  # only shard 0 regrows
        assert [action.shard for action in policy.sweep()] == [0]


class TestHeterogeneousAges:
    def test_per_shard_clocks(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=2, seed=0
        )
        fleet.advance_time(100.0)
        fleet.advance_time(900.0, shard=1)
        assert fleet.shard_ages == (100.0, 1000.0, 100.0)
        assert fleet.shard_staleness == (100.0, 1000.0, 100.0)
        with pytest.raises(ValueError, match="shard"):
            fleet.advance_time(1.0, shard=3)
        with pytest.raises(ValueError, match="shard"):
            fleet.advance_time(1.0, shard=-1)

    def test_gain_dispersion_tracks_partial_maintenance(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=1
        )
        assert fleet.gain_dispersion()["gain_spread"] == 0.0
        fleet.advance_time(1e6)
        fleet.shards[0].calibrate(seed=2)
        dispersion = fleet.gain_dispersion()
        assert dispersion["gain_max"] > 1.0
        assert dispersion["gain_min"] == 1.0
        assert dispersion["gain_spread"] > 0.0
        assert dispersion["staleness_max_s"] == 1e6  # shard 1 still stale
        # servicing the straggler closes the dispersion
        fleet.shards[1].calibrate(seed=3)
        assert fleet.gain_dispersion()["staleness_max_s"] == 0.0
