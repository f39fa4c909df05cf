"""Reference-model suite for the two fleet schedules.

The fleet's scheduler state is three things: the per-shard load
tallies, the round-robin cursor and the retirement flags.  This suite
restates the documented contract as a small independent model —
round-robin hands each live window to the next live shard in rotation,
greedy to the live shard with the fewest active columns so far (lowest
index on ties), and a dead window moves neither — and checks the fleet
against it:

* **reference agreement** — over seeded mixed streams (ragged and dead
  windows, single-vector reads, transpose reads and a mid-stream
  retirement) every plan, every per-shard read count and the load
  tallies match the model, serial and threaded alike;
* **retirement remap** — retiring any shard at any rotation position
  keeps the survivor that was next in line next in line;
* **maintenance blindness** — aging, calibrating and reprogramming
  shards never moves a plan: a maintained fleet schedules like an
  untouched twin;
* **plan replay** — a plan taken before a per-shard clock advance is the
  plan that the next ``matmat``, ``rmatmat`` or ``fused_sweep`` carries
  out.
"""

import numpy as np
import pytest

from repro.crossbar import FleetMaintenance, ShardedOperator
from repro.devices import PcmDevice

SCHEDULES = ("round_robin", "greedy")
PARALLELISM = ("serial", "threads")


class ReferenceSchedule:
    """Independent model of the window→shard contract.

    Round-robin is tracked as the absolute index of the live shard that
    serves the next live window (the fleet keeps a cursor into its list
    of live shards instead); greedy is the plain argmin over live loads.
    """

    def __init__(self, n_shards, batch_window, schedule):
        self.batch_window = batch_window
        self.schedule = schedule
        self.loads = [0] * n_shards
        self.retired = [False] * n_shards
        self.next_shard = 0

    def live(self):
        return [i for i, retired in enumerate(self.retired) if not retired]

    def successor(self, index):
        n = len(self.retired)
        for step in range(1, n + 1):
            candidate = (index + step) % n
            if not self.retired[candidate]:
                return candidate
        return index

    def pick(self, active):
        if self.schedule == "round_robin":
            index = self.next_shard
            if active:
                self.next_shard = self.successor(index)
        else:
            index = min(self.live(), key=lambda i: (self.loads[i], i))
        self.loads[index] += active
        return index

    def plan(self, block):
        windows = []
        for start in range(0, block.shape[1], self.batch_window):
            stop = min(start + self.batch_window, block.shape[1])
            live = np.any(block[:, start:stop] != 0.0, axis=0)
            windows.append((start, stop, self.pick(int(np.count_nonzero(live)))))
        return windows

    def retire(self, index):
        self.retired[index] = True
        if self.next_shard == index and self.live():
            self.next_shard = self.successor(index)


def random_block(stream, rows, width):
    block = stream.standard_normal((rows, width))
    block[:, stream.random(width) < 0.3] = 0.0  # dead columns, some whole windows
    return block


def reads(fleet):
    return [(s["n_matvec"], s["n_rmatvec"]) for s in fleet.shard_stats]


# (shards, batch_window, step of the retirement or None, retired shard)
STREAMS = [
    (1, 4, None, None),
    (2, 3, 4, 0),
    (3, 2, 3, 1),
    (3, 5, 5, 2),
    (4, 2, 2, 0),
    (4, 3, 6, 3),
]


class TestReferenceAgreement:
    @pytest.mark.parametrize("parallelism", PARALLELISM)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("shards,window,retire_step,victim", STREAMS)
    def test_mixed_stream_matches_the_model(
        self, shards, window, retire_step, victim, schedule, parallelism
    ):
        stream = np.random.default_rng(100 * shards + window)
        matrix = stream.standard_normal((9, 14))
        m, n = matrix.shape
        fleet = ShardedOperator.from_matrix(
            matrix,
            n_shards=shards,
            batch_window=window,
            schedule=schedule,
            parallelism=parallelism,
            backend="exact",
        )
        model = ReferenceSchedule(shards, window, schedule)
        expected_reads = [[0, 0] for _ in range(shards)]
        try:
            for step in range(10):
                if step == retire_step:
                    assert fleet.retire_shard(victim)
                    model.retire(victim)
                kind = step % 4
                if kind in (0, 2):  # a forward or transpose block
                    rows, direction = (n, 0) if kind == 0 else (m, 1)
                    width = int(stream.integers(1, 3 * window + 2))
                    block = random_block(stream, rows, width)
                    plan = fleet.plan_assignments(block)
                    assert plan == model.plan(block)
                    for start, stop, shard in plan:
                        expected_reads[shard][direction] += stop - start
                    if kind == 0:
                        np.testing.assert_allclose(
                            fleet.matmat(block), matrix @ block, atol=1e-12
                        )
                    else:
                        np.testing.assert_allclose(
                            fleet.rmatmat(block), matrix.T @ block, atol=1e-12
                        )
                else:  # a single-vector read, dead on every other call
                    x = stream.standard_normal(n) * (step % 8 == 1)
                    expected_reads[model.pick(int(np.any(x != 0.0)))][0] += 1
                    np.testing.assert_allclose(
                        fleet.matvec(x), matrix @ x, atol=1e-12
                    )
                assert fleet.loads == tuple(model.loads)
                assert reads(fleet) == [tuple(r) for r in expected_reads]
        finally:
            fleet.shutdown()
        if victim is not None:
            assert fleet.retired_shards[victim]


class TestRetirementRemap:
    @pytest.mark.parametrize("offset", range(4))
    @pytest.mark.parametrize("victim", range(4))
    def test_round_robin_keeps_the_next_survivor_next(self, victim, offset):
        matrix = np.random.default_rng(5).standard_normal((6, 8))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=4, batch_window=2, backend="exact"
        )
        model = ReferenceSchedule(4, 2, "round_robin")
        live = np.ones((8, 1))
        for _ in range(offset):  # move the cursor to the rotation slot
            fleet.matmat(live)
            model.plan(live)
        ((_, _, upcoming),) = fleet.plan_assignments(live)
        assert upcoming == offset
        fleet.retire_shard(victim)
        model.retire(victim)
        ((_, _, after),) = fleet.plan_assignments(live)
        assert after == (upcoming if upcoming != victim else (victim + 1) % 4)
        block = np.ones((8, 14))  # seven live windows: two full laps
        plan = fleet.plan_assignments(block)
        assert plan == model.plan(block)
        assert victim not in {shard for _, _, shard in plan}
        fleet.matmat(block)
        assert fleet.loads == tuple(model.loads)

    @pytest.mark.parametrize("victim", range(4))
    def test_greedy_rebalances_from_the_recorded_loads(self, victim):
        matrix = np.random.default_rng(5).standard_normal((6, 8))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=4, batch_window=2, schedule="greedy", backend="exact"
        )
        model = ReferenceSchedule(4, 2, "greedy")
        skewed = np.ones((8, 7))
        skewed[:, 2:4] = 0.0  # one dead window leaves the loads uneven
        skewed[:, 5] = 0.0
        fleet.matmat(skewed)
        model.plan(skewed)
        fleet.retire_shard(victim)
        model.retire(victim)
        block = np.ones((8, 10))
        plan = fleet.plan_assignments(block)
        assert plan == model.plan(block)
        assert victim not in {shard for _, _, shard in plan}
        fleet.matmat(block)
        assert fleet.loads == tuple(model.loads)
        assert fleet.loads[victim] == model.loads[victim]  # frozen at retirement


def maintain(fleet, action, step):
    """Move every non-scheduler input of ``fleet`` one step."""
    fleet.advance_time(10.0 ** (3 + step), shard=step % fleet.n_shards)
    fleet.advance_time(5e5, shard=(step + 1) % fleet.n_shards)
    target = fleet.shards[step % fleet.n_shards]
    if action == "calibrate":
        target.calibrate(n_probes=4, seed=step)
    elif action == "reprogram":
        target.reprogram()


class TestMaintenanceBlindness:
    @pytest.mark.parametrize("action", ["age", "calibrate", "reprogram", "policy"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_maintained_fleet_schedules_like_an_untouched_twin(self, schedule, action):
        stream = np.random.default_rng(21)
        matrix = stream.standard_normal((10, 16))
        twin, maintained = (
            ShardedOperator.from_matrix(
                matrix, n_shards=3, batch_window=2, schedule=schedule, seed=4
            )
            for _ in range(2)
        )
        policy = None
        if action == "policy":
            policy = FleetMaintenance(maintained, recalibrate_after_s=1e3, seed=6)
        for step in range(5):
            maintain(maintained, action, step)
            block = random_block(stream, 16, 3 + 2 * step)
            plan = twin.plan_assignments(block)
            assert maintained.plan_assignments(block) == plan
            before = maintained.loads
            twin.matmat(block)
            maintained.matmat(block)  # an attached policy sweeps first
            assert maintained.loads == twin.loads
            grown = list(before)
            for start, stop, shard in plan:
                grown[shard] += int(
                    np.count_nonzero(np.any(block[:, start:stop] != 0.0, axis=0))
                )
            assert maintained.loads == tuple(grown)
        # the maintenance was real, not a no-op
        stats = maintained.stats
        if action == "calibrate":
            assert maintained.gain_dispersion()["gain_spread"] > 0.0
        if action == "reprogram":
            assert stats["n_reprograms"] == 5
        if action == "policy":
            assert policy.actions
        assert len(set(maintained.shard_ages)) > 1


class TestPlanReplay:
    @pytest.mark.parametrize("parallelism", PARALLELISM)
    @pytest.mark.parametrize("operation", ["matmat", "rmatmat", "fused_sweep"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_plan_survives_a_clock_advance(self, schedule, operation, parallelism):
        stream = np.random.default_rng(33)
        matrix = stream.standard_normal((10, 16))
        m, n = matrix.shape
        fleets = [
            ShardedOperator.from_matrix(
                matrix,
                n_shards=3,
                batch_window=2,
                schedule=schedule,
                parallelism=parallelism,
                device=PcmDevice.ideal(),
                seed=8,
            )
            for _ in range(2)
        ]
        fleet, twin = fleets
        for target in (fleet, twin):  # uneven loads, cursor off zero
            target.matmat(random_block(np.random.default_rng(1), n, 5))
        rows = n if operation == "matmat" else m
        block = random_block(stream, rows, 9)
        block[:, 0] = 1.0  # the first window is live
        plan = fleet.plan_assignments(block)
        fleet.advance_time(5e6, shard=0)
        fleet.advance_time(1e3, shard=2)
        before = reads(fleet)
        try:
            if operation == "fused_sweep":
                x_block, _ = fleet.fused_sweep(block, lambda u, columns: u)
                twin.rmatmat(block)
                twin.matmat(x_block)
                assert fleet.loads == twin.loads
                assert reads(fleet) == reads(twin)
            else:
                getattr(fleet, operation)(block)
        finally:
            for target in fleets:
                target.shutdown()
        direction = 0 if operation == "matmat" else 1
        served = [0] * fleet.n_shards
        for start, stop, shard in plan:
            served[shard] += stop - start
        delta = [
            after[direction] - prior[direction]
            for prior, after in zip(before, reads(fleet))
        ]
        assert delta == served
