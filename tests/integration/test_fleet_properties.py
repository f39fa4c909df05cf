"""Property tests over fleet and serving operation sequences.

Hypothesis draws whole operation sequences instead of single calls:

* a fleet program mixes ``matmat``/``rmatmat``/``matvec``/``rmatvec``
  on an exact-backend :class:`ShardedOperator`, with ragged batches
  from 0 to three windows wide, some all-zero columns, and shard
  retirements part-way through that always leave a survivor;
* a serving program interleaves submissions from several tenants,
  clock advances and steps on a :class:`FleetServer` behind a bounded
  admission controller.

After every operation the fleet's results, counters and loads, and the
server's per-tenant ledgers, must satisfy the invariants the rest of
the stack prices and schedules from.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import SHARD_SCHEDULES, ShardedOperator
from repro.serving import (
    ADMISSION_POLICIES,
    REQUEST_KINDS,
    AdmissionController,
    FleetServer,
    VirtualClock,
)

MATRIX = np.random.default_rng(3).standard_normal((5, 7))
PRODUCTS = ("matmat", "rmatmat", "matvec", "rmatvec")


def draw_input(product, batch, seed):
    """The operand of one product: ragged width, some dead columns."""
    m, n = MATRIX.shape
    rows = n if product in ("matmat", "matvec") else m
    rng = np.random.default_rng(seed)
    if product in ("matvec", "rmatvec"):
        vector = rng.standard_normal(rows)
        return vector * (rng.random() >= 0.2)
    block = rng.standard_normal((rows, batch))
    block[:, rng.random(batch) < 0.25] = 0.0
    return block


def exact(product, operand):
    return MATRIX @ operand if product in ("matmat", "matvec") else MATRIX.T @ operand


def live_columns(operand):
    if operand.ndim == 1:
        return int(np.any(operand != 0.0))
    return int(np.count_nonzero(np.any(operand != 0.0, axis=0)))


@st.composite
def fleet_programs(draw):
    schedule = draw(st.sampled_from(SHARD_SCHEDULES))
    n_shards = draw(st.integers(1, 4))
    window = draw(st.integers(1, 4))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(PRODUCTS),
                st.integers(0, 3 * window),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    retire_at = draw(st.integers(0, len(steps)))
    retirees = draw(
        st.lists(
            st.integers(0, n_shards - 1), unique=True, max_size=n_shards - 1
        )
    )
    return schedule, n_shards, window, steps, retire_at, retirees


def merged(shard_stats):
    total = {}
    for stats in shard_stats:
        for key, value in stats.items():
            total[key] = total.get(key, 0) + value
    return total


@settings(max_examples=120, deadline=None)
@given(program=fleet_programs())
def test_fleet_sequences_keep_results_counters_and_loads(program):
    schedule, n_shards, window, steps, retire_at, retirees = program
    fleet = ShardedOperator.from_matrix(
        MATRIX, n_shards=n_shards, batch_window=window, schedule=schedule,
        backend="exact",
    )
    frozen = {}  # retired shard -> (stats, load) at retirement
    for position, (product, batch, seed) in enumerate(steps):
        if position == retire_at:
            for index in retirees:
                fleet.retire_shard(index)
                frozen[index] = (fleet.shard_stats[index], fleet.loads[index])
        assert fleet.n_active_shards >= 1
        operand = draw_input(product, batch, seed)
        stats_before, loads_before = fleet.stats, fleet.loads

        result = getattr(fleet, product)(operand)

        np.testing.assert_allclose(result, exact(product, operand), rtol=0, atol=1e-10)
        assert fleet.stats == merged(fleet.shard_stats)
        assert sum(fleet.loads) - sum(loads_before) == live_columns(operand)
        for index, (stats, load) in frozen.items():
            assert fleet.shard_stats[index] == stats
            assert fleet.loads[index] == load
        if operand.ndim == 2 and operand.shape[1] == 0:
            assert result.shape == (exact(product, operand).shape[0], 0)
            assert fleet.stats == stats_before
            assert fleet.loads == loads_before


@st.composite
def serving_programs(draw):
    policy = draw(st.sampled_from(ADMISSION_POLICIES))
    window = draw(st.integers(1, 4))
    max_depth = draw(st.integers(1, 6))
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("a", "b", "c")),
                st.sampled_from(REQUEST_KINDS),
                st.floats(0.0, 1.5),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=24,
        )
    )
    return policy, window, max_depth, events


@settings(max_examples=120, deadline=None)
@given(program=serving_programs())
def test_serving_sequences_conserve_requests_and_counters(program):
    policy, window, max_depth, events = program
    fleet = ShardedOperator.from_matrix(
        MATRIX, n_shards=2, batch_window=window, backend="exact"
    )
    server = FleetServer(
        fleet,
        VirtualClock(),
        coalesce_budget_s=1.0,
        window_service_s=0.25,
        admission=AdmissionController(max_depth, policy=policy),
    )
    fleet_before = fleet.stats
    admitted = {}  # tenant -> ids of requests the server accepted

    def check():
        for tenant in server.tenants:
            entry = server.tenant_requests(tenant)
            queued = sum(
                1 for rid in admitted.get(tenant, ()) if rid not in server.results
            )
            outcomes = entry["served"] + entry["shed"] + entry["rejected"]
            assert entry["submitted"] == outcomes + queued
        assert server.queue.depth == sum(
            1
            for ids in admitted.values()
            for rid in ids
            if rid not in server.results
        )
        assert server.queue.depth <= max_depth
        delta = {
            key: value - fleet_before.get(key, 0)
            for key, value in fleet.stats.items()
            if value != fleet_before.get(key, 0)
        }
        served = {key: value for key, value in server.served_counters.items() if value}
        assert served == delta

    for tenant, kind, gap, seed in events:
        server.advance(gap)
        server.step()
        vector = draw_input(kind, 1, seed)
        request = server.submit(vector, tenant=tenant, kind=kind)
        if request is not None:
            admitted.setdefault(tenant, []).append(request.id)
        check()
        server.step()
        check()
    server.flush()
    check()
    assert server.queue.depth == 0
