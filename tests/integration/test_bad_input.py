"""Non-finite input fails loudly at every entry point and is never billed.

One NaN in a peak-normalized read poisons the whole output vector (and
one inf column poisons its tile's ADC full scale), yet the converters
would still count the conversions.  The operator, fleet and serving
entry points reject such input with ``ValueError`` before any counter,
load, queue or ledger moves.
"""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator, DenseOperator, ShardedOperator
from repro.serving import FleetServer, VirtualClock

BAD_VALUES = [np.nan, np.inf, -np.inf]


@pytest.fixture
def matrix(rng):
    return rng.standard_normal((12, 16))


def poisoned(shape, value, rng, index=0):
    block = rng.standard_normal(shape)
    block.flat[index] = value
    return block


@pytest.mark.parametrize("value", BAD_VALUES)
class TestCrossbarOperator:
    def test_vector_products_reject_without_billing(self, matrix, rng, value):
        operator = CrossbarOperator(matrix, tile_shape=(8, 8), seed=0)
        before = operator.stats
        with pytest.raises(ValueError, match="finite"):
            operator.matvec(poisoned(16, value, rng, index=3))
        with pytest.raises(ValueError, match="finite"):
            operator.rmatvec(poisoned(12, value, rng, index=5))
        assert operator.stats == before

    def test_block_products_reject_without_billing(self, matrix, rng, value):
        operator = CrossbarOperator(matrix, tile_shape=(8, 8), seed=0)
        before = operator.stats
        # one bad entry in the last column of an otherwise clean block
        with pytest.raises(ValueError, match="finite"):
            operator.matmat(poisoned((16, 5), value, rng, index=16 * 5 - 1))
        with pytest.raises(ValueError, match="finite"):
            operator.rmatmat(poisoned((12, 5), value, rng, index=7))
        assert operator.stats == before


@pytest.mark.parametrize("value", BAD_VALUES)
def test_dense_operator_rejects_without_billing(matrix, rng, value):
    operator = DenseOperator(matrix)
    with pytest.raises(ValueError, match="finite"):
        operator.matvec(poisoned(16, value, rng, index=3))
    with pytest.raises(ValueError, match="finite"):
        operator.rmatvec(poisoned(12, value, rng, index=5))
    with pytest.raises(ValueError, match="finite"):
        operator.matmat(poisoned((16, 5), value, rng, index=16 * 5 - 1))
    with pytest.raises(ValueError, match="finite"):
        operator.rmatmat(poisoned((12, 5), value, rng, index=7))
    assert operator.stats == {"n_matvec": 0, "n_rmatvec": 0}


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("parallelism", ["serial", "threads"])
def test_sharded_fleet_rejects_without_billing(matrix, rng, value, parallelism):
    fleet = ShardedOperator.from_matrix(
        matrix, n_shards=2, batch_window=2, parallelism=parallelism, seed=0
    )
    before, loads = fleet.stats, fleet.loads
    with pytest.raises(ValueError, match="finite"):
        fleet.matmat(poisoned((16, 6), value, rng, index=40))
    with pytest.raises(ValueError, match="finite"):
        fleet.rmatmat(poisoned((12, 6), value, rng, index=70))
    with pytest.raises(ValueError, match="finite"):
        fleet.fused_sweep(
            poisoned((12, 6), value, rng, index=11), lambda u, columns: u
        )
    with pytest.raises(ValueError, match="finite"):
        fleet.matvec(poisoned(16, value, rng))
    with pytest.raises(ValueError, match="finite"):
        fleet.rmatvec(poisoned(12, value, rng))
    assert fleet.stats == before
    assert fleet.loads == loads
    fleet.shutdown()


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("kind,length", [("matvec", 16), ("rmatvec", 12)])
def test_server_submit_rejects_before_queueing(matrix, rng, value, kind, length):
    fleet = ShardedOperator.from_matrix(matrix, n_shards=2, batch_window=4, seed=0)
    server = FleetServer(
        fleet, VirtualClock(), coalesce_budget_s=1.0, window_service_s=0.5
    )
    with pytest.raises(ValueError, match="finite"):
        server.submit(poisoned(length, value, rng, index=2), tenant="t", kind=kind)
    assert server.tenants == ()
    assert server.queue.lane_depth(kind) == 0
    # a clean request still goes through afterwards
    assert server.submit(rng.standard_normal(length), tenant="t", kind=kind) is not None
    assert server.tenant_requests("t")["submitted"] == 1
