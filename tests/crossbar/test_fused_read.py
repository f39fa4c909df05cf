"""The fused differential-pair read against the per-device Monte Carlo read.

A batched read senses a (G+, G-) pair as one differential current per
line: ``(G+ - G-)^T V + sigma * sqrt((G+**2 + G-**2)^T V**2) * N(0, 1)``.
The per-vector (1-D) path instead draws every device's fluctuation,
clips, applies IR drop to the noisy realization, and reads both arrays.
These tests check that the two are the same distribution — moments and
a KS test per output line, in both read directions — bound the two
documented approximations over a sigma x wire-resistance grid, and pin
the fused read's cache contract.
"""

import numpy as np
import pytest
from scipy import stats

from repro.crossbar import CrossbarArray, CrossbarOperator
from repro.devices import PcmDevice

N_READS = 3000


def make_pair(sigma=0.05, wire_resistance=0.0, shape=(16, 8)):
    """A noisy (G+, G-) pair sharing one RNG stream, as a tile pair does."""
    device = PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=sigma, drift_nu=0.0)
    g = np.random.default_rng(1).uniform(device.g_min, device.g_max, (2, *shape))
    rng = np.random.default_rng(0)
    return tuple(
        CrossbarArray(g[i], device=device, wire_resistance=wire_resistance, seed=rng)
        for i in range(2)
    )


def read_both_ways(positive, negative, axis):
    """``N_READS`` fused reads of one voltage vector, and ``N_READS``
    per-vector (per-device Monte Carlo) reads of the same vector."""
    lines = positive.shape[axis]
    v = np.random.default_rng(2).uniform(0.02, 0.2, lines)
    read = positive.mvm if axis == 0 else positive.mvm_t
    fused = read(np.repeat(v[:, None], N_READS, axis=1), minus=negative)
    per_vector = np.stack([read(v, minus=negative) for _ in range(N_READS)], axis=1)
    return v, fused, per_vector


def theory(positive, negative, v, axis):
    """Exact mean and std of the differential current (no IR drop)."""
    g_pos, g_neg = positive.g_effective, negative.g_effective
    if axis == 1:
        g_pos, g_neg = g_pos.T, g_neg.T
    sigma = positive.device.read_noise_sigma
    mean = (g_pos - g_neg).T @ v
    std = sigma * np.sqrt((g_pos**2 + g_neg**2).T @ v**2)
    return mean, std


@pytest.mark.parametrize("axis", [0, 1])
class TestDistributionEquivalence:
    def test_moments_match_theory_and_monte_carlo(self, axis):
        positive, negative = make_pair()
        v, fused, per_vector = read_both_ways(positive, negative, axis)
        mean, std = theory(positive, negative, v, axis)
        for sample in (fused, per_vector):
            # sample mean within 4.5 standard errors of the exact mean
            z = (sample.mean(axis=1) - mean) / (std / np.sqrt(N_READS))
            assert np.abs(z).max() < 4.5
            # sample variance: relative SE is sqrt(2 / N) ~ 2.6 %
            ratio = sample.var(axis=1, ddof=1) / std**2
            assert np.all(np.abs(ratio - 1.0) < 5 * np.sqrt(2.0 / N_READS))

    def test_standardized_residuals_pass_ks(self, axis):
        positive, negative = make_pair()
        v, fused, per_vector = read_both_ways(positive, negative, axis)
        mean, std = theory(positive, negative, v, axis)
        fused_z = (fused - mean[:, None]) / std[:, None]
        per_vector_z = (per_vector - mean[:, None]) / std[:, None]
        for line in range(fused.shape[0]):
            assert stats.kstest(fused_z[line], "norm").pvalue > 1e-3
            assert stats.ks_2samp(fused_z[line], per_vector_z[line]).pvalue > 1e-3

    def test_both_arrays_count_every_read(self, axis):
        positive, negative = make_pair()
        read_both_ways(positive, negative, axis)
        counter = "n_col_reads" if axis == 0 else "n_row_reads"
        other = "n_row_reads" if axis == 0 else "n_col_reads"
        for array in (positive, negative):
            assert getattr(array, counter) == 2 * N_READS
            assert getattr(array, other) == 0


@pytest.mark.parametrize("sigma", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("wire_resistance", [0.0, 200.0, 2000.0])
def test_documented_approximations_are_bounded(sigma, wire_resistance):
    """The fused read ignores the negative-conductance clip and takes IR
    drop on the mean conductance; the per-vector path does neither.
    Over the grid (IR drop up to ~20 % at 2 kOhm) the two stay the same
    distribution to sampling accuracy: means within 4.5 standard errors
    of each other, standard deviations within 10 %."""
    for axis in (0, 1):
        positive, negative = make_pair(sigma, wire_resistance)
        _, fused, per_vector = read_both_ways(positive, negative, axis)
        spread = per_vector.std(axis=1)
        gap = fused.mean(axis=1) - per_vector.mean(axis=1)
        assert np.abs(gap / (spread * np.sqrt(2.0 / N_READS))).max() < 4.5
        ratio = fused.std(axis=1) / spread
        assert np.all(np.abs(ratio - 1.0) < 0.1)


class TestReadCache:
    def test_one_entry_of_two_matrices_per_pair_shared_by_directions(self):
        positive, negative = make_pair()
        positive.mvm(np.full((16, 3), 0.1), minus=negative)
        positive.mvm_t(np.full((8, 3), 0.1), minus=negative)
        assert len(positive._read_cache) == 1
        assert negative._read_cache == {}
        (mean, power), = positive._read_cache.values()
        g_pos, g_neg = positive.g_effective, negative.g_effective
        np.testing.assert_array_equal(mean, g_pos - g_neg)
        np.testing.assert_allclose(power, g_pos**2 + g_neg**2, rtol=1e-15)

    def test_wire_resistance_keeps_one_entry_per_direction(self):
        positive, negative = make_pair(wire_resistance=100.0)
        positive.mvm(np.full((16, 3), 0.1), minus=negative)
        positive.mvm_t(np.full((8, 3), 0.1), minus=negative)
        assert len(positive._read_cache) == 2

    def test_noise_free_entry_builds_no_power_matrix(self):
        positive, negative = make_pair(sigma=0.0)
        positive.mvm(np.full((16, 3), 0.1), minus=negative)
        (_, power), = positive._read_cache.values()
        assert power is None

    @pytest.mark.parametrize("side", ["positive", "negative"])
    @pytest.mark.parametrize(
        "change",
        [
            lambda array: array.advance_time(10.0),
            lambda array: array.reprogram(),
            lambda array: array.inject_stuck_faults(0.2, seed=3),
        ],
    )
    def test_either_array_changing_state_drops_the_entry(self, side, change):
        positive, negative = make_pair()
        block = np.full((16, 4), 0.1)
        positive.mvm(block, minus=negative)
        assert positive._read_cache
        change(positive if side == "positive" else negative)
        assert positive._read_cache == {}
        # the rebuilt entry reads the new state exactly
        fresh = positive.mvm(block, minus=negative)
        mean, _ = positive._read_cache[(-1, negative)]
        np.testing.assert_array_equal(
            mean, positive.g_effective - negative.g_effective
        )
        assert fresh.shape == (8, 4)

    def test_minus_tick_after_a_no_op_tick_still_drops_the_entry(self):
        positive, negative = make_pair()
        # nothing is cached yet, so this tick has nothing to drop
        negative.advance_time(10.0)
        block = np.full((16, 4), 0.1)
        positive.mvm(block, minus=negative)
        assert negative._read_cache == {}
        assert negative._pair_readers == {positive}
        negative.advance_time(10.0)
        assert positive._read_cache == {}
        assert not negative._pair_readers

    def test_drift_is_computed_once_per_array_per_state(self, monkeypatch):
        positive, negative = make_pair()
        calls = []
        drifted = PcmDevice.drifted

        def counting(self, conductance, elapsed, *args, **kwargs):
            calls.append(elapsed)
            return drifted(self, conductance, elapsed, *args, **kwargs)

        monkeypatch.setattr(PcmDevice, "drifted", counting)
        for _ in range(3):
            positive.mvm(np.full((16, 2), 0.1), minus=negative)
            positive.mvm_t(np.full((8, 2), 0.1), minus=negative)
        assert len(calls) == 2
        positive.advance_time(5.0)
        negative.advance_time(5.0)
        positive.mvm(np.full((16, 2), 0.1), minus=negative)
        assert len(calls) == 4

    def test_cached_read_is_bitwise_an_uncached_read(self):
        block = np.random.default_rng(4).uniform(0.0, 0.2, (16, 5))
        warm, warm_minus = make_pair()
        warm.mvm(block, minus=warm_minus)
        first = warm.mvm(block, minus=warm_minus)
        cold, cold_minus = make_pair()
        cold.mvm(block, minus=cold_minus)
        cold._invalidate_read_cache()
        np.testing.assert_array_equal(first, cold.mvm(block, minus=cold_minus))


class TestValidation:
    def test_minus_must_match_shape(self):
        positive, _ = make_pair()
        other, _ = make_pair(shape=(8, 16))
        with pytest.raises(ValueError, match="shape"):
            positive.mvm(np.zeros((16, 2)), minus=other)

    def test_minus_must_share_read_noise(self):
        positive, _ = make_pair(sigma=0.05)
        quiet, _ = make_pair(sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            positive.mvm(np.zeros((16, 2)), minus=quiet)
        assert positive.n_col_reads == quiet.n_col_reads == 0


class TestBlockDraw:
    """A batched read draws the whole block's noise at once."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_same_stream_same_block_is_bitwise_reproducible(self, axis):
        lines = (16, 8)[axis]
        block = np.random.default_rng(5).uniform(0.0, 0.2, (lines, 7))
        reads = []
        for _ in range(2):
            positive, negative = make_pair()
            read = positive.mvm if axis == 0 else positive.mvm_t
            reads.append(read(block, minus=negative))
        np.testing.assert_array_equal(reads[0], reads[1])
        # each column is its own read event with its own fluctuation
        assert not np.array_equal(reads[0][:, 0], reads[0][:, 1])

    @pytest.mark.parametrize("tile_shape", [(1024, 1024), (8, 8)])
    def test_split_blocks_bill_the_same_counters(self, rng, tile_shape):
        """Reading a block in one call or in two column slices bills the
        same counters on the operator and on every array of every pair."""
        matrix = rng.standard_normal((12, 20))
        x_block = rng.standard_normal((20, 9))
        x_block[:, 4] = 0.0
        z_block = rng.standard_normal((12, 5))
        whole, split = (
            CrossbarOperator(matrix, tile_shape=tile_shape, seed=0)
            for _ in range(2)
        )
        whole.matmat(x_block)
        whole.rmatmat(z_block)
        for columns in (slice(0, 3), slice(3, 9)):
            split.matmat(x_block[:, columns])
        for columns in (slice(0, 2), slice(2, 5)):
            split.rmatmat(z_block[:, columns])
        assert split.stats == whole.stats
        assert whole.stats["dac_conversions"] == 8 * 20 + 5 * 12
        for key, pair in split._tiles.items():
            twin = whole._tiles[key]
            for array, reference in (
                (pair.positive, twin.positive),
                (pair.negative, twin.negative),
            ):
                assert array.n_col_reads == reference.n_col_reads == 8
                assert array.n_row_reads == reference.n_row_reads == 5
