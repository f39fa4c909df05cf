"""The cached drift path against uncached ``PcmDevice.drifted``.

A drift recompute needs the clipped amorphous fraction of each
programmed state (``PcmDevice.amorphous_fraction``), which depends only
on that state.  ``CrossbarArray`` builds it on its first drifted
evaluation and keeps it until the programmed state changes;
``DriftPredictor`` builds it for its fixed targets at construction.
These tests pin that the cache changes no bit of any result, when it
is built and dropped, and that a rebuilt read entry reuses its buffers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import CrossbarArray, DriftPredictor
from repro.devices import PcmDevice

DEVICE = PcmDevice(prog_noise_sigma=0.0)
AGES = st.floats(min_value=0.0, max_value=1e10, allow_subnormal=False)
STATES = st.lists(
    st.floats(
        min_value=0.0, max_value=2 * DEVICE.g_max, allow_subnormal=False
    ),
    min_size=1,
    max_size=24,
)


def make_array(device=DEVICE, shape=(6, 4), seed=0, **kwargs):
    g = np.random.default_rng(seed).uniform(device.g_min, device.g_max, shape)
    return CrossbarArray(g, device=device, seed=seed, **kwargs)


def make_pair(device=DEVICE, **kwargs):
    return make_array(device, seed=1, **kwargs), make_array(device, seed=2, **kwargs)


def assert_bitwise_uncached(array):
    """``g_effective`` equals the device law evaluated from scratch."""
    uncached = array.device.drifted(array._g_programmed, array.age_seconds)
    np.testing.assert_array_equal(array.g_effective, uncached)


class TestPcmDeviceFraction:
    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(
            st.floats(
                min_value=-1e-4, max_value=1e-4, allow_subnormal=False
            ),
            min_size=1,
            max_size=24,
        ),
        elapsed=AGES,
    )
    def test_fraction_and_out_are_bitwise_neutral(self, states, elapsed):
        g = np.asarray(states)
        fraction = DEVICE.amorphous_fraction(g)
        expected = DEVICE.drifted(g, elapsed)
        out = np.empty_like(g)
        got = DEVICE.drifted(g, elapsed, fraction=fraction, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(
            DEVICE.drift_factors(g, elapsed, fraction=fraction),
            DEVICE.drift_factors(g, elapsed),
        )

    def test_fraction_spans_amorphous_to_crystalline(self):
        g = np.array([0.0, DEVICE.g_min, DEVICE.g_max, 2 * DEVICE.g_max])
        np.testing.assert_array_equal(
            DEVICE.amorphous_fraction(g), [1.0, 1.0, 0.0, 0.0]
        )

    def test_degenerate_drift_writes_into_out(self):
        g = np.array([1e-6, 2e-5])
        out = np.zeros(2)
        assert DEVICE.drifted(g, 0.0, out=out) is out
        np.testing.assert_array_equal(out, g)
        assert DEVICE.drift_factors(g, 0.0, out=out) is out
        np.testing.assert_array_equal(out, [1.0, 1.0])

    @pytest.mark.parametrize("name", ["fraction", "out"])
    def test_mismatched_buffers_raise(self, name):
        g = np.ones(4) * 1e-6
        with pytest.raises(ValueError, match=name):
            DEVICE.drift_factors(g, 10.0, **{name: np.ones(3)})


class TestArrayCacheIsBitwiseNeutral:
    @settings(max_examples=100, deadline=None)
    @given(states=STATES, first=AGES, second=AGES)
    def test_g_effective_matches_uncached_drift(self, states, first, second):
        array = CrossbarArray(np.asarray(states)[None, :], device=DEVICE, seed=0)
        for age in (first, second):
            array.advance_time(age)
            assert_bitwise_uncached(array)

    def test_after_stuck_faults_and_reprogram(self):
        array = make_array(shape=(16, 12))
        array.advance_time(1e4)
        assert_bitwise_uncached(array)
        array.inject_stuck_faults(0.2, seed=3)
        assert_bitwise_uncached(array)
        array.advance_time(1e5)
        assert_bitwise_uncached(array)
        array.reprogram()
        array.advance_time(1e3)
        assert_bitwise_uncached(array)

    @pytest.mark.parametrize("wire_resistance", [0.0, 2.0])
    def test_reads_match_a_twin_that_first_drifts_late(self, wire_resistance):
        """Reads with a fraction cached at an earlier age equal a twin's
        whose first drifted read is at the final age, in every path."""
        block = np.random.default_rng(5).uniform(0.0, 0.2, (6, 3))

        def reads_after(ages):
            positive, negative = make_pair(wire_resistance=wire_resistance)
            for age in ages:
                positive.advance_time(age)
                negative.advance_time(age)
                positive.mvm(block, minus=negative)
            return (
                positive.mvm(block, minus=negative),
                positive.mvm_t(block[:4], minus=negative),
                positive.mvm(block[:, 0], minus=negative),
            )

        warm = reads_after([10.0, 1e5])
        cold = reads_after([0.0, 1e5 + 10.0])
        for got, expected in zip(warm, cold):
            np.testing.assert_array_equal(got, expected)


class TestFractionLifecycle:
    def test_survives_drift_and_is_rebuilt_after_state_changes(self):
        array = make_array()
        assert array._fraction is None
        array.advance_time(100.0)
        array.g_effective
        fraction = array._fraction
        np.testing.assert_array_equal(
            fraction, DEVICE.amorphous_fraction(array._g_programmed)
        )
        array.advance_time(100.0)
        array.mvm(np.ones((6, 2)))
        assert array._fraction is fraction

        array.reprogram()
        assert array._fraction is None
        array.advance_time(100.0)
        array.g_effective
        rebuilt = array._fraction
        assert rebuilt is not fraction
        np.testing.assert_array_equal(
            rebuilt, DEVICE.amorphous_fraction(array._g_programmed)
        )

        array.inject_stuck_faults(0.5, mode="low", seed=1)
        assert array._fraction is None
        array.g_effective
        np.testing.assert_array_equal(
            array._fraction, DEVICE.amorphous_fraction(array._g_programmed)
        )

    def test_never_built_at_age_zero(self):
        array = make_array()
        array.mvm(np.ones((6, 2)))
        array.mvm_t(np.ones(4))
        array.g_effective
        assert array._fraction is None

    def test_never_built_without_drift(self):
        array = make_array(PcmDevice(prog_noise_sigma=0.0, drift_nu=0.0))
        array.advance_time(1e6)
        array.mvm(np.ones((6, 2)))
        array.mvm(np.ones(6))
        assert_bitwise_uncached(array)
        assert array._fraction is None


@pytest.mark.parametrize("sigma", [0.0, 0.01])
class TestRebuiltEntryReusesItsBuffers:
    def test_pair_entry(self, sigma):
        device = PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=sigma)
        positive, negative = make_pair(device)
        block = np.ones((6, 2))
        positive.mvm(block, minus=negative)
        mean, power = positive._read_cache[(-1, negative)]
        for trigger in (
            lambda: negative.advance_time(50.0),
            lambda: positive.advance_time(70.0),
            lambda: negative.inject_stuck_faults(0.3, seed=4),
            positive.reprogram,
        ):
            trigger()
            assert positive._read_cache == {}
            positive.mvm(block, minus=negative)
            rebuilt = positive._read_cache[(-1, negative)]
            assert rebuilt[0] is mean and rebuilt[1] is power
            g_pos, g_neg = positive.g_effective, negative.g_effective
            np.testing.assert_array_equal(mean, g_pos - g_neg)
            if sigma:
                np.testing.assert_array_equal(power, g_pos**2 + g_neg**2)
            else:
                assert power is None

    def test_single_array_entry(self, sigma):
        device = PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=sigma)
        array = make_array(device)
        array.mvm(np.ones((6, 2)))
        mean, power = array._read_cache[(-1, None)]
        array.advance_time(1e3)
        array.mvm(np.ones((6, 2)))
        rebuilt = array._read_cache[(-1, None)]
        assert rebuilt[0] is mean and rebuilt[1] is power
        np.testing.assert_array_equal(mean, array.g_effective)
        if sigma:
            np.testing.assert_array_equal(power, array.g_effective**2)


class UncachedPredictor(DriftPredictor):
    """The forecast with every drift factor computed from scratch."""

    def drift_scale(self, age_seconds):
        drifted = self._g_pos * self.device.drift_factors(
            self._g_pos, age_seconds
        ) - self._g_neg * self.device.drift_factors(self._g_neg, age_seconds)
        return float(drifted @ self._diff) / self._norm


class TestDriftPredictorCache:
    @pytest.fixture
    def predictors(self, rng):
        g_pos, g_neg = rng.uniform(DEVICE.g_min, DEVICE.g_max, (2, 500))
        return (
            DriftPredictor(DEVICE, g_pos, g_neg),
            UncachedPredictor(DEVICE, g_pos, g_neg),
        )

    @settings(max_examples=50, deadline=None)
    @given(age=AGES, calibrated=AGES)
    def test_scale_and_gain_error_are_bitwise_uncached(self, age, calibrated):
        rng = np.random.default_rng(9)
        g_pos, g_neg = rng.uniform(DEVICE.g_min, DEVICE.g_max, (2, 64))
        cached = DriftPredictor(DEVICE, g_pos, g_neg)
        uncached = UncachedPredictor(DEVICE, g_pos, g_neg)
        assert cached.drift_scale(age) == uncached.drift_scale(age)
        early, late = sorted((age, calibrated))
        assert cached.gain_error(late, early) == uncached.gain_error(late, early)

    def test_seconds_until_is_bitwise_uncached(self, predictors):
        cached, uncached = predictors
        for budget, age in ((0.01, 0.0), (0.05, 1e4), (0.002, 3e6)):
            assert cached.seconds_until(budget, age_seconds=age) == (
                uncached.seconds_until(budget, age_seconds=age)
            )
