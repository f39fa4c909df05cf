"""Property tests of the PCM drift law against its power-law form.

``PcmDevice`` evaluates ``g(t) = g(t0) * ((t0 + t) / t0) ** (-nu(g))``
in log space, as ``exp(-nu(g) * log((t0 + t) / t0))``.  The power form
lives here only, as the reference the library must reproduce.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.crossbar.lifetime import DriftPredictor
from repro.devices import PcmDevice

DEVICE = PcmDevice()
ELAPSED = st.floats(min_value=0.0, max_value=1e9)


def reference_factors(device, conductance, elapsed):
    """The drift law in its power form: ``time_factor ** (-nu(g))``."""
    conductance = np.asarray(conductance, dtype=float)
    time_factor = (device.drift_t0 + elapsed) / device.drift_t0
    amorphous = 1.0 - (conductance - device.g_min) / device.dynamic_range
    nu = device.drift_nu * np.clip(amorphous, 0.0, 1.0)
    return time_factor ** (-nu)


devices = st.builds(
    PcmDevice,
    drift_nu=st.floats(min_value=0.0, max_value=0.1),
    drift_t0=st.floats(min_value=1e-3, max_value=1e3),
)

# conductances inside the programmable window and up to one window
# width outside it on either side (stuck or unclipped states)
conductances = hnp.arrays(
    float,
    st.integers(min_value=1, max_value=64),
    elements=st.floats(
        min_value=DEVICE.g_min - DEVICE.g_max,
        max_value=2.0 * DEVICE.g_max,
    ),
)


class TestAgainstPowerForm:
    @settings(max_examples=200, deadline=None)
    @given(device=devices, g=conductances, elapsed=ELAPSED)
    def test_factors_match_the_power_form(self, device, g, elapsed):
        factors = device.drift_factors(g, elapsed)
        reference = reference_factors(device, g, elapsed)
        np.testing.assert_allclose(factors, reference, rtol=1e-15, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(device=devices, g=conductances, elapsed=ELAPSED)
    def test_drifted_matches_the_power_form(self, device, g, elapsed):
        reference = g * reference_factors(device, g, elapsed)
        np.testing.assert_allclose(
            device.drifted(g, elapsed), reference, rtol=1e-15, atol=0.0
        )


class TestShape:
    @given(device=devices, elapsed=ELAPSED)
    def test_g_max_and_above_are_exact_fixed_points(self, device, elapsed):
        g = np.array([device.g_max, device.g_max * 1.5])
        assert np.array_equal(device.drift_factors(g, elapsed), [1.0, 1.0])
        assert np.array_equal(device.drifted(g, elapsed), g)

    @given(device=devices, g=conductances, elapsed=ELAPSED)
    def test_factors_lie_in_the_unit_interval(self, device, g, elapsed):
        factors = device.drift_factors(g, elapsed)
        assert np.all(factors > 0.0)
        assert np.all(factors <= 1.0)

    @given(
        device=devices,
        g=conductances,
        elapsed=st.lists(ELAPSED, min_size=2, max_size=2).map(sorted),
    )
    def test_factors_never_increase_with_elapsed_time(self, device, g, elapsed):
        earlier, later = elapsed
        assert np.all(
            device.drift_factors(g, later) <= device.drift_factors(g, earlier)
        )


class TestNoAliasing:
    @given(device=devices, g=conductances, elapsed=ELAPSED)
    def test_results_are_fresh_and_inputs_untouched(self, device, g, elapsed):
        original = g.copy()
        for method in (device.drift_factors, device.drifted):
            out = method(g, elapsed)
            assert not np.shares_memory(out, g)
            np.testing.assert_array_equal(g, original)
            # writing into the result must never reach the input
            out[...] = -1.0
            np.testing.assert_array_equal(g, original)


class TestPredictor:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ages=st.lists(ELAPSED, min_size=2, max_size=2).map(sorted),
    )
    def test_gain_error_agrees_with_the_power_form(self, seed, ages):
        rng = np.random.default_rng(seed)
        g_pos = rng.uniform(DEVICE.g_min, DEVICE.g_max, 256)
        g_neg = rng.uniform(DEVICE.g_min, DEVICE.g_max, 256)
        predictor = DriftPredictor(DEVICE, g_pos, g_neg)
        diff = g_pos - g_neg

        def scale(age):
            drifted = g_pos * reference_factors(DEVICE, g_pos, age) - (
                g_neg * reference_factors(DEVICE, g_neg, age)
            )
            return float(drifted @ diff) / float(diff @ diff)

        calibrated_at, age = ages
        reference = abs(scale(age) / scale(calibrated_at) - 1.0)
        assert math.isclose(
            predictor.gain_error(age, calibrated_at), reference,
            rel_tol=0.0, abs_tol=1e-12,
        )
