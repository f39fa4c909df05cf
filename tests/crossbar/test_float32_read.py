"""The float32 batched read against the float64 read it replaces.

When both converters quantize, ``CrossbarOperator`` hands its tiles a
float32 voltage block and each tile reads it on a float32 entry: the
mean and power GEMMs run in float32, while the drift and IR-drop math,
the normal draw and the returned currents stay float64.  A float32
GEMM's error (~1e-7 of full scale) sits far below one 8-bit ADC step
(~8e-3 of full scale).  These tests bound the float32 read against the
float64 read of a twin built from the same seed — currents within 1e-6
of full scale, ADC codes at most one LSB apart, at most 1e-3 of them
mismatched — and pin that unquantized operators, the 1-D path and
``DenseOperator`` stay float64 bit for bit.
"""

import numpy as np
import pytest

from repro.crossbar import Adc, CrossbarArray, CrossbarOperator, Dac
from repro.devices import PcmDevice

SHAPE = (128, 96)
BATCH = 256
V_MAX = 0.2
# ADC headroom over the largest line L2-norm, as CrossbarOperator sizes it.
HEADROOM = 4.0


def make_arrays(sigma, wire_resistance, differential, seed=0):
    """One array or a (G+, G-) pair sharing one RNG stream, drifted for
    an hour so the entry build runs the drift math too."""
    device = PcmDevice(read_noise_sigma=sigma)
    targets = np.random.default_rng(1).uniform(device.g_min, device.g_max, (2, *SHAPE))
    rng = np.random.default_rng(seed)
    arrays = [
        CrossbarArray(
            targets[i], device=device, wire_resistance=wire_resistance, seed=rng
        )
        for i in range(2 if differential else 1)
    ]
    for array in arrays:
        array.advance_time(3600.0)
    return arrays


def read(arrays, voltages, axis):
    positive, *minus = arrays
    method = positive.mvm if axis == 0 else positive.mvm_t
    return method(voltages, minus=minus[0] if minus else None)


def dac_block(lines, seed=2):
    """A DAC-quantized voltage block, as the operator drives its tiles."""
    normalized = np.random.default_rng(seed).uniform(-1.0, 1.0, (lines, BATCH))
    return Dac(bits=8, v_max=V_MAX).to_voltages(normalized)


def full_scale(arrays, axis):
    """ADC full scale: headroom times the largest output line's L2-norm
    of the mean conductances, at the full read voltage."""
    positive, *minus = arrays
    mean = positive.g_effective - (minus[0].g_effective if minus else 0.0)
    return HEADROOM * V_MAX * float(np.linalg.norm(mean, axis=axis).max())


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("differential", [False, True], ids=["single", "pair"])
@pytest.mark.parametrize("wire_resistance", [0.0, 200.0])
@pytest.mark.parametrize("sigma", [0.01, 0.05])
def test_float32_read_stays_within_one_adc_step(
    sigma, wire_resistance, differential, axis
):
    wide = make_arrays(sigma, wire_resistance, differential)
    narrow = make_arrays(sigma, wire_resistance, differential)
    voltages = dac_block(SHAPE[axis])
    reference = read(wide, voltages, axis)
    currents = read(narrow, voltages.astype(np.float32), axis)
    assert currents.dtype == np.float64

    scale = full_scale(wide, axis)
    assert np.abs(currents - reference).max() <= 1e-6 * scale

    adc = Adc(bits=8, full_scale=scale)
    codes = np.round(adc.quantize(currents) / adc.lsb)
    reference_codes = np.round(adc.quantize(reference) / adc.lsb)
    assert np.abs(codes - reference_codes).max() <= 1
    assert np.mean(codes != reference_codes) <= 1e-3


@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_float32_entry_is_the_float64_entry_rounded_once(sigma):
    positive, negative = make_arrays(sigma, 0.0, differential=True)
    voltages = dac_block(SHAPE[0]).astype(np.float32)
    positive.mvm(voltages, minus=negative)
    mean, power = positive._read_cache[(-1, negative)]
    g_pos, g_neg = positive.g_effective, negative.g_effective
    np.testing.assert_array_equal(mean, (g_pos - g_neg).astype(np.float32))
    if sigma:
        np.testing.assert_array_equal(
            power, (g_pos**2 + g_neg**2).astype(np.float32)
        )
    else:
        assert power is None
    # a drift recompute rebuilds into the same float32 buffers
    negative.advance_time(600.0)
    positive.mvm(voltages, minus=negative)
    rebuilt = positive._read_cache[(-1, negative)]
    assert rebuilt[0] is mean and rebuilt[1] is power
    np.testing.assert_array_equal(
        mean, (positive.g_effective - negative.g_effective).astype(np.float32)
    )


def test_an_entry_never_serves_a_read_of_another_dtype():
    voltages = dac_block(SHAPE[0])
    mixed = make_arrays(0.01, 0.0, differential=True)
    read(mixed, voltages, 0)  # builds a float64 entry
    narrow = read(mixed, voltages.astype(np.float32), 0)
    (mean, power), = mixed[0]._read_cache.values()
    assert mean.dtype == power.dtype == np.float32
    twin = make_arrays(0.01, 0.0, differential=True)
    read(twin, voltages, 0)  # same RNG consumption as the float64 read above
    twin[0]._invalidate_read_cache()
    np.testing.assert_array_equal(narrow, read(twin, voltages.astype(np.float32), 0))
    wide = read(mixed, voltages, 0)
    (mean, _), = mixed[0]._read_cache.values()
    assert mean.dtype == np.float64
    np.testing.assert_array_equal(wide, read(twin, voltages, 0))


def test_noise_free_float32_read_returns_float64():
    arrays = make_arrays(0.0, 0.0, differential=True)
    currents = read(arrays, dac_block(SHAPE[0]).astype(np.float32), 0)
    assert currents.dtype == np.float64


def test_one_dimensional_read_stays_float64_bitwise():
    voltages = dac_block(SHAPE[0])[:, 0].astype(np.float32)
    arrays = make_arrays(0.01, 200.0, differential=True)
    twin = make_arrays(0.01, 200.0, differential=True)
    np.testing.assert_array_equal(
        read(arrays, voltages, 0), read(twin, voltages.astype(float), 0)
    )
    assert arrays[0]._read_cache == {}


def make_operator(seed=3, **kwargs):
    matrix = np.random.default_rng(4).standard_normal((24, 40))
    return CrossbarOperator(matrix, tile_shape=(16, 16), seed=seed, **kwargs)


def cached_entries(operator):
    for pair in operator._tiles.values():
        yield from pair.positive._read_cache.values()


def test_quantized_operator_entries_use_four_bytes_per_device():
    operator = make_operator()
    operator.matmat(np.random.default_rng(5).standard_normal((40, 8)))
    operator.rmatmat(np.random.default_rng(6).standard_normal((24, 8)))
    entries = list(cached_entries(operator))
    assert len(entries) == operator.n_tiles
    for mean, power in entries:
        assert mean.dtype == power.dtype == np.float32
    # one (mean, power) entry per tile pair: 8 B per pair of devices
    entry_bytes = sum(mean.nbytes + power.nbytes for mean, power in entries)
    assert entry_bytes == 4 * operator.n_devices


def float64_reference(operator, block):
    """``operator.matmat(block)`` read entirely in float64, from the
    operator's own tiles and converters (all columns live)."""
    normalized, peaks = operator._normalize_block(block)
    voltages = operator.dac.to_voltages(normalized)
    result = np.zeros((operator.shape[0], block.shape[1]))
    for (ri, ci), pair in operator._tiles.items():
        (r0, r1), (c0, c1) = operator._row_spans[ri], operator._col_spans[ci]
        currents = pair.positive.mvm(voltages[r0:r1], minus=pair.negative)
        result[c0:c1] += operator.adc_columns.quantize(currents)
    return result * (operator.gain * peaks / (operator._scale * operator.v_read))


@pytest.mark.parametrize(
    "bits",
    [{"dac_bits": None}, {"adc_bits": None}, {"dac_bits": None, "adc_bits": None}],
)
def test_unquantized_operator_reads_float64_bitwise(bits):
    block = np.random.default_rng(5).standard_normal((40, 8))
    operator = make_operator(**bits)
    product = operator.matmat(block)
    for mean, power in cached_entries(operator):
        assert mean.dtype == power.dtype == np.float64
    reference = float64_reference(make_operator(**bits), block)
    np.testing.assert_array_equal(product, reference)


def test_quantized_operator_stays_within_one_lsb_per_tile():
    block = np.random.default_rng(5).standard_normal((40, 64))
    operator = make_operator()
    product = operator.matmat(block)
    reference = float64_reference(make_operator(), block)
    # one output line sums len(_row_spans) tile reads, each at most one
    # ADC code off; a code is worth lsb / (scale * v_read) per unit peak
    peaks = np.abs(block).max(axis=0)
    step = operator.adc_columns.lsb / (operator._scale * operator.v_read) * peaks
    bound = len(operator._row_spans) * step * 1.001
    assert np.all(np.abs(product - reference) <= bound)
    assert np.mean(product != reference) <= 1e-3
