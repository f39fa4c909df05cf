"""Tests of the high-level crossbar operator."""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator, DenseOperator, DifferentialCoding
from repro.devices import PcmDevice


def relative_error(estimate, reference):
    return np.linalg.norm(estimate - reference) / np.linalg.norm(reference)


class TestDenseOperator:
    def test_matvec_rmatvec(self, small_matrix, rng):
        op = DenseOperator(small_matrix)
        x = rng.standard_normal(small_matrix.shape[1])
        z = rng.standard_normal(small_matrix.shape[0])
        assert np.allclose(op.matvec(x), small_matrix @ x)
        assert np.allclose(op.rmatvec(z), small_matrix.T @ z)
        assert op.n_matvec == 1 and op.n_rmatvec == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            DenseOperator(np.ones(4))

    def test_matmat_rmatmat(self, small_matrix, rng):
        op = DenseOperator(small_matrix)
        x_block = rng.standard_normal((small_matrix.shape[1], 3))
        z_block = rng.standard_normal((small_matrix.shape[0], 4))
        assert np.allclose(op.matmat(x_block), small_matrix @ x_block)
        assert np.allclose(op.rmatmat(z_block), small_matrix.T @ z_block)
        # one logical read per input vector, as on the crossbar
        assert op.n_matvec == 3 and op.n_rmatvec == 4
        assert op.stats == {"n_matvec": 3, "n_rmatvec": 4}

    def test_matmat_validation(self, small_matrix):
        op = DenseOperator(small_matrix)
        m, n = small_matrix.shape
        with pytest.raises(ValueError):
            op.matmat(np.zeros(n))  # 1-D belongs to matvec
        with pytest.raises(ValueError):
            op.matmat(np.zeros((m, 2)))  # wrong feature dimension
        with pytest.raises(ValueError):
            op.rmatmat(np.zeros((n, 2)))

    def test_wrong_shape_raises_before_billing(self):
        op = DenseOperator(np.ones((3, 4)))
        for product, value in (
            (op.matvec, np.ones(5)),
            (op.matvec, np.ones((4, 2))),  # 2-D belongs to matmat
            (op.rmatvec, np.ones(4)),
            (op.matmat, np.ones((3, 2))),
            (op.rmatmat, np.ones((4, 2))),
        ):
            with pytest.raises(ValueError, match="shape"):
                product(value)
        assert op.stats == {"n_matvec": 0, "n_rmatvec": 0}

    def test_empty_batch_returns_empty_and_counts_nothing(self, small_matrix):
        """B = 0 is a legal degenerate fleet: empty result, zero reads."""
        op = DenseOperator(small_matrix)
        m, n = small_matrix.shape
        assert op.matmat(np.zeros((n, 0))).shape == (m, 0)
        assert op.rmatmat(np.zeros((m, 0))).shape == (n, 0)
        assert op.stats == {"n_matvec": 0, "n_rmatvec": 0}


class TestIdealCrossbar:
    def test_matvec_exact_with_ideal_device(self, small_matrix, rng):
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        x = rng.standard_normal(small_matrix.shape[1])
        assert relative_error(op.matvec(x), small_matrix @ x) < 1e-10

    def test_rmatvec_exact_with_ideal_device(self, small_matrix, rng):
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        z = rng.standard_normal(small_matrix.shape[0])
        assert relative_error(op.rmatvec(z), small_matrix.T @ z) < 1e-10

    def test_zero_vector_returns_zero(self, small_matrix):
        op = CrossbarOperator(small_matrix, device=PcmDevice.ideal(), seed=0)
        assert np.array_equal(op.matvec(np.zeros(small_matrix.shape[1])), np.zeros(small_matrix.shape[0]))

    def test_linearity_in_scale(self, small_matrix, rng):
        """Per-call input normalization must preserve scaling."""
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        x = rng.standard_normal(small_matrix.shape[1])
        assert np.allclose(op.matvec(3.0 * x), 3.0 * op.matvec(x), rtol=1e-9)


class TestRealisticCrossbar:
    def test_error_within_pcm_regime(self, rng):
        matrix = rng.standard_normal((64, 96))
        op = CrossbarOperator(matrix, seed=1)
        x = rng.standard_normal(96)
        err = relative_error(op.matvec(x), matrix @ x)
        assert err < 0.15  # PCM MVM literature reports a few percent

    def test_tiling_matches_untiled(self, rng):
        matrix = rng.standard_normal((40, 56))
        x = rng.standard_normal(56)
        whole = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        tiled = CrossbarOperator(
            matrix,
            device=PcmDevice.ideal(),
            dac_bits=None,
            adc_bits=None,
            tile_shape=(16, 16),
            seed=0,
        )
        # stored as A.T: ceil(56/16) row blocks x ceil(40/16) col blocks
        assert tiled.n_tiles == 12
        assert np.allclose(whole.matvec(x), tiled.matvec(x), atol=1e-9)

    def test_more_adc_bits_less_error(self, rng):
        matrix = rng.standard_normal((32, 48))
        x = rng.standard_normal(48)
        device = PcmDevice.ideal()
        errs = {}
        for bits in (4, 8):
            op = CrossbarOperator(matrix, device=device, dac_bits=None, adc_bits=bits, seed=2)
            errs[bits] = relative_error(op.matvec(x), matrix @ x)
        assert errs[8] < errs[4]

    def test_drift_degrades_accuracy(self, rng):
        matrix = rng.standard_normal((32, 32))
        x = rng.standard_normal(32)
        op = CrossbarOperator(
            matrix,
            device=PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=0.0),
            dac_bits=None,
            adc_bits=None,
            seed=3,
        )
        fresh = relative_error(op.matvec(x), matrix @ x)
        op.advance_time(1e6)
        aged = relative_error(op.matvec(x), matrix @ x)
        assert aged > fresh

    def test_stats_counters(self, small_matrix, rng):
        op = CrossbarOperator(small_matrix, seed=4)
        op.matvec(rng.standard_normal(small_matrix.shape[1]))
        op.rmatvec(rng.standard_normal(small_matrix.shape[0]))
        stats = op.stats
        assert stats["n_matvec"] == 1
        assert stats["n_rmatvec"] == 1
        assert stats["adc_conversions"] > 0
        assert stats["n_devices"] == 2 * small_matrix.size

    @pytest.mark.parametrize("v_read", [0.1, 0.2])
    @pytest.mark.parametrize("utilization", [0.5, 1.0])
    def test_adc_headroom_is_four_line_norms(self, rng, v_read, utilization):
        """Each ADC's full scale is four times the largest line L2-norm
        of the stored matrix in volts-times-siemens: columns of the
        stored A.T (rows of A) for matvec, its rows for rmatvec."""
        matrix = rng.standard_normal((12, 20))
        device = PcmDevice()
        op = CrossbarOperator(
            matrix, device=device, v_read=v_read, utilization=utilization,
            seed=0,
        )
        coding = DifferentialCoding(device, utilization=utilization)
        coding.encode(matrix.T)
        unit = v_read * coding.scale
        forward = 4.0 * unit * np.linalg.norm(matrix, axis=1).max()
        transpose = 4.0 * unit * np.linalg.norm(matrix, axis=0).max()
        assert op.adc_columns.full_scale == pytest.approx(forward, rel=1e-12)
        assert op.adc_rows.full_scale == pytest.approx(transpose, rel=1e-12)

    def test_shape_validation(self, small_matrix):
        op = CrossbarOperator(small_matrix, seed=5)
        with pytest.raises(ValueError):
            op.matvec(np.zeros(small_matrix.shape[0]))
        with pytest.raises(ValueError):
            op.rmatvec(np.zeros(small_matrix.shape[1]))


class TestMaintenanceClocks:
    def test_whole_operator_maintenance_resets_every_clock(self, rng):
        matrix = rng.standard_normal((8, 10))
        op = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), tile_shape=(5, 4), seed=3
        )
        op.advance_time(500.0)
        assert op.staleness_seconds == 500.0
        op.calibrate(n_probes=4, seed=7)
        assert op.staleness_seconds == 0.0
        assert op.age_seconds == 500.0  # calibration does not reset drift
        op.advance_time(100.0)
        op.reprogram()
        assert op.staleness_seconds == 0.0
        assert op.age_seconds == 0.0  # reprogramming does
