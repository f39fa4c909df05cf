"""A single physical crossbar array of PCM devices.

The array stores a non-negative conductance matrix ``G`` (rows x cols).
Applying voltages to the rows and sensing the columns computes
``I = G^T v`` (Kirchhoff current summation down each column); applying
voltages to the columns and sensing the rows computes ``I = G v``.  The
paper's AMP mapping (Fig. 6) uses both directions on the *same* array to
obtain ``A x_t`` and ``A* z_t``.

Device non-idealities (programming error, read noise, drift) come from
the :class:`~repro.devices.PcmDevice` model; array-level effects (IR
drop, stuck devices) live in :mod:`repro.crossbar.nonidealities`.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_elapsed
from repro.crossbar.nonidealities import ir_drop_factors
from repro.devices import PcmDevice
from repro.crossbar.programming import ProgrammingReport, program_and_verify

__all__ = ["CrossbarArray"]


class CrossbarArray:
    """One crossbar tile of PCM devices holding non-negative conductances.

    Parameters
    ----------
    target_conductance:
        Desired conductance matrix in siemens, shape ``(rows, cols)``.
        Values are clipped to the device window during programming.
    device:
        PCM device model; defaults to the library's standard device.
    programming_iterations:
        Rounds of program-and-verify used to write the array.
    wire_resistance:
        Per-segment interconnect resistance in ohms for the first-order
        IR-drop model (0 disables IR drop).
    seed:
        RNG seed or generator for all stochastic behaviour of this array.
    """

    def __init__(
        self,
        target_conductance: np.ndarray,
        device: PcmDevice | None = None,
        programming_iterations: int = 5,
        wire_resistance: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        target_conductance = np.asarray(target_conductance, dtype=float)
        if target_conductance.ndim != 2:
            raise ValueError("target_conductance must be a 2-D matrix")
        if np.any(target_conductance < 0):
            raise ValueError("conductances must be non-negative")
        if wire_resistance < 0:
            raise ValueError("wire_resistance must be non-negative")
        self.device = device if device is not None else PcmDevice()
        self._rng = as_rng(seed)
        self.wire_resistance = wire_resistance
        self._g_target = target_conductance
        self._programming_iterations = programming_iterations
        self.programming_report: ProgrammingReport = program_and_verify(
            self.device,
            target_conductance,
            iterations=programming_iterations,
            seed=self._rng,
        )
        self._g_programmed = self.programming_report.conductance
        # Yield/endurance faults are device-permanent: the mask and the
        # stuck conductances persist across reprogramming sessions (a
        # rewrite cannot heal a failed device) and compose across
        # repeated injections — idempotent on already-stuck cells, union
        # on new ones.
        self._stuck_mask = np.zeros(self._g_programmed.shape, dtype=bool)
        self._stuck_values = np.zeros(self._g_programmed.shape)
        self.age_seconds = 0.0
        # Amorphous fraction of _g_programmed (PcmDevice.amorphous_fraction),
        # built on the first drifted evaluation and kept until the
        # programmed state changes: a drift recompute is then one exp
        # per device (see _drifted).
        self._fraction: np.ndarray | None = None
        # Batched reads recompute nothing per call: the mean and noise
        # power matrices are cached until the device state changes (see
        # _read_entry).  A differential entry lives in the G+ array's
        # cache; the G- array remembers its readers in _pair_readers so
        # its own state changes drop that entry too.  Dropped entries
        # wait in _spare_entries and are rebuilt into their own buffers.
        self._read_cache: dict[tuple, tuple] = {}
        self._spare_entries: dict[tuple, tuple] = {}
        self._pair_readers: set[CrossbarArray] = set()
        self.n_row_reads = 0
        self.n_col_reads = 0
        # Maintenance counters: reprogramming sessions after deployment.
        # The initial programming above is a capital (deployment) cost
        # and stays out of the serving-energy ledger; its pulse count is
        # still available as ``programming_report.n_pulses``.
        self.n_reprograms = 0
        self.n_program_pulses = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._g_programmed.shape

    @property
    def rows(self) -> int:
        return self._g_programmed.shape[0]

    @property
    def cols(self) -> int:
        return self._g_programmed.shape[1]

    @property
    def g_effective(self) -> np.ndarray:
        """Conductances a read sees right now: the programmed state
        decayed by the device drift law for ``age_seconds``."""
        return self._drifted()

    def _drifted(self, out: np.ndarray | None = None) -> np.ndarray:
        """``PcmDevice.drifted`` of the programmed state at ``age_seconds``,
        fed the cached amorphous fraction (built here on the first call
        that drifts) and written into ``out`` when given.  Bitwise equal
        to the uncached ``device.drifted(g, age)``."""
        fraction = None
        if self.age_seconds > 0.0 and self.device.drift_nu > 0.0:
            if self._fraction is None:
                self._fraction = self.device.amorphous_fraction(self._g_programmed)
            fraction = self._fraction
        return self.device.drifted(
            self._g_programmed, self.age_seconds, fraction=fraction, out=out
        )

    @property
    def conductance(self) -> np.ndarray:
        """Current conductance matrix including accumulated drift
        (alias of :attr:`g_effective`, kept for the original API)."""
        return self.g_effective

    def _invalidate_read_cache(self) -> None:
        """Drop cached read matrices after any device-state change,
        including differential entries other arrays built from this
        one's state."""
        if not self._read_cache and not self._pair_readers:
            return  # nothing cached since the last change
        for array in (self, *self._pair_readers):
            array._spare_entries.update(array._read_cache)
            array._read_cache.clear()
        self._pair_readers.clear()

    @property
    def g_target(self) -> np.ndarray:
        """The target conductances this array was programmed toward."""
        return self._g_target

    @property
    def stuck_mask(self) -> np.ndarray:
        """Boolean mask of devices stuck by injected yield faults."""
        return self._stuck_mask.copy()

    @property
    def stuck_fraction(self) -> float:
        """Fraction of this array's devices stuck at a fault value."""
        return float(self._stuck_mask.mean()) if self._stuck_mask.size else 0.0

    def advance_time(self, seconds: float) -> None:
        """Accumulate drift time (Sec. III: PCM conductances relax).

        ``seconds`` must be finite and non-negative — a negative or NaN
        elapsed time would silently corrupt the drift clock (NaN
        compares false against every maintenance threshold).
        """
        seconds = check_elapsed("seconds", seconds)
        self.age_seconds += seconds
        if seconds > 0:
            self._invalidate_read_cache()

    def reprogram(self, iterations: int | None = None) -> ProgrammingReport:
        """Rewrite the array to its original target conductances.

        Runs a fresh program-and-verify session from the stored target
        (consuming this array's RNG stream, as the initial programming
        did), resets the drift clock to zero, and counts the applied
        pulses into the maintenance ledger — the drift-compensation
        escalation when scalar gain calibration is no longer enough.
        Stuck-fault state injected via :meth:`inject_stuck_faults`
        *survives* the rewrite: failed devices cannot be reprogrammed,
        so their stuck conductances are re-asserted after the session —
        yield and drift compose into one lifetime story instead of a
        rewrite silently healing the fault ablation.
        Returns the new programming report.
        """
        if iterations is None:
            iterations = self._programming_iterations
        self.programming_report = program_and_verify(
            self.device,
            self._g_target,
            iterations=iterations,
            seed=self._rng,
        )
        self._g_programmed = self.programming_report.conductance
        if self._stuck_mask.any():
            # copy before re-asserting faults so the programming report
            # keeps the conductances its error metrics were computed on
            self._g_programmed = self._g_programmed.copy()
            self._g_programmed[self._stuck_mask] = self._stuck_values[
                self._stuck_mask
            ]
        self.age_seconds = 0.0
        self._fraction = None
        self._invalidate_read_cache()
        self.n_reprograms += 1
        self.n_program_pulses += self.programming_report.n_pulses
        return self.programming_report

    def inject_stuck_faults(
        self,
        fraction: float,
        mode: str = "both",
        seed: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Force a random device fraction to a stuck state; returns the mask.

        Used by the fault-tolerance ablation: yield/endurance failures
        leave devices stuck at RESET (``g_min``) or SET (``g_max``).

        Repeated injections *compose deterministically*: a device that
        is already stuck keeps its original stuck conductance even when
        the new draw selects it again (idempotent on the same cells),
        while newly selected devices join the persistent fault mask
        (union on new cells).  The returned mask covers this call's
        draw only; :attr:`stuck_mask` holds the accumulated union that
        :meth:`reprogram` re-asserts after every rewrite.
        """
        from repro.crossbar.nonidealities import apply_stuck_faults

        faulty, mask = apply_stuck_faults(
            self._g_programmed,
            fraction,
            self.device.g_min,
            self.device.g_max,
            mode=mode,
            seed=seed if seed is not None else self._rng,
        )
        # Idempotence: cells already stuck keep their recorded value —
        # only the newly faulted cells take this draw's stuck state.
        fresh = mask & ~self._stuck_mask
        self._stuck_values[fresh] = faulty[fresh]
        self._stuck_mask |= mask
        self._g_programmed = np.where(
            self._stuck_mask, self._stuck_values, self._g_programmed
        )
        self._fraction = None
        self._invalidate_read_cache()
        return mask

    def _instantaneous_conductance(self) -> np.ndarray:
        return self.device.read(self.conductance, seed=self._rng)

    def _conductance_now(
        self, axis: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Mean conductance a batched read along ``axis`` sees: the
        drifted state with IR-drop factors applied, written into ``out``
        when given, else into a fresh array callers may overwrite."""
        g_now = self._drifted(out)
        if self.wire_resistance > 0.0:
            g_now *= ir_drop_factors(g_now, self.wire_resistance, axis=axis)
        return g_now

    def _read_entry(
        self, axis: int, minus: CrossbarArray | None, dtype: np.dtype
    ) -> tuple:
        """Cached ``(mean, power)`` matrices for batched reads along ``axis``.

        For a single array ``mean`` is the conductance ``G`` a read sees
        (:meth:`_conductance_now`) and ``power`` is ``G**2``; for a
        differential read against ``minus`` they are ``G+ - G-`` and
        ``G+**2 + G-**2``.  ``power`` is only built for noisy devices
        (``None`` otherwise).  Without IR drop the matrices are
        axis-independent, so both directions share one entry.  Entries
        live until either array's :meth:`_invalidate_read_cache` (drift,
        reprogramming, fault injection), which moves them to
        ``_spare_entries``; the rebuild writes into a spare entry's
        arrays instead of allocating.  Cached and uncached reads are
        bitwise identical.

        The entry is held in ``dtype``, the dtype of the voltage block
        reading it; an entry of another dtype is rebuilt, never served.
        A float32 entry is the float64 entry rounded once: the drift and
        IR-drop math runs in float64 scratch and each matrix is cast on
        its last operation into the entry's own buffer.
        """
        shared = self.wire_resistance == 0.0 and (
            minus is None or minus.wire_resistance == 0.0
        )
        key = (-1 if shared else axis, minus)
        entry = self._read_cache.get(key)
        if entry is not None and entry[0].dtype == dtype:
            return entry
        noisy = self.device.read_noise_sigma != 0.0
        mean_out, power_out = self._spare_entries.pop(key, (None, None))
        if mean_out is not None and mean_out.dtype != dtype:
            mean_out = power_out = None
        narrow = dtype != np.float64
        if narrow and mean_out is None:
            mean_out = np.empty(self.shape, dtype)
            power_out = np.empty(self.shape, dtype) if noisy else None
        if minus is None:
            g_now = self._conductance_now(axis, out=None if narrow else mean_out)
            power = np.multiply(g_now, g_now, out=power_out) if noisy else None
            if narrow:
                np.copyto(mean_out, g_now)
                g_now = mean_out
            entry = (g_now, power)
        else:
            # Wide: G+ lands in the power buffer when there is one
            # (squared in place below), else straight in the mean
            # buffer.  Narrow: G+ is float64 scratch.  G- is scratch.
            g_now = self._conductance_now(
                axis, out=None if narrow else power_out if noisy else mean_out
            )
            g_minus = minus._conductance_now(axis)
            mean = np.subtract(
                g_now, g_minus, out=mean_out if noisy or narrow else g_now
            )
            power = None
            if noisy:
                np.square(g_now, out=g_now)
                power = np.add(
                    g_now,
                    np.square(g_minus, out=g_minus),
                    out=power_out if narrow else g_now,
                )
            entry = (mean, power)
            minus._pair_readers.add(self)
        self._read_cache[key] = entry
        return entry

    def _batched_currents(
        self, voltages: np.ndarray, axis: int, minus: CrossbarArray | None
    ) -> np.ndarray:
        """Currents for a 2-D voltage block (one read event per column).

        Each block column is a separate temporal read, so each sees its
        own i.i.d. device fluctuations.  Instead of drawing a fresh
        conductance matrix per column, the noise is applied
        output-referred: for Gaussian relative read noise the current
        ``I = sum_k V_k G_k (1 + eps_k)`` is exactly
        ``N(sum_k V_k G_k, sigma^2 * sum_k (V_k G_k)^2)``, so sampling
        the sum directly is distribution-equivalent while drawing one
        normal per output line instead of one per device.

        A differential read (``minus`` given) senses ``I+ - I-`` as one
        current per line, as the pair's subtraction circuit does.  The
        two arrays' fluctuations are independent, so the difference is
        again Gaussian: ``N((G+ - G-)^T V, sigma^2 (G+**2 + G-**2)^T V**2)``
        — exactly the distribution of reading both arrays and
        subtracting, from one mean GEMM, one power GEMM and one normal
        draw instead of two of each.  A single-array read is the same
        code with ``(G, G**2)``.

        A float32 block (from an operator whose DAC and ADC both
        quantize) runs both GEMMs on a float32 entry; the normal draw
        and the returned currents stay float64.

        Two first-order approximations against the per-vector path: the
        clip of negative conductances is ignored (~1/sigma standard
        deviations away — negligible at realistic noise levels), and
        with ``wire_resistance > 0`` the IR-drop factors are computed
        on the mean (noise-free) conductance rather than each read's
        noisy realization, so noise does not perturb the drop factors.
        """
        mean, power = self._read_entry(axis, minus, voltages.dtype)
        currents = mean.T @ voltages if axis == 0 else mean @ voltages
        sigma = self.device.read_noise_sigma
        if sigma == 0.0:
            return currents.astype(float, copy=False)
        v_sq = voltages * voltages
        std = power.T @ v_sq if axis == 0 else power @ v_sq
        np.sqrt(std, out=std)
        std *= sigma
        # The float64 draw becomes the output: a float32 read's GEMM
        # results are upcast inside these two in-place operations.
        noise = self._rng.standard_normal(std.shape)
        noise *= std
        noise += currents
        return noise

    def _vector_currents(self, voltages: np.ndarray, axis: int) -> np.ndarray:
        """One per-vector read with a fresh per-device noise draw."""
        g_now = self._instantaneous_conductance()
        if self.wire_resistance > 0.0:
            g_now = g_now * ir_drop_factors(g_now, self.wire_resistance, axis=axis)
        return voltages @ g_now if axis == 0 else g_now @ voltages

    def _read(
        self, voltages: np.ndarray, axis: int, minus: CrossbarArray | None
    ) -> np.ndarray:
        """Shared body of :meth:`mvm` (``axis=0``) and :meth:`mvm_t`.

        A 2-D float32 block is read in float32 (see
        :meth:`_batched_currents`); any other input is read in float64.
        """
        voltages = np.asarray(voltages)
        if voltages.ndim != 2 or voltages.dtype != np.float32:
            voltages = np.asarray(voltages, dtype=float)
        lines = self.shape[axis]
        if minus is not None:
            if minus.shape != self.shape:
                raise ValueError(
                    f"minus array has shape {minus.shape}, expected {self.shape}"
                )
            if minus.device.read_noise_sigma != self.device.read_noise_sigma:
                raise ValueError("a differential pair must share its read-noise sigma")
        if voltages.ndim == 2:
            if voltages.shape[0] != lines:
                raise ValueError(
                    f"voltage block must have {lines} rows, got {voltages.shape}"
                )
        elif voltages.shape != (lines,):
            name = "row_voltages" if axis == 0 else "col_voltages"
            raise ValueError(
                f"{name} must have shape ({lines},), got {voltages.shape}"
            )
        reads = voltages.shape[1] if voltages.ndim == 2 else 1
        for array in (self,) if minus is None else (self, minus):
            if axis == 0:
                array.n_col_reads += reads
            else:
                array.n_row_reads += reads
        if voltages.ndim == 2:
            return self._batched_currents(voltages, axis, minus)
        # The per-vector (per-device Monte Carlo) path draws G+ then G-.
        currents = self._vector_currents(voltages, axis)
        if minus is not None:
            currents = currents - minus._vector_currents(voltages, axis)
        return currents

    def mvm(
        self, row_voltages: np.ndarray, minus: CrossbarArray | None = None
    ) -> np.ndarray:
        """Drive rows with ``row_voltages``; return column currents.

        Computes ``I_j = sum_i G_ij * V_i`` with read noise and optional
        IR drop applied.  ``row_voltages`` may also be a 2-D block of
        shape ``(rows, B)`` — one input vector per column, exploiting
        the crossbar's inherent parallelism — in which case the result
        has shape ``(cols, B)`` and ``B`` read events are counted.

        With ``minus``, the same voltages also drive that array (the G-
        half of a differential pair) and the result is the differential
        current ``I(self) - I(minus)``; both arrays count the reads.  A
        batched differential read is one fused read (see
        :meth:`_batched_currents`); a 1-D read reads both arrays.
        """
        return self._read(row_voltages, 0, minus)

    def mvm_t(
        self, col_voltages: np.ndarray, minus: CrossbarArray | None = None
    ) -> np.ndarray:
        """Drive columns with ``col_voltages``; return row currents.

        Computes ``I_i = sum_j G_ij * V_j`` — the transpose read used by
        AMP for ``A* z_t`` (Fig. 6).  A 2-D block of shape ``(cols, B)``
        batches ``B`` transpose reads and returns ``(rows, B)``.
        ``minus`` reads a differential pair as in :meth:`mvm`.
        """
        return self._read(col_voltages, 1, minus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrossbarArray(shape={self.shape}, age={self.age_seconds:g}s)"
