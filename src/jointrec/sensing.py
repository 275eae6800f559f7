"""Gaussian sensing matrices and per-view measurement containers.

Each view j observes s_j = A_j y_j where A_j is an M x N matrix with
i.i.d. N(0, 1/M) entries, drawn independently across views.  Seeding uses
numpy's SeedSequence machinery so a single master seed yields independent
yet reproducible per-view streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class SensingMatrix:
    """One view's measurement operator: an M x N matrix, stored read-only."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("sensing matrix must be a nonempty 2D array")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n_measurements(self) -> int:
        return self.entries.shape[0]

    @property
    def signal_length(self) -> int:
        return self.entries.shape[1]


def sample_sensing_matrix(n_measurements: int, signal_length: int,
                          seed=None) -> SensingMatrix:
    """Draw an M x N matrix with i.i.d. N(0, 1/M) entries.

    ``seed`` may be an int, a SeedSequence, a Generator, or None; the draw
    is deterministic for any fixed seed.
    """
    if n_measurements < 1 or signal_length < 1:
        raise ValueError("matrix dimensions must be positive")
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n_measurements, signal_length))
    entries /= np.sqrt(n_measurements)
    return SensingMatrix(entries)


def identity_sensing(signal_length: int) -> SensingMatrix:
    """Identity operator (M = N); a test mode that makes measurements exact."""
    if signal_length < 1:
        raise ValueError("signal length must be positive")
    return SensingMatrix(np.eye(signal_length))


def measure(matrix: SensingMatrix, signal) -> np.ndarray:
    """Apply one view's sensing matrix to a signal."""
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1 or signal.size != matrix.signal_length:
        raise ValueError(
            f"signal length {signal.size} does not match matrix columns "
            f"{matrix.signal_length}")
    return matrix.entries @ signal


@dataclass(eq=False)
class MeasurementSet:
    """Per-view sensing matrices and the measurements they produced.

    Every measurement must be finite: a NaN or infinity would reach the
    decoders' correlations, where -inf is reserved for atoms outside a
    transform's domain.
    """

    matrices: tuple[SensingMatrix, ...]
    measurements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise ValueError("need at least one view")
        if len(self.matrices) != len(self.measurements):
            raise ValueError("one measurement vector per matrix required")
        n = self.matrices[0].signal_length
        for view, (mat, s) in enumerate(zip(self.matrices, self.measurements),
                                        start=1):
            if mat.signal_length != n:
                raise ValueError("all views must share the signal length")
            if np.asarray(s).shape != (mat.n_measurements,):
                raise ValueError("measurement length must match matrix rows")
            if not np.isfinite(s).all():
                raise ValueError(f"view {view} has non-finite measurements")

    @property
    def n_views(self) -> int:
        return len(self.matrices)

    @property
    def signal_length(self) -> int:
        return self.matrices[0].signal_length


def measure_ensemble(matrices, signals) -> MeasurementSet:
    """Measure each view's signal with its own matrix."""
    matrices = tuple(matrices)
    signals = tuple(np.asarray(y, dtype=float) for y in signals)
    if len(matrices) != len(signals):
        raise ValueError("need exactly one sensing matrix per signal")
    measurements = tuple(measure(mat, y) for mat, y in zip(matrices, signals))
    return MeasurementSet(matrices, measurements)
