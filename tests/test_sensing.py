"""Gaussian sensing matrices and measurement plumbing."""

import tracemalloc

import numpy as np
import pytest

from jointrec import (MeasurementSet, SensingMatrix, identity_sensing,
                      measure, measure_ensemble, sample_sensing_matrix)


class TestSampling:
    def test_shape_and_dtype(self):
        a = sample_sensing_matrix(20, 64, seed=0)
        assert a.entries.shape == (20, 64)
        assert a.entries.dtype == np.float64
        assert a.n_measurements == 20
        assert a.signal_length == 64

    def test_deterministic_given_seed(self):
        a = sample_sensing_matrix(15, 40, seed=123)
        b = sample_sensing_matrix(15, 40, seed=123)
        assert np.array_equal(a.entries, b.entries)

    def test_distinct_seeds_differ(self):
        a = sample_sensing_matrix(15, 40, seed=1)
        b = sample_sensing_matrix(15, 40, seed=2)
        assert not np.array_equal(a.entries, b.entries)

    def test_entry_variance_is_one_over_m(self):
        # pooled estimate over many seeds: Var = 1/M, mean = 0
        m, n = 25, 50
        samples = np.concatenate([
            sample_sensing_matrix(m, n, seed=s).entries.ravel()
            for s in range(50)])
        assert samples.mean() == pytest.approx(0.0, abs=3 / np.sqrt(samples.size / m))
        assert samples.var() == pytest.approx(1.0 / m, rel=0.05)

    def test_preserves_energy_in_expectation(self):
        # E ||A u||^2 = ||u||^2 for unit u
        rng = np.random.default_rng(7)
        u = rng.standard_normal(60)
        u /= np.linalg.norm(u)
        energies = [np.sum(measure(sample_sensing_matrix(12, 60, seed=s), u) ** 2)
                    for s in range(1000)]
        assert np.mean(energies) == pytest.approx(1.0, abs=0.05)

    def test_entries_read_only(self):
        a = sample_sensing_matrix(5, 10, seed=0)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 1.0

    def test_draw_is_handed_over_not_copied(self):
        tracemalloc.start()
        try:
            a = sample_sensing_matrix(200, 1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of the draw would hold two 1.6 MB matrices at once
        assert peak < 1.5 * a.entries.nbytes
        assert a.entries.base is None
        assert a.entries.flags.owndata and not a.entries.flags.writeable

    def test_constructor_copies_caller_array(self):
        entries = np.ones((3, 4))
        a = SensingMatrix(entries)
        assert not np.shares_memory(a.entries, entries)
        entries[0, 0] = 2.0
        assert a.entries[0, 0] == 1.0 and entries.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            sample_sensing_matrix(0, 10)
        with pytest.raises(ValueError):
            sample_sensing_matrix(5, 0)


class TestIdentitySensing:
    def test_is_exact_identity(self):
        a = identity_sensing(8)
        assert np.array_equal(a.entries, np.eye(8))
        y = np.arange(8.0)
        assert np.array_equal(measure(a, y), y)


class TestMeasurementSet:
    def test_measure_ensemble(self):
        mats = [sample_sensing_matrix(6, 12, seed=s) for s in (0, 1, 2)]
        rng = np.random.default_rng(3)
        signals = [rng.standard_normal(12) for _ in range(3)]
        ms = measure_ensemble(mats, signals)
        assert isinstance(ms, MeasurementSet)
        assert ms.n_views == 3
        assert ms.signal_length == 12
        for mat, y, s in zip(ms.matrices, signals, ms.measurements):
            assert np.allclose(s, mat.entries @ y)

    def test_rejects_mismatched_lengths(self):
        mats = [sample_sensing_matrix(6, 12, seed=0)]
        with pytest.raises(ValueError):
            measure_ensemble(mats, [np.zeros(10)])

    def test_rejects_view_count_mismatch(self):
        mats = [sample_sensing_matrix(6, 12, seed=0)]
        with pytest.raises(ValueError):
            MeasurementSet(tuple(mats), (np.zeros(6), np.zeros(6)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_measurements(self, bad):
        mats = [sample_sensing_matrix(6, 12, seed=s) for s in (0, 1)]
        y = np.ones(12)
        broken = y.copy()
        broken[3] = bad
        with pytest.raises(ValueError,
                           match="^view 2 has non-finite measurements$"):
            measure_ensemble(mats, [y, broken])
        with pytest.raises(ValueError, match="^view 1 "):
            MeasurementSet(tuple(mats[:1]), (np.full(6, bad),))
