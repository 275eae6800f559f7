"""Metrics and concentration-bound evaluators."""

import math

import numpy as np
import pytest

from jointrec import (BERNSTEIN_SCALE_COEFF, BERNSTEIN_VARIANCE_COEFF,
                      RECOVERY_EXPONENT_COEFF, BoundInputs, DictionaryConfig,
                      ExperimentConfig, ResultTable, TrialRecord,
                      concentration_tail_bound, empirical_tail_frequency,
                      min_measurements_for_recovery, mse, read_trials_csv,
                      recovery_rate, recovery_rate_bound, run_experiment)


class TestRecoveryRate:
    def test_perfect(self):
        true = [np.array([1, 2, 3]), np.array([4, 5, 6])]
        assert recovery_rate(true, true) == 1.0

    def test_partial_overlap(self):
        true = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        est = [np.array([0, 1, 9]), np.array([7, 8, 9])]
        assert recovery_rate(true, est) == pytest.approx(2.0 / 6.0)

    def test_order_within_support_irrelevant(self):
        true = [np.array([5, 1, 3])]
        est = [np.array([3, 5, 1])]
        assert recovery_rate(true, est) == 1.0

    def test_invariant_under_view_relabeling(self):
        true = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
        est = [np.array([0, 9]), np.array([2, 3]), np.array([8, 9])]
        base = recovery_rate(true, est)
        perm = [2, 0, 1]
        assert recovery_rate([true[i] for i in perm],
                             [est[i] for i in perm]) == pytest.approx(base)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            recovery_rate([np.array([1, 2])], [np.array([1])])
        with pytest.raises(ValueError):
            recovery_rate([np.array([1])],
                          [np.array([1]), np.array([2])])


class TestMse:
    def test_zero_for_exact(self):
        y = [np.arange(4.0)]
        assert mse(y, [y[0].copy()]) == 0.0

    def test_per_sample_then_view_average(self):
        signals = [np.zeros(4), np.zeros(4)]
        recons = [np.full(4, 2.0), np.zeros(4)]
        # first view: mean squared error 4.0, second: 0 -> average 2.0
        assert mse(signals, recons) == pytest.approx(2.0)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            mse([np.zeros(4)], [np.zeros(5)])


class TestTransformErrorRate:
    """The transform error rate comes from ``ResultTable.aggregate``."""

    @staticmethod
    def table(flags):
        records = [TrialRecord(sweep=16, algorithm="jt", trial=i, seed=i,
                               recovery_rate=1.0, mse=0.0,
                               transform_correct=flag, rank_deficient=False,
                               wall_time=None)
                   for i, flag in enumerate(flags)]
        return ResultTable(kind="transform-error-vs-M", config_hash="",
                           master_seed=0, records=records)

    def test_counts_wrong_and_missing(self):
        # wrong estimates count as errors; trials without a defined flag
        # stay out of the denominator
        (row,) = self.table([True, False, None]).aggregate()
        assert row["n_trials"] == 3
        assert row["transform_error"] == 0.5
        assert row["transform_error_se"] == pytest.approx(
            math.sqrt(0.25 / 2))
        (row,) = self.table([None, None]).aggregate()
        assert row["transform_error"] is None
        assert row["transform_error_se"] is None

    def test_all_correct(self):
        (row,) = self.table([True]).aggregate()
        assert row["transform_error"] == 0.0
        assert row["transform_error_se"] == 0.0


class TestConstants:
    def test_match_high_precision_evaluation(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        variance = 8 * mpmath.e / mpmath.sqrt(6 * mpmath.pi)
        scale = 2 * mpmath.sqrt(2) * mpmath.e
        exponent = 1 / (4 * variance + 2 * scale)
        assert abs(BERNSTEIN_VARIANCE_COEFF - float(variance)) < 1e-12
        assert abs(BERNSTEIN_SCALE_COEFF - float(scale)) < 1e-12
        assert abs(RECOVERY_EXPONENT_COEFF - float(exponent)) < 1e-12

    def test_rough_magnitudes(self):
        assert BERNSTEIN_VARIANCE_COEFF == pytest.approx(5.009, abs=1e-3)
        assert BERNSTEIN_SCALE_COEFF == pytest.approx(7.688, abs=1e-3)
        assert RECOVERY_EXPONENT_COEFF == pytest.approx(0.02824, abs=1e-5)


def bound_inputs(**overrides):
    base = dict(sparsity=5, n_views=4, n_atoms=6144, n_candidates=729,
                n_measurements=100, margin=0.05, min_energy=1.0,
                max_energy=2.0)
    base.update(overrides)
    return BoundInputs(**base)


class TestRecoveryRateBound:
    def test_never_exceeds_one(self):
        for m in (1, 10, 100, 10_000):
            assert recovery_rate_bound(bound_inputs(n_measurements=m),
                                       alpha=0.5).value <= 1.0

    def test_vacuous_flag(self):
        weak = recovery_rate_bound(bound_inputs(n_measurements=1),
                                   alpha=0.1)
        assert weak.value < 0.0 and weak.vacuous
        strong = recovery_rate_bound(
            bound_inputs(n_measurements=2_000_000), alpha=1.0)
        assert strong.value > 0.0 and not strong.vacuous

    def test_strictly_increasing_in_measurements(self):
        values = [recovery_rate_bound(bound_inputs(n_measurements=m),
                                      alpha=0.5).value
                  for m in np.linspace(10, 4000, 20, dtype=int)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_increasing_in_margin_and_energy_ratio(self):
        by_margin = [recovery_rate_bound(bound_inputs(margin=eta),
                                         alpha=0.5).value
                     for eta in (0.01, 0.02, 0.05, 0.1)]
        assert all(b > a for a, b in zip(by_margin, by_margin[1:]))
        by_ratio = [recovery_rate_bound(bound_inputs(min_energy=e),
                                        alpha=0.5).value
                    for e in (0.5, 1.0, 1.5, 2.0)]
        assert all(b > a for a, b in zip(by_ratio, by_ratio[1:]))

    def test_increasing_in_views_when_exponent_dominates(self):
        # large exponent regime: adding views helps despite the union term
        values = [recovery_rate_bound(
                      bound_inputs(n_views=j, n_measurements=50_000),
                      alpha=1.0).value
                  for j in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            recovery_rate_bound(bound_inputs(), alpha=0.0)
        with pytest.raises(ValueError):
            recovery_rate_bound(bound_inputs(margin=-0.1), alpha=0.5)
        with pytest.raises(ValueError):
            recovery_rate_bound(bound_inputs(min_energy=0.0), alpha=0.5)


    @pytest.mark.parametrize("field, value", [
        ("margin", math.nan), ("margin", math.inf), ("min_energy", math.nan),
        ("max_energy", -math.inf), ("n_candidates", -729),
        ("n_measurements", 0), ("sparsity", 2.5), ("n_views", True),
        ("n_atoms", "6144")])
    def test_inputs_rejected_by_field(self, field, value):
        # a NaN margin used to give BoundValue(nan, vacuous=False), and
        # n_candidates=-729 a "probability" of 3.4e8
        with pytest.raises(ValueError, match=f"^{field} must be"):
            bound_inputs(**{field: value})

    def test_numpy_counts_accepted(self):
        inputs = bound_inputs(n_measurements=np.int64(100))
        assert recovery_rate_bound(inputs, alpha=0.5) == recovery_rate_bound(
            bound_inputs(), alpha=0.5)


class TestMinMeasurements:
    def test_subexponential_growth_needs_one(self):
        assert min_measurements_for_recovery(0.0, 0.05, 0.5, 1.0, 2.0) == 1.0

    def test_linear_in_growth_rate(self):
        one = min_measurements_for_recovery(1.0, 0.05, 0.5, 1.0, 2.0)
        two = min_measurements_for_recovery(2.0, 0.05, 0.5, 1.0, 2.0)
        assert two == pytest.approx(2.0 * one)

    def test_closed_form(self):
        got = min_measurements_for_recovery(1.5, 0.1, 0.5, 1.0, 3.0)
        want = 1.5 / (RECOVERY_EXPONENT_COEFF * 0.1 ** 2 * 0.5 ** 2) * 9.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_requires_positive_margin(self):
        with pytest.raises(ValueError):
            min_measurements_for_recovery(1.0, 0.0, 0.5, 1.0, 2.0)

    @pytest.mark.parametrize("field, args", [
        ("beta", (math.nan, 0.05, 0.5, 1.0, 2.0)),
        ("beta", (math.inf, 0.05, 0.5, 1.0, 2.0)),
        ("margin", (1.0, math.inf, 0.5, 1.0, 2.0)),
        ("margin", (0.0, math.nan, 0.5, 1.0, 2.0)),
        ("min_energy", (1.0, 0.05, 0.5, math.nan, 2.0)),
        ("max_energy", (1.0, 0.05, 0.5, 1.0, math.inf))])
    def test_non_finite_inputs_rejected_by_field(self, field, args):
        # a NaN beta used to give nan and an infinite margin 0.0
        with pytest.raises(ValueError, match=f"^{field} must be a finite"):
            min_measurements_for_recovery(*args)


class TestConcentrationTailBound:
    def test_closed_form(self):
        tau, j, m, bu, bv = 0.5, 4, 25, 1.0, 2.0
        denom = (BERNSTEIN_VARIANCE_COEFF * (bu * bv) ** 2
                 + BERNSTEIN_SCALE_COEFF * tau * bu * bv)
        want = 2.0 * math.exp(-j * m * tau * tau / denom)
        assert concentration_tail_bound(tau, j, m, bu, bv) == (
            pytest.approx(want, rel=1e-12))

    def test_decreasing_in_tau_views_measurements(self):
        taus = [concentration_tail_bound(t, 2, 10, 1.0, 1.0)
                for t in (0.25, 0.5, 1.0)]
        assert taus[0] > taus[1] > taus[2]
        views = [concentration_tail_bound(0.5, j, 10, 1.0, 1.0)
                 for j in (1, 2, 8)]
        assert views[0] > views[1] > views[2]
        ms = [concentration_tail_bound(0.5, 2, m, 1.0, 1.0)
              for m in (10, 50, 200)]
        assert ms[0] > ms[1] > ms[2]

    def test_can_exceed_one(self):
        assert concentration_tail_bound(0.01, 1, 1, 1.0, 1.0) > 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            concentration_tail_bound(0.0, 2, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            concentration_tail_bound(0.5, 0, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            concentration_tail_bound(0.5, 2, 10, 0.0, 1.0)


class TestEmpiricalTail:
    def test_frequency_below_bound_small_run(self):
        rng = np.random.default_rng(0)
        us = [rng.standard_normal(30) for _ in range(2)]
        vs = [rng.standard_normal(30) for _ in range(2)]
        us = [u / np.linalg.norm(u) for u in us]
        vs = [v / np.linalg.norm(v) for v in vs]
        freq, bound = empirical_tail_frequency(us, vs, 20, 0.5, 500, seed=1)
        se = math.sqrt(max(freq * (1 - freq), 1.0 / 500) / 500)
        assert freq <= min(bound, 1.0) + 3 * se

    def test_zero_tau_never_allowed(self):
        with pytest.raises(ValueError):
            empirical_tail_frequency([np.ones(4)], [np.ones(4)], 5, 0.0, 10)

    def test_deterministic_given_seed(self):
        u = [np.ones(10) / math.sqrt(10)]
        a = empirical_tail_frequency(u, u, 8, 0.3, 200, seed=7)
        b = empirical_tail_frequency(u, u, 8, 0.3, 200, seed=7)
        assert a == b


class TestReportTrial:
    """Per-trial metrics are the fields of the records ``run_experiment``
    returns and writes to trials.csv."""

    def test_report_fields(self, tmp_path):
        config = ExperimentConfig(
            kind="transform-error-vs-M",
            dictionary=DictionaryConfig(variant="gaussian_2d", width=8,
                                        height=8, n_theta=3, sx_values=[2.0],
                                        sy_values=[1.0]),
            sparsity=2, views=2, measurements=[64],
            candidate_offsets=[[-2, 0], [0, 0], [2, 0]], trials=2,
            master_seed=123, output_dir="unused", identity_sensing=True)
        table = run_experiment(config)
        # one record per (trial, algorithm), each with its trial's seed
        assert [(r.trial, r.algorithm) for r in table.records] == [
            (0, "jt"), (0, "gjt"), (1, "jt"), (1, "gjt")]
        seeds = np.random.SeedSequence(123).generate_state(2, dtype=np.uint64)
        for rec in table.records:
            assert rec.recovery_rate == 1.0
            assert rec.transform_correct is True
            assert rec.mse == pytest.approx(0.0, abs=1e-20)
            assert rec.seed == int(seeds[rec.trial])
            assert rec.rank_deficient is False
        for row in table.aggregate():
            assert row["n_trials"] == 2
            assert row["recovery_mean"] == 1.0
            assert row["transform_error"] == 0.0
        paths = table.write(tmp_path)
        reread = read_trials_csv(paths["trials"])
        assert [(r.seed, r.recovery_rate, r.transform_correct)
                for r in reread.records] == [
            (r.seed, r.recovery_rate, r.transform_correct)
            for r in table.records]
