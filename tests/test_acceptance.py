"""Acceptance suite: one test per shipping criterion, stated tolerances.

Each test prints a single ``criterion N (...): PASS/FAIL`` line (visible
with ``pytest -v -s`` or in failure output).  The full-scale view sweep
carries the ``slow`` marker and is deselected by default; run it with
``pytest -m slow``.  The full-scale measurement sweep runs by default.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from conftest import enumerate_vectors, noiseless_score

from jointrec import (BERNSTEIN_SCALE_COEFF, BERNSTEIN_VARIANCE_COEFF,
                      RECOVERY_EXPONENT_COEFF, AtomTransform, BoundInputs,
                      CandidateSet, Dictionary, build_gabor_1d_dictionary,
                      build_gaussian_2d_dictionary, empirical_tail_frequency,
                      generate_ensemble, get_preset,
                      greedy_joint_threshold_decode, identity_transform,
                      independent_threshold_decode, joint_threshold_decode,
                      least_squares_reconstruct, measure_ensemble,
                      odd_translations, recovery_rate_bound, run_experiment,
                      sample_sensing_matrix)
from jointrec.dictionary import UNIT_NORM_TOL
from jointrec.transforms import TransformVector


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")
        return run
    return wrap


def random_unit_columns(n, k, rng):
    cols = rng.standard_normal((n, k))
    cols /= np.linalg.norm(cols, axis=0)
    return Dictionary(cols)


def random_permutation_candidates(dictionary, n_views, per_view_count, rng):
    """Identity plus random atom permutations as the candidate pool."""
    ident = identity_transform(dictionary)
    per_view = []
    for _ in range(max(n_views - 1, 0)):
        pool = [ident]
        for _ in range(per_view_count - 1):
            perm = rng.permutation(dictionary.n_atoms).astype(np.int64)
            pool.append(AtomTransform("perm", perm))
        per_view.append(tuple(pool))
    return CandidateSet(ident, tuple(per_view))


def random_measurements(dictionary, n_views, n_measurements, sparsity, rng):
    """Random per-view signals (independent supports) and measurements."""
    signals = []
    for _ in range(n_views):
        support = rng.choice(dictionary.n_atoms, size=sparsity, replace=False)
        coeffs = rng.uniform(0.5, 1.5, size=sparsity)
        signals.append(dictionary.atoms[:, support] @ coeffs)
    matrices = [sample_sensing_matrix(n_measurements,
                                      dictionary.signal_length, seed=int(s))
                for s in rng.integers(0, 2**31, size=n_views)]
    return measure_ensemble(matrices, signals)


@criterion(1, "dictionary cardinalities and unit norms")
def test_criterion_01_dictionary_cardinalities():
    started = time.perf_counter()
    image_dict = build_gaussian_2d_dictionary(
        32, 32, np.linspace(0.0, np.pi, 7), [2.0, 4.0], [0.5, 1.0],
        odd_translations(32, 32))
    trace_dict = build_gabor_1d_dictionary(1000)
    elapsed = time.perf_counter() - started
    assert image_dict.n_atoms == 6144
    assert trace_dict.n_atoms == 3000
    for d in (image_dict, trace_dict):
        norms = np.linalg.norm(d.atoms, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= UNIT_NORM_TOL
    assert elapsed < 10.0, f"construction took {elapsed:.1f}s"


@criterion(2, "joint decoder equals exhaustive argmax")
def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(20_001)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(16, 40))
        k = int(rng.integers(10, 51))
        sparsity = int(rng.integers(1, 5))
        n_views = int(rng.integers(1, 4))
        per_view = int(rng.integers(1, 4)) if n_views > 1 else 1
        d = random_unit_columns(n, k, rng)
        cands = random_permutation_candidates(d, n_views, per_view, rng)
        assert cands.size <= 27
        meas = random_measurements(d, n_views, int(rng.integers(5, 15)),
                                   sparsity, rng)

        # exhaustive argmax over every (support, transform vector) pair,
        # scores computed from the definition per view
        best_score, best_support, best_vector = -np.inf, None, None
        for vector in enumerate_vectors(cands):
            per_atom = np.zeros(k)
            valid = np.ones(k, dtype=bool)
            for t, mat, s in zip(vector, meas.matrices, meas.measurements):
                projected = s @ (mat.entries @ d.atoms)
                defined = t.mapping >= 0
                valid &= defined
                per_atom[defined] += projected[t.mapping[defined]]
            atoms = np.flatnonzero(valid)
            if atoms.size < sparsity:
                continue
            combos = np.array(list(itertools.combinations(atoms.tolist(),
                                                          sparsity)))
            sums = per_atom[combos].sum(axis=1)
            best_here = int(np.argmax(sums))
            if sums[best_here] > best_score:
                best_score = float(sums[best_here])
                best_support = combos[best_here]
                best_vector = vector

        result = joint_threshold_decode(meas, d, sparsity, cands)
        assert np.array_equal(result.reference_support, best_support)
        assert result.transforms == best_vector
        assert result.score == pytest.approx(best_score, rel=1e-9)
        checked += 1
    assert checked == 50


@criterion(3, "greedy decoder coincides with joint decoder for two views")
def test_criterion_03_greedy_equals_joint_two_views():
    rng = np.random.default_rng(30_001)
    for trial in range(100):
        n = int(rng.integers(16, 48))
        k = int(rng.integers(10, 40))
        sparsity = int(rng.integers(1, 5))
        d = random_unit_columns(n, k, rng)
        cands = random_permutation_candidates(d, 2, int(rng.integers(2, 6)),
                                              rng)
        meas = random_measurements(d, 2, int(rng.integers(5, 15)),
                                   sparsity, rng)
        jt = joint_threshold_decode(meas, d, sparsity, cands)
        gjt = greedy_joint_threshold_decode(meas, d, sparsity, cands)
        assert np.array_equal(jt.reference_support, gjt.reference_support)
        assert jt.transforms == gjt.transforms
        assert jt.score == gjt.score
        for a, b in zip(jt.coefficients, gjt.coefficients):
            assert np.array_equal(a, b)


@criterion(4, "least squares is exact on the true support")
def test_criterion_04_exact_reconstruction():
    rng = np.random.default_rng(40_001)
    for trial in range(100):
        n = int(rng.integers(30, 120))
        k = int(rng.integers(20, 80))
        sparsity = int(rng.integers(1, 9))
        n_measurements = int(rng.integers(sparsity, 3 * sparsity + 4))
        d = random_unit_columns(n, k, rng)
        support = np.sort(rng.choice(k, size=sparsity, replace=False))
        coeffs = rng.uniform(0.5, 1.5, size=sparsity) * rng.choice(
            [-1.0, 1.0], size=sparsity)
        signal = d.atoms[:, support] @ coeffs
        matrix = sample_sensing_matrix(n_measurements, n,
                                       seed=int(rng.integers(0, 2**31)))
        fit = least_squares_reconstruct(matrix, d, support,
                                        matrix.entries @ signal)
        rel_err = (np.linalg.norm(fit.reconstruction - signal)
                   / np.linalg.norm(signal))
        assert rel_err <= 1e-8, f"trial {trial}: rel err {rel_err:.2e}"


@criterion(5, "measured tail frequency never beats the analytic bound")
def test_criterion_05_tail_bound_sweep():
    started = time.perf_counter()
    length = 64
    rng = np.random.default_rng(50_001)
    trials = 2000
    for tau in (0.25, 0.5, 1.0):
        for n_measurements in (10, 50):
            for n_views in (2, 8):
                us = [rng.standard_normal(length) for _ in range(n_views)]
                vs = [rng.standard_normal(length) for _ in range(n_views)]
                us = [u / np.linalg.norm(u) for u in us]
                vs = [v / np.linalg.norm(v) for v in vs]
                freq, bound = empirical_tail_frequency(
                    us, vs, n_measurements, tau, trials,
                    seed=int(rng.integers(0, 2**31)))
                se = math.sqrt(freq * (1.0 - freq) / trials)
                assert freq <= bound + 3.0 * se, (
                    f"tau={tau} M={n_measurements} J={n_views}: "
                    f"freq {freq:.4f} > bound {bound:.4f} + 3se")
    assert time.perf_counter() - started < 300.0


@criterion(6, "measured score is an unbiased estimate of the noiseless score")
def test_criterion_06_score_unbiased():
    grid = build_gaussian_2d_dictionary(
        16, 16, np.linspace(0.0, np.pi, 7), [2.0, 4.0], [0.5, 1.0],
        odd_translations(16, 16))
    rng = np.random.default_rng(60_001)
    n_views, n_measurements, sparsity, n_draws = 3, 40, 3, 500
    ident = identity_transform(grid)
    transforms = TransformVector((ident,) * n_views)
    for instance in range(10):
        ens = generate_ensemble(grid, sparsity, transforms,
                                seed=int(rng.integers(0, 2**31)))
        target = noiseless_score(ens.signals, grid, ens.reference_support,
                                 transforms)
        support_atoms = grid.atoms[:, ens.reference_support]
        scores = np.zeros(n_draws)
        for j, y in enumerate(ens.signals):
            mats = rng.standard_normal(
                (n_draws, n_measurements, grid.signal_length))
            mats /= math.sqrt(n_measurements)
            proj_y = mats @ y
            proj_atoms = mats @ support_atoms
            scores += np.einsum("dm,dms->d", proj_y, proj_atoms)
        mean = float(scores.mean())
        se = float(scores.std(ddof=1) / math.sqrt(n_draws))
        assert abs(mean - target) <= 3.0 * se, (
            f"instance {instance}: mean {mean:.4f} vs target {target:.4f} "
            f"(se {se:.4f})")


@criterion(7, "joint decoding beats the baseline as views grow (desk scale)")
def test_criterion_07_view_sweep_desk_scale():
    table = run_experiment(get_preset("recovery-vs-views-desk"))
    rows = {(row["sweep"], row["algorithm"]): row for row in table.aggregate()}
    gjt = rows[(20, "gjt")]
    it = rows[(20, "it")]
    assert gjt["recovery_mean"] >= it["recovery_mean"] + 0.1, (
        f"gjt {gjt['recovery_mean']:.3f} vs it {it['recovery_mean']:.3f}")
    assert gjt["mse_mean"] < it["mse_mean"]


@pytest.mark.slow
@criterion(7, "full-scale view sweep preset runs inside its budget")
def test_criterion_07_full_scale_preset(tmp_path):
    started = time.perf_counter()
    config = get_preset("recovery-vs-views")
    config.output_dir = str(tmp_path / "full-views")
    table = run_experiment(config)
    table.write(config.output_dir)
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"
    rows = {(row["sweep"], row["algorithm"]): row for row in table.aggregate()}
    assert rows[(20, "gjt")]["recovery_mean"] > rows[(20, "it")]["recovery_mean"]


@criterion(7, "full-scale measurement sweep preset runs inside its budget")
def test_criterion_07_full_scale_measurement_sweep(tmp_path):
    started = time.perf_counter()
    config = get_preset("transform-error-vs-m")
    config.output_dir = str(tmp_path / "full-m")
    table = run_experiment(config)
    table.write(config.output_dir)
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"
    rows = {(row["sweep"], row["algorithm"]): row for row in table.aggregate()}
    # at the largest measurement count the transform is found reliably
    assert rows[(150, "jt")]["transform_error"] <= 0.2
    assert rows[(150, "gjt")]["transform_error"] <= 0.2


@criterion(8, "two-view 1D benchmark: joint beats independent on MSE")
def test_criterion_08_two_view_benchmark():
    started = time.perf_counter()
    table = run_experiment(get_preset("two-view-1d"))
    rows = {row["algorithm"]: row for row in table.aggregate()}
    assert rows["jt"]["mse_mean"] < rows["it"]["mse_mean"], (
        f"jt {rows['jt']['mse_mean']:.5f} vs it {rows['it']['mse_mean']:.5f}")
    assert time.perf_counter() - started < 600.0


@criterion(9, "closed-form constants and bound monotonicity")
def test_criterion_09_constants_and_monotonicity():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    variance = 8 * mpmath.e / mpmath.sqrt(6 * mpmath.pi)
    scale = 2 * mpmath.sqrt(2) * mpmath.e
    exponent = 1 / (4 * variance + 2 * scale)
    assert abs(BERNSTEIN_VARIANCE_COEFF - float(variance)) < 1e-12
    assert abs(BERNSTEIN_SCALE_COEFF - float(scale)) < 1e-12
    assert abs(RECOVERY_EXPONENT_COEFF - float(exponent)) < 1e-12

    inputs = dict(sparsity=5, n_views=4, n_atoms=6144, n_candidates=729,
                  margin=0.05, min_energy=1.0, max_energy=2.0)
    values = [recovery_rate_bound(
                  BoundInputs(n_measurements=m, **inputs), alpha=0.5).value
              for m in np.linspace(10, 5000, 20, dtype=int)]
    assert all(b > a for a, b in zip(values, values[1:]))


@criterion(10, "preset reruns are byte-identical")
def test_criterion_10_byte_identical_reruns(tmp_path):
    first = get_preset("transform-error-vs-m-small")
    first.output_dir = str(tmp_path / "a")
    run_experiment(first).write(first.output_dir)
    second = get_preset("transform-error-vs-m-small")
    second.output_dir = str(tmp_path / "b")
    run_experiment(second).write(second.output_dir)
    for name in ("trials.csv", "results.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
