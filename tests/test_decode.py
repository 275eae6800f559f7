"""Decoders: correlation scores, top-S selection, JT/GJT/IT behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointrec import (CandidateSet, Dictionary,
                      atom_measurement_correlations, correlation_vector,
                      generate_ensemble, greedy_joint_threshold_decode,
                      identity_sensing, identity_transform,
                      independent_threshold_decode, joint_threshold_decode,
                      least_squares_reconstruct, measure_ensemble,
                      noiseless_score, sample_sensing_matrix, select_top_s,
                      transform_from_mapping, translation_transform)
from jointrec.transforms import TransformVector, enumerate_vectors


def random_unit_columns(n, k, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((n, k))
    cols /= np.linalg.norm(cols, axis=0)
    return Dictionary(cols)


def random_problem(dictionary, n_views, n_measurements, sparsity, seed,
                   transforms=None):
    """Random supports and coefficients, measured through fresh matrices."""
    rng = np.random.default_rng(seed)
    k = dictionary.n_atoms
    if transforms is None:
        transforms = TransformVector(
            (identity_transform(dictionary),) * n_views)
    reference = np.sort(rng.choice(k, size=sparsity, replace=False))
    signals, supports = [], []
    for t in transforms:
        support = t.mapping[reference]
        coeffs = rng.uniform(0.5, 1.5, size=sparsity)
        signals.append(dictionary.atoms[:, support] @ coeffs)
        supports.append(support)
    matrices = [sample_sensing_matrix(n_measurements,
                                      dictionary.signal_length, seed=s)
                for s in rng.integers(0, 2**31, size=n_views)]
    return measure_ensemble(matrices, signals), reference, supports, signals


def definition_score(measurements, dictionary, support, transforms):
    """Score straight from its definition: per-view products s . (A phi)."""
    total = 0.0
    for t, mat, s in zip(transforms, measurements.matrices,
                         measurements.measurements):
        for i in support:
            image = t.mapping[int(i)]
            assert image >= 0
            total += float(s @ (mat.entries @ dictionary.atoms[:, image]))
    return total


def brute_force_joint_decode(measurements, dictionary, sparsity, candidates):
    """Exhaustive argmax over all (support, transform vector) pairs."""
    best = (-np.inf, None, None)
    for vector in enumerate_vectors(candidates):
        valid = np.ones(dictionary.n_atoms, dtype=bool)
        for t in vector:
            valid &= t.domain_mask
        atoms = np.flatnonzero(valid)
        if atoms.size < sparsity:
            continue
        for combo in itertools.combinations(atoms.tolist(), sparsity):
            score = definition_score(measurements, dictionary, combo, vector)
            if score > best[0]:
                best = (score, np.asarray(combo), vector)
    if best[1] is None:
        raise ValueError("no candidate admits a full support")
    return best


def oracle_search(base, sparsity, candidates):
    """Per-candidate reference for the candidate search.

    The original mask-based loop: per vector, a validity mask and partial
    sums over its views, a stable argsort of the masked scores, and the
    first strict maximizer in enumeration order.  Returns (score, sorted
    reference support, vector); raises ValueError when no candidate
    leaves S valid atoms.
    """
    best = (-np.inf, None, None)
    for vector in enumerate_vectors(candidates):
        values = np.zeros(base.shape[0])
        valid = np.ones(base.shape[0], dtype=bool)
        for j, t in enumerate(vector):
            defined = t.mapping >= 0
            valid &= defined
            values[defined] += base[t.mapping[defined], j]
        if valid.sum() < sparsity:
            continue
        scores = np.where(valid, values, -np.inf)
        chosen = np.argsort(-scores, kind="stable")[:sparsity]
        score = float(scores[chosen].sum())
        if score > best[0]:
            best = (score, np.sort(chosen), vector)
    if best[2] is None:
        raise ValueError("no candidate leaves S valid atoms")
    return best


def oracle_greedy(base, sparsity, candidates):
    """The oracle search once per view, earlier views pinned to their
    chosen transforms; the last stage's winner is the result."""
    chosen = ()
    for view in range(max(len(candidates.per_view), 1)):
        stage = CandidateSet(candidates.identity,
                             tuple((t,) for t in chosen)
                             + candidates.per_view[view:view + 1])
        best = oracle_search(base, sparsity, stage)
        chosen = best[2].transforms[1:]
    return best


def assert_matches_oracle(result, oracle):
    score, support, vector = oracle
    assert result.score.hex() == score.hex()
    assert np.array_equal(result.reference_support, support)
    assert len(result.transforms) == len(vector)
    for got, want in zip(result.transforms, vector):
        assert np.array_equal(got.mapping, want.mapping)
    for got, t in zip(result.supports, vector):
        assert np.array_equal(got, t.mapping[support])


class TestCorrelations:
    def test_matches_naive_double_loop(self):
        d = random_unit_columns(30, 12, seed=0)
        meas, _, _, _ = random_problem(d, 3, 10, 3, seed=1)
        table = atom_measurement_correlations(meas, d)
        assert table.shape == (12, 3)
        for j in range(3):
            for i in range(12):
                direct = float(meas.measurements[j]
                               @ (meas.matrices[j].entries @ d.atom(i)))
                assert table[i, j] == pytest.approx(direct, abs=1e-12)

    def test_correlation_vector_sums_views(self):
        d = random_unit_columns(30, 12, seed=2)
        meas, _, _, _ = random_problem(d, 2, 10, 3, seed=3)
        ident = identity_transform(d)
        table = atom_measurement_correlations(meas, d)
        vec = correlation_vector(table, TransformVector((ident, ident)))
        assert np.allclose(vec, table.sum(axis=1), atol=1e-12)
        assert np.isfinite(vec).all()

    def test_transform_gathers_entries(self):
        d = random_unit_columns(30, 8, seed=4)
        meas, _, _, _ = random_problem(d, 2, 10, 2, seed=5)
        mapping = np.array([3, 2, 5, -1, 0, 1, 7, 6], dtype=np.int64)
        t = transform_from_mapping("perm", mapping)
        table = atom_measurement_correlations(meas, d)
        vec = correlation_vector(
            table, TransformVector((identity_transform(d), t)))
        for i in range(8):
            if mapping[i] < 0:
                assert vec[i] == -np.inf
            else:
                expected = table[i, 0] + table[mapping[i], 1]
                assert vec[i] == pytest.approx(expected, abs=1e-12)

    def test_view_limit_prefix_sum(self):
        d = random_unit_columns(30, 8, seed=6)
        meas, _, _, _ = random_problem(d, 3, 10, 2, seed=7)
        ident = identity_transform(d)
        # a vector shorter than the measurement set sums its views only
        vector = TransformVector((ident, ident))
        table = atom_measurement_correlations(meas, d)
        two = correlation_vector(table, vector)
        assert np.allclose(two, table[:, :2].sum(axis=1), atol=1e-12)

    def test_precomputed_base_reused(self):
        d = random_unit_columns(30, 8, seed=8)
        meas, _, _, _ = random_problem(d, 2, 10, 2, seed=9)
        ident = identity_transform(d)
        vector = TransformVector((ident, ident))
        base = atom_measurement_correlations(meas, d)
        # zero plus view 1 plus view 2, in that order: bit for bit
        assert np.array_equal(correlation_vector(base, vector),
                              base[:, 0] + base[:, 1])


class TestSelectTopS:
    def test_picks_largest_signed_entries(self):
        support, score = select_top_s(np.array([0.5, -2.0, 3.0, 1.0]), 2)
        assert np.array_equal(support, np.array([2, 3]))
        assert score == pytest.approx(4.0)

    def test_signed_not_absolute(self):
        support, score = select_top_s(np.array([-5.0, 0.1, 0.2]), 2)
        assert np.array_equal(support, np.array([1, 2]))
        assert score == pytest.approx(0.3)

    def test_tie_breaks_toward_lowest_index(self):
        support, _ = select_top_s(np.array([1.0, 1.0, 1.0, 1.0]), 2)
        assert np.array_equal(support, np.array([0, 1]))

    def test_masked_entries_excluded(self):
        support, score = select_top_s(np.array([-np.inf, 1.0, 2.0]), 2)
        assert np.array_equal(support, np.array([1, 2]))
        assert score == pytest.approx(3.0)

    def test_too_few_valid_raises(self):
        with pytest.raises(ValueError):
            select_top_s(np.array([1.0, -np.inf, -np.inf]), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10,
                              allow_nan=False), min_size=3, max_size=12),
           st.integers(1, 3))
    def test_matches_sort_oracle(self, values, sparsity):
        values = np.asarray(values)
        if sparsity > values.size:
            sparsity = values.size
        support, score = select_top_s(values, sparsity)
        # oracle: stable sort by (-value, index)
        order = sorted(range(values.size), key=lambda i: (-values[i], i))
        expected = np.sort(np.array(order[:sparsity]))
        assert np.array_equal(support, expected)
        assert score == pytest.approx(float(values[expected].sum()))


class TestJointDecoding:
    def test_matches_brute_force(self):
        mismatches = 0
        for seed in range(12):
            d = random_unit_columns(24, 14, seed=100 + seed)
            meas, _, _, _ = random_problem(d, 2, 8, 3, seed=200 + seed)
            # enlarge the search with a couple of shuffling transforms
            rng = np.random.default_rng(300 + seed)
            per_view = [identity_transform(d)]
            for _ in range(2):
                perm = rng.permutation(14).astype(np.int64)
                per_view.append(transform_from_mapping("perm", perm))
            cands = CandidateSet(identity_transform(d),
                                 (tuple(per_view),))
            result = joint_threshold_decode(meas, d, 3, cands)
            score, support, vector = brute_force_joint_decode(meas, d, 3,
                                                              cands)
            if not (np.array_equal(result.reference_support, support)
                    and result.transforms == vector):
                mismatches += 1
            assert result.score == pytest.approx(score, rel=1e-10)
        assert mismatches == 0

    def test_strict_improvement_keeps_first_candidate(self):
        # identical candidate transforms: the decoder must report the
        # first-enumerated one
        d = random_unit_columns(20, 10, seed=17)
        meas, _, _, _ = random_problem(d, 2, 8, 2, seed=18)
        ident = identity_transform(d)
        twin = transform_from_mapping("twin", np.arange(10))
        cands = CandidateSet(ident, ((ident, twin),))
        result = joint_threshold_decode(meas, d, 2, cands)
        assert result.transforms[1] is ident

    def test_gjt_equals_jt_for_two_views(self):
        for seed in range(6):
            d = random_unit_columns(32, 16, seed=400 + seed)
            rng = np.random.default_rng(500 + seed)
            per_view = [identity_transform(d)]
            for _ in range(3):
                per_view.append(transform_from_mapping(
                    "perm", rng.permutation(16).astype(np.int64)))
            cands = CandidateSet(identity_transform(d), (tuple(per_view),))
            meas, _, _, _ = random_problem(d, 2, 10, 3, seed=600 + seed)
            jt = joint_threshold_decode(meas, d, 3, cands)
            gjt = greedy_joint_threshold_decode(meas, d, 3, cands)
            assert np.array_equal(jt.reference_support,
                                  gjt.reference_support)
            assert jt.transforms == gjt.transforms
            assert jt.score == gjt.score
            for a, b in zip(jt.reconstructions, gjt.reconstructions):
                assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]),
           st.integers(1, 3), st.floats(0.0, 0.6))
    def test_jt_score_at_least_gjt(self, seed, n_views, pool_size, masked):
        # pools of partial maps: some atoms (or whole candidates) drop out
        rng = np.random.default_rng(seed)
        d = random_unit_columns(16, 10, seed=seed % 1000)
        per_view = []
        for _ in range(n_views - 1):
            pool = []
            for _ in range(pool_size):
                mapping = rng.permutation(10)
                mapping[rng.random(10) < masked] = -1
                pool.append(transform_from_mapping("partial", mapping))
            per_view.append(tuple(pool))
        cands = CandidateSet(identity_transform(d), tuple(per_view))
        meas, _, _, _ = random_problem(d, n_views, 8, 2, seed=seed)
        try:
            gjt = greedy_joint_threshold_decode(meas, d, 2, cands)
        except ValueError:
            return  # a greedy dead end; jt may still find a full vector
        # gjt's final vector is one of jt's candidates, scored the same way
        jt = joint_threshold_decode(meas, d, 2, cands)
        assert jt.score >= gjt.score

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.floats(0.0, 0.7), st.integers(0, 4), st.integers(1, 3))
    def test_jt_and_gjt_match_oracle(self, seed, n_views, pool_size, masked,
                                     duplicates, sparsity):
        # signed basis atoms keep the correlations exact, so duplicated
        # atoms tie in every view; repeated pool entries tie whole
        # candidates; -1 entries make atoms (or candidates) invalid
        rng = np.random.default_rng(seed)
        distinct = np.eye(16)[:, rng.choice(16, 10 - duplicates, replace=False)]
        distinct *= rng.choice([-1.0, 1.0], size=10 - duplicates)
        copies = rng.integers(0, 10 - duplicates, size=duplicates)
        d = Dictionary(np.hstack([distinct, distinct[:, copies]]))
        per_view = []
        for _ in range(n_views - 1):
            pool = []
            for _ in range(pool_size):
                mapping = rng.permutation(10)
                mapping[rng.random(10) < masked] = -1
                pool.append(transform_from_mapping("partial", mapping))
            pool.append(pool[int(rng.integers(0, pool_size))])
            per_view.append(tuple(pool))
        cands = CandidateSet(identity_transform(d), tuple(per_view))
        meas, _, _, _ = random_problem(d, n_views, 8, sparsity, seed=seed)
        base = atom_measurement_correlations(meas, d)
        for decode, oracle in ((joint_threshold_decode, oracle_search),
                               (greedy_joint_threshold_decode,
                                oracle_greedy)):
            try:
                want = oracle(base, sparsity, cands)
            except ValueError:
                with pytest.raises(ValueError):
                    decode(meas, d, sparsity, cands)
                continue
            assert_matches_oracle(decode(meas, d, sparsity, cands), want)

    def test_gjt_single_view_matches_signed_baseline(self):
        d = random_unit_columns(32, 16, seed=700)
        meas, _, _, _ = random_problem(d, 1, 10, 3, seed=701)
        cands = CandidateSet(identity_transform(d), ())
        gjt = greedy_joint_threshold_decode(meas, d, 3, cands)
        it = independent_threshold_decode(meas, d, 3, selection="signed")
        assert np.array_equal(gjt.supports[0], it.supports[0])

    def test_identity_sensing_recovers_exactly(self, small_gaussian_dict):
        ident = identity_transform(small_gaussian_dict)
        shift = translation_transform(small_gaussian_dict, (2, 0))
        truth = TransformVector((ident, shift))
        ens = generate_ensemble(small_gaussian_dict, 2, truth, seed=31)
        mats = [identity_sensing(small_gaussian_dict.signal_length)] * 2
        meas = measure_ensemble(mats, ens.signals)
        cands = CandidateSet.from_uniform_offsets(
            small_gaussian_dict, [(-2, 0), (0, 0), (2, 0)], 2)
        for decode in (joint_threshold_decode, greedy_joint_threshold_decode):
            result = decode(meas, small_gaussian_dict, 2, cands)
            assert np.array_equal(result.reference_support,
                                  ens.reference_support)
            assert result.transforms == truth
            for got, want in zip(result.reconstructions, ens.signals):
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err <= 1e-8
            expected = noiseless_score(ens.signals, small_gaussian_dict,
                                       ens.reference_support, truth)
            assert result.score == pytest.approx(expected, rel=1e-10)

    def test_all_candidates_invalid_raises(self):
        d = random_unit_columns(20, 6, seed=800)
        meas, _, _, _ = random_problem(d, 2, 8, 3, seed=801)
        # the only non-reference candidate keeps a single atom: too few
        mapping = np.full(6, -1, dtype=np.int64)
        mapping[0] = 0
        starved = transform_from_mapping("starved", mapping)
        cands = CandidateSet(identity_transform(d), ((starved,),))
        with pytest.raises(ValueError):
            joint_threshold_decode(meas, d, 3, cands)

    def test_masked_candidate_skipped_not_fatal(self):
        d = random_unit_columns(20, 6, seed=802)
        meas, _, _, _ = random_problem(d, 2, 8, 3, seed=803)
        mapping = np.full(6, -1, dtype=np.int64)
        mapping[0] = 0
        starved = transform_from_mapping("starved", mapping)
        ident = identity_transform(d)
        cands = CandidateSet(ident, ((starved, ident),))
        result = joint_threshold_decode(meas, d, 3, cands)
        assert result.transforms[1] is ident

    def test_deterministic(self):
        d = random_unit_columns(24, 12, seed=900)
        meas, _, _, _ = random_problem(d, 2, 8, 3, seed=901)
        cands = CandidateSet(identity_transform(d),
                             ((identity_transform(d),),))
        a = joint_threshold_decode(meas, d, 3, cands)
        b = joint_threshold_decode(meas, d, 3, cands)
        assert np.array_equal(a.reference_support, b.reference_support)
        assert a.score == b.score
        for x, y in zip(a.coefficients, b.coefficients):
            assert np.array_equal(x, y)


class TestIndependentBaseline:
    def test_absolute_selection_per_view(self):
        d = random_unit_columns(30, 12, seed=1000)
        meas, _, _, _ = random_problem(d, 3, 10, 3, seed=1001)
        result = independent_threshold_decode(meas, d, 3)
        table = atom_measurement_correlations(meas, d)
        for j in range(3):
            order = sorted(range(12),
                           key=lambda i: (-abs(table[i, j]), i))
            expected = np.sort(np.array(order[:3]))
            assert np.array_equal(result.supports[j], expected)
        assert result.transforms is None

    def test_views_do_not_interact(self):
        d = random_unit_columns(30, 12, seed=1002)
        meas, _, _, _ = random_problem(d, 3, 10, 3, seed=1003)
        full = independent_threshold_decode(meas, d, 3)
        # decoding any single view alone gives the same support
        from jointrec.sensing import MeasurementSet
        solo = MeasurementSet((meas.matrices[1],), (meas.measurements[1],))
        alone = independent_threshold_decode(solo, d, 3)
        assert np.array_equal(alone.supports[0], full.supports[1])

    def test_rejects_unknown_selection(self):
        d = random_unit_columns(20, 8, seed=1004)
        meas, _, _, _ = random_problem(d, 1, 8, 2, seed=1005)
        with pytest.raises(ValueError):
            independent_threshold_decode(meas, d, 2, selection="huge")


class TestLeastSquares:
    def test_exact_on_well_posed_support(self):
        d = random_unit_columns(30, 10, seed=1100)
        rng = np.random.default_rng(1101)
        support = np.array([1, 4, 7])
        coeffs = rng.uniform(0.5, 1.5, size=3)
        y = d.atoms[:, support] @ coeffs
        mat = sample_sensing_matrix(12, 30, seed=1102)
        fit = least_squares_reconstruct(mat, d, support, mat.entries @ y)
        assert np.allclose(fit.coefficients, coeffs, atol=1e-8)
        assert np.linalg.norm(fit.reconstruction - y) <= 1e-8
        assert not fit.rank_deficient

    def test_zero_measurement_gives_zero(self):
        d = random_unit_columns(20, 8, seed=1103)
        mat = sample_sensing_matrix(10, 20, seed=1104)
        fit = least_squares_reconstruct(mat, d, np.array([0, 3]),
                                        np.zeros(10))
        assert np.allclose(fit.coefficients, 0.0)
        assert np.allclose(fit.reconstruction, 0.0)

    def test_rank_deficient_flagged(self):
        # S > M forces a rank-deficient system
        d = random_unit_columns(30, 10, seed=1105)
        mat = sample_sensing_matrix(2, 30, seed=1106)
        y = d.atom(0) + d.atom(1) + d.atom(2)
        fit = least_squares_reconstruct(mat, d, np.array([0, 1, 2]),
                                        mat.entries @ y)
        assert fit.rank_deficient
        assert fit.rank < 3


class TestNoiselessScore:
    def test_onb_hand_computation(self, onb_dict):
        ident = identity_transform(onb_dict)
        transforms = TransformVector((ident, ident))
        support = np.array([2, 5])
        signals = [3.0 * onb_dict.atom(2) + 1.0 * onb_dict.atom(5),
                   2.0 * onb_dict.atom(2) + 0.5 * onb_dict.atom(5)]
        total = noiseless_score(signals, onb_dict, support, transforms)
        assert total == pytest.approx(3.0 + 1.0 + 2.0 + 0.5)

    def test_translation_moves_the_probe(self, small_gaussian_dict):
        ident = identity_transform(small_gaussian_dict)
        shift = translation_transform(small_gaussian_dict, (2, 0))
        support = np.array([int(np.flatnonzero(shift.domain_mask)[0])])
        y1 = small_gaussian_dict.atom(int(support[0]))
        y2 = small_gaussian_dict.atom(int(shift.mapping[support[0]]))
        total = noiseless_score([y1, y2], small_gaussian_dict, support,
                                TransformVector((ident, shift)))
        assert total == pytest.approx(2.0)
