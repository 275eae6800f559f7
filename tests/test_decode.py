"""Decoders: correlation scores, top-S selection, JT/GJT/IT behavior."""

import itertools
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from conftest import (argsort_top_s, enumerate_vectors, noiseless_score,
                      random_orthonormal_dictionary)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrec import (AtomTransform, CandidateSet, Dictionary,
                      atom_measurement_correlations, correlation_vector,
                      generate_ensemble, greedy_joint_threshold_decode,
                      identity_sensing, identity_transform,
                      independent_threshold_decode, joint_threshold_decode,
                      least_squares_reconstruct, measure_ensemble,
                      sample_sensing_matrix, select_top_s,
                      translation_transform)
from jointrec import decode
from jointrec.transforms import TransformVector


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


def oracle_score(base, sparsity, vector):
    """Per-candidate reference score: a validity mask and partial sums
    over the vector's views, then a stable argsort of the masked scores.
    Returns (score, sorted support), or (-inf, None) when fewer than S
    atoms are valid."""
    values = np.zeros(base.shape[0])
    valid = np.ones(base.shape[0], dtype=bool)
    for j, t in enumerate(vector):
        defined = t.mapping >= 0
        valid &= defined
        values[defined] += base[t.mapping[defined], j]
    if valid.sum() < sparsity:
        return -np.inf, None
    scores = np.where(valid, values, -np.inf)
    chosen = np.argsort(-scores, kind="stable")[:sparsity]
    return float(scores[chosen].sum()), np.sort(chosen)


def oracle_search(base, sparsity, candidates):
    """Per-candidate reference for the candidate search: the original
    loop over ``enumerate_vectors``, keeping the first strict maximizer
    of ``oracle_score``.  Returns (score, sorted reference support,
    vector); raises ValueError when no candidate leaves S valid atoms.
    """
    best = (-np.inf, None, None)
    for vector in enumerate_vectors(candidates):
        score, support = oracle_score(base, sparsity, vector)
        if score > best[0]:
            best = (score, support, vector)
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


def kernel_scores(base, sparsity, candidates):
    """Every candidate vector's kernel score, in enumeration order: the
    exhaustive scan that the pruned search must agree with.  Each prefix
    row is ((0.0 + c_1) + c_2) + ..., as the search builds it, and
    ``decode._top_s`` scores it against every candidate of the last view
    in one call.  Each view's table is gathered whole from ``_gather``'s
    padded table and stacked mappings."""
    padded, maps = decode._gather(base, candidates,
                                  decode.Workspace(candidates))
    *prefix_tables, last = [view.take(stack, mode="wrap")
                            for view, stack in zip(padded, maps)]
    scores = []
    for prefix in itertools.product(*(range(len(t)) for t in prefix_tables)):
        row = np.zeros(base.shape[0])
        for table, i in zip(prefix_tables, prefix):
            row = row + table[i]
        scores.extend(decode._top_s(row + last, sparsity))
    return np.array(scores)


def exhaustive_search(base, sparsity, candidates):
    """The first strict maximizer of ``kernel_scores``: (score, vector)."""
    scores = kernel_scores(base, sparsity, candidates)
    best = int(np.argmax(scores))
    if scores[best] == -np.inf:
        raise ValueError("no candidate leaves S valid atoms")
    return scores[best], list(enumerate_vectors(candidates))[best]


def table_problem(columns, pools, sparsity):
    """A search problem given by its correlation table: ``columns[j]`` is
    view j's correlation with every atom and ``pools[v]`` lists the
    mappings of view v + 2's candidates."""
    base = np.array(columns, dtype=float).T
    identity = AtomTransform("identity", np.arange(base.shape[0]))
    per_view = tuple(tuple(AtomTransform(f"view{v}-{i}", m)
                           for i, m in enumerate(pool))
                     for v, pool in enumerate(pools))
    return base, sparsity, CandidateSet(identity, per_view)


@st.composite
def table_problems(draw, values):
    """3 to 6 views, pools of 2 to 4 partial maps with a twin now and
    then, and correlations drawn from ``values``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n_views = draw(st.integers(4, 10)), draw(st.integers(3, 6))
    masked = draw(st.floats(0.0, 0.5))
    columns = [[draw(values) for _ in range(k)] for _ in range(n_views)]
    pools = []
    for _ in range(n_views - 1):
        pool = []
        for _ in range(draw(st.integers(2, 4))):
            mapping = rng.permutation(k)
            mapping[rng.random(k) < masked] = -1
            pool.append(mapping)
        if draw(st.booleans()):
            pool[-1] = pool[int(rng.integers(0, len(pool) - 1))]
        pools.append(pool)
    return columns, pools, draw(st.integers(1, 3))


def assert_search_matches_oracle(columns, pools, sparsity):
    base, sparsity, cands = table_problem(columns, pools, sparsity)
    try:
        expected = oracle_search(base, sparsity, cands)
    except ValueError:
        with pytest.raises(ValueError):
            decode._search(base, sparsity, cands, decode.Workspace(cands))
        return
    supports, vector, score = decode._search(base, sparsity, cands,
                                             decode.Workspace(cands))
    assert_matches_oracle(SimpleNamespace(
        score=score, reference_support=supports[0], transforms=vector,
        supports=supports), expected)


# Two candidates of view 2 tie at the top score 3 with one of view 3 each:
# (0, 0) first in enumeration order, (1, 1) last.  Candidate 1 of view 2
# has the better bound, 5 + 3 against 0 + 3, so the search reaches the
# tie there first and must still return (0, 0), whose bound equals the
# incumbent exactly.  Integers, so every sum is exact.
TIE_AFTER_BETTER_BRANCH = (
    [[0, 0, 0, 0], [0, 0, 5, -10], [-7, 3, -2, 0]],
    [[[0, 1, -1, -1], [2, 3, -1, -1]], [[0, 1, -1, -1], [2, 3, -1, -1]]],
    1)
# Candidates 0 and 1 of view 2 both score 0x1.8p+0 with the one candidate
# of views 3 and 4: (0, 0, 0) first in enumeration order, (1, 0, 0)
# last.  Candidate 0's leaf entries are (0.7 + 0.1) - 0.6 and
# (0.6 + 0.2) + 0.5, but its envelope bound adds the same terms as
# 0.7 + (-0.6 + 0.1) and 0.6 + (0.5 + 0.2), and the second rounds one ulp
# lower, so the bound sits one ulp below the tied score; candidate 1's
# bound does not.  Only the rounding slack keeps candidate 0, the first
# maximizer, from being pruned.
TIE_DECIDED_BY_SLACK = (
    [[0, 0, 0, 0], [0.7, 0.6, 0.9, 0.4], [0.1, 0.2, 0, 0], [-0.6, 0.5, 0, 0]],
    [[[0, 1, -1, -1], [2, 3, -1, -1]], [[0, 1, 2, 3]], [[0, 1, 2, 3]]],
    2)


def assert_same_result(got, want):
    """Two DecodeResults agree bit for bit, transforms by identity."""
    assert got.score.hex() == want.score.hex()
    assert got.rank_deficient == want.rank_deficient
    if want.transforms is None:
        assert got.transforms is None
    else:
        assert len(got.transforms) == len(want.transforms)
        assert all(a is b for a, b in zip(got.transforms, want.transforms))
    for field in ("supports", "coefficients", "reconstructions"):
        assert ([x.tobytes() for x in getattr(got, field)]
                == [x.tobytes() for x in getattr(want, field)])


def assert_matches_oracle(result, oracle):
    score, support, vector = oracle
    assert result.score.hex() == score.hex()
    assert np.array_equal(result.reference_support, support)
    assert len(result.transforms) == len(vector)
    for got, want in zip(result.transforms, vector):
        # the same candidate object, not just an equal mapping
        assert got is want
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
        t = AtomTransform("perm", mapping)
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

    @pytest.mark.parametrize("k, sparsity", [(6144, 5), (3000, 50), (40, 30)])
    def test_matches_argsort_oracle_bit_for_bit(self, k, sparsity):
        # rounded values tie often; -inf entries are not selectable, and a
        # NaN is never chosen
        rng = np.random.default_rng(1802)
        for _ in range(50):
            values = np.round(rng.standard_normal(k), rng.integers(0, 3))
            values[rng.random(k) < 0.2] = -np.inf
            if rng.random() < 0.2:
                values[rng.integers(k)] = np.nan
            values[rng.choice(k, size=sparsity, replace=False)] = np.round(
                rng.standard_normal(sparsity), 1)
            support, score = select_top_s(values, sparsity)
            expected, expected_score = argsort_top_s(values, sparsity)
            assert np.array_equal(support, expected)
            assert score == expected_score


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
                per_view.append(AtomTransform("perm", perm))
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
        twin = AtomTransform("twin", np.arange(10))
        cands = CandidateSet(ident, ((ident, twin),))
        result = joint_threshold_decode(meas, d, 2, cands)
        assert result.transforms[1] is ident

    def test_gjt_equals_jt_for_two_views(self):
        for seed in range(6):
            d = random_unit_columns(32, 16, seed=400 + seed)
            rng = np.random.default_rng(500 + seed)
            per_view = [identity_transform(d)]
            for _ in range(3):
                per_view.append(AtomTransform(
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
                pool.append(AtomTransform("partial", mapping))
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
    # a candidate and its tied twin, the twin scored second
    @example(seed=0, n_views=2, pool_size=1, masked=0.0, duplicates=0,
             sparsity=1)
    # duplicated atoms and twins tie across a last view of four candidates
    @example(seed=1, n_views=3, pool_size=3, masked=0.2, duplicates=2,
             sparsity=2)
    def test_jt_and_gjt_match_oracle(self, seed, n_views, pool_size, masked,
                                     duplicates, sparsity):
        # signed basis atoms keep the correlations exact, so duplicated
        # atoms tie in every view; a twin of a pool entry (same mapping,
        # another object) ties whole candidates; -1 entries make atoms
        # (or candidates) invalid
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
                pool.append(AtomTransform("partial", mapping))
            twin = pool[int(rng.integers(0, pool_size))]
            pool.append(AtomTransform("twin", twin.mapping))
            per_view.append(tuple(pool))
        cands = CandidateSet(identity_transform(d), tuple(per_view))
        meas, _, _, _ = random_problem(d, n_views, 8, sparsity, seed=seed)
        base = atom_measurement_correlations(meas, d)
        # every candidate's kernel score, not just the winner's
        got = [float(v).hex() for v in kernel_scores(base, sparsity, cands)]
        want = [oracle_score(base, sparsity, vector)[0].hex()
                for vector in enumerate_vectors(cands)]
        assert got == want
        for decoder, oracle in ((joint_threshold_decode, oracle_search),
                                (greedy_joint_threshold_decode,
                                 oracle_greedy)):
            try:
                expected = oracle(base, sparsity, cands)
            except ValueError:
                with pytest.raises(ValueError):
                    decoder(meas, d, sparsity, cands)
                continue
            assert_matches_oracle(decoder(meas, d, sparsity, cands),
                                  expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 4))
    def test_identity_sensing_recovers_support_on_onb(self, seed, n_views,
                                                      pool_size, sparsity):
        # identity sensing on an orthonormal basis makes c_j view j's
        # coefficient vector up to rounding: positive on its support and
        # about 1e-16 elsewhere, so every decoder finds the supports
        rng = np.random.default_rng(seed)
        d = random_orthonormal_dictionary(12, seed % 1000)
        reference = rng.choice(12, size=sparsity, replace=False)
        outside = np.setdiff1d(np.arange(12), reference)
        truth, per_view = [identity_transform(d)], []
        for _ in range(n_views - 1):
            mapping = rng.permutation(12)
            mapping[outside[rng.random(outside.size) < 0.3]] = -1
            truth.append(AtomTransform("true", mapping))
            pool = []
            for _ in range(pool_size):
                decoy = rng.permutation(12)
                decoy[rng.random(12) < 0.3] = -1
                pool.append(AtomTransform("decoy", decoy))
            pool.insert(int(rng.integers(0, pool_size + 1)), truth[-1])
            per_view.append(tuple(pool))
        cands = CandidateSet(truth[0], tuple(per_view))
        supports = [t.mapping[reference] for t in truth]
        signals = [d.atoms[:, sup] @ rng.uniform(0.5, 1.5, size=sparsity)
                   for sup in supports]
        meas = measure_ensemble([identity_sensing(12)] * n_views, signals)
        for result in (joint_threshold_decode(meas, d, sparsity, cands),
                       greedy_joint_threshold_decode(meas, d, sparsity,
                                                     cands),
                       independent_threshold_decode(meas, d, sparsity)):
            assert np.array_equal(result.reference_support,
                                  np.sort(reference))
            for got, want in zip(result.supports, supports):
                assert np.array_equal(np.sort(got), np.sort(want))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.floats(0.0, 0.6))
    def test_relabeling_leaves_result_unchanged(self, seed, n_views,
                                                pool_size, masked):
        # fresh objects, fresh labels, same mappings in the same order
        rng = np.random.default_rng(seed)
        d = random_unit_columns(16, 10, seed=seed % 1000)
        per_view = []
        for _ in range(n_views - 1):
            pool = []
            for _ in range(pool_size):
                mapping = rng.permutation(10)
                mapping[rng.random(10) < masked] = -1
                pool.append(AtomTransform("partial", mapping))
            per_view.append(tuple(pool))
        cands = CandidateSet(identity_transform(d), tuple(per_view))
        relabeled = CandidateSet(
            AtomTransform("reference", np.arange(10)),
            tuple(tuple(AtomTransform(f"view{v}-{i}", t.mapping)
                        for i, t in enumerate(pool))
                  for v, pool in enumerate(per_view)))
        meas, _, _, _ = random_problem(d, n_views, 8, 2, seed=seed)

        def positions(result, candidates):
            return [next(i for i, t in enumerate(pool) if t is chosen)
                    for chosen, pool in zip(result.transforms[1:],
                                            candidates.per_view)]

        for decoder in (joint_threshold_decode,
                        greedy_joint_threshold_decode):
            try:
                a = decoder(meas, d, 2, cands)
            except ValueError:
                with pytest.raises(ValueError):
                    decoder(meas, d, 2, relabeled)
                continue
            b = decoder(meas, d, 2, relabeled)
            assert a.transforms == b.transforms
            assert positions(a, cands) == positions(b, relabeled)
            assert a.score.hex() == b.score.hex()
            for x, y in zip(a.supports, b.supports):
                assert np.array_equal(x, y)

    def test_gjt_single_view_matches_signed_baseline(self):
        d = random_unit_columns(32, 16, seed=700)
        meas, _, _, _ = random_problem(d, 1, 10, 3, seed=701)
        cands = CandidateSet(identity_transform(d), ())
        gjt = greedy_joint_threshold_decode(meas, d, 3, cands)
        table = atom_measurement_correlations(meas, d)
        signed, _ = select_top_s(table[:, 0], 3)
        assert np.array_equal(gjt.supports[0], signed)

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
        starved = AtomTransform("starved", mapping)
        cands = CandidateSet(identity_transform(d), ((starved,),))
        for decoder in (joint_threshold_decode,
                        greedy_joint_threshold_decode):
            with pytest.raises(ValueError, match=decode._NO_VALID_CANDIDATE):
                decoder(meas, d, 3, cands)

    @pytest.mark.parametrize("decoder", [joint_threshold_decode,
                                         greedy_joint_threshold_decode])
    @pytest.mark.parametrize("n_views", [1, 2])
    def test_invalid_inputs_raise_named_errors(self, decoder, n_views):
        d = random_unit_columns(20, 6, seed=804)
        meas, _, _, _ = random_problem(d, n_views, 8, 2, seed=805)
        ident = identity_transform(d)
        cands = CandidateSet(ident, ((ident,),) * (n_views - 1))
        for sparsity, message in ((0, "sparsity must be at least 1"),
                                  (7, decode._NO_VALID_CANDIDATE)):
            with pytest.raises(ValueError, match=message):
                decoder(meas, d, sparsity, cands)
        extra = CandidateSet(ident, ((ident,),) * n_views)
        with pytest.raises(ValueError, match="disagree on view count"):
            decoder(meas, d, 2, extra)

    def test_top_s_rejects_sparsity_out_of_range(self):
        # the kernel behind jt's node bounds and every leaf and stage score
        rows = np.zeros((3, 6))
        for sparsity, message in ((0, "sparsity must be at least 1"),
                                  (7, decode._NO_VALID_CANDIDATE)):
            with pytest.raises(ValueError, match=message):
                decode._top_s(rows, sparsity)

    def test_masked_candidate_skipped_not_fatal(self):
        d = random_unit_columns(20, 6, seed=802)
        meas, _, _, _ = random_problem(d, 2, 8, 3, seed=803)
        mapping = np.full(6, -1, dtype=np.int64)
        mapping[0] = 0
        starved = AtomTransform("starved", mapping)
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


OFFSETS_3X3 = [(dx, dy) for dx in (-2, 0, 2) for dy in (-2, 0, 2)]
OFFSETS_5X5 = [(dx, dy) for dx in (-4, -2, 0, 2, 4)
               for dy in (-4, -2, 0, 2, 4)]


def full_scale_trial(dictionary, n_views, n_measurements, seed,
                     offsets=OFFSETS_3X3):
    """One trial of the full-scale presets: 9 translation candidates per
    view unless ``offsets`` says otherwise, S = 5, Gaussian sensing.
    Returns (measurements, candidate set)."""
    rng = np.random.default_rng(seed)
    cands = CandidateSet.from_uniform_offsets(dictionary, offsets, n_views)
    truth = TransformVector((cands.identity,) + tuple(
        pool[rng.integers(0, len(pool))] for pool in cands.per_view))
    ens = generate_ensemble(dictionary, 5, truth, seed=seed,
                            coeff_range=(0.9, 1.1))
    matrices = [sample_sensing_matrix(n_measurements,
                                      dictionary.signal_length, seed=s)
                for s in rng.integers(0, 2**31, size=n_views)]
    return measure_ensemble(matrices, ens.signals), cands


def assert_jt_matches_exhaustive_scan(dictionary, meas, cands):
    base = atom_measurement_correlations(meas, dictionary)
    score, vector = exhaustive_search(base, 5, cands)
    result = joint_threshold_decode(meas, dictionary, 5, cands)
    assert result.score.hex() == score.hex()
    assert all(a is b for a, b in zip(result.transforms, vector))


class TestPrunedSearch:
    """The branch-and-bound search returns what the exhaustive scan of
    every candidate vector returns, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(table_problems(st.one_of(
        st.integers(-30, 30).map(lambda v: v / 10),
        st.floats(-3.0, 3.0))))
    @example(TIE_AFTER_BETTER_BRANCH)
    @example(TIE_DECIDED_BY_SLACK)
    def test_matches_oracle(self, problem):
        # tenths make exact ties and rounded sums; twins tie whole branches
        assert_search_matches_oracle(*problem)

    @settings(max_examples=80, deadline=None)
    @given(table_problems(st.integers(-4, 4)))
    @example(TIE_AFTER_BETTER_BRANCH)
    def test_exact_arithmetic_needs_no_slack(self, problem):
        # integer sums are exact, so bounds are too: with no slack a node
        # whose bound equals the incumbent must still be expanded
        with mock.patch.object(decode, "_SLACK_EPS", 0.0):
            assert_search_matches_oracle(*problem)

    def test_slack_decides_the_tie(self):
        base, sparsity, cands = table_problem(*TIE_DECIDED_BY_SLACK)
        # the preconditions: equal leaves, one bound an ulp below them
        scores = kernel_scores(base, sparsity, cands)
        assert scores[0] == scores[1] == 1.5
        assert (0.6 + (0.5 + 0.2)) + (0.7 + (-0.6 + 0.1)) < 1.5
        assert (0.4 + (0.5 + 0.2)) + (0.9 + (-0.6 + 0.1)) == 1.5
        _, vector, _ = decode._search(base, sparsity, cands,
                                      decode.Workspace(cands))
        assert vector[1] is cands.per_view[0][0]
        with mock.patch.object(decode, "_SLACK_EPS", 0.0):
            _, vector, _ = decode._search(base, sparsity, cands,
                                          decode.Workspace(cands))
        assert vector[1] is cands.per_view[0][1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_scale_matches_exhaustive_scan(self, full_gaussian_dict,
                                                seed):
        # J = 4, M = 40: the fewest measurements of the presets, where
        # the bounds are loosest and the search prunes least
        meas, cands = full_scale_trial(full_gaussian_dict, 4, 40, seed)
        assert_jt_matches_exhaustive_scan(full_gaussian_dict, meas, cands)

    def test_wide_table_matches_oracle(self, full_gaussian_dict):
        # 25 candidates per view: 25 x 6144 stacked mappings (1.2 MB)
        # that jt's leaves and gjt's stages score whole
        meas, cands = full_scale_trial(full_gaussian_dict, 3, 40, seed=4,
                                       offsets=OFFSETS_5X5)
        base = atom_measurement_correlations(meas, full_gaussian_dict)
        _, maps = decode._gather(base, cands, decode.Workspace(cands))
        assert maps[-1].nbytes > 1_000_000
        for decoder, oracle in ((joint_threshold_decode, oracle_search),
                                (greedy_joint_threshold_decode,
                                 oracle_greedy)):
            assert_matches_oracle(
                decoder(meas, full_gaussian_dict, 5, cands),
                oracle(base, 5, cands))

    @pytest.mark.parametrize("n_views", [5, 6])
    def test_envelope_bound_prunes(self, full_gaussian_dict, n_views):
        # M = 40, the slow test's trials: a bound that adds top-S sums
        # taken at different atoms made 23 and 125 kernel calls here; the
        # envelope bound makes a few per free view
        meas, cands = full_scale_trial(full_gaussian_dict, n_views, 40,
                                       seed=n_views)
        base = atom_measurement_correlations(meas, full_gaussian_dict)
        with mock.patch.object(decode, "_scores",
                               wraps=decode._scores) as scores:
            decode._search(base, 5, cands, decode.Workspace(cands))
        assert scores.call_count <= 3 * (n_views - 1)

    @pytest.mark.slow
    @pytest.mark.parametrize("n_views", [5, 6])
    @pytest.mark.parametrize("n_measurements", [40, 150])
    def test_many_views_match_exhaustive_scan(self, full_gaussian_dict,
                                              n_views, n_measurements):
        # 6561 and 59049 candidate vectors
        meas, cands = full_scale_trial(full_gaussian_dict, n_views,
                                       n_measurements, seed=n_views)
        assert_jt_matches_exhaustive_scan(full_gaussian_dict, meas, cands)


class TestGreedyAggregate:
    """gjt keeps one running aggregate over the views, built from one
    gather, and returns what the staged oracle search returns."""

    def test_gathers_once(self):
        d = random_unit_columns(16, 10, seed=1100)
        rng = np.random.default_rng(1101)
        cands = CandidateSet(identity_transform(d), tuple(
            tuple(AtomTransform("perm", rng.permutation(10))
                  for _ in range(3))
            for _ in range(3)))
        meas, _, _, _ = random_problem(d, 4, 8, 2, seed=1102)
        with mock.patch.object(decode, "_gather",
                               wraps=decode._gather) as gather:
            greedy_joint_threshold_decode(meas, d, 2, cands)
        assert gather.call_count == 1

    @pytest.mark.parametrize("n_views", [2, 4])
    def test_one_kernel_call_per_free_view(self, full_gaussian_dict,
                                           n_views):
        # view 1's identity is folded into the row, as jt's search folds
        # it: one call per view 2..J, where scoring it too made J calls
        meas, cands = full_scale_trial(full_gaussian_dict, n_views, 40,
                                       seed=n_views)
        with mock.patch.object(decode, "_scores",
                               wraps=decode._scores) as scores:
            greedy_joint_threshold_decode(meas, full_gaussian_dict, 5, cands)
        assert scores.call_count == n_views - 1

    def test_folded_single_offset_keeps_too_few_atoms(self,
                                                      small_gaussian_dict):
        # every view has one candidate, a translation whose domain holds
        # fewer atoms than the sparsity level: folding views 1 and 2
        # still ends in the error that scoring each one raised
        d = small_gaussian_dict
        cands = CandidateSet.from_uniform_offsets(d, [(6, 6)], 3)
        kept = int(cands.per_view[0][0].domain_mask.sum())
        assert 0 < kept < d.n_atoms - 1
        meas, _, _, _ = random_problem(d, 3, 8, kept + 1, seed=1103)
        for decoder in (joint_threshold_decode,
                        greedy_joint_threshold_decode):
            with pytest.raises(ValueError, match=decode._NO_VALID_CANDIDATE):
                decoder(meas, d, kept + 1, cands)

    def test_scoring_memory_does_not_grow_with_views(self,
                                                     full_gaussian_dict):
        # J = 20: one padded table, one shared (9, K) stack of mappings
        # and one (9, K) scratch buffer, about 2 MB, where a (9, K) table
        # per view would hold more than 8 MB
        meas, cands = full_scale_trial(full_gaussian_dict, 20, 150, seed=20)
        base = atom_measurement_correlations(meas, full_gaussian_dict)
        tracemalloc.start()
        try:
            with mock.patch.object(decode, "_finalize"):
                decode._gjt(base, meas, full_gaussian_dict, 5, cands,
                            decode.Workspace(cands))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("n_views", [
        10, pytest.param(20, marks=pytest.mark.slow)])
    def test_many_views_match_oracle(self, full_gaussian_dict, n_views):
        meas, cands = full_scale_trial(full_gaussian_dict, n_views, 150,
                                       seed=n_views)
        base = atom_measurement_correlations(meas, full_gaussian_dict)
        assert_matches_oracle(
            greedy_joint_threshold_decode(meas, full_gaussian_dict, 5, cands),
            oracle_greedy(base, 5, cands))


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


class TestDecoderCores:
    """Each core of the decoder table, given a shared c_j table, returns
    what its public decoder returns, and leaves the table as it was."""

    PUBLIC = {
        "jt": joint_threshold_decode,
        "gjt": greedy_joint_threshold_decode,
        "it": lambda meas, d, sparsity, cands: independent_threshold_decode(
            meas, d, sparsity),
    }

    @pytest.mark.parametrize("name, n_views, n_measurements, offsets", [
        ("small_gaussian_dict", 3, 32, [(-2, 0), (0, 0), (2, 0)]),
        ("full_gabor_dict", 2, 150, [-10, 0, 10]),
    ])
    def test_core_is_public_decoder(self, request, name, n_views,
                                    n_measurements, offsets):
        d = request.getfixturevalue(name)
        cands = CandidateSet.from_uniform_offsets(d, offsets, n_views)
        truth = TransformVector((cands.identity,) + tuple(
            pool[-1] for pool in cands.per_view))
        ens = generate_ensemble(d, 3, truth, seed=n_views,
                                require_margin=False,
                                require_positivity=False)
        meas = measure_ensemble(
            [sample_sensing_matrix(n_measurements, d.signal_length, seed=s)
             for s in range(n_views)], ens.signals)
        base = atom_measurement_correlations(meas, d)
        table = base.copy()
        assert list(decode._DECODERS) == list(self.PUBLIC)
        for algorithm, core in decode._DECODERS.items():
            assert_same_result(
                core(base, meas, d, 3, cands, decode.Workspace(cands)),
                self.PUBLIC[algorithm](meas, d, 3, cands))
        assert np.array_equal(base, table)


class TestWorkspace:
    """A run's decodes share one workspace: once it is warm, a decode
    allocates none of its arrays, and returns what a decode in a fresh
    workspace returns."""

    def test_warm_decodes_allocate_no_large_array(self,
                                                  small_gaussian_dict):
        # 121 translations per view: the (121, K) stacked mappings and
        # the scratch buffer take 186 KB each, a K-vector 1.5 KB, so a
        # traced peak below 128 KiB rules out every array that large
        d = small_gaussian_dict
        offsets = [[dx, dy] for dx in range(-10, 11, 2)
                   for dy in range(-10, 11, 2)]
        cands = CandidateSet.from_uniform_offsets(d, offsets, 3)
        workspace = decode.Workspace(cands)
        assert workspace.scratch.nbytes > 128 * 1024
        problems = [random_problem(d, 3, 40, 3, seed=seed)[0]
                    for seed in (2503, 2504)]
        bases = [atom_measurement_correlations(meas, d) for meas in problems]
        for algorithm in ("jt", "gjt"):
            core = decode._DECODERS[algorithm]
            first = core(bases[0], problems[0], d, 3, cands, workspace)
            tracemalloc.start()
            try:
                second = core(bases[1], problems[1], d, 3, cands, workspace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 128 * 1024
            for meas, base, got in zip(problems, bases, (first, second)):
                assert_same_result(got, core(base, meas, d, 3, cands,
                                             decode.Workspace(cands)))


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
