"""Ensemble generation, decodability margins, and persistence."""

import math

import numpy as np
import pytest

from jointrec import (Dictionary, EnsembleGenerationError,
                      build_gabor_1d_dictionary, build_gaussian_2d_dictionary,
                      check_positivity, generate_ensemble, identity_transform,
                      load_signal_csv, odd_translations,
                      thresholding_margin, translation_transform)
from jointrec import dictionary as dictionary_module
from jointrec import ensemble as ensemble_module
from jointrec.ensemble import COEFF_MAGNITUDE_RANGE
from jointrec.transforms import CandidateSet, TransformVector


def brute_force_margin(signal, support, atoms):
    """Margin straight from its definition, via python loops."""
    unit = signal / np.linalg.norm(signal)
    support = set(int(i) for i in support)
    inside = min(abs(float(unit @ atoms[:, i])) for i in support)
    outside = max(abs(float(unit @ atoms[:, i]))
                  for i in range(atoms.shape[1]) if i not in support)
    return inside - outside


@pytest.fixture(scope="module")
def untwinned_gabor_dict():
    """The length-1000 1D dictionary without negated twins (1500 atoms)."""
    return build_gabor_1d_dictionary(1000, include_negated=False)


def identity_vector(dictionary, n_views):
    ident = identity_transform(dictionary)
    return TransformVector((ident,) * n_views)


def full_scan_margin(signal, support, atoms):
    """The margin from one matrix-vector product over every atom."""
    corr = np.abs(atoms.T @ (signal / np.linalg.norm(signal)))
    return float(corr[support].min() - np.delete(corr, support).max())


def one_shot_bound(signal, support, dictionary):
    """The same-center margin bound formed in one product over the support
    atoms and every peer at their centers, as generation formed it before
    the bound was staged: min p over the support - max p over the peers
    outside it + 2 tail (1 + 1e-6) + 8 N eps; +inf without peers or a
    center grid."""
    unit = signal / np.linalg.norm(signal)
    if dictionary._centers is None:
        return np.inf
    _, cells, grid = dictionary._centers
    peers = grid[(slice(None), *cells[support].T)].ravel()
    peers = peers[(peers >= 0) & (peers[:, None] != support).all(axis=1)]
    if not peers.size:
        return np.inf
    kept = np.abs(unit) >= ensemble_module._ROW_FLOOR
    tail = np.linalg.norm(unit[~kept])
    rows = np.flatnonzero(kept)
    cols = np.concatenate([support, peers])
    corr = np.abs(unit[rows] @ dictionary.atoms[np.ix_(rows, cols)])
    n = dictionary.signal_length
    return float(corr[:support.size].min() - corr[support.size:].max()
                 + 2.0 * tail * (1.0 + 1e-6) + 8.0 * n * np.finfo(float).eps)


def oracle_ensemble(dictionary, sparsity, transforms, seed, max_attempts,
                    require_margin, coeff_range):
    """generate_ensemble's rejection loop (shared coefficients, positivity
    required) with every margin from full_scan_margin.  Returns (attempts,
    reference support, coefficients, signals, margin), or None when every
    attempt is rejected."""
    common = np.logical_and.reduce([t.domain_mask for t in transforms])
    candidates = np.flatnonzero(common)
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        reference = np.sort(rng.choice(candidates, size=sparsity,
                                       replace=False))
        coeffs = rng.uniform(*coeff_range, size=sparsity)
        signals, margins = [], []
        for t in transforms:
            support = t.mapping[reference]
            y = dictionary.atoms[:, support] @ coeffs
            margin = full_scan_margin(y, support, dictionary.atoms)
            if ((require_margin and margin <= 0.0)
                    or not check_positivity(y, support, dictionary)):
                break
            signals.append(y)
            margins.append(margin)
        else:
            return attempt, reference, coeffs, signals, min(margins)
    return None


def random_draws(dictionary, n_draws, seed):
    """(signal, support) pairs of 5 atoms, every other one with nearly
    equal coefficients (which admit positive margins) and the rest with
    mixed-sign ones."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n_draws):
        support = rng.choice(dictionary.n_atoms, size=5, replace=False)
        if i % 2:
            coeffs = rng.uniform(0.5, 1.5, size=5) * rng.choice([-1, 1], 5)
        else:
            coeffs = rng.uniform(0.95, 1.05, size=5)
        draws.append((dictionary.atoms[:, support] @ coeffs, support))
    return draws


class TestThresholdingMargin:
    def test_single_atom_on_onb(self, onb_dict):
        y = onb_dict.atom(3)
        assert thresholding_margin(y, [3], onb_dict) == pytest.approx(1.0)

    def test_missing_support_atom_gives_zero(self, onb_dict):
        y = onb_dict.atom(3) + onb_dict.atom(5)
        assert thresholding_margin(y, [3], onb_dict) == pytest.approx(0.0)

    def test_unequal_coefficients(self, onb_dict):
        y = 2.0 * onb_dict.atom(0) + 1.0 * onb_dict.atom(1)
        norm = np.sqrt(5.0)
        expected = 1.0 / norm - 0.0
        assert thresholding_margin(y, [0, 1], onb_dict) == pytest.approx(expected)

    def test_matches_brute_force(self, small_gabor_dict):
        rng = np.random.default_rng(11)
        atoms = small_gabor_dict.atoms
        for _ in range(20):
            support = rng.choice(small_gabor_dict.n_atoms, size=4,
                                 replace=False)
            coeffs = rng.uniform(0.5, 1.5, size=4)
            y = atoms[:, support] @ coeffs
            assert thresholding_margin(y, support, small_gabor_dict) == (
                pytest.approx(brute_force_margin(y, support, atoms)))

    def test_scale_invariant(self, onb_dict):
        y = onb_dict.atom(0) + 0.7 * onb_dict.atom(4)
        a = thresholding_margin(y, [0, 4], onb_dict)
        b = thresholding_margin(10.0 * y, [0, 4], onb_dict)
        assert a == pytest.approx(b)

    def test_rejects_degenerate_inputs(self, onb_dict):
        with pytest.raises(ValueError):
            thresholding_margin(np.zeros(16), [0], onb_dict)
        with pytest.raises(ValueError):
            thresholding_margin(onb_dict.atom(0), [], onb_dict)
        with pytest.raises(ValueError):
            thresholding_margin(onb_dict.atom(0), [0, 0], onb_dict)
        with pytest.raises(ValueError):
            thresholding_margin(onb_dict.atom(0), list(range(16)), onb_dict)


class TestMarginBound:
    """The rejection prefilter bounds the full margin from above: any draw
    it rejects (bound <= 0) the full margin rejects too.  Staged, it
    decides as the one-shot bound over every peer (``one_shot_bound``)
    does."""

    @pytest.mark.parametrize("name, positive", [
        ("full_gaussian_dict", 16),
        # negated twins tie their support atoms: no margin is positive
        ("full_gabor_dict", 0),
        ("untwinned_gabor_dict", 28),
    ])
    def test_dominates_full_margin(self, request, name, positive):
        dictionary = request.getfixturevalue(name)
        margins, settled = [], 0
        for y, support in random_draws(dictionary, 60, seed=5):
            full = full_scan_margin(y, support, dictionary.atoms)
            assert thresholding_margin(y, support, dictionary) == full
            bound = ensemble_module._margin_bound(
                y, support, dictionary, dictionary.atoms[:, support])
            assert bound >= full
            # a stage's maximum covers part of the peers, and the bound
            # covers them all when it comes out positive: it rejects the
            # draws the one-shot bound rejects, and equals it up to the
            # rounding of its products
            oracle = one_shot_bound(y, support, dictionary)
            assert (bound <= 0.0) == (oracle <= 0.0)
            if bound > 0.0:
                assert bound == pytest.approx(oracle, rel=0.0, abs=1e-12)
            margins.append(full)
            settled += bound <= 0.0
        assert sum(m > 0.0 for m in margins) == positive
        assert settled > 0

    def test_stage_one_settles_most_rejections(self, full_gaussian_dict,
                                               monkeypatch):
        # most rejected draws lose to a peer of the strongest support
        # atom: those are settled by one peer product, not two
        d = full_gaussian_dict
        products = []
        peer_max = ensemble_module._peer_max

        def peer_max_spy(*args):
            products.append(args)
            return peer_max(*args)

        monkeypatch.setattr(ensemble_module, "_peer_max", peer_max_spy)
        rejected = settled = 0
        for y, support in random_draws(d, 60, seed=5):
            if one_shot_bound(y, support, d) > 0.0:
                continue
            products.clear()
            assert ensemble_module._margin_bound(
                y, support, d, d.atoms[:, support]) <= 0.0
            rejected += 1
            settled += len(products) == 1
        assert rejected >= 30
        assert settled >= 0.9 * rejected

    @pytest.mark.parametrize("name", [
        "full_gaussian_dict", "full_gabor_dict", "untwinned_gabor_dict"])
    def test_dominates_with_large_tail(self, request, name, monkeypatch):
        # a high floor drops rows that carry much of the signal, so only
        # the tail term keeps the bound above the full margin
        monkeypatch.setattr(ensemble_module, "_ROW_FLOOR", 0.05)
        dictionary = request.getfixturevalue(name)
        for y, support in random_draws(dictionary, 30, seed=7):
            bound = ensemble_module._margin_bound(
                y, support, dictionary, dictionary.atoms[:, support])
            assert bound >= full_scan_margin(y, support, dictionary.atoms)

    def test_twin_tie_falls_through(self, full_gabor_dict, monkeypatch):
        # y = a_k ties with its negated twin, so the full margin is 0 and
        # the bound's products hold the same tie; only the rounding slack
        # keeps the bound positive and leaves the draw to the full check
        monkeypatch.setattr(ensemble_module, "_ROW_FLOOR", 0.0)
        d = full_gabor_dict
        for k in (0, 1, 1001, d.n_atoms - 1):
            y, support = d.atom(k).copy(), np.array([k])
            assert thresholding_margin(y, support, d) == 0.0
            assert ensemble_module._margin_bound(
                y, support, d, d.atoms[:, support]) > 0.0

    def test_one_center_grid_per_dictionary(self, monkeypatch):
        # realizing candidates and drawing ensembles read one (shape,
        # center) grid per dictionary; draws that waive the margin never
        # bound it
        built, bounded = [], []
        center_grid = dictionary_module._center_grid
        margin_bound = ensemble_module._margin_bound

        def grid_spy(params, centers):
            built.append(params)
            return center_grid(params, centers)

        def bound_spy(*args):
            bounded.append(args)
            return margin_bound(*args)

        monkeypatch.setattr(dictionary_module, "_center_grid", grid_spy)
        monkeypatch.setattr(ensemble_module, "_margin_bound", bound_spy)
        dictionaries = [
            build_gaussian_2d_dictionary(8, 8, [0.0, 1.0], [2.0], [0.5, 1.0],
                                         odd_translations(8, 8)),
            build_gabor_1d_dictionary(100, scales=[4.0, 8.0],
                                      omegas=[2.0, 4.0],
                                      include_negated=False)]
        for d, offsets in zip(dictionaries, ([[0, 0], [2, 0]], [0, 10])):
            candidates = CandidateSet.from_uniform_offsets(d, offsets, 2)
            vector = TransformVector((candidates.identity,
                                      candidates.per_view[0][1]))
            for seed in (1, 2):
                generate_ensemble(d, 2, vector, seed=seed,
                                  require_margin=False)
            assert bounded == []
            for seed in (1, 2):
                generate_ensemble(d, 2, vector, seed=seed)
            assert len(bounded) >= 2
            bounded.clear()
        assert [len(p) for p in built] == [d.n_atoms for d in dictionaries]
        assert all(d._centers is not None for d in dictionaries)


class TestSupportBlockMargin:
    """generate_ensemble against a rejection loop that takes every margin
    from one product over every atom: the same-center prefilter must
    leave every accepted ensemble, its margin and its attempt count
    unchanged, bit for bit.  (The class keeps the name of the support-
    block check it was written for, so the test ids stay.)"""

    @pytest.mark.parametrize("require_margin", [True, False])
    def test_ensembles_match_full_scan_oracle(self, full_gaussian_dict,
                                              require_margin):
        d = full_gaussian_dict
        transforms = TransformVector(
            (identity_transform(d),)
            + tuple(translation_transform(d, o)
                    for o in ((2, 0), (0, -2), (2, 2))))
        attempts_made = []
        for seed in range(20):
            ens = generate_ensemble(d, 5, transforms, seed=seed,
                                    coeff_range=(0.9, 1.1),
                                    require_margin=require_margin)
            attempts, reference, coeffs, signals, margin = oracle_ensemble(
                d, 5, transforms, seed, 10_000, require_margin, (0.9, 1.1))
            assert ens.attempts == attempts
            assert np.array_equal(ens.reference_support, reference)
            for x, y, y_oracle in zip(ens.coefficients, ens.signals, signals,
                                      strict=True):
                assert np.array_equal(x, coeffs)
                assert np.array_equal(y, y_oracle)
            assert ens.margin == margin
            attempts_made.append(attempts)
        # the early exit is exercised: with the margin required, most
        # ensembles reject some draws first
        assert (sum(a > 1 for a in attempts_made) > 10) == require_margin

    @pytest.mark.parametrize("require_margin", [True, False])
    def test_twinned_dictionary_matches_full_scan_oracle(
            self, full_gabor_dict, require_margin):
        # a negated twin ties its support atom, so no margin is positive:
        # with the margin required, every draw is rejected in both
        d = full_gabor_dict
        transforms = TransformVector((identity_transform(d),
                                      translation_transform(d, 10)))
        for seed in range(20):
            expected = oracle_ensemble(d, 5, transforms, seed, 25,
                                       require_margin, COEFF_MAGNITUDE_RANGE)
            if expected is None:
                assert require_margin
                with pytest.raises(EnsembleGenerationError):
                    generate_ensemble(d, 5, transforms, seed=seed,
                                      max_attempts=25,
                                      require_margin=require_margin)
                continue
            ens = generate_ensemble(d, 5, transforms, seed=seed,
                                    max_attempts=25,
                                    require_margin=require_margin)
            attempts, reference, coeffs, signals, margin = expected
            assert ens.attempts == attempts
            assert np.array_equal(ens.reference_support, reference)
            assert all(np.array_equal(x, coeffs) for x in ens.coefficients)
            assert all(np.array_equal(y, y_oracle) for y, y_oracle
                       in zip(ens.signals, signals, strict=True))
            assert ens.margin == margin <= 0.0

    def test_custom_dictionary_matches_full_scan_oracle(
            self, small_gaussian_dict):
        # without parameter records there is no center grid: every draw
        # goes straight to the full check
        d = Dictionary(small_gaussian_dict.atoms)
        transforms = identity_vector(d, 3)
        attempts_made = []
        for seed in range(10):
            ens = generate_ensemble(d, 4, transforms, seed=seed,
                                    coeff_range=(0.9, 1.1))
            attempts, reference, coeffs, signals, margin = oracle_ensemble(
                d, 4, transforms, seed, 10_000, True, (0.9, 1.1))
            assert ens.attempts == attempts
            assert np.array_equal(ens.reference_support, reference)
            assert all(np.array_equal(x, coeffs) for x in ens.coefficients)
            assert all(np.array_equal(y, y_oracle) for y, y_oracle
                       in zip(ens.signals, signals, strict=True))
            assert ens.margin == margin > 0.0
            assert ensemble_module._margin_bound(
                ens.signals[0], ens.supports[0], d,
                d.atoms[:, ens.supports[0]]) == np.inf
            attempts_made.append(attempts)
        assert sum(a > 1 for a in attempts_made) > 5


class TestScaledMarginProduct:
    """thresholding_margin multiplies the atoms by the unit signal times
    2^k and scales back by 2^-k, which keeps the products of atom and
    signal tails out of subnormal arithmetic.  Its margins must be those
    of the plain product, bit for bit."""

    @pytest.mark.parametrize("name, twins", [
        ("full_gaussian_dict", ()),
        # y = a_k ties with its negated twin: the margin is exactly 0
        ("full_gabor_dict", (0, 1, 1001, 2999)),
    ])
    def test_same_bits_as_plain_product(self, request, name, twins):
        dictionary = request.getfixturevalue(name)
        k = ensemble_module._MARGIN_SCALE_EXP
        draws = random_draws(dictionary, 40, seed=11) + [
            (dictionary.atom(t).copy(), np.array([t])) for t in twins]
        for y, support in draws:
            u = y / np.linalg.norm(y)
            plain = dictionary.atoms.T @ u
            scaled = dictionary.atoms.T @ (u * 2.0 ** k) * 2.0 ** -k
            # entries may differ only far below any margin's terms: on
            # the Gabor atoms, products of far-apart atoms can sum to
            # about 1e-306 through subnormal partial sums, whose rounding
            # the scaled product does not share
            differ = plain != scaled
            assert np.all(np.abs(plain[differ]) < 2.0 ** -1000)
            assert np.all(np.abs(scaled[differ]) < 2.0 ** -1000)
            assert (thresholding_margin(y, support, dictionary)
                    == full_scan_margin(y, support, dictionary.atoms))

    def test_scaled_products_stay_normal(self, full_gaussian_dict):
        # the smallest product of a nonzero atom sample and a nonzero
        # unit-signal sample is a normal number once scaled, though not
        # without the scaling
        d = full_gaussian_dict
        atoms = np.abs(d.atoms)
        smallest_atom = atoms[atoms > 0.0].min()
        scale = 2.0 ** ensemble_module._MARGIN_SCALE_EXP
        transforms = TransformVector(
            (identity_transform(d),)
            + tuple(translation_transform(d, o) for o in ((2, 0), (0, -2))))
        tiny = np.finfo(float).tiny
        plain = []
        for seed in range(10):
            ens = generate_ensemble(d, 5, transforms, seed=seed,
                                    coeff_range=(0.9, 1.1))
            for y in ens.signals:
                u = np.abs(y / np.linalg.norm(y))
                smallest_u = u[u > 0.0].min()
                assert smallest_atom * (smallest_u * scale) >= tiny
                plain.append(smallest_atom * smallest_u)
        assert min(plain) < tiny


class TestPositivity:
    def test_holds_for_positive_combination(self, onb_dict):
        y = onb_dict.atom(1) + 2.0 * onb_dict.atom(2)
        assert check_positivity(y, [1, 2], onb_dict)

    def test_fails_for_negative_coefficient(self, onb_dict):
        y = onb_dict.atom(1) - 2.0 * onb_dict.atom(2)
        assert not check_positivity(y, [1, 2], onb_dict)

    def test_atom_inversion_repairs(self, small_gabor_dict):
        # flipping to the negated twin atom makes the inner product
        # positive again: the dictionary's +- pairing exists for this.
        # Atoms 0 and 40 sit 50 samples apart, so they barely interact.
        atoms = small_gabor_dict.atoms
        assert small_gabor_dict.params[40].t - small_gabor_dict.params[0].t == 50
        y = atoms[:, 0] - 1.5 * atoms[:, 40]
        assert not check_positivity(y, [0, 40], small_gabor_dict)
        assert check_positivity(y, [0, 41], small_gabor_dict)


class TestGenerateEnsemble:
    def test_basic_contract_on_onb(self, onb_dict):
        transforms = identity_vector(onb_dict, 3)
        ens = generate_ensemble(onb_dict, 4, transforms, seed=0)
        assert ens.n_views == 3
        assert ens.sparsity == 4
        assert ens.margin > 0.0
        for j in range(3):
            assert np.array_equal(ens.supports[j], ens.reference_support)
            rebuilt = onb_dict.atoms[:, ens.supports[j]] @ ens.coefficients[j]
            assert np.allclose(rebuilt, ens.signals[j], atol=1e-10)
            assert thresholding_margin(ens.signals[j], ens.supports[j],
                                       onb_dict) >= ens.margin - 1e-12
            assert check_positivity(ens.signals[j], ens.supports[j], onb_dict)

    def test_coefficient_magnitudes_in_range(self, onb_dict):
        ens = generate_ensemble(onb_dict, 5, identity_vector(onb_dict, 2),
                                seed=1)
        lo, hi = COEFF_MAGNITUDE_RANGE
        for x in ens.coefficients:
            mags = np.abs(x)
            assert np.all((mags >= lo) & (mags <= hi))

    def test_custom_coeff_range(self, onb_dict):
        ens = generate_ensemble(onb_dict, 5, identity_vector(onb_dict, 2),
                                seed=1, coeff_range=(0.9, 1.1))
        for x in ens.coefficients:
            mags = np.abs(x)
            assert np.all((mags >= 0.9) & (mags <= 1.1))

    def test_shared_rule_duplicates_coefficients(self, onb_dict):
        ens = generate_ensemble(onb_dict, 4, identity_vector(onb_dict, 3),
                                coeff_rule="shared", seed=2)
        for x in ens.coefficients[1:]:
            assert np.array_equal(np.abs(x), np.abs(ens.coefficients[0]))

    def test_independent_rule_differs(self, onb_dict):
        ens = generate_ensemble(onb_dict, 6, identity_vector(onb_dict, 3),
                                coeff_rule="independent", seed=3)
        assert not np.array_equal(np.abs(ens.coefficients[0]),
                                  np.abs(ens.coefficients[1]))

    def test_deterministic_given_seed(self, onb_dict):
        a = generate_ensemble(onb_dict, 4, identity_vector(onb_dict, 2),
                              seed=9)
        b = generate_ensemble(onb_dict, 4, identity_vector(onb_dict, 2),
                              seed=9)
        assert np.array_equal(a.reference_support, b.reference_support)
        for xa, xb in zip(a.coefficients, b.coefficients):
            assert np.array_equal(xa, xb)

    def test_translated_supports(self, small_gaussian_dict):
        ident = identity_transform(small_gaussian_dict)
        shift = translation_transform(small_gaussian_dict, (2, 0))
        transforms = TransformVector((ident, shift))
        ens = generate_ensemble(small_gaussian_dict, 2, transforms, seed=4,
                                require_margin=False,
                                require_positivity=False)
        assert np.array_equal(ens.supports[1],
                              shift.mapping[ens.reference_support])

    def test_margin_infeasible_raises(self, small_gabor_dict):
        # every atom has a negated twin, so the margin can never be
        # positive on this dictionary
        transforms = identity_vector(small_gabor_dict, 2)
        with pytest.raises(EnsembleGenerationError):
            generate_ensemble(small_gabor_dict, 3, transforms, seed=5,
                              max_attempts=50)

    def test_rejects_bad_sparsity(self, onb_dict):
        with pytest.raises(ValueError):
            generate_ensemble(onb_dict, 0, identity_vector(onb_dict, 2))
        with pytest.raises(ValueError):
            generate_ensemble(onb_dict, 16, identity_vector(onb_dict, 2))

    def test_rejects_bad_coeff_range(self, onb_dict):
        with pytest.raises(ValueError):
            generate_ensemble(onb_dict, 2, identity_vector(onb_dict, 2),
                              coeff_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            generate_ensemble(onb_dict, 2, identity_vector(onb_dict, 2),
                              coeff_range=(2.0, 1.0))

    @pytest.mark.parametrize("coeff_range", [
        (0.5, math.inf), (math.inf, math.inf), (math.nan, 1.0),
        (0.5, math.nan),
    ])
    def test_rejects_non_finite_coeff_range(self, onb_dict, coeff_range):
        with pytest.raises(ValueError, match="coeff_range must be finite"):
            generate_ensemble(onb_dict, 2, identity_vector(onb_dict, 2),
                              coeff_range=coeff_range)

    def test_attempts_count_draws(self, onb_dict, small_gaussian_dict):
        # every draw passes on an orthonormal basis
        ens = generate_ensemble(onb_dict, 3, identity_vector(onb_dict, 2),
                                seed=4)
        assert ens.attempts == 1
        ens = generate_ensemble(small_gaussian_dict, 3,
                                identity_vector(small_gaussian_dict, 2),
                                seed=4, coeff_range=(0.9, 1.1))
        expected = oracle_ensemble(small_gaussian_dict, 3,
                                   identity_vector(small_gaussian_dict, 2),
                                   4, 10_000, True, (0.9, 1.1))
        assert ens.attempts == expected[0] > 1


class TestPersistence:
    def test_load_signal_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0.5\n-1.25\n3.0\n")
        y = load_signal_csv(path)
        assert np.array_equal(y, np.array([0.5, -1.25, 3.0]))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_load_signal_csv_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "trace.csv"
        path.write_text(f"0.5\n{bad}\n3.0\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_signal_csv(path)
