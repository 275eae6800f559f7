"""Atom transforms, candidate sets, and candidate enumeration."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_vectors
from jointrec import (AtomTransform, CandidateSet, Dictionary, ModulatedAtom1D,
                      apply_to_support, identity_transform,
                      translation_transform)
from jointrec.transforms import TransformVector


class TestAtomTransform:
    def test_identity(self, small_gabor_dict):
        t = identity_transform(small_gabor_dict)
        assert t.is_identity
        assert np.array_equal(t.mapping,
                              np.arange(small_gabor_dict.n_atoms))
        assert t.domain_mask.all()

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            AtomTransform("bad", np.array([0, 5], dtype=np.int64))

    def test_rejects_collisions(self):
        with pytest.raises(ValueError):
            AtomTransform("collide", np.array([1, 1, 0], dtype=np.int64))

    def test_partial_domain_allowed(self):
        t = AtomTransform("partial", np.array([2, -1, 0], dtype=np.int64))
        assert not t.domain_mask[1]
        assert t.domain_mask[0] and t.domain_mask[2]

    def test_equality_by_mapping(self, small_gabor_dict):
        a = identity_transform(small_gabor_dict)
        b = AtomTransform("same", np.arange(small_gabor_dict.n_atoms))
        assert a == b and hash(a) == hash(b)


class TestTranslation1D:
    def test_shifts_translation_parameter(self, small_gabor_dict):
        t = translation_transform(small_gabor_dict, 10)
        for i in range(small_gabor_dict.n_atoms):
            j = t.mapping[i]
            if j < 0:
                continue
            pi, pj = small_gabor_dict.params[i], small_gabor_dict.params[j]
            assert pj.t == pi.t + 10
            assert (pj.s, pj.omega, pj.sign) == (pi.s, pi.omega, pi.sign)

    def test_off_grid_shift_is_empty(self, small_gabor_dict):
        t = translation_transform(small_gabor_dict, 3)
        assert not t.domain_mask.any()

    def test_boundary_leaves_domain(self, small_gabor_dict):
        t = translation_transform(small_gabor_dict, 10)
        last_t = max(p.t for p in small_gabor_dict.params)
        for i, p in enumerate(small_gabor_dict.params):
            assert t.domain_mask[i] == (p.t + 10 <= last_t)


class TestTranslation2D:
    def test_shifts_both_coordinates(self, small_gaussian_dict):
        t = translation_transform(small_gaussian_dict, (2, -2))
        for i in range(small_gaussian_dict.n_atoms):
            j = t.mapping[i]
            if j < 0:
                continue
            pi = small_gaussian_dict.params[i]
            pj = small_gaussian_dict.params[j]
            assert (pj.tx, pj.ty) == (pi.tx + 2, pi.ty - 2)

    def test_inverse_composes_to_identity_on_domain(self, small_gaussian_dict):
        fwd = translation_transform(small_gaussian_dict, (2, 2))
        back = translation_transform(small_gaussian_dict, (-2, -2))
        for i in range(small_gaussian_dict.n_atoms):
            j = fwd.mapping[i]
            if j >= 0 and back.mapping[j] >= 0:
                assert back.mapping[j] == i

    def test_zero_offset_is_identity(self, small_gaussian_dict):
        t = translation_transform(small_gaussian_dict, (0, 0))
        assert t.is_identity

    def test_odd_offset_leaves_grid(self, small_gaussian_dict):
        # translation grid uses odd pixel coordinates, so a unit shift
        # lands between grid points for every atom
        t = translation_transform(small_gaussian_dict, (1, 0))
        assert not t.domain_mask.any()


# the fields that locate an atom's center, per dictionary family
ORACLE_CENTERS = {"gaussian_2d": ("tx", "ty"), "gabor_1d": ("t",)}


def oracle_translation(dictionary, shift):
    """Per-atom lookup: the index of the record with every center field
    moved by ``shift`` and every other field equal, or -1."""
    index = {p: i for i, p in enumerate(dictionary.params)}
    names = ORACLE_CENTERS[dictionary.variant]
    return np.array([
        index.get(replace(p, **{name: getattr(p, name) + s
                                for name, s in zip(names, shift)}), -1)
        for p in dictionary.params], dtype=np.int64)


def holed(dictionary, step):
    """The dictionary without every ``step``-th atom, so that some
    (shape, center) cells of its parameter grid are empty."""
    keep = [i for i in range(dictionary.n_atoms) if i % step]
    return Dictionary(dictionary.atoms[:, keep],
                      params=[dictionary.params[i] for i in keep],
                      variant=dictionary.variant)


# every preset offset, including zero, then off-grid and far-out offsets
OFFSETS_2D = ([(dx, dy) for dx in (-2, 0, 2) for dy in (-2, 0, 2)]
              + [(1, 0), (0, -1), (40, 0), (-40, 0), (0, 40), (0, -40),
                 (1000, 1000)])
OFFSETS_1D = [-10, 0, 10, 3, 40, -40, 1000]


class TestTranslationOracle:
    def assert_matches_oracle(self, dictionary, offsets):
        expected = {}

        def check(offset, t):
            shift = tuple(np.atleast_1d(offset).tolist())
            if shift not in expected:
                expected[shift] = oracle_translation(dictionary, shift)
            assert np.array_equal(t.mapping, expected[shift])
            assert t.label == f"shift({','.join(f'{s:+d}' for s in shift)})"
            assert t.spec() == {"kind": "translation",
                                "offset": (list(shift) if len(shift) == 2
                                           else shift[0])}
            return shift

        for offset in offsets:
            check(offset, translation_transform(dictionary, offset))
        # candidate sets realize every offset from one shared grid; a
        # repeated offset must give the very same transform object
        repeated = offsets + offsets[::-1]
        for cands, rows in (
                (CandidateSet.from_uniform_offsets(dictionary, offsets, 2),
                 [offsets]),
                (CandidateSet.from_uniform_offsets(dictionary, repeated, 3),
                 [repeated, repeated])):
            assert cands.identity.is_identity
            shared = {}
            for row, transforms in zip(rows, cands.per_view, strict=True):
                for offset, t in zip(row, transforms, strict=True):
                    assert shared.setdefault(check(offset, t), t) is t
            assert len(shared) == len(offsets)

    def test_full_gaussian_dictionary(self, full_gaussian_dict):
        self.assert_matches_oracle(full_gaussian_dict, OFFSETS_2D)

    def test_full_gabor_dictionary(self, full_gabor_dict):
        self.assert_matches_oracle(full_gabor_dict, OFFSETS_1D)

    def test_grid_with_holes(self, small_gaussian_dict, small_gabor_dict):
        # the odd-pixel translation grid already leaves the even cells
        # empty; dropping atoms empties cells inside a shape's row too
        for step in (2, 3, 7):
            self.assert_matches_oracle(holed(small_gaussian_dict, step),
                                       OFFSETS_2D)
            self.assert_matches_oracle(holed(small_gabor_dict, step),
                                       OFFSETS_1D)

    def test_holed_full_dictionaries(self, full_gaussian_dict,
                                     full_gabor_dict):
        self.assert_matches_oracle(holed(full_gaussian_dict, 5), OFFSETS_2D)
        self.assert_matches_oracle(holed(full_gabor_dict, 5), OFFSETS_1D)


class TestOffsetParsing:
    @pytest.mark.parametrize("offset", [
        [2.7, 0], (2, 0.0), [2, 0, 5], (2,), [], [True, 0], [1, False],
        "10", ["2", "0"], 3, None, [[2, 0]], np.array([2.0, 0.0]),
    ])
    def test_rejects_malformed_2d_offset(self, small_gaussian_dict, offset):
        message = re.escape(f"translation offset {offset!r} must be a list "
                            "of 2 integers on a gaussian_2d dictionary")
        for realize in (
                lambda: translation_transform(small_gaussian_dict, offset),
                lambda: CandidateSet.from_uniform_offsets(
                    small_gaussian_dict, [(0, 0), offset], 3)):
            with pytest.raises(ValueError, match=message):
                realize()

    @pytest.mark.parametrize("offset", [
        10.9, 10.0, True, np.bool_(True), "10", [10, 0], [10.0], [], None,
        np.float64(10.0), np.array(10.0),
    ])
    def test_rejects_malformed_1d_offset(self, small_gabor_dict, offset):
        message = re.escape(f"translation offset {offset!r} must be an "
                            "integer on a gabor_1d dictionary")
        with pytest.raises(ValueError, match=message):
            translation_transform(small_gabor_dict, offset)
        # parsed even at one view, where no candidate list is kept
        for n_views in (1, 3):
            with pytest.raises(ValueError, match=message):
                CandidateSet.from_uniform_offsets(
                    small_gabor_dict, [10, offset], n_views)

    @pytest.mark.parametrize("offset", [
        (2, -2), [2, -2], (np.int64(2), np.int32(-2)), np.array([2, -2]),
    ])
    def test_accepts_integer_2d_offsets(self, small_gaussian_dict, offset):
        t = translation_transform(small_gaussian_dict, offset)
        assert t == translation_transform(small_gaussian_dict, (2, -2))
        assert t.label == "shift(+2,-2)"
        assert t.spec() == {"kind": "translation", "offset": [2, -2]}
        assert all(type(v) is int for v in t.spec()["offset"])

    @pytest.mark.parametrize("offset", [10, np.int64(10), [10], (10,),
                                        np.array(10), np.array([10])])
    def test_accepts_integer_1d_offsets(self, small_gabor_dict, offset):
        t = translation_transform(small_gabor_dict, offset)
        assert t == translation_transform(small_gabor_dict, 10)
        assert t.label == "shift(+10)"
        assert t.spec() == {"kind": "translation", "offset": 10}
        assert type(t.spec()["offset"]) is int

    def test_equal_offsets_share_one_realization(self, small_gabor_dict):
        cands = CandidateSet.from_uniform_offsets(
            small_gabor_dict, [10, np.int64(10), [10], -10], 3)
        first, second = cands.per_view
        assert first[0] is first[1] is first[2] is second[0]
        assert first[3] is second[3] and first[3] is not first[0]

    def test_huge_offset_leaves_the_grid(self, small_gabor_dict):
        for offset in (2**70, -2**70):
            t = translation_transform(small_gabor_dict, offset)
            assert not t.domain_mask.any()
            assert t.spec() == {"kind": "translation", "offset": offset}

    def test_custom_dictionary_has_no_translations(self, onb_dict):
        with pytest.raises(ValueError, match="parameter records"):
            translation_transform(onb_dict, 1)

    def test_no_offsets_on_a_custom_variant(self):
        # records but no center fields: an empty list parses no offset,
        # and is refused as an empty candidate list
        d = Dictionary(np.eye(4), params=[ModulatedAtom1D(t, 1.0, 1.0, 1)
                                          for t in range(4)])
        with pytest.raises(ValueError, match="at least one candidate"):
            CandidateSet.from_uniform_offsets(d, [], 2)


class TestApplyToSupport:
    def test_maps_and_keeps_order(self, small_gabor_dict):
        t = translation_transform(small_gabor_dict, 10)
        support = np.array([0, 5, 8])
        image = apply_to_support(t, support)
        assert np.array_equal(image, t.mapping[support])

    def test_out_of_domain_raises(self, small_gabor_dict):
        t = translation_transform(small_gabor_dict, 10)
        outside = int(np.flatnonzero(~t.domain_mask)[0])
        with pytest.raises(ValueError):
            apply_to_support(t, np.array([outside]))


class TestTransformVector:
    def test_first_must_be_identity(self, small_gabor_dict):
        shift = translation_transform(small_gabor_dict, 10)
        with pytest.raises(ValueError):
            TransformVector((shift, shift))

    def test_equality(self, small_gabor_dict):
        ident = identity_transform(small_gabor_dict)
        shift = translation_transform(small_gabor_dict, 10)
        assert (TransformVector((ident, shift))
                == TransformVector((ident, shift)))
        assert (TransformVector((ident, shift))
                != TransformVector((ident, ident)))


class TestCandidateSet:
    def test_enumeration_count_and_order(self, small_gaussian_dict):
        offsets = [(-2, 0), (0, 0), (2, 0)]
        cands = CandidateSet.from_uniform_offsets(small_gaussian_dict,
                                                  offsets, 3)
        assert cands.size == 9
        vectors = list(enumerate_vectors(cands))
        assert len(vectors) == 9
        # last view varies fastest, first candidate is (first, first)
        assert vectors[0][1] == cands.per_view[0][0]
        assert vectors[0][2] == cands.per_view[1][0]
        assert vectors[1][2] == cands.per_view[1][1]
        assert vectors[3][1] == cands.per_view[0][1]

    def test_single_view_yields_identity_only(self, small_gaussian_dict):
        cands = CandidateSet.from_uniform_offsets(small_gaussian_dict,
                                                  [(0, 0)], 1)
        vectors = list(enumerate_vectors(cands))
        assert len(vectors) == 1
        assert vectors[0][0].is_identity

    def test_full_scale_candidate_count(self, small_gaussian_dict):
        offsets = [(dx, dy) for dx in (-2, 0, 2) for dy in (-2, 0, 2)]
        cands = CandidateSet.from_uniform_offsets(small_gaussian_dict,
                                                  offsets, 4)
        assert cands.size == 729

    def test_repeated_offsets_share_realizations(self, small_gaussian_dict):
        cands = CandidateSet.from_uniform_offsets(
            small_gaussian_dict, [(2, 2), (0, 0), [2, 2]], 3)
        assert cands.per_view[0][0] is cands.per_view[0][2]
        assert cands.per_view[0][0] is cands.per_view[1][0]

    @pytest.mark.parametrize("n_views", [1, 3])
    def test_empty_offsets_rejected(self, small_gaussian_dict, n_views):
        with pytest.raises(ValueError, match="at least one candidate"):
            CandidateSet.from_uniform_offsets(small_gaussian_dict, [],
                                              n_views)


def _tiny_1d():
    from jointrec import build_gabor_1d_dictionary
    return build_gabor_1d_dictionary(60, scales=[4.0], omegas=[2.0])


def _tiny_2d():
    from jointrec import build_gaussian_2d_dictionary, odd_translations
    return build_gaussian_2d_dictionary(8, 8, [0.0], [2.0], [1.0],
                                        odd_translations(8, 8))


_TINY_1D = _tiny_1d()
_TINY_2D = _tiny_2d()


@settings(max_examples=30, deadline=None)
@given(shift=st.integers(min_value=-12, max_value=12))
def test_translation_injective_on_domain(shift):
    # property from the contract: no two atoms may collapse onto one
    t = translation_transform(_TINY_1D, shift * 10)
    defined = t.mapping[t.mapping >= 0]
    assert len(np.unique(defined)) == len(defined)


@settings(max_examples=30, deadline=None)
@given(dx=st.integers(-3, 3), dy=st.integers(-3, 3))
def test_translation_round_trip_property(dx, dy):
    fwd = translation_transform(_TINY_2D, (2 * dx, 2 * dy))
    back = translation_transform(_TINY_2D, (-2 * dx, -2 * dy))
    for i in range(_TINY_2D.n_atoms):
        j = fwd.mapping[i]
        if j >= 0:
            assert back.mapping[j] == i
