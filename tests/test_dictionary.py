"""Dictionary construction."""

import hashlib
import math
import tracemalloc
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest

from conftest import (gabor_1d_oracle, gaussian_2d_oracle, gaussian_2d_rows,
                      gaussian_atom_2d, modulated_atom_1d, oracle_keep_first)
from jointrec import (Dictionary, GaussianAtom2D, ModulatedAtom1D,
                      atom_measurement_correlations,
                      build_gabor_1d_dictionary, build_gaussian_2d_dictionary,
                      least_squares_reconstruct, measure_ensemble,
                      odd_translations, sample_sensing_matrix,
                      thresholding_margin)
from jointrec import dictionary as dictionary_module
from jointrec.dictionary import (_CENTER_FIELDS, _SAMPLE_FLOOR,
                                 DUPLICATE_ATOM_TOL, UNIT_NORM_TOL,
                                 _center_grid)


def build_against_oracle(*grid):
    """Build a 2D dictionary and check that it keeps exactly the atoms
    oracle_keep_first keeps of the full-grid rows; returns (rows, keep)."""
    built = build_gaussian_2d_dictionary(*grid)
    rows, params = gaussian_2d_rows(*grid)
    keep = oracle_keep_first(rows, params)
    assert built.params == tuple(params[i] for i in keep)
    assert np.array_equal(built.atoms, rows[keep].T)
    return rows, keep


def gap(rows, i, j):
    return float(np.abs(rows[i] - rows[j]).max())


class TestDuplicateOracle:
    def test_full_scale_dictionary(self):
        _, keep = build_against_oracle(
            32, 32, np.linspace(0.0, np.pi, 7), [2.0, 4.0], [0.5, 1.0],
            odd_translations(32, 32))
        assert len(keep) == 6144

    def test_repeated_translation(self):
        # the second (3, 3) copies are exact duplicates of the first
        shifts = odd_translations(8, 8) + [(3, 3)]
        _, keep = build_against_oracle(
            8, 8, np.linspace(0.0, np.pi, 3), [2.0], [0.5, 1.0], shifts)
        assert len(keep) == 2 * 2 * 16

    def test_chain_compares_with_kept_rows_only(self):
        # rotations by 2.5e-12 rad move this corner atom by about 0.7 tol
        # and its row sum by more than the rounding slack: b is a
        # duplicate of a, c of b but not of a, and b is dropped, so c stays
        step = 2.5e-12
        rows, keep = build_against_oracle(
            7, 7, [0.0, step, 2 * step], [2.0], [1.0], [(0, 0)])
        assert gap(rows, 0, 1) <= DUPLICATE_ATOM_TOL
        assert gap(rows, 1, 2) <= DUPLICATE_ATOM_TOL
        assert gap(rows, 0, 2) > DUPLICATE_ATOM_TOL
        assert abs(rows[0].sum() - rows[1].sum()) > 1e-12
        assert keep == [0, 2]

    def test_equal_sums_just_beyond_tolerance(self):
        # mirror images about the center of a 7x7 grid: the same values in
        # another order, so the row sums agree, 1.2 tol apart
        angle = 2.5e-12
        rows, keep = build_against_oracle(
            7, 7, [-angle, angle], [2.0], [1.0], [(3, 3)])
        assert (DUPLICATE_ATOM_TOL < gap(rows, 0, 1)
                <= 1.5 * DUPLICATE_ATOM_TOL)
        assert abs(rows[0].sum() - rows[1].sum()) <= 1e-15
        assert keep == [0, 1]

    def test_mirror_images_within_and_beyond_tolerance(self):
        # rotations by -angle and +angle are mirror images of each other
        # about both axes through the center, so at 18 of these 49 cells
        # their row sums agree to 1e-15: 14 of those pairs lie within the
        # tolerance and 4 just beyond it
        angle = 2e-12
        shifts = [(x, y) for x in range(7) for y in range(7)]
        rows, keep = build_against_oracle(
            7, 7, [-angle, angle], [2.0], [1.0], shifts)
        mirrored = [i for i in range(49)
                    if abs(rows[i].sum() - rows[49 + i].sum()) <= 1e-15]
        within = [i for i in mirrored
                  if gap(rows, i, 49 + i) <= DUPLICATE_ATOM_TOL]
        assert (len(mirrored), len(within)) == (18, 14)
        assert not any(49 + i in keep for i in within)
        assert all(49 + i in keep for i in set(mirrored) - set(within))

    def test_full_comparisons_only_for_true_duplicates(self, monkeypatch):
        # the preset grid's only duplicates are theta = pi against
        # theta = 0, 4 shapes x 256 cells; the row sums alone also send
        # the 2378 mirror images (theta against pi - theta) to a full
        # comparison, which re-gathers the kept cells
        compared = []
        unit_atoms = dictionary_module._unit_atoms

        def spy(windows, tys, txs, norms):
            compared.append(len(norms))
            return unit_atoms(windows, tys, txs, norms)

        monkeypatch.setattr(dictionary_module, "_unit_atoms", spy)
        build_gaussian_2d_dictionary(
            32, 32, np.linspace(0.0, np.pi, 7), [2.0, 4.0], [0.5, 1.0],
            odd_translations(32, 32))
        assert sum(compared) == 1024


# sha256 of atoms.tobytes() for the conftest dictionaries, as built by
# evaluating every atom on its full grid, samples below 1e-300 stored as 0
# (the small grids have no such samples)
PINNED_ATOM_DIGESTS = {
    "full_gaussian_dict":
        "245832153eb12d2cc46a15fdc30cb927746cefcdfd629b652f650bcae79c73b8",
    "full_gabor_dict":
        "f3eea0a9582e3a198a760a2a09e400e83456005abff9bb84efc03f901f3d7660",
    "small_gaussian_dict":
        "660986ae343461fa66cb4dc3ae40df06b426413c0216188454a06d01156a92f2",
    "small_gabor_dict":
        "3c5fee9f67e5f25e04a2c699308eec2ed06ddf7ced6c8eea32ca3a1824cda4ab",
}


class TestExactBits:
    @pytest.mark.parametrize("name", sorted(PINNED_ATOM_DIGESTS))
    def test_pinned_atom_digest(self, request, name):
        atoms = request.getfixturevalue(name).atoms
        assert (hashlib.sha256(atoms.tobytes()).hexdigest()
                == PINNED_ATOM_DIGESTS[name])

    @pytest.mark.parametrize("grid", [
        # non-square, odd translations
        (9, 12, np.linspace(0.0, np.pi, 4), [2.0, 4.0], [0.5, 1.0],
         odd_translations(9, 12)),
        # every translation, corners included
        (7, 5, np.linspace(0.0, np.pi, 7), [2.0], [0.5, 1.0],
         [(x, y) for x in range(7) for y in range(5)]),
        # a repeated translation
        (8, 8, np.linspace(0.0, np.pi, 3), [2.0], [0.5, 1.0],
         odd_translations(8, 8) + [(3, 3)]),
        # one angle, translations in no grid order
        (6, 11, [0.3], [1.5, 3.0], [0.7], [(5, 0), (0, 10), (2, 4), (5, 10)]),
        # a single pixel
        (1, 1, [0.0, 1.0], [2.0], [1.0], [(0, 0)]),
    ])
    def test_gaussian_2d_matches_full_grid(self, grid):
        built = build_gaussian_2d_dictionary(*grid)
        atoms, params = gaussian_2d_oracle(*grid)
        assert np.array_equal(built.atoms, atoms)
        assert built.params == tuple(params)

    @pytest.mark.parametrize("n, t_start, t_step, include_negated", [
        (1000, 1, 10, True),
        (97, 1, 7, True),      # t_step does not divide n
        (120, 5, 10, True),    # t_start > 1
        (120, 5, 7, False),    # no negated twins
        (50, 1, 1, True),      # every sample a center
        (60, 60, 3, True),     # one center, at the last sample
        (1, 1, 1, False),      # a single sample
    ])
    def test_gabor_1d_matches_per_atom(self, n, t_start, t_step,
                                       include_negated):
        scales, omegas = [4.0, 8.0, 16.0], [2.0, 4.0, 6.0, 8.0, 10.0]
        built = build_gabor_1d_dictionary(n, t_start, t_step, scales, omegas,
                                          include_negated)
        atoms, params = gabor_1d_oracle(n, t_start, t_step, scales, omegas,
                                        include_negated)
        assert np.array_equal(built.atoms, atoms)
        assert built.params == tuple(params)
        assert all(type(p.t) is int for p in built.params)

    def test_gabor_1d_rejects_fractional_step(self):
        with pytest.raises(TypeError):
            build_gabor_1d_dictionary(100, t_step=2.5)


@pytest.fixture(scope="module")
def unfloored():
    """The full fixtures built with the sample floor set to 0, which keeps
    every tail sample, subnormal ones included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("jointrec.dictionary._SAMPLE_FLOOR", 0.0)
        return {
            "full_gaussian_dict": build_gaussian_2d_dictionary(
                32, 32, np.linspace(0.0, np.pi, 7), [2.0, 4.0], [0.5, 1.0],
                odd_translations(32, 32)),
            "full_gabor_dict": build_gabor_1d_dictionary(1000),
        }


class TestSampleFloor:
    """Samples below 1e-300 are stored as 0, so no atom holds a subnormal
    entry, and no product with the atoms that the decoders and the
    ensemble sampler form changes a bit."""

    @pytest.mark.parametrize("name", sorted(PINNED_ATOM_DIGESTS))
    def test_no_subnormal_entries(self, request, name):
        atoms = request.getfixturevalue(name).atoms
        kept = np.abs(atoms[atoms != 0.0])
        # a kept sample is at least the floor, and an atom's norm at most
        # sqrt(N)
        assert kept.min() >= _SAMPLE_FLOOR / math.sqrt(atoms.shape[0])
        assert kept.min() >= np.finfo(float).tiny

    def test_unfloored_builds_differ_only_below_the_floor(self, request,
                                                         unfloored):
        for name, raw in unfloored.items():
            atoms = request.getfixturevalue(name).atoms
            moved = atoms != raw.atoms
            assert moved.any()
            assert not atoms[moved].any()
            assert np.abs(raw.atoms[moved]).max() < _SAMPLE_FLOOR

    @pytest.mark.parametrize("name, sparsity", [
        ("full_gaussian_dict", 5), ("full_gabor_dict", 50)])
    def test_products_keep_their_bits(self, request, unfloored, name,
                                      sparsity):
        floored, raw = request.getfixturevalue(name), unfloored[name]
        rng = np.random.default_rng(1801)
        for _ in range(4):
            support = np.sort(rng.choice(floored.n_atoms, size=sparsity,
                                         replace=False))
            signal = floored.atoms[:, support] @ rng.uniform(0.5, 1.5,
                                                             sparsity)
            matrix = sample_sensing_matrix(150, floored.signal_length,
                                           seed=rng.integers(2**31))
            measurements = measure_ensemble([matrix], [signal])
            assert np.array_equal(
                atom_measurement_correlations(measurements, floored),
                atom_measurement_correlations(measurements, raw))
            assert (thresholding_margin(signal, support, floored)
                    == thresholding_margin(signal, support, raw))
            fits = [least_squares_reconstruct(
                matrix, d, support, measurements.measurements[0])
                for d in (floored, raw)]
            assert np.array_equal(fits[0].coefficients, fits[1].coefficients)
            assert fits[0].rank == fits[1].rank


def center_grid_oracle(params, centers):
    """``_center_grid`` with the shapes numbered by np.unique(axis=0)."""
    names = [f.name for f in fields(params[0]) if f.name not in centers]
    read = attrgetter(*names, *centers)
    table = np.array([read(p) for p in params], dtype=float)
    _, shape = np.unique(table[:, :len(names)], axis=0, return_inverse=True)
    cells = table[:, len(names):].astype(np.int64)
    cells -= cells.min(axis=0)
    grid = np.full((shape.max() + 1, *(cells.max(axis=0) + 1)), -1)
    grid[(shape, *cells.T)] = np.arange(len(params))
    return shape, cells, grid


def assert_center_grid_matches_oracle(dictionary):
    centers = _CENTER_FIELDS[dictionary.variant]
    got = _center_grid(dictionary.params, centers)
    want = center_grid_oracle(dictionary.params, centers)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestCenterGrid:
    """Shapes are numbered in lexicographic order of their fields, as
    np.unique(axis=0) numbers them."""

    @pytest.mark.parametrize("name", sorted(PINNED_ATOM_DIGESTS))
    def test_matches_unique_oracle(self, request, name):
        assert_center_grid_matches_oracle(request.getfixturevalue(name))

    @pytest.mark.parametrize("name", ["small_gaussian_dict",
                                      "small_gabor_dict"])
    def test_records_in_no_grid_order(self, request, name):
        d = request.getfixturevalue(name)
        order = np.random.default_rng(2502).permutation(d.n_atoms)
        assert_center_grid_matches_oracle(Dictionary(
            d.atoms[:, order], [d.params[k] for k in order], d.variant))


class TestBuildMemory:
    """The builders write each kept atom once, into the matrix they hand
    over, and hold no other full-size array: the atoms take 50 MB (2D)
    and 24 MB (1D), and a (K_all, N) row array kept alive next to them
    raises the peaks by about 59 MB and 24 MB."""

    @staticmethod
    def peak_mb(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_full_gaussian_2d_peak(self):
        assert self.peak_mb(lambda: build_gaussian_2d_dictionary(
            32, 32, np.linspace(0.0, np.pi, 7), [2.0, 4.0], [0.5, 1.0],
            odd_translations(32, 32))) <= 70.0

    def test_full_gabor_1d_peak(self):
        assert self.peak_mb(lambda: build_gabor_1d_dictionary(1000)) <= 30.0


class TestNonFiniteParameters:
    @pytest.mark.parametrize("thetas, sxs, message", [
        ([0.0, math.nan], [2.0], "angles must be finite"),
        ([0.0], [2.0, math.inf], "scales must be finite and positive"),
        ([0.0], [math.nan], "scales must be finite and positive"),
    ])
    def test_gaussian_2d(self, thetas, sxs, message):
        with pytest.raises(ValueError, match=message):
            build_gaussian_2d_dictionary(8, 8, thetas, sxs, [1.0], [(3, 3)])

    @pytest.mark.parametrize("scales, omegas, message", [
        ([4.0, math.inf], [2.0], "scales must be finite and positive"),
        ([math.nan], [2.0], "scales must be finite and positive"),
        ([4.0], [2.0, math.inf], "frequencies must be finite"),
        ([4.0], [math.nan], "frequencies must be finite"),
    ])
    def test_gabor_1d(self, scales, omegas, message):
        with pytest.raises(ValueError, match=message):
            build_gabor_1d_dictionary(100, scales=scales, omegas=omegas)


class TestGaussian2D:
    def test_full_scale_count(self, full_gaussian_dict):
        assert full_gaussian_dict.n_atoms == 6144
        assert full_gaussian_dict.signal_length == 1024

    def test_unit_norms(self, full_gaussian_dict):
        norms = np.linalg.norm(full_gaussian_dict.atoms, axis=0)
        assert np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL)

    def test_deterministic_rebuild(self, small_gaussian_dict):
        again = build_gaussian_2d_dictionary(
            8, 8, np.linspace(0.0, np.pi, 7), [2.0], [0.5, 1.0],
            odd_translations(8, 8))
        assert np.array_equal(small_gaussian_dict.atoms, again.atoms)
        assert small_gaussian_dict.params == again.params

    def test_matches_single_atom_oracle(self, small_gaussian_dict):
        for i in range(0, small_gaussian_dict.n_atoms, 7):
            p = small_gaussian_dict.params[i]
            oracle = gaussian_atom_2d(8, 8, p)
            assert np.allclose(small_gaussian_dict.atom(i), oracle,
                               atol=1e-12)

    def test_angle_period_duplicates_dropped(self):
        p0 = GaussianAtom2D(theta=0.0, sx=2.0, sy=0.5, tx=5, ty=5)
        p_pi = GaussianAtom2D(theta=np.pi, sx=2.0, sy=0.5, tx=5, ty=5)
        assert np.allclose(gaussian_atom_2d(16, 16, p0),
                           gaussian_atom_2d(16, 16, p_pi), atol=1e-12)

    def test_six_angles_survive(self, full_gaussian_dict):
        thetas = {p.theta for p in full_gaussian_dict.params}
        assert len(thetas) == 6
        assert np.pi not in thetas

    def test_odd_translations_grid(self):
        shifts = odd_translations(32, 32)
        assert len(shifts) == 256
        assert all(tx % 2 == 1 and ty % 2 == 1 for tx, ty in shifts)

    def test_row_major_flattening(self):
        # a peaked atom centered at (tx, ty) must put its maximum at the
        # flat index ty * width + tx
        p = GaussianAtom2D(theta=0.0, sx=1.0, sy=1.0, tx=3, ty=7)
        atom = gaussian_atom_2d(16, 16, p)
        assert int(np.argmax(atom)) == 7 * 16 + 3

    def test_rotation_convention(self):
        # at theta=pi/2 the roles of the two widths swap
        wide = gaussian_atom_2d(
            17, 17, GaussianAtom2D(theta=0.0, sx=4.0, sy=1.0, tx=8, ty=8))
        turned = gaussian_atom_2d(
            17, 17, GaussianAtom2D(theta=np.pi / 2, sx=4.0, sy=1.0,
                                   tx=8, ty=8))
        assert np.allclose(turned.reshape(17, 17), wide.reshape(17, 17).T,
                           atol=1e-12)


class TestGabor1D:
    def test_full_scale_count(self, full_gabor_dict):
        assert full_gabor_dict.n_atoms == 3000
        assert full_gabor_dict.signal_length == 1000

    def test_unit_norms(self, full_gabor_dict):
        norms = np.linalg.norm(full_gabor_dict.atoms, axis=0)
        assert np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL)

    def test_negated_twins_adjacent(self, small_gabor_dict):
        atoms = small_gabor_dict.atoms
        for k in range(0, small_gabor_dict.n_atoms, 2):
            assert np.array_equal(atoms[:, k + 1], -atoms[:, k])
        signs = [p.sign for p in small_gabor_dict.params]
        assert signs[::2] == [1] * (small_gabor_dict.n_atoms // 2)
        assert signs[1::2] == [-1] * (small_gabor_dict.n_atoms // 2)

    def test_translation_grid(self, full_gabor_dict):
        ts = sorted({p.t for p in full_gabor_dict.params})
        assert ts[0] == 1 and ts[-1] == 991 and len(ts) == 100
        assert all(b - a == 10 for a, b in zip(ts, ts[1:]))

    def test_matches_single_atom_oracle(self, small_gabor_dict):
        for i in range(0, small_gabor_dict.n_atoms, 5):
            p = small_gabor_dict.params[i]
            oracle = modulated_atom_1d(100, p)
            assert np.allclose(small_gabor_dict.atom(i), oracle, atol=1e-12)

    def test_without_negated_half_count(self):
        d = build_gabor_1d_dictionary(100, scales=[4.0], omegas=[2.0],
                                      include_negated=False)
        assert d.n_atoms == 10
        assert all(p.sign == 1 for p in d.params)


class TestDictionaryType:
    def test_atoms_read_only(self, onb_dict):
        with pytest.raises(ValueError):
            onb_dict.atoms[0, 0] = 2.0

    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError):
            Dictionary(2.0 * np.eye(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_atoms(self, bad):
        atoms = np.eye(4)[:, :3]
        atoms[1, 2] = bad
        with pytest.raises(ValueError, match="atoms must be finite"):
            Dictionary(atoms)
        with pytest.raises(ValueError, match="atoms must be finite"):
            Dictionary(np.full((4, 3), math.nan))

    def test_rejects_overflowing_norm(self):
        # the entry's square overflows to inf
        atoms = np.eye(4)[:, :3]
        atoms[1, 2] = 1e200
        with pytest.raises(ValueError, match="atoms must be finite"):
            Dictionary(atoms)

    @pytest.mark.parametrize("offset, accepted", [
        (2e-9, False), (-2e-9, False), (5e-10, True), (-5e-10, True)])
    def test_unit_norm_tolerance(self, offset, accepted):
        rng = np.random.default_rng(5)
        cols = rng.standard_normal((64, 6))
        atoms = cols / np.linalg.norm(cols, axis=0)
        atoms[:, 4] *= 1.0 + offset
        if accepted:
            Dictionary(atoms)
        else:
            with pytest.raises(ValueError, match=r"atom columns must be unit "
                               r"norm within 1e-09 \(worst deviation 2e-09\)"):
                Dictionary(atoms)

    def test_stores_c_ordered_copy(self):
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((5, 8))
        atoms = np.asfortranarray(cols / np.linalg.norm(cols, axis=0))
        d = Dictionary(atoms)
        assert d.atoms.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(d.atoms, atoms)
        np.testing.assert_array_equal(d.atoms, atoms)

    def test_copies_c_ordered_caller_array(self):
        atoms = np.eye(4)
        d = Dictionary(atoms)
        assert not np.shares_memory(d.atoms, atoms)
        assert atoms.flags.writeable and not d.atoms.flags.writeable

    @pytest.mark.parametrize("build", [
        lambda: build_gaussian_2d_dictionary(8, 8, [0.0, np.pi], [2.0],
                                             [0.5], odd_translations(8, 8)),
        lambda: build_gabor_1d_dictionary(100, scales=[4.0], omegas=[2.0]),
    ], ids=["gaussian_2d", "gabor_1d"])
    def test_builders_hand_over_their_matrix(self, build, monkeypatch):
        made = []
        own = Dictionary._own

        def spy(atoms, params, variant):
            made.append(atoms)
            return own(atoms, params, variant)

        monkeypatch.setattr(Dictionary, "_own", spy)
        d = build()
        assert len(made) == 1 and d.atoms is made[0]
        # the matrix owns its memory: no view into a larger array
        assert made[0].base is None
        assert not d.atoms.flags.writeable

    def test_owned_matrix_is_checked(self):
        bad = np.eye(4)
        bad[1, 2] = math.nan
        with pytest.raises(ValueError, match="atoms must be finite"):
            Dictionary._own(bad, None, "custom")
        with pytest.raises(ValueError, match=r"atom columns must be unit "
                           r"norm within 1e-09 \(worst deviation 1\)"):
            Dictionary._own(2.0 * np.eye(4), None, "custom")
        with pytest.raises(ValueError, match="one parameter record per atom"):
            Dictionary._own(np.eye(4), [None], "custom")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError,
                           match="unknown dictionary variant 'gabor-1d'"):
            Dictionary(np.eye(4), variant="gabor-1d")

    @pytest.mark.parametrize("variant, params, record", [
        ("gabor_1d", [1, 2, 3, 4], "ModulatedAtom1D"),
        ("gaussian_2d", [ModulatedAtom1D(t, 1.0, 1.0, 1) for t in range(4)],
         "GaussianAtom2D"),
    ], ids=["gabor_1d-ints", "gaussian_2d-modulated"])
    def test_rejects_records_of_another_family(self, variant, params, record):
        with pytest.raises(ValueError, match=f"a {variant} dictionary needs "
                           f"{record} parameter records"):
            Dictionary(np.eye(4), params=params, variant=variant)

    def test_atom_returns_column(self, onb_dict):
        col = onb_dict.atom(3)
        assert col.shape == (16,)
        assert col[3] == 1.0
