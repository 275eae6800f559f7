"""Dictionary construction and coherence measures."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from jointrec import dictionary as dictionary_module
from conftest import (gabor_1d_oracle, gaussian_2d_oracle, gaussian_atom_2d,
                      modulated_atom_1d)
from jointrec import (Dictionary, GaussianAtom2D,
                      babel_function, build_gabor_1d_dictionary,
                      build_gaussian_2d_dictionary, gram_row,
                      odd_translations)
from jointrec.dictionary import DUPLICATE_ATOM_TOL, UNIT_NORM_TOL


def brute_force_babel(atoms: np.ndarray, m: int) -> float:
    """Definition-level cumulative coherence, via explicit loops."""
    k = atoms.shape[1]
    worst = 0.0
    for i in range(k):
        inner = [abs(float(atoms[:, i] @ atoms[:, j]))
                 for j in range(k) if j != i]
        inner.sort(reverse=True)
        worst = max(worst, sum(inner[:m]))
    return worst


def oracle_keep_first(rows, params):
    """Keep-first duplicate removal, one translation at a time: a row is
    dropped when its max-abs gap to an earlier kept row at the same
    translation is at most the tolerance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(params):
        groups.setdefault((p.tx, p.ty), []).append(i)
    keep = []
    for idxs in groups.values():
        kept: list[int] = []
        for i in idxs:
            if (not kept or np.abs(rows[kept] - rows[i]).max(axis=1).min()
                    > DUPLICATE_ATOM_TOL):
                kept.append(i)
        keep.extend(kept)
    return sorted(keep)


def build_against_oracle(monkeypatch, *grid):
    """Build a 2D dictionary and check that it keeps exactly the atoms
    oracle_keep_first keeps of the builder's rows; returns (rows, keep)."""
    seen = {}
    real = dictionary_module._drop_duplicate_atoms

    def spy(rows, params):
        seen.update(rows=rows, params=list(params))
        return real(rows, params)

    monkeypatch.setattr(dictionary_module, "_drop_duplicate_atoms", spy)
    built = build_gaussian_2d_dictionary(*grid)
    rows, params = seen["rows"], seen["params"]
    keep = oracle_keep_first(rows, params)
    assert built.params == tuple(params[i] for i in keep)
    assert np.array_equal(built.atoms, rows[keep].T)
    return rows, keep


def gap(rows, i, j):
    return float(np.abs(rows[i] - rows[j]).max())


class TestDuplicateOracle:
    def test_full_scale_dictionary(self, monkeypatch):
        _, keep = build_against_oracle(
            monkeypatch, 32, 32, np.linspace(0.0, np.pi, 7), [2.0, 4.0],
            [0.5, 1.0], odd_translations(32, 32))
        assert len(keep) == 6144

    def test_repeated_translation(self, monkeypatch):
        # the second (3, 3) copies are exact duplicates of the first
        shifts = odd_translations(8, 8) + [(3, 3)]
        _, keep = build_against_oracle(
            monkeypatch, 8, 8, np.linspace(0.0, np.pi, 3), [2.0],
            [0.5, 1.0], shifts)
        assert len(keep) == 2 * 2 * 16

    def test_chain_compares_with_kept_rows_only(self, monkeypatch):
        # rotations by 2.5e-12 rad move this corner atom by about 0.7 tol
        # and its row sum by more than the rounding slack: b is a
        # duplicate of a, c of b but not of a, and b is dropped, so c stays
        step = 2.5e-12
        rows, keep = build_against_oracle(
            monkeypatch, 7, 7, [0.0, step, 2 * step], [2.0], [1.0], [(0, 0)])
        assert gap(rows, 0, 1) <= DUPLICATE_ATOM_TOL
        assert gap(rows, 1, 2) <= DUPLICATE_ATOM_TOL
        assert gap(rows, 0, 2) > DUPLICATE_ATOM_TOL
        assert abs(rows[0].sum() - rows[1].sum()) > 1e-12
        assert keep == [0, 2]

    def test_equal_sums_just_beyond_tolerance(self, monkeypatch):
        # mirror images about the center of a 7x7 grid: the same values in
        # another order, so the row sums agree, 1.2 tol apart
        angle = 2.5e-12
        rows, keep = build_against_oracle(
            monkeypatch, 7, 7, [-angle, angle], [2.0], [1.0], [(3, 3)])
        assert (DUPLICATE_ATOM_TOL < gap(rows, 0, 1)
                <= 1.5 * DUPLICATE_ATOM_TOL)
        assert abs(rows[0].sum() - rows[1].sum()) <= 1e-15
        assert keep == [0, 1]


# sha256 of atoms.tobytes() for the conftest dictionaries, as built by
# evaluating every atom on its full grid
PINNED_ATOM_DIGESTS = {
    "full_gaussian_dict":
        "d8851327e8ee7a7fb400f6d998b404dcce41f06b74a93e785f5a1e4f412d1ac0",
    "full_gabor_dict":
        "8d2a52458b1d96b44b828b3dbc32ad05c3c032629d0168c98305022b173c26e7",
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


class TestBuildMemory:
    """The builders hold one row array and the atom matrix, not a second
    full-size copy or temporary: a leaked view of the row array through
    the Dictionary copy raises the 2D peak by about 50 MB."""

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
            odd_translations(32, 32))) <= 120.0

    def test_full_gabor_1d_peak(self):
        assert self.peak_mb(lambda: build_gabor_1d_dictionary(1000)) <= 60.0


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

    def test_atom_returns_column(self, onb_dict):
        col = onb_dict.atom(3)
        assert col.shape == (16,)
        assert col[3] == 1.0


class TestBabelFunction:
    def test_matches_brute_force(self, small_gabor_dict):
        # restrict to a subset so the brute force stays cheap
        sub = Dictionary(np.ascontiguousarray(small_gabor_dict.atoms[:, :12]))
        for m in (1, 2, 5, 11):
            assert babel_function(sub, m) == pytest.approx(
                brute_force_babel(sub.atoms, m), abs=1e-12)

    def test_nondecreasing_in_m(self, small_gaussian_dict):
        values = [babel_function(small_gaussian_dict, m)
                  for m in (1, 2, 4, 8, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_m_of_one_is_max_off_diagonal(self, small_gabor_dict):
        gram = np.abs(small_gabor_dict.atoms.T @ small_gabor_dict.atoms)
        np.fill_diagonal(gram, 0.0)
        assert babel_function(small_gabor_dict, 1) == pytest.approx(
            gram.max(), abs=1e-12)

    def test_orthonormal_basis_is_zero(self, onb_dict):
        assert babel_function(onb_dict, 1) == pytest.approx(0.0, abs=1e-12)
        assert babel_function(onb_dict, 5) == pytest.approx(0.0, abs=1e-12)

    def test_zero_m_is_zero(self, onb_dict):
        assert babel_function(onb_dict, 0) == 0.0

    def test_rejects_out_of_range_m(self, onb_dict):
        with pytest.raises(ValueError):
            babel_function(onb_dict, -1)
        with pytest.raises(ValueError):
            babel_function(onb_dict, 16)

    def test_gram_row(self, small_gabor_dict):
        row = gram_row(small_gabor_dict, 4)
        direct = small_gabor_dict.atoms.T @ small_gabor_dict.atom(4)
        assert np.allclose(row, direct, atol=1e-12)

