"""Parametric dictionaries of unit-norm atoms.

Two families are provided.  The 2D family rotates, scales and translates
the window g(x, y) = exp(-x^2 - y^2) over a pixel grid; the 1D family
consists of Gaussian windows modulated by a cosine (Gabor functions) on
an integer sample grid.  Atoms are sampled at integer grid positions,
truncated by the grid border, and normalized to unit Euclidean norm
afterwards, so every column of the atom matrix has norm 1.

Construction is deterministic: the same parameter grid always yields a
bit-identical atom matrix with the same column order.  Each atom shape
is evaluated once, on the grid of integer offsets from its center, and
every atom is a window of that pattern; the offsets are exact in
floating point, so each atom holds the bits of its own pixel or sample
grid, with samples below 1e-300 in magnitude stored as 0.  Those samples
lie deep in the windows' tails; stored as they are, they would leave
subnormal entries in the atoms, and every product with the atoms would
run down the CPU's slow path for subnormal arithmetic.  Their squares
underflow to 0, so no norm and no other entry changes.  The builders
write each kept atom once, straight into its column of the matrix the
dictionary keeps; the 2D builder writes a block of pixel rows at a time,
in row order, each block one gather from the stacked shape patterns,
divided in place by the atoms' norms.  Its duplicate check compares two
cells in full only when two fingerprints of their unit rows, the row sum
and a pseudo-random weighted sum, are both within a window that no pair
within the tolerance exceeds (see ``build_gaussian_2d_dictionary``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import product
from operator import attrgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

UNIT_NORM_TOL = 1e-9
DUPLICATE_ATOM_TOL = 1e-12
# pattern samples below this magnitude are stored as 0.  Samples satisfy
# |g| <= 1, so an atom's norm is at most sqrt(N), and a kept sample divided
# by its norm stays at least 1e-300 / sqrt(N), above the smallest normal
# float (2.2e-308) for any N < 2e15: no atom holds a subnormal entry, which
# would send every product with the atoms down the CPU's slow path.  The
# squares of the zeroed samples underflow to 0 already, so every norm, and
# so every kept sample's stored entry, keeps its bits.
_SAMPLE_FLOOR = 1e-300
# entries per block of pixel rows in the 2D builder's write: its indices
# take 1 MB
_WRITE_BLOCK = 1 << 17
# the parameter fields that locate an atom's center, per dictionary family
_CENTER_FIELDS = {"gaussian_2d": ("tx", "ty"), "gabor_1d": ("t",)}


@dataclass(frozen=True)
class GaussianAtom2D:
    """Rotation angle, per-axis scales and integer pixel translation of one atom."""

    theta: float
    sx: float
    sy: float
    tx: int
    ty: int


@dataclass(frozen=True)
class ModulatedAtom1D:
    """Center, width, modulation frequency and sign of one 1D atom."""

    t: int
    s: float
    omega: float
    sign: int


# the parameter record of each parametric dictionary family
_RECORDS = {"gaussian_2d": GaussianAtom2D, "gabor_1d": ModulatedAtom1D}


class Dictionary:
    """A set of K unit-norm atoms stored as the columns of an N x K matrix.

    Parameters
    ----------
    atoms : ndarray, shape (N, K)
        Atom matrix, stored as a read-only C-ordered copy.  Entries must
        be finite and columns unit norm within 1e-9; the builders below
        scale each atom to unit norm before they construct one.
    params : sequence, optional
        One hashable parameter record per atom, aligned with the columns.
        Required for parametric transforms; plain matrices may omit it.
        A ``"gaussian_2d"`` dictionary's records must be GaussianAtom2D,
        and a ``"gabor_1d"`` dictionary's ModulatedAtom1D.
    variant : str
        One of ``"gaussian_2d"``, ``"gabor_1d"`` or ``"custom"``; the
        variant names the parameter fields that translations shift.
    """

    def __init__(self, atoms, params=None, variant="custom"):
        self._adopt(np.array(atoms, dtype=float, order="C"), params, variant)

    @classmethod
    def _own(cls, atoms, params, variant):
        """The builders' path: ``atoms`` is a fresh C-ordered float matrix
        that no one else holds, so it is checked and frozen, not copied."""
        dictionary = cls.__new__(cls)
        dictionary._adopt(atoms, params, variant)
        return dictionary

    def _adopt(self, atoms, params, variant):
        if variant != "custom" and variant not in _RECORDS:
            raise ValueError(f"unknown dictionary variant {variant!r}; expected "
                             "'gaussian_2d', 'gabor_1d' or 'custom'")
        if atoms.ndim != 2 or atoms.shape[0] == 0 or atoms.shape[1] == 0:
            raise ValueError("atoms must be a nonempty N x K matrix")
        # np.linalg.norm(atoms, axis=0) would hold a full-size x*x temporary
        norms = np.sqrt(np.einsum("ij,ij->j", atoms, atoms))
        # a NaN entry makes its column's norm NaN, which no bound rejects
        if not np.all(np.isfinite(norms)):
            raise ValueError("atoms must be finite, with finite norms")
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(
                f"atom columns must be unit norm within {UNIT_NORM_TOL:g} "
                f"(worst deviation {worst:g})")
        atoms.setflags(write=False)
        self.atoms = atoms
        if params is not None:
            params = tuple(params)
            if len(params) != atoms.shape[1]:
                raise ValueError("need exactly one parameter record per atom")
            record = _RECORDS.get(variant)
            if record and not all(isinstance(p, record) for p in params):
                raise ValueError(f"a {variant} dictionary needs "
                                 f"{record.__name__} parameter records")
        self.params = params
        self.variant = variant

    @cached_property
    def _centers(self):
        """(shape, cells, grid) locating every atom by shape and center,
        made on first use and shared by all its readers; None without
        parameter records or for a variant with no center fields.

        ``shape[k]`` numbers atom k's shape (every parameter but the
        center) and ``cells[k]`` is its center cell, counted from the
        smallest center on each axis; ``grid[shape[k], *cells[k]] == k``,
        and -1 marks a (shape, cell) with no atom.  The arrays are
        read-only.
        """
        if self.params is None or self.variant not in _CENTER_FIELDS:
            return None
        return _center_grid(self.params, _CENTER_FIELDS[self.variant])

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    @property
    def signal_length(self) -> int:
        return self.atoms.shape[0]

    def atom(self, index: int) -> np.ndarray:
        return self.atoms[:, index]

    def __repr__(self):
        return (f"Dictionary(variant={self.variant!r}, "
                f"n_atoms={self.n_atoms}, signal_length={self.signal_length})")


def _center_grid(params, centers):
    """The (shape, cells, grid) of ``Dictionary._centers`` for the records
    ``params``, whose fields named in ``centers`` locate the center.

    Shapes are numbered in lexicographic order of their fields, as
    ``np.unique(axis=0)`` numbers them: the records are sorted by every
    field but the center, and a new number starts wherever a field
    changes."""
    names = [f.name for f in fields(params[0]) if f.name not in centers]
    count = len(params)
    keys = [np.fromiter(map(attrgetter(name), params), float, count=count)
            for name in names]
    # lexsort's last key is the primary one
    order = np.lexsort(keys[::-1])
    ranked = np.stack([key[order] for key in keys])
    shape = np.empty(count, dtype=np.int64)
    shape[order] = np.concatenate(
        ([0], np.cumsum(np.any(ranked[:, 1:] != ranked[:, :-1], axis=0))))
    cells = np.column_stack([
        np.fromiter(map(attrgetter(name), params), float, count=count)
        for name in centers]).astype(np.int64)
    cells -= cells.min(axis=0)
    grid = np.full((shape.max() + 1, *(cells.max(axis=0) + 1)), -1)
    grid[(shape, *cells.T)] = np.arange(count)
    for a in (shape, cells, grid):
        a.setflags(write=False)
    return shape, cells, grid


def odd_translations(width: int, height: int) -> list[tuple[int, int]]:
    """All pixel translations with odd x and y coordinates, column-major in x."""
    return [(tx, ty) for tx in range(1, width, 2) for ty in range(1, height, 2)]


def build_gaussian_2d_dictionary(width, height, thetas, sxs, sys, translations):
    """Build a 2D Gaussian dictionary over a Cartesian parameter grid.

    The atom of (theta, sx, sy, (tx, ty)) evaluates the window
    g(x, y) = exp(-x^2 - y^2) at

        X = ((x - tx) cos(theta) - (y - ty) sin(theta)) / sx
        Y = ((y - ty) cos(theta) + (x - tx) sin(theta)) / sy

    for integer pixels x in 0..width-1 (columns) and y in 0..height-1
    (rows), flattened row-major to a vector of length width*height and
    scaled to unit norm.  Samples below 1e-300 are stored as 0 before
    scaling, so no atom holds a subnormal entry.

    One atom is generated per (theta, sx, sy, translation) tuple, in
    deterministic grid order with theta outermost and translation
    innermost.  Tuples whose atom vector coincides with an earlier one
    (max abs difference at most 1e-12) are dropped; the Gaussian window
    is even, so theta and theta + pi always produce the same atom.  Only
    atoms at the same translation can coincide, so the rule is applied
    to a table over (shape, distinct translation): a repeated
    translation repeats its first atoms exactly, and a cell is dropped
    when it lies within 1e-12 of a kept cell of an earlier shape at its
    translation.  Two cells are compared in full only when both of their
    fingerprints are within a fixed window that no pair within 1e-12
    exceeds: the row sum, and a sum weighted by a fixed pseudo-random
    vector that no symmetry of the pixel grid preserves, so mirror
    images, whose row sums agree, are told apart without a comparison.

    The kept atoms are written once, into the matrix the dictionary
    keeps, a block of pixel rows at a time in row order: every shape's
    pattern is stacked into one array, each block is one gather from it
    at the flat index of (pixel, atom), and the block is then divided in
    place by the atoms' norms.

    Parameters
    ----------
    width, height : int
        Pixel grid dimensions; atoms live in R^(width*height).
    thetas, sxs, sys : sequence of float
        Rotation angles and per-axis scales; scales must be positive.
    translations : sequence of (int, int)
        Pixel centers (tx, ty), each inside the grid.
    """
    if width <= 0 or height <= 0:
        raise ValueError("grid dimensions must be positive")
    thetas = [float(t) for t in thetas]
    sxs = [float(s) for s in sxs]
    sys = [float(s) for s in sys]
    translations = [(int(tx), int(ty)) for tx, ty in translations]
    if not thetas or not sxs or not sys or not translations:
        raise ValueError("empty parameter grid")
    if not all(map(math.isfinite, thetas)):
        raise ValueError("angles must be finite")
    if not all(0 < s < math.inf for s in sxs + sys):
        raise ValueError("degenerate scale: all scales must be finite and "
                         "positive")
    for tx, ty in translations:
        if not (0 <= tx < width and 0 <= ty < height):
            raise ValueError(f"translation ({tx}, {ty}) outside the image grid")

    # a shape's value at pixel (x, y) depends only on the exact integer
    # offset (x - tx, y - ty), so each shape is evaluated once over every
    # offset, and the atom at (tx, ty) is the (height, width) window of
    # that pattern whose corner sits at offset (-tx, -ty)
    du = np.arange(1 - width, width, dtype=float)[np.newaxis, :]
    dv = np.arange(1 - height, height, dtype=float)[:, np.newaxis]
    # a repeated translation repeats its first atom of every shape exactly,
    # so the atoms form a table over (shape, distinct translation)
    cells = list(dict.fromkeys(translations))
    txs = np.array([t[0] for t in cells])
    tys = np.array([t[1] for t in cells])
    n = width * height
    shapes = list(product(thetas, sxs, sys))
    patterns = np.empty((len(shapes), 2 * height - 1, 2 * width - 1))
    windows = []
    norms = np.empty((len(shapes), len(cells)))
    prints = np.empty((len(shapes), len(cells), 2))
    keep = np.zeros(norms.shape, dtype=bool)
    # the fingerprints of a unit row u are w . u for the weights w in the
    # columns of ``weights``: all ones, and a fixed pseudo-random vector in
    # [-1, 1], which no symmetry of the pixel grid preserves, so mirror
    # images (equal sums) differ in the second.  Rows within
    # DUPLICATE_ATOM_TOL have exact fingerprints within n * tol.  A unit
    # row is u = fl(b / nu) for the gathered row b and its norm nu, and its
    # fingerprint is formed as fl(fl(b . w) / nu): the dot product is off
    # by at most gamma_n sum |b_k| <= gamma_n sqrt(n) |b| (Cauchy-Schwarz),
    # the division adds a relative u, and each entry of the unit row is off
    # from b_k / nu by a relative u, so the fingerprint is within about
    # (n + 2) u sqrt(n) |b| / nu of the exact w . u, u = eps / 2 the unit
    # roundoff and |b| / nu < 1 + 1e-6.  That is below 2 n eps sqrt(n) for
    # any n >= 1; the window allows it for both rows.
    weights = np.ones((n, 2))
    weights[:, 1] = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    window = (n * DUPLICATE_ATOM_TOL
              + 4 * n * np.finfo(float).eps * math.sqrt(n) * (1 + 1e-6))

    # pass 1, keep-first: a cell is dropped when it lies within the
    # tolerance of a kept cell of an earlier shape at its translation
    for i, (theta, sx, sy) in enumerate(shapes):
        c = np.cos(theta)
        s = np.sin(theta)
        rx = (du * c - dv * s) / sx
        ry = (dv * c + du * s) / sy
        pattern = patterns[i]
        np.exp(-rx * rx - ry * ry, out=pattern)
        pattern[pattern < _SAMPLE_FLOOR] = 0.0
        windows.append(
            sliding_window_view(pattern, (height, width))[::-1, ::-1])
        block = windows[i][tys, txs].reshape(len(cells), n)
        # the arithmetic of np.linalg.norm(block, axis=1)
        norms[i] = np.sqrt(np.add.reduce(block * block, axis=1))
        np.divide(block @ weights, norms[i, :, np.newaxis], out=prints[i])
        near = keep[:i] & np.all(np.abs(prints[:i] - prints[i]) <= window,
                                 axis=2)
        keep[i] = True
        for j in np.flatnonzero(near.any(axis=1)):
            at = np.flatnonzero(near[j])
            keep[i, at] &= DUPLICATE_ATOM_TOL < np.abs(
                block[at] / norms[i, at, np.newaxis]
                - _unit_atoms(windows[j], tys[at], txs[at], norms[j, at])
            ).max(axis=1)

    # pass 2: atom (i, (tx, ty)) holds at pixel (x, y) pattern i's sample
    # at offset (x - tx, y - ty), the entry offset[atom] + base[pixel] of
    # the flattened patterns; each block of pixel rows is one take from
    # there straight into the atoms' rows (mode "clip" writes into out
    # unbuffered; every index is in range), divided in place by the norms
    shape_of, cell_of = np.nonzero(keep)
    k = shape_of.size
    stride = 2 * width - 1
    offset = (shape_of * patterns[0].size
              + (height - 1 - tys[cell_of]) * stride
              + (width - 1 - txs[cell_of]))
    base = (np.arange(height)[:, np.newaxis] * stride
            + np.arange(width)).ravel()
    kept_norms = norms[shape_of, cell_of]
    flat = patterns.ravel()
    atoms = np.empty((n, k))
    index = np.empty((max(1, _WRITE_BLOCK // k), k), dtype=np.int64)
    for start in range(0, n, len(index)):
        rows = atoms[start:start + len(index)]
        at = np.add(base[start:start + len(rows), np.newaxis], offset,
                    out=index[:len(rows)])
        flat.take(at, out=rows, mode="clip")
        rows /= kept_norms
    params = [GaussianAtom2D(*shapes[i], *cells[j])
              for i, j in zip(shape_of.tolist(), cell_of.tolist())]
    return Dictionary._own(atoms, params, "gaussian_2d")


def _unit_atoms(windows, tys, txs, norms):
    """The pattern windows at translations (txs, tys) as rows, each divided
    by its norm: the kept cells that a new cell is compared with in full."""
    rows = windows[tys, txs].reshape(len(norms), windows[0, 0].size)
    rows /= norms[:, np.newaxis]
    return rows


def build_gabor_1d_dictionary(n, t_start=1, t_step=10,
                              scales=(4.0, 8.0, 16.0),
                              omegas=(2.0, 4.0, 6.0, 8.0, 10.0),
                              include_negated=True):
    """Build a 1D dictionary of cosine-modulated Gaussian atoms.

    Atoms g_(t,s,omega)(x) = rho * exp(-((x-t)/s)^2) * cos(omega (x-t)/s)
    are sampled at x = 1..n for centers t = t_start, t_start + t_step, ...
    up to n, and scaled to unit norm; samples below 1e-300 in magnitude
    are stored as 0 before scaling, so no atom holds a subnormal entry.
    With ``include_negated`` the negated copy -g follows each g
    as a distinct atom, which lets decoders represent sign flips by atom
    choice.  Order is deterministic with t outermost, then scale, then
    frequency, then sign.  No duplicates are removed: a repeated scale or
    frequency repeats its atoms.
    """
    if n <= 0:
        raise ValueError("signal length must be positive")
    if t_step < 1:
        raise ValueError("t_step must be at least 1")
    if not (1 <= t_start <= n):
        raise ValueError("t_start must lie in 1..n")
    scales = [float(s) for s in scales]
    omegas = [float(w) for w in omegas]
    if not scales or not omegas:
        raise ValueError("empty parameter grid")
    if not all(0 < s < math.inf for s in scales):
        raise ValueError("degenerate scale: all scales must be finite and "
                         "positive")
    if not all(map(math.isfinite, omegas)):
        raise ValueError("frequencies must be finite")

    # atom (t, s, omega) samples its shape at the offsets x - t, so each
    # (s, omega) shape is evaluated once over every offset 1 - t_last ..
    # n - t_start and the atom at t is the n samples from offset 1 - t
    centers = range(t_start, n + 1, t_step)
    t_last = centers[-1]
    offsets = np.arange(1 - t_last, n - t_start + 1, dtype=float)
    patterns = np.empty((len(scales), len(omegas), offsets.size))
    for i, s in enumerate(scales):
        u = offsets / s
        window = np.exp(-u * u)
        for j, omega in enumerate(omegas):
            patterns[i, j] = window * np.cos(omega * u)
    patterns[np.abs(patterns) < _SAMPLE_FLOOR] = 0.0
    signs = (1, -1) if include_negated else (1,)
    params = [ModulatedAtom1D(t, s, omega, sign) for t in centers
              for s in scales for omega in omegas for sign in signs]
    # no duplicates are removed, so each atom goes straight to its
    # column, followed by its negated twin
    atoms = np.empty((n, len(params)))
    columns = atoms.reshape(n, len(centers), len(scales), len(omegas),
                            len(signs))
    for k, t in enumerate(centers):
        for i, j in product(range(len(scales)), range(len(omegas))):
            g = patterns[i, j, t_last - t:t_last - t + n]
            # the norm of a 1-D vector, as np.linalg.norm computes it
            columns[:, k, i, j, 0] = g / np.sqrt(g.dot(g))
    if include_negated:
        np.negative(columns[..., 0], out=columns[..., 1])
    return Dictionary._own(atoms, params, "gabor_1d")
