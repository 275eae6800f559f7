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
underflow to 0, so no norm and no other entry changes.  Both builders
hand their stacked shape patterns to one writer, which writes each kept
atom once, into the matrix the dictionary keeps, a block of pixel or
sample rows at a time in row order, with one block size for both
families: each block is one gather from the patterns into a block
buffer, divided by the atoms' norms into their columns, and negated from
there into the twins when the dictionary has them.  The 2D duplicate
check compares two cells in full only when two fingerprints of their
unit rows, the row sum and a pseudo-random weighted sum, are both within
a window that no pair within the tolerance exceeds (see
``build_gaussian_2d_dictionary``).  The writer also fills the atoms'
parameter table, one column per parameter field, in one vectorized
pass; the per-atom records are formed only when
``Dictionary.params`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import product, starmap
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
# entries per block of rows in the builders' shared write: its indices
# and gathered block take 128 kB each, and larger blocks write no faster
_WRITE_BLOCK = 1 << 14
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
# the parameter table of each family: one field per record field, in the
# record's order, int64 for an int field and float64 for a float one (the
# annotations are the strings "int" and "float", which np.dtype reads)
_TABLES = {variant: np.dtype([(f.name, f.type) for f in fields(record)])
           for variant, record in _RECORDS.items()}


class Dictionary:
    """A set of K unit-norm atoms stored as the columns of an N x K matrix.

    A parametric dictionary keeps its parameters as a table: a structured
    array with one row per atom and one field, a column, per record
    field.  The (shape, center) grid is read from those columns.  The
    builders fill the table in one vectorized pass and make no record;
    ``params`` forms the records from the table on first access, with
    Python int and float fields.

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
        and a ``"gabor_1d"`` dictionary's ModulatedAtom1D; they are read
        into the parameter table once.  For every variant, ``params``
        returns the records as given.
    variant : str
        One of ``"gaussian_2d"``, ``"gabor_1d"`` or ``"custom"``; the
        variant names the parameter fields that translations shift.
    """

    def __init__(self, atoms, params=None, variant="custom"):
        self._adopt(np.array(atoms, dtype=float, order="C"), None, variant)
        if params is None:
            return
        params = tuple(params)
        if len(params) != self.n_atoms:
            raise ValueError("need exactly one parameter record per atom")
        record = _RECORDS.get(variant)
        if record:
            if not all(isinstance(p, record) for p in params):
                raise ValueError(f"a {variant} dictionary needs "
                                 f"{record.__name__} parameter records")
            dtype = _TABLES[variant]
            self._table = np.array(
                list(map(attrgetter(*dtype.names), params)), dtype)
            self._table.setflags(write=False)
        self.params = params

    @classmethod
    def _own(cls, atoms, table, variant):
        """The builders' path: ``atoms`` is a fresh C-ordered float matrix
        that no one else holds, so it is checked and frozen, not copied;
        ``table`` is the variant's parameter table, one row per atom."""
        dictionary = cls.__new__(cls)
        dictionary._adopt(atoms, table, variant)
        return dictionary

    def _adopt(self, atoms, table, variant):
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
        if table is not None:
            if len(table) != atoms.shape[1]:
                raise ValueError("need exactly one parameter record per atom")
            table.setflags(write=False)
        atoms.setflags(write=False)
        self.atoms = atoms
        self._table = table
        self.variant = variant

    @cached_property
    def params(self):
        """One parameter record per atom, aligned with the columns, or
        None without parameters; formed from the table on first access
        when the dictionary was built."""
        if self._table is None:
            return None
        return tuple(starmap(_RECORDS[self.variant], self._table.tolist()))

    @cached_property
    def _centers(self):
        """(shape, cells, grid) locating every atom by shape and center,
        made on first use and shared by all its readers; None without a
        parameter table (a custom dictionary, or one without records).

        ``shape[k]`` numbers atom k's shape (every parameter but the
        center) and ``cells[k]`` is its center cell, counted from the
        smallest center on each axis; ``grid[shape[k], *cells[k]] == k``
        unless a later atom repeats atom k's shape and center, and -1
        marks a (shape, cell) with no atom.  The arrays are read-only.
        """
        if self._table is None:
            return None
        return _center_grid(self._table, _CENTER_FIELDS[self.variant])

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


def _center_grid(table, centers):
    """The (shape, cells, grid) of ``Dictionary._centers`` for the
    parameter table ``table``, whose fields named in ``centers`` locate
    the center.

    Shapes are numbered in lexicographic order of their fields, as
    ``np.unique(axis=0)`` numbers them: the rows are sorted by every
    field but the center, and a new number starts wherever a field
    changes."""
    keys = [table[name] for name in table.dtype.names if name not in centers]
    count = len(table)
    # lexsort's last key is the primary one
    order = np.lexsort(keys[::-1])
    ranked = np.stack([key[order] for key in keys])
    shape = np.empty(count, dtype=np.int64)
    shape[order] = np.concatenate(
        ([0], np.cumsum(np.any(ranked[:, 1:] != ranked[:, :-1], axis=0))))
    cells = np.column_stack([table[name] for name in centers])
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

    Every shape's pattern is stacked into one array, and the kept atoms
    are written from it by the writer the 1D builder shares, a block of
    pixel rows at a time in row order, each block one gather at the flat
    index of (pixel, atom), divided by the atoms' norms.

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
    # the flattened patterns
    shape_of, cell_of = np.nonzero(keep)
    stride = 2 * width - 1
    offset = (shape_of * patterns[0].size
              + (height - 1 - tys[cell_of]) * stride
              + (width - 1 - txs[cell_of]))
    base = (np.arange(height)[:, np.newaxis] * stride
            + np.arange(width)).ravel()
    return _write_atoms(
        patterns.ravel(), base, offset, norms[shape_of, cell_of], (1,),
        (*np.array(shapes)[shape_of].T, txs[cell_of], tys[cell_of]),
        "gaussian_2d")


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
    frequency repeats its atoms, and their parameters, so such a
    dictionary has no translations.

    Each atom's norm is taken first, from its contiguous slice of its
    shape's pattern.  The atoms are then written by the writer the 2D
    builder shares, a block of sample rows at a time in row order, and
    the negated twins are written from the same block.
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
    n_shapes = len(scales) * len(omegas)

    # no duplicates are removed, and atom (t, s, omega) holds at sample x
    # the entry start[atom] + x - 1 of the flattened patterns, for the
    # atoms in column order with t outermost.  Each norm is that of the
    # atom's contiguous pattern slice, as np.linalg.norm forms it for a
    # 1-D vector
    flat = patterns.ravel()
    start = (np.arange(n_shapes) * offsets.size
             + (t_last - np.array(centers))[:, np.newaxis]).ravel()
    norms = np.empty(start.size)
    for atom, first in enumerate(start.tolist()):
        g = flat[first:first + n]
        norms[atom] = g.dot(g)
    np.sqrt(norms, out=norms)
    return _write_atoms(flat, np.arange(n), start, norms, signs, [
        column.ravel() for column in np.meshgrid(
            centers, scales, omegas, signs, indexing="ij")], "gabor_1d")


def _write_atoms(flat, base, offset, norms, signs, columns, variant):
    """The dictionary whose atom k holds at row r the entry
    ``flat[base[r] + offset[k]] / norms[k]``, followed by its negated
    twin when ``signs`` is (1, -1), with the parameter table ``columns``
    (one column per field of the variant's record, one entry per atom).

    The atoms are written once, a block of rows at a time in row order:
    each block is one take from ``flat`` into a block buffer (mode
    "clip" writes into out unbuffered; every index is in range), divided
    by the norms straight into the atoms' columns and negated from there
    into their twins."""
    n, k = base.size, offset.size
    atoms = np.empty((n, k * len(signs)))
    twins = atoms.reshape(n, k, len(signs))
    index = np.empty((min(n, max(1, _WRITE_BLOCK // k)), k), dtype=np.int64)
    block = np.empty(index.shape)
    for first in range(0, n, len(index)):
        rows = twins[first:first + len(index)]
        at = np.add(base[first:first + len(rows), np.newaxis], offset,
                    out=index[:len(rows)])
        flat.take(at, out=block[:len(rows)], mode="clip")
        np.divide(block[:len(rows)], norms, out=rows[..., 0])
        if len(signs) > 1:
            np.negative(rows[..., 0], out=rows[..., 1])
    table = np.empty(atoms.shape[1], _TABLES[variant])
    for name, column in zip(table.dtype.names, columns):
        table[name] = column
    return Dictionary._own(atoms, table, variant)
