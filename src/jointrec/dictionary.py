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
floating point, so each atom holds the bits it would have if evaluated
on its own pixel or sample grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

UNIT_NORM_TOL = 1e-9
DUPLICATE_ATOM_TOL = 1e-12


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
    variant : str
        One of ``"gaussian_2d"``, ``"gabor_1d"`` or ``"custom"``; the
        variant names the parameter fields that translations shift.
    """

    def __init__(self, atoms, params=None, variant="custom"):
        atoms = np.array(atoms, dtype=float, order="C")
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
        self.params = params
        self.variant = variant

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
    scaled to unit norm.

    One atom is generated per (theta, sx, sy, translation) tuple, in
    deterministic grid order with theta outermost and translation
    innermost.  Tuples whose atom vector coincides with an earlier one
    (max abs difference at most 1e-12) are dropped; the Gaussian window
    is even, so theta and theta + pi always produce the same atom.

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
    txs = np.array([t[0] for t in translations])
    tys = np.array([t[1] for t in translations])

    # each shape's atoms are written into one array as they are made, so
    # no second copy of every atom is held through duplicate removal
    shapes = list(product(thetas, sxs, sys))
    n_t = len(translations)
    rows = np.empty((len(shapes) * n_t, width * height))
    params = []
    for i, (theta, sx, sy) in enumerate(shapes):
        c = np.cos(theta)
        s = np.sin(theta)
        rx = (du * c - dv * s) / sx
        ry = (dv * c + du * s) / sy
        pattern = np.exp(-rx * rx - ry * ry)
        windows = sliding_window_view(pattern, (height, width))[::-1, ::-1]
        vals = rows[i * n_t:(i + 1) * n_t]
        vals.reshape(n_t, height, width)[...] = windows[tys, txs]
        vals /= np.linalg.norm(vals, axis=1, keepdims=True)
        params.extend(GaussianAtom2D(theta, sx, sy, tx, ty)
                      for tx, ty in translations)
    keep = _drop_duplicate_atoms(rows, params)
    atoms = _columns(rows, keep)
    # the row array and the loop's last view of it go before Dictionary
    # makes its copy
    del rows, vals
    return Dictionary(atoms, params=[params[i] for i in keep],
                      variant="gaussian_2d")


def _columns(rows, keep):
    """The (N, len(keep)) matrix whose columns are ``rows[keep]``, written
    in blocks so that no full-size temporary is made."""
    atoms = np.empty((rows.shape[1], len(keep)))
    block = 256
    for j in range(0, len(keep), block):
        atoms[:, j:j + block] = rows[keep[j:j + block]].T
    return atoms


def _drop_duplicate_atoms(rows, params):
    """Keep-first duplicate removal over atom rows: a row is dropped when
    its max-abs gap to an earlier kept row is at most DUPLICATE_ATOM_TOL.

    Duplicates come from exact symmetries in the angle/scale parameters,
    which leave the translation fixed, so only atoms sharing a translation
    need to be compared.  Rows within that gap have exact sums within
    N * tol, and a float sum of N terms is off by less than N * eps times
    the sum of their magnitudes.  So only pairs whose float row sums are
    within N * tol plus twice that error for both rows are compared in
    full, and the decisions are those of comparing every pair.
    """
    n_rows, n = rows.shape
    block = 64  # rows per temporary
    _, group = np.unique([(p.tx, p.ty) for p in params], axis=0,
                         return_inverse=True)
    sums = rows.sum(axis=1)
    magnitude = max(np.abs(rows[i:i + block]).sum(axis=1).max()
                    for i in range(0, n_rows, block))
    window = n * DUPLICATE_ATOM_TOL + 4 * n * np.finfo(float).eps * magnitude
    # sorted by (translation, sum), a row's candidates follow it directly
    order = np.lexsort((sums, group))
    group, sums = group[order], sums[order]
    lo, hi = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    left = np.arange(n_rows)
    for step in range(1, n_rows):
        left = left[left + step < n_rows]
        right = left + step
        left = left[(group[right] == group[left])
                    & (sums[right] - sums[left] <= window)]
        if not left.size:
            break
        lo.append(order[left])
        hi.append(order[left + step])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    close = np.concatenate([np.zeros(0, dtype=bool)] + [
        np.abs(rows[lo[i:i + block]] - rows[hi[i:i + block]]).max(axis=1)
        <= DUPLICATE_ATOM_TOL for i in range(0, lo.size, block)])
    keep_mask = np.ones(n_rows, dtype=bool)
    # by later row: every earlier row's fate is settled when it is read
    for later, earlier in sorted(zip(hi[close].tolist(), lo[close].tolist())):
        if keep_mask[earlier]:
            keep_mask[later] = False
    return np.flatnonzero(keep_mask)


def build_gabor_1d_dictionary(n, t_start=1, t_step=10,
                              scales=(4.0, 8.0, 16.0),
                              omegas=(2.0, 4.0, 6.0, 8.0, 10.0),
                              include_negated=True):
    """Build a 1D dictionary of cosine-modulated Gaussian atoms.

    Atoms g_(t,s,omega)(x) = rho * exp(-((x-t)/s)^2) * cos(omega (x-t)/s)
    are sampled at x = 1..n for centers t = t_start, t_start + t_step, ...
    up to n.  With ``include_negated`` the negated copy -g follows each g
    as a distinct atom, which lets decoders represent sign flips by atom
    choice.  Order is deterministic with t outermost, then scale, then
    frequency, then sign.
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
    signs = (1, -1) if include_negated else (1,)
    rows = np.empty((len(centers), len(scales), len(omegas), len(signs), n))
    for k, t in enumerate(centers):
        rows[k, :, :, 0] = patterns[:, :, t_last - t:t_last - t + n]
    rows = rows.reshape(-1, len(signs), n)
    for g in rows[:, 0]:
        # the norm of a 1-D vector, as np.linalg.norm computes it
        g /= np.sqrt(g.dot(g))
    if include_negated:
        np.negative(rows[:, 0], out=rows[:, 1])
    rows = rows.reshape(-1, n)
    atoms = _columns(rows, np.arange(rows.shape[0]))
    # the row array and the loop's last view of it go before Dictionary
    # makes its copy
    del rows, g
    params = [ModulatedAtom1D(t, s, omega, sign) for t in centers
              for s in scales for omega in omegas for sign in signs]
    return Dictionary(atoms, params=params, variant="gabor_1d")


def babel_function(dictionary: Dictionary, m: int) -> float:
    """Cumulative coherence mu_1(m) of the dictionary.

    mu_1(m) = max over atoms k of the largest sum of m absolute inner
    products |<atom_l, atom_k>| with l ranging over m distinct atoms
    other than k.  mu_1(0) = 0, and mu_1 vanishes for every m on an
    orthonormal basis.
    """
    k_total = dictionary.n_atoms
    if not 0 <= m < k_total:
        raise ValueError(f"m must lie in 0..{k_total - 1}")
    if m == 0:
        return 0.0
    atoms = dictionary.atoms
    best = -np.inf
    block = 512
    for start in range(0, k_total, block):
        stop = min(start + block, k_total)
        gram = np.abs(atoms.T @ atoms[:, start:stop])
        gram[np.arange(start, stop), np.arange(stop - start)] = -np.inf
        top = np.partition(gram, k_total - m, axis=0)[k_total - m:, :]
        best = max(best, float(top.sum(axis=0).max()))
    return best


def gram_row(dictionary: Dictionary, atom_index: int) -> np.ndarray:
    """Inner products of every atom with the atom at ``atom_index``."""
    if not 0 <= atom_index < dictionary.n_atoms:
        raise ValueError("atom index out of range")
    return dictionary.atoms.T @ dictionary.atoms[:, atom_index]
