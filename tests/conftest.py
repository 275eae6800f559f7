"""Shared fixtures: small deterministic dictionaries and the full presets.

The full-size dictionaries take a few seconds to build, so they are
session-scoped and shared between the unit tests and the acceptance
suite.  ``enumerate_vectors`` is the oracle of enumeration order,
``argsort_top_s`` the oracle of top-S selection, and ``noiseless_score``
the expected score of a (support, transforms) pair.
``gaussian_atom_2d`` and ``modulated_atom_1d`` sample one atom at a time,
and ``gaussian_2d_oracle`` and ``gabor_1d_oracle`` evaluate every atom
on its full grid; they are the oracles of the dictionary builders, which
evaluate each atom shape once over its offsets.  Like the builders, they
store samples below ``_SAMPLE_FLOOR`` in magnitude as 0 before
normalizing.  ``oracle_keep_first`` removes duplicate 2D atoms by
comparing every pair at a translation.
"""

from itertools import product

import numpy as np
import pytest

from jointrec import (Dictionary, GaussianAtom2D, ModulatedAtom1D,
                      TransformVector, build_gabor_1d_dictionary,
                      build_gaussian_2d_dictionary, odd_translations)
from jointrec.dictionary import _SAMPLE_FLOOR, DUPLICATE_ATOM_TOL
from jointrec.transforms import apply_to_support


@pytest.fixture(scope="session")
def full_gaussian_dict():
    """The 32x32 image dictionary used by the full-scale presets."""
    return build_gaussian_2d_dictionary(
        32, 32, np.linspace(0.0, np.pi, 7), [2.0, 4.0], [0.5, 1.0],
        odd_translations(32, 32))


@pytest.fixture(scope="session")
def full_gabor_dict():
    """The length-1000 modulated-Gaussian dictionary (3000 atoms)."""
    return build_gabor_1d_dictionary(1000)


@pytest.fixture(scope="session")
def small_gaussian_dict():
    """A 8x8 grid version of the image dictionary: fast, same structure."""
    return build_gaussian_2d_dictionary(
        8, 8, np.linspace(0.0, np.pi, 7), [2.0], [0.5, 1.0],
        odd_translations(8, 8))


@pytest.fixture(scope="session")
def small_gabor_dict():
    """A length-100 1D dictionary with negated twins (80 atoms)."""
    return build_gabor_1d_dictionary(100, scales=[4.0, 8.0],
                                     omegas=[2.0, 4.0])


@pytest.fixture(scope="session")
def onb_dict():
    """Standard basis as a dictionary: every oracle is exact on it."""
    return Dictionary(np.eye(16))


def random_orthonormal_dictionary(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Dictionary(q)


def enumerate_vectors(candidates):
    """Yield every candidate TransformVector in lexicographic order.

    The Cartesian product over views runs with the last view varying
    fastest, matching the order of the per-view candidate lists; a
    single-view candidate set yields exactly the identity vector.
    """
    for combo in product(*candidates.per_view):
        yield TransformVector((candidates.identity,) + combo)


def argsort_top_s(values, sparsity):
    """(support, score) of ``select_top_s`` by a full stable sort: the S
    first entries by (-value, index), summed in that order."""
    chosen = np.argsort(-values, kind="stable")[:sparsity]
    return np.sort(chosen), float(values[chosen].sum())


def noiseless_score(signals, dictionary, support, transforms) -> float:
    """Score of a (support, transforms) pair against the signals themselves.

    Sums, over views and support atoms, the correlation of view j's
    signal with the transformed atom; this equals the expectation of the
    measured score over Gaussian sensing draws.  Raises when a support
    atom leaves some transform's domain.
    """
    signals = [np.asarray(y, dtype=float) for y in signals]
    if len(signals) != len(transforms):
        raise ValueError("need exactly one transform per signal")
    total = 0.0
    for y, t in zip(signals, transforms):
        image = apply_to_support(t, support)
        total += float(np.sum(dictionary.atoms[:, image].T @ y))
    return total


def gaussian_atom_2d(width: int, height: int, params) -> np.ndarray:
    """Sample one rotated, scaled and translated Gaussian atom on the pixel grid.

    The window g(x, y) = exp(-x^2 - y^2) is evaluated at

        X = ((x - tx) cos(theta) - (y - ty) sin(theta)) / sx
        Y = ((y - ty) cos(theta) + (x - tx) sin(theta)) / sy

    for integer pixels x in 0..width-1 (columns) and y in 0..height-1 (rows),
    flattened row-major to a vector of length width*height, then floored
    and normalized.  ``params`` is a GaussianAtom2D record.
    """
    xs = np.arange(width, dtype=float)
    ys = np.arange(height, dtype=float)
    u = xs[np.newaxis, :] - params.tx
    v = ys[:, np.newaxis] - params.ty
    c = np.cos(params.theta)
    s = np.sin(params.theta)
    rx = (u * c - v * s) / params.sx
    ry = (v * c + u * s) / params.sy
    values = np.exp(-rx * rx - ry * ry).ravel()
    values[values < _SAMPLE_FLOOR] = 0.0
    return values / np.linalg.norm(values)


def modulated_atom_1d(n: int, params) -> np.ndarray:
    """Sample one cosine-modulated Gaussian atom at integer positions 1..n;
    ``params`` is a ModulatedAtom1D record."""
    x = np.arange(1, n + 1, dtype=float)
    u = (x - params.t) / params.s
    values = params.sign * np.exp(-u * u) * np.cos(params.omega * u)
    values[np.abs(values) < _SAMPLE_FLOOR] = 0.0
    return values / np.linalg.norm(values)


def gaussian_2d_rows(width, height, thetas, sxs, sys, translations):
    """(rows, params) of every (theta, sx, sy, translation) tuple in grid
    order, each shape evaluated over the full (translation, y, x) grid;
    rows are unit atoms, duplicates included."""
    thetas, sxs, sys = ([float(a) for a in grid] for grid in (thetas, sxs, sys))
    xs = np.arange(width, dtype=float)
    ys = np.arange(height, dtype=float)
    txs = np.array([t[0] for t in translations], dtype=float)
    tys = np.array([t[1] for t in translations], dtype=float)
    u = xs[np.newaxis, np.newaxis, :] - txs[:, np.newaxis, np.newaxis]
    v = ys[np.newaxis, :, np.newaxis] - tys[:, np.newaxis, np.newaxis]
    blocks = []
    params = []
    for theta, sx, sy in product(thetas, sxs, sys):
        c = np.cos(theta)
        s = np.sin(theta)
        rx = (u * c - v * s) / sx
        ry = (v * c + u * s) / sy
        vals = np.exp(-rx * rx - ry * ry).reshape(len(translations), -1)
        vals[vals < _SAMPLE_FLOOR] = 0.0
        vals /= np.linalg.norm(vals, axis=1, keepdims=True)
        blocks.append(vals)
        params.extend(GaussianAtom2D(theta, sx, sy, tx, ty)
                      for tx, ty in translations)
    return np.concatenate(blocks), params


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


def gaussian_2d_oracle(width, height, thetas, sxs, sys, translations):
    """(atoms, params) of build_gaussian_2d_dictionary: the full-grid rows
    after keep-first duplicate removal."""
    rows, params = gaussian_2d_rows(width, height, thetas, sxs, sys,
                                    translations)
    keep = oracle_keep_first(rows, params)
    return rows[keep].T, [params[i] for i in keep]


def gabor_1d_oracle(n, t_start, t_step, scales, omegas, include_negated):
    """(atoms, params) of build_gabor_1d_dictionary, one atom at a time
    over the samples 1..n."""
    x = np.arange(1, n + 1, dtype=float)
    columns = []
    params = []
    for t in range(t_start, n + 1, t_step):
        for s in scales:
            u = (x - t) / s
            window = np.exp(-u * u)
            for omega in omegas:
                g = window * np.cos(omega * u)
                g[np.abs(g) < _SAMPLE_FLOOR] = 0.0
                g = g / np.linalg.norm(g)
                columns.append(g)
                params.append(ModulatedAtom1D(t, s, omega, 1))
                if include_negated:
                    columns.append(-g)
                    params.append(ModulatedAtom1D(t, s, omega, -1))
    return np.column_stack(columns), params
