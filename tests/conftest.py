"""Shared fixtures: small deterministic dictionaries and the full presets.

The full-size dictionaries take a few seconds to build, so they are
session-scoped and shared between the unit tests and the acceptance
suite.  ``enumerate_vectors`` is the oracle of enumeration order.
"""

from itertools import product

import numpy as np
import pytest

from jointrec import (Dictionary, TransformVector, build_gabor_1d_dictionary,
                      build_gaussian_2d_dictionary, odd_translations)


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
    """A length-100 1D dictionary with negated twins (40 atoms)."""
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
