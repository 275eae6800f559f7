"""Generation and validation of correlated sparse signal ensembles.

An ensemble holds J signals y_j, each a combination of S dictionary
atoms, whose supports are the images of one reference support under the
per-view transforms.  Generation rejection-samples supports and
coefficients until every view satisfies two decodability conditions:

* a positive thresholding margin: the smallest absolute correlation of
  the normalized signal with its own support atoms exceeds the largest
  absolute correlation with any atom outside the support;
* positivity: the raw correlation of the signal with each support atom
  is nonnegative (dictionaries that include negated atoms let a model
  swap an offending atom for its negation instead).

The achieved margin (minimum over views) is recorded with the ensemble,
and so is the number of draws made.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dictionary import Dictionary
from .transforms import TransformVector

COEFF_MAGNITUDE_RANGE = (0.5, 1.5)
# atoms per block in the margin check on the support's blocks
_MARGIN_BLOCK = 512


class EnsembleGenerationError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(eq=False)
class SignalEnsemble:
    """Correlated sparse signals plus the ground truth that produced them."""

    reference_support: np.ndarray
    transforms: TransformVector
    supports: tuple[np.ndarray, ...]
    coefficients: tuple[np.ndarray, ...]
    signals: tuple[np.ndarray, ...]
    margin: float
    min_energy: float
    max_energy: float
    # draws made, the accepted one included
    attempts: int

    @property
    def n_views(self) -> int:
        return len(self.signals)

    @property
    def sparsity(self) -> int:
        return int(self.reference_support.size)


def thresholding_margin(signal, support, dictionary: Dictionary) -> float:
    """Margin between in-support and out-of-support absolute correlations.

    Computes min over support atoms of |<y/||y||, atom>| minus the max of
    the same quantity over all other atoms.  A positive value witnesses
    the separation that thresholding decoders rely on.
    """
    signal = np.asarray(signal, dtype=float)
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise ValueError("support must be nonempty")
    if support.size != np.unique(support).size:
        raise ValueError("support indices must be distinct")
    if support.min() < 0 or support.max() >= dictionary.n_atoms:
        raise ValueError("support index out of range")
    if support.size >= dictionary.n_atoms:
        raise ValueError("support covers the whole dictionary; margin undefined")
    corr = np.abs(dictionary.atoms.T @ _unit(signal))
    inside = corr[support].min()
    mask = np.ones(dictionary.n_atoms, dtype=bool)
    mask[support] = False
    outside = corr[mask].max()
    return float(inside - outside)


def _unit(signal) -> np.ndarray:
    norm = np.linalg.norm(signal)
    if norm == 0.0:
        raise ValueError("zero signal has no margin")
    return signal / norm


def _support_block_margin(signal, support, dictionary: Dictionary) -> float:
    """thresholding_margin with the outside atoms cut down to those in the
    support's blocks of _MARGIN_BLOCK consecutive atoms (+inf when there are
    none), for a valid support.

    Each block's product equals the same entries of the full product, so
    this bounds thresholding_margin from above, bit for bit: a value <= 0
    rejects a draw at the cost of a few blocks.  Raises ValueError on a
    zero signal, as thresholding_margin does.
    """
    unit = _unit(signal)
    size = _MARGIN_BLOCK
    inside, outside = np.inf, -np.inf
    for start in np.unique(support // size) * size:
        corr = np.abs(dictionary.atoms[:, start:start + size].T @ unit)
        held = support[support // size * size == start] - start
        inside = min(inside, corr[held].min())
        corr[held] = -np.inf
        outside = max(outside, corr.max())
    return float(inside - outside)


def check_positivity(signal, support, dictionary: Dictionary) -> bool:
    """Whether the signal correlates nonnegatively with each support atom.

    A False result can be repaired, for dictionaries containing negated
    atom pairs, by swapping each offending atom for its negation and
    negating the matching coefficient; the signal is unchanged.
    """
    signal = np.asarray(signal, dtype=float)
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise ValueError("support must be nonempty")
    if support.min() < 0 or support.max() >= dictionary.n_atoms:
        raise ValueError("support index out of range")
    corr = dictionary.atoms[:, support].T @ signal
    return bool(np.all(corr >= 0.0))


def generate_ensemble(dictionary: Dictionary, sparsity: int,
                      transforms: TransformVector, coeff_rule: str = "shared",
                      seed=None, max_attempts: int = 10_000, *,
                      require_margin: bool = True,
                      require_positivity: bool = True,
                      coeff_range: tuple[float, float] = COEFF_MAGNITUDE_RANGE
                      ) -> SignalEnsemble:
    """Rejection-sample an ensemble consistent with the given transforms.

    Reference supports are drawn uniformly from the atoms that stay inside
    every transform's domain; coefficient magnitudes are uniform on
    ``coeff_range``, [0.5, 1.5] by default (shared across views, or drawn
    independently per view with ``coeff_rule="independent"``).  A draw is
    accepted once every view passes the thresholding margin and positivity
    checks; the keyword flags relax either check for models, such as
    dictionaries with negated atom pairs, where it cannot hold by
    construction.  Highly coherent dictionaries only admit positive
    margins when coefficient magnitudes are nearly equal, so a narrower
    ``coeff_range`` may be needed to keep rejection sampling feasible.
    The recorded margin is the minimum over views regardless of whether
    it was enforced.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    if sparsity >= dictionary.n_atoms:
        raise ValueError("sparsity must leave at least one atom outside the support")
    if coeff_rule not in ("shared", "independent"):
        raise ValueError(f"unknown coefficient rule {coeff_rule!r}")
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    lo, hi = float(coeff_range[0]), float(coeff_range[1])
    if not 0.0 < lo <= hi < np.inf:
        raise ValueError("coeff_range must be finite and satisfy "
                         "0 < lo <= hi")
    n_views = transforms.n_views
    common = np.ones(dictionary.n_atoms, dtype=bool)
    for t in transforms:
        common &= t.domain_mask
    candidates = np.flatnonzero(common)
    if candidates.size < sparsity:
        raise ValueError(
            "fewer atoms than the sparsity level survive every transform's domain")

    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        reference = np.sort(rng.choice(candidates, size=sparsity, replace=False))
        if coeff_rule == "shared":
            shared = rng.uniform(lo, hi, size=sparsity)
            coeffs = [shared] * n_views
        else:
            coeffs = [rng.uniform(lo, hi, size=sparsity) for _ in range(n_views)]

        supports = []
        signals = []
        margins = []
        ok = True
        for t, x in zip(transforms, coeffs):
            view_support = t.mapping[reference]
            y = dictionary.atoms[:, view_support] @ x
            # most rejected draws fail next to their support: settle
            # those from its blocks alone
            if (require_margin and _support_block_margin(
                    y, view_support, dictionary) <= 0.0):
                ok = False
                break
            margin = thresholding_margin(y, view_support, dictionary)
            if require_margin and margin <= 0.0:
                ok = False
                break
            if require_positivity and not check_positivity(y, view_support,
                                                           dictionary):
                ok = False
                break
            supports.append(view_support)
            signals.append(y)
            margins.append(margin)
        if not ok:
            continue

        energies = [float(np.linalg.norm(y)) for y in signals]
        return SignalEnsemble(
            reference_support=reference,
            transforms=transforms,
            supports=tuple(supports),
            coefficients=tuple(np.asarray(x, dtype=float) for x in coeffs),
            signals=tuple(signals),
            margin=float(min(margins)),
            min_energy=min(energies),
            max_energy=max(energies),
            attempts=attempt,
        )
    raise EnsembleGenerationError(
        f"no ensemble satisfied the decodability checks in {max_attempts} attempts")


def margin_lower_bound(coefficients, mu1_s_minus_1: float, mu1_s: float) -> float:
    """Coherence-based lower bound on the ensemble margin.

    For each view with coefficients x the quantity

        (min|x| / max|x| - mu1(S-1) - mu1(S))^2 / (S (1 + mu1(S-1)))

    bounds the squared margin from below when the numerator's base is
    positive; a nonpositive base makes the bound uninformative and
    contributes zero.  Returns the square root of the worst (minimum)
    view bound.
    """
    coefficients = [np.asarray(x, dtype=float) for x in coefficients]
    if not coefficients:
        raise ValueError("need coefficients for at least one view")
    sparsity = coefficients[0].size
    if sparsity < 1:
        raise ValueError("coefficient vectors must be nonempty")
    if any(x.size != sparsity for x in coefficients):
        raise ValueError("all views must share the sparsity level")
    if mu1_s_minus_1 < 0 or mu1_s < 0:
        raise ValueError("cumulative coherence values cannot be negative")

    worst = np.inf
    for x in coefficients:
        mags = np.abs(x)
        base = mags.min() / mags.max() - mu1_s_minus_1 - mu1_s
        if base > 0.0:
            value = base * base / (sparsity * (1.0 + mu1_s_minus_1))
        else:
            value = 0.0
        worst = min(worst, value)
    return float(np.sqrt(worst))


def load_signal_csv(path) -> np.ndarray:
    """Read one view's signal from a single-column CSV (one sample per row)."""
    values = np.loadtxt(Path(path), dtype=float, delimiter=",", ndmin=1)
    if values.ndim != 1:
        raise ValueError("signal CSV must contain a single column")
    if values.size == 0:
        raise ValueError("signal CSV is empty")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"signal CSV {path} has non-finite samples")
    return values
