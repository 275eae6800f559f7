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

The paper's coherence condition says when a margin is guaranteed.  Let
mu_1(m), the cumulative coherence (Babel function), be the largest sum
of m absolute inner products |<a_l, a_k>| of an atom a_k with m other
atoms.  A view with coefficients x whose ratio r = min|x| / max|x|
exceeds mu_1(S-1) + mu_1(S) has a margin of at least

    (r - mu_1(S-1) - mu_1(S)) / sqrt(S (1 + mu_1(S-1))).

On the 32x32 preset dictionary mu_1(4) = 3.88 and mu_1(5) = 4.81, so
with r <= 1 the condition cannot hold at S = 5, and generation checks
the margin itself.

Most rejected draws lose to an atom that shares a center with a support
atom.  So each view is first checked against a cheap upper bound on its
margin, taken from the support atoms and their same-center peers over
the signal's footprint; a bound <= 0 rejects the draw, and any other
draw gets the full margin over every atom.  The bound reads the support
atoms from the columns the view was synthesized from, and forms the
peers' products in two stages: first the peers at the center of the
support atom that correlates most with the signal, which settle most
rejected draws alone, then, only if those leave the bound positive, the
peers at the other support atoms' centers.  Every stage's value is at
least the full margin, so accepted ensembles, their margins and the
draws made are those of the full check alone, bit for bit.

The full margin's product runs on the unit signal times the exact power
of two 2^k, k = _MARGIN_SCALE_EXP = 1000, and the margin is scaled back
by 2^-k.  Atom samples are kept down to 1e-300 and a signal's tails reach
as low, so their plain products (down to 1e-600) underflow to subnormal
numbers, which the CPU handles on a slow path; times 2^1000 (about
1e301), a product of two samples of at least 1e-300 is a normal number.
No partial sum can overflow: by Cauchy-Schwarz each is at most
2^k (1 + 1e-9) in magnitude.  Scaling by a power of two is exact, so
every product and partial sum of the scaled product is 2^k times the
plain one wherever the plain one is a normal number, and the margin can
differ only through an intermediate below 2^-1022 in the plain product.
That is checked on generated signals (tests/test_ensemble.py), not
proven.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dictionary import Dictionary
from .transforms import TransformVector

COEFF_MAGNITUDE_RANGE = (0.5, 1.5)
# |u_i| below this leaves row i out of the margin bound's products
_ROW_FLOOR = 1e-4
# thresholding_margin scales the unit signal by 2**_MARGIN_SCALE_EXP:
# products of atom and signal tails (each down to 1e-300) stay normal
_MARGIN_SCALE_EXP = 1000


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

    The product runs on the unit signal times 2^k, k = _MARGIN_SCALE_EXP,
    and the difference is scaled back by 2^-k.  Both scalings are exact,
    and no partial sum can overflow: each is at most 2^k (1 + 1e-9) by
    Cauchy-Schwarz.  So the result equals the plain product's margin
    unless some intermediate of the plain product falls below 2^-1022,
    where its rounding differs; the scaled product keeps the products
    of atom and signal tails out of subnormal arithmetic.
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
    scaled = _unit(signal) * 2.0 ** _MARGIN_SCALE_EXP
    corr = np.abs(dictionary.atoms.T @ scaled)
    inside = corr[support].min()
    corr[support] = -np.inf
    return float((inside - corr.max()) * 2.0 ** -_MARGIN_SCALE_EXP)


def _unit(signal) -> np.ndarray:
    norm = np.linalg.norm(signal)
    if norm == 0.0:
        raise ValueError("zero signal has no margin")
    return signal / norm


def _margin_bound(signal, support, dictionary: Dictionary,
                  columns) -> float:
    """An upper bound on thresholding_margin from the support atoms and
    their same-center peers over the signal's footprint, for a valid
    support whose atoms are ``columns`` (``dictionary.atoms[:, support]``,
    the columns the signal was synthesized from); +inf when the support
    has no peers outside it, or the dictionary no (shape, center) grid.

    The peers of a support atom are the other atoms at its center.  Only
    the rows R where the unit signal u has |u_i| >= _ROW_FLOOR are
    multiplied, and p_k = |u_R . a_k,R|.  Atoms have norm at most
    1 + 1e-9, so by Cauchy-Schwarz the dropped rows move each correlation
    by at most tail = ||u_~R||; each float dot product, whichever kernel
    forms it, is within about N eps / 2 of its exact value, so 8 N eps
    covers the four correlations a margin compares with 4x room.  So with
    floor = min p over the support + 2 tail (1 + 1e-6) + 8 N eps, floor
    minus the largest p over any set of peers outside the support is at
    least the full margin: a value <= 0 rejects a draw that
    thresholding_margin rejects too.

    The bound is formed in two stages.  Stage 1 multiplies only the peers
    at the center of the support atom with the largest p, where most
    rejected draws lose, and returns floor minus their largest p when
    that is <= 0.  Otherwise stage 2 multiplies the peers at the other
    support atoms' centers in one gather and returns floor minus the
    largest p over every peer.  A partial maximum is at most the whole
    one, so stage 1's value is at least stage 2's, the value over every
    peer, and either is at least the full margin: a view rejected here
    is rejected by thresholding_margin too, so the accepted views, their
    margins and the draws made do not depend on the staging.  Stage 2's
    value is that of one product over the support and every peer but
    for the rounding of its products and sums, about N eps and far
    inside the slack, so the views that reach thresholding_margin are
    the same unless such a bound lies within that rounding of 0.  Raises
    ValueError on a zero signal, as thresholding_margin does.
    """
    unit = _unit(signal)
    centers = dictionary._centers
    if centers is None:
        return np.inf
    _, cells, grid = centers
    kept = np.abs(unit) >= _ROW_FLOOR
    tail = np.linalg.norm(unit[~kept])
    rows = np.flatnonzero(kept)
    unit = unit[rows]
    inside = np.abs(unit @ columns[rows])
    n = dictionary.signal_length
    floor = (inside.min() + 2.0 * tail * (1.0 + 1e-6)
             + 8.0 * n * np.finfo(float).eps)
    # atoms is C-ordered: entry (i, k) sits at i * K + k of the flat array,
    # which take() reads faster than an np.ix_ gather
    offsets = rows[:, np.newaxis] * dictionary.n_atoms
    strongest = int(np.argmax(inside))
    bound = floor - _peer_max(unit, offsets, grid[
        (slice(None), *cells[support[strongest]])], support, dictionary)
    if bound <= 0.0:
        return float(bound)
    others = np.delete(support, strongest)
    return float(min(bound, floor - _peer_max(unit, offsets, grid[
        (slice(None), *cells[others].T)].ravel(), support, dictionary)))


def _peer_max(unit, offsets, peers, support, dictionary: Dictionary) -> float:
    """The largest |u_R . a_k,R| over the atoms k of ``peers`` that are
    not -1 and not in ``support``, -inf when none is left: ``unit`` is
    u_R and ``offsets`` the flat offsets R * K of its rows."""
    peers = peers[(peers >= 0) & (peers[:, np.newaxis] != support).all(axis=1)]
    if not peers.size:
        return -np.inf
    return np.abs(unit @ dictionary.atoms.take(offsets + peers)).max()


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
    construction.  Each view is synthesized from its support columns,
    gathered once.  With the margin required, a view whose same-center
    bound (``_margin_bound``, given those columns) is <= 0 is rejected
    before the full margin is computed; the bound only rejects views
    that the full margin rejects too, whichever of its two stages
    settles it.  Highly coherent dictionaries only admit positive
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
            columns = dictionary.atoms[:, view_support]
            y = columns @ x
            # most rejected draws lose to an atom at a support atom's
            # center: settle those from the signal's footprint alone
            if (require_margin and _margin_bound(
                    y, view_support, dictionary, columns) <= 0.0):
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
