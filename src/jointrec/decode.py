"""Thresholding decoders for jointly sparse, transform-correlated signals.

All decoders start from the per-view correlations of the measurements
with the sensed atoms, c_j = (A_j Phi)^T s_j.  The joint decoders score a
candidate transformation vector T through the aggregate vector

    d_T[i] = sum_j c_j[T_j(i)]

whose entry i accumulates each view's correlation with the transformed
atom T_j(atom_i); the winning candidate maximizes the sum of the S
largest entries of d_T.  Selection is by signed value: under the
positivity model the true support produces nonnegative contributions, and
the score being maximized is a sum of signed entries.  The independent
baseline instead thresholds each view's |c_j| separately, through the
same top-S selection.

One candidate search implements the rule.  The exhaustive decoder (jt)
runs it once over the whole candidate product.  The greedy decoder (gjt)
runs it once per view: at stage V the earlier views are pinned to their
chosen transforms, view V is free, and d_T sums views 1..V only.

c_j is computed once per view and d_T assembled by index gathering, so no
per-candidate matrix product is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .sensing import MeasurementSet
from .transforms import (CandidateSet, TransformVector, apply_to_support,
                         enumerate_vectors)

LSTSQ_RCOND = 1e-10


@dataclass(eq=False)
class CorrelationVector:
    """Aggregate correlations d_T plus a validity mask.

    ``valid[i]`` is False when some contributing view's transform leaves
    atom i outside its domain; such entries hold partial sums and are
    excluded from selection.
    """

    values: np.ndarray
    valid: np.ndarray

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())


@dataclass(eq=False)
class LeastSquaresFit:
    """Minimum-norm least squares solution for one view."""

    coefficients: np.ndarray
    reconstruction: np.ndarray
    rank: int
    rank_deficient: bool


@dataclass(eq=False)
class DecodeResult:
    """Estimated supports, coefficients and reconstructions for all views.

    ``transforms`` is the estimated transformation vector for the joint
    decoders and None for the independent baseline, whose per-view
    supports are unrelated.  ``score`` is the decoder's selection
    objective at the returned estimate.
    """

    reference_support: np.ndarray
    transforms: TransformVector | None
    supports: tuple[np.ndarray, ...]
    coefficients: tuple[np.ndarray, ...]
    reconstructions: tuple[np.ndarray, ...]
    score: float
    rank_deficient: bool


def atom_measurement_correlations(measurements: MeasurementSet,
                                  dictionary: Dictionary) -> np.ndarray:
    """Per-view correlations c_j = (A_j Phi)^T s_j as a (K, J) array."""
    if measurements.signal_length != dictionary.signal_length:
        raise ValueError("measurements and dictionary disagree on signal length")
    base = np.empty((dictionary.n_atoms, measurements.n_views))
    for j, (mat, s) in enumerate(zip(measurements.matrices,
                                     measurements.measurements)):
        base[:, j] = dictionary.atoms.T @ (mat.entries.T @ s)
    return base


def correlation_vector(measurements: MeasurementSet, dictionary: Dictionary,
                       transforms, base: np.ndarray | None = None
                       ) -> CorrelationVector:
    """Aggregate correlation vector for one candidate transformation vector.

    Sums over the first ``len(transforms)`` views, so a vector shorter
    than the measurement set gives a partial aggregate.  ``base`` may
    carry precomputed per-view correlations.
    """
    if len(transforms) > measurements.n_views:
        raise ValueError("more transforms requested than measured views")
    if base is None:
        base = atom_measurement_correlations(measurements, dictionary)
    values = np.zeros(dictionary.n_atoms)
    valid = np.ones(dictionary.n_atoms, dtype=bool)
    for j, transform in enumerate(transforms):
        mapping = transform.mapping
        defined = mapping >= 0
        valid &= defined
        values[defined] += base[mapping[defined], j]
    return CorrelationVector(values, valid)


def select_top_s(correlations: CorrelationVector, sparsity: int):
    """Indices of the S largest valid entries by signed value, plus their sum.

    Ties are broken toward the lowest atom index.  The returned support is
    sorted ascending.  Raises ValueError when fewer than S entries are
    valid.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    if correlations.n_valid < sparsity:
        raise ValueError("fewer valid entries than the sparsity level")
    scores = np.where(correlations.valid, correlations.values, -np.inf)
    order = np.argsort(-scores, kind="stable")
    chosen = order[:sparsity]
    total = float(scores[chosen].sum())
    return np.sort(chosen), total


def least_squares_reconstruct(matrix, dictionary: Dictionary, support,
                              measurement, rcond: float = LSTSQ_RCOND
                              ) -> LeastSquaresFit:
    """Minimum-norm least squares coefficients on a fixed support.

    Solves min_x ||A Phi_support x - s||_2 through a rank-revealing
    factorization; singular values below ``rcond`` times the largest are
    treated as zero, and rank deficiency is flagged rather than raised.
    """
    support = np.asarray(support, dtype=np.int64)
    entries = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix)
    design = entries @ dictionary.atoms[:, support]
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.asarray(measurement, float),
                                         rcond=rcond)
    reconstruction = dictionary.atoms[:, support] @ coeffs
    return LeastSquaresFit(coefficients=coeffs, reconstruction=reconstruction,
                           rank=int(rank), rank_deficient=int(rank) < support.size)


def _finalize(measurements: MeasurementSet, dictionary: Dictionary,
              supports, transforms: TransformVector | None,
              score: float) -> DecodeResult:
    """Fit each view by least squares on its support; view 1's support is
    the reference support."""
    fits = [least_squares_reconstruct(mat, dictionary, sup, s)
            for mat, sup, s in zip(measurements.matrices, supports,
                                   measurements.measurements)]
    return DecodeResult(
        reference_support=supports[0],
        transforms=transforms,
        supports=tuple(supports),
        coefficients=tuple(f.coefficients for f in fits),
        reconstructions=tuple(f.reconstruction for f in fits),
        score=score,
        rank_deficient=any(f.rank_deficient for f in fits),
    )


def _search(measurements: MeasurementSet, dictionary: Dictionary,
            sparsity: int, candidates: CandidateSet, base: np.ndarray):
    """The one candidate search: the first strict maximizer of the top-S
    score over ``enumerate_vectors(candidates)``.

    The candidate set may cover fewer views than the measurements; the
    aggregate then sums only its views.  Candidates that leave fewer than
    S atoms valid are skipped; if that removes every candidate a
    ValueError is raised.  Returns (per-view supports, vector, score).
    """
    best_score = -np.inf
    best_support = None
    best_vector = None
    for vector in enumerate_vectors(candidates):
        corr = correlation_vector(measurements, dictionary, vector, base=base)
        if corr.n_valid < sparsity:
            continue
        support, score = select_top_s(corr, sparsity)
        if score > best_score:
            best_score = score
            best_support = support
            best_vector = vector
    if best_vector is None:
        raise ValueError(
            "every candidate transformation leaves fewer valid atoms than "
            "the sparsity level")
    supports = tuple(apply_to_support(t, best_support) for t in best_vector)
    return supports, best_vector, best_score


def _check_views(measurements: MeasurementSet, candidates: CandidateSet):
    if candidates.n_views != measurements.n_views:
        raise ValueError("candidate set and measurements disagree on view count")


def joint_threshold_decode(measurements: MeasurementSet,
                           dictionary: Dictionary, sparsity: int,
                           candidates: CandidateSet) -> DecodeResult:
    """Exhaustive joint decoder.

    Scores every candidate transformation vector by the sum of the S
    largest entries of its aggregate correlation vector, keeps the first
    maximizer in enumeration order (updates only on strict improvement),
    then reconstructs each view by least squares on the transformed
    support.  Candidates that leave fewer than S atoms valid are skipped;
    if that removes every candidate a ValueError is raised.
    """
    _check_views(measurements, candidates)
    base = atom_measurement_correlations(measurements, dictionary)
    return _finalize(measurements, dictionary,
                     *_search(measurements, dictionary, sparsity, candidates,
                              base))


def greedy_joint_threshold_decode(measurements: MeasurementSet,
                                  dictionary: Dictionary, sparsity: int,
                                  candidates: CandidateSet) -> DecodeResult:
    """Greedy joint decoder: a sequence of candidate searches.

    Stage V (V = 2..J) runs the exhaustive search over views 1..V with
    views below V pinned, each to a one-element candidate list holding
    its already-chosen transform, and only view V free; the partial
    aggregate sums views 1..V.  The final stage's winner provides the
    reference support and full score.  With one view the single search
    covers the identity alone; with two views it enumerates exactly what
    the exhaustive decoder does, so the results coincide.
    """
    _check_views(measurements, candidates)
    base = atom_measurement_correlations(measurements, dictionary)
    chosen = ()
    # one stage per free view; a single view still gets one (identity) stage
    for view in range(max(len(candidates.per_view), 1)):
        stage = CandidateSet(candidates.identity,
                             tuple((t,) for t in chosen)
                             + candidates.per_view[view:view + 1])
        supports, vector, score = _search(measurements, dictionary, sparsity,
                                          stage, base)
        chosen = vector.transforms[1:]
    return _finalize(measurements, dictionary, supports, vector, score)


def independent_threshold_decode(measurements: MeasurementSet,
                                 dictionary: Dictionary, sparsity: int,
                                 selection: str = "absolute") -> DecodeResult:
    """Per-view thresholding baseline; no information is shared across views.

    Each view keeps the S atoms with the largest selection criterion,
    absolute correlation by default ("signed" matches the joint decoders'
    rule and exists for equivalence checks), and reconstructs by least
    squares.  ``transforms`` is None in the result and the score is the
    summed selected criterion values over views.
    """
    if selection not in ("absolute", "signed"):
        raise ValueError(f"unknown selection rule {selection!r}")
    base = atom_measurement_correlations(measurements, dictionary)
    if selection == "absolute":
        base = np.abs(base)
    everywhere = np.ones(dictionary.n_atoms, dtype=bool)
    supports = []
    total = 0.0
    for j in range(measurements.n_views):
        support, score = select_top_s(
            CorrelationVector(base[:, j], everywhere), sparsity)
        supports.append(support)
        total += score
    return _finalize(measurements, dictionary, supports, None, total)


def noiseless_score(signals, dictionary: Dictionary, support,
                    transforms) -> float:
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
