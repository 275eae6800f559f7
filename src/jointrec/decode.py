"""Thresholding decoders for jointly sparse, transform-correlated signals.

All decoders start from the per-view correlations of the measurements
with the sensed atoms, c_j = (A_j Phi)^T s_j.  The joint decoders score a
candidate transformation vector T through the aggregate vector

    d_T[i] = sum_j c_j[T_j(i)]

whose entry i accumulates each view's correlation with the transformed
atom T_j(atom_i); the winning candidate maximizes the sum of the S
largest entries of d_T.  An atom that some view's transform maps outside
its domain has d_T[i] = -inf, the one encoding of "not selectable".
Selection is by signed value: under the positivity model the true support
produces nonnegative contributions, and the score being maximized is a
sum of signed entries.  The independent baseline instead thresholds each
view's |c_j| separately, through the same top-S selection.

One candidate search implements the rule.  The exhaustive decoder (jt)
runs it once over the whole candidate product.  The greedy decoder (gjt)
runs it once per view: at stage V the earlier views are pinned to their
chosen transforms, view V is free, and d_T sums views 1..V only.

c_j is computed once per view into a (K, J) table, and d_T is assembled
from that table alone by index gathering, so no per-candidate matrix
product is ever formed.  The search is one batched kernel: each view's
candidates are gathered once into an (n, K) table, the d_T of many
candidate vectors are formed as the rows of one block (at most
``_BLOCK_BYTES``), and ``np.partition`` finds each row's S largest
entries.  It reproduces the per-candidate rule bit for bit: each row is
((0.0 + c_1) + c_2) + ... + c_J in view order, as in
``correlation_vector``; the S largest entries are summed in descending
order, as ``select_top_s`` sums them; and the winner is the first strict
maximizer in enumeration order, within and across blocks.  Only the
winning candidate becomes a ``TransformVector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .dictionary import Dictionary
from .sensing import MeasurementSet, SensingMatrix
from .transforms import CandidateSet, TransformVector, apply_to_support

LSTSQ_RCOND = 1e-10
# upper bound on the bytes of one block of candidate rows in _search: a
# block and its partitioned copy stay in a core's L2 cache (512 KiB was the
# fastest of 256 KiB..64 MiB for jt at K = 6144 with a 2 MiB L2)
_BLOCK_BYTES = 1 << 19


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


def correlation_vector(base: np.ndarray, transforms) -> np.ndarray:
    """Aggregate correlation vector d_T for one candidate transformation
    vector, gathered from the (K, J) table ``base`` of per-view
    correlations.

    Sums views 1..len(transforms) in order, starting from zero, so a
    vector shorter than the table gives a partial aggregate.  Entry i is
    -inf when some view's transform maps atom i outside its domain.
    """
    if len(transforms) > base.shape[1]:
        raise ValueError("more transforms requested than measured views")
    values = np.zeros(base.shape[0])
    for j, transform in enumerate(transforms):
        mapping = transform.mapping
        values += np.where(mapping >= 0, base[mapping, j], -np.inf)
    return values


def select_top_s(values: np.ndarray, sparsity: int):
    """Indices of the S largest entries by signed value, plus their sum.

    Entries equal to -inf are not selectable.  Ties are broken toward the
    lowest atom index.  The returned support is sorted ascending.  Raises
    ValueError when fewer than S entries are selectable.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    if np.count_nonzero(values > -np.inf) < sparsity:
        raise ValueError("fewer valid entries than the sparsity level")
    chosen = np.argsort(-values, kind="stable")[:sparsity]
    return np.sort(chosen), float(values[chosen].sum())


def least_squares_reconstruct(matrix: SensingMatrix, dictionary: Dictionary,
                              support, measurement) -> LeastSquaresFit:
    """Minimum-norm least squares coefficients on a fixed support.

    Solves min_x ||A Phi_support x - s||_2 through a rank-revealing
    factorization; singular values below ``LSTSQ_RCOND`` times the
    largest are treated as zero, and rank deficiency is flagged rather
    than raised.
    """
    support = np.asarray(support, dtype=np.int64)
    design = matrix.entries @ dictionary.atoms[:, support]
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.asarray(measurement, float),
                                         rcond=LSTSQ_RCOND)
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


def _digits(flat, shape):
    """Per-view candidate indices of flat positions in the product
    ``shape``, the last view varying fastest (``enumerate_vectors``
    order).  Works on ints and on integer arrays."""
    digits = []
    for n in reversed(shape):
        flat, digit = divmod(flat, n)
        digits.append(digit)
    return digits[::-1]


def _rows(base: np.ndarray, candidates: CandidateSet):
    """Yield (first, rows) per block: ``rows[r]`` is d_T of candidate
    vector ``first + r`` in enumeration order.

    View 1 is treated as a view whose one candidate is the identity, and
    each view's candidates are gathered once into an (n, K) table with
    -inf where the mapping is -1.  A block holds whole runs of the last
    view's candidates under consecutive prefixes (views 1..J-1), and each
    row is ((0.0 + c_1) + c_2) + ... + c_J, the float additions of
    ``correlation_vector``.  A block has at most ``_BLOCK_BYTES`` of rows,
    or one row when a row alone is larger.
    """
    k = base.shape[0]
    tables = []
    for j, cands in enumerate(((candidates.identity,),)
                              + candidates.per_view):
        maps = np.stack([t.mapping for t in cands])
        tables.append(np.where(maps >= 0, base[maps, j], -np.inf))
    *prefix_tables, last = tables
    shape = [len(table) for table in prefix_tables]
    n_prefix, n_last = prod(shape), len(last)
    cap = max(1, _BLOCK_BYTES // (k * base.itemsize))
    step, width = max(1, cap // n_last), min(n_last, cap)
    for p0 in range(0, n_prefix, step):
        p1 = min(p0 + step, n_prefix)
        prefix = np.zeros((p1 - p0, k))
        for table, index in zip(prefix_tables,
                                _digits(np.arange(p0, p1), shape)):
            prefix += table[index]
        for l0 in range(0, n_last, width):
            rows = prefix[:, None, :] + last[None, l0:l0 + width]
            yield p0 * n_last + l0, rows.reshape(-1, k)


def _scores(base: np.ndarray, sparsity: int, candidates: CandidateSet):
    """Yield (first, scores) per block of ``_rows``: the top-S score of
    each candidate vector, -inf when it leaves fewer than S entries
    above -inf.

    ``np.partition`` finds the S largest entries of each row; sorted in
    descending order they are the values that ``select_top_s`` sums, in
    its order, so ``sum(axis=1)`` gives its score bit for bit.  A row
    with fewer than S entries above -inf has -inf among them and sums to
    -inf, so it can never be a strict maximizer.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    k = base.shape[0]
    if sparsity > k:
        return
    for first, rows in _rows(base, candidates):
        top = np.partition(rows, k - sparsity, axis=1)[:, k - sparsity:]
        yield first, (-np.sort(-top, axis=1)).sum(axis=1)


def _search(base: np.ndarray, sparsity: int, candidates: CandidateSet):
    """The one candidate search: the first strict maximizer of the top-S
    score over ``enumerate_vectors(candidates)``, scored from the (K, J)
    correlation table ``base`` alone.

    ``_scores`` scores every candidate vector block by block; ``argmax``
    keeps the first maximum within a block and a strict ``>`` the first
    across blocks, so the winner is the first strict maximizer in
    enumeration order whatever the block size.  Only the winner becomes
    a ``TransformVector``; its support comes from ``correlation_vector``
    and ``select_top_s``.

    The candidate set may cover fewer views than the table; the aggregate
    then sums only its views.  Candidates that leave fewer than S entries
    above -inf are skipped; if that removes every candidate a ValueError
    is raised.  Returns (per-view supports, vector, score).
    """
    best_score, best = -np.inf, None
    for first, scores in _scores(base, sparsity, candidates):
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score, best = scores[i], first + i
    if best is None:
        raise ValueError(
            "every candidate transformation leaves fewer valid atoms than "
            "the sparsity level")
    picks = _digits(best, [len(c) for c in candidates.per_view])
    vector = TransformVector((candidates.identity,) + tuple(
        cands[i] for cands, i in zip(candidates.per_view, picks)))
    support, score = select_top_s(correlation_vector(base, vector), sparsity)
    supports = tuple(apply_to_support(t, support) for t in vector)
    return supports, vector, score


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
                     *_search(base, sparsity, candidates))


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
        supports, vector, score = _search(base, sparsity, stage)
        chosen = vector.transforms[1:]
    return _finalize(measurements, dictionary, supports, vector, score)


def independent_threshold_decode(measurements: MeasurementSet,
                                 dictionary: Dictionary,
                                 sparsity: int) -> DecodeResult:
    """Per-view thresholding baseline; no information is shared across views.

    Each view keeps the S atoms with the largest absolute correlation and
    reconstructs by least squares.  ``transforms`` is None in the result
    and the score is the summed selected absolute correlations over views.
    """
    base = np.abs(atom_measurement_correlations(measurements, dictionary))
    supports = []
    total = 0.0
    for j in range(measurements.n_views):
        support, score = select_top_s(base[:, j], sparsity)
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
