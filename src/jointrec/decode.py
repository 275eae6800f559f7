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

The joint decoder (jt) runs one candidate search over the whole product.
The greedy decoder (gjt) keeps one running aggregate, the partial d_T of
its chosen transforms: stage V scores view V's candidates against it and
adds the first best.  Both score with the same top-S kernel.

Each decoder is a core with one call shape, (base, measurements,
dictionary, sparsity, candidates, workspace), where ``base`` is the
(K, J) table of c_j; ``_DECODERS`` names the cores, and the independent
core takes |base| and ignores the candidates and the workspace.  The
caller of the cores computes the table once, through
``atom_measurement_correlations``, and passes it to every core it runs;
each public decoder is that call for one core, in a workspace of its
own.

The joint decoders' working memory lives in a ``Workspace`` made for the
candidate set, which a run makes once and passes to every decode: the
padded table, each candidate list's stacked mappings, the scoring
buffer and the K-vectors a decode extends and bounds.  A decode then
allocates no array of that size, and takes no fresh pages for one, as
it did when each decode allocated them; the stacks are formed once per
run.  One set of buffers is kept per run, about 2 MB at J = 20 on the
32x32 dictionary.

c_j is computed once per view into a (K, J) table, and d_T is assembled
from that table alone by index gathering, so no per-candidate matrix
product is ever formed.  ``_gather`` copies the table once per decode
into the workspace's (J, K + 1) table, padded with a -inf column, next
to each view's candidate mappings stacked into an (n, K) index array, so
a mapping of -1 gathers -inf.  Every score runs one kernel, ``_scores``:
it gathers a view's candidates into the workspace's (n_max, K) scratch
buffer, adds the running row and partitions the buffer in place, so
scoring allocates no (n, K) array.  jt's search is an exact depth-first
branch-and-bound over views 2..J.  Its bounds use the per-atom envelope
of the later views: E_w[i] is the largest value that any candidate of
view w gathers at atom i, and env[v] = sum over w > v of E_w.  Every
vector that fixes views 1..v has a d_T that is at most, entry by entry,
the partial d_T of views 1..v plus env[v], and the top-S sum never
decreases when an entry grows, so no such vector scores above the top-S
of that sum.  The envelopes are formed once per decode.  Children are
expanded best bound first.  A node is pruned when its bound is -inf, or
when its bound plus a rounding slack is strictly below the incumbent;
the slack covers the float error by which a leaf's score can exceed its
bound.  A leaf with an equal score replaces the incumbent only when its
enumeration index is lower, so the winner is the first strict maximizer
in enumeration order whatever order the nodes are visited in.  Both
decoders fold the leading views with one candidate, such as view 1's
identity or every view but the last of a single-offset list, into their
starting row without a kernel call, so a search with one free view is a
plain scan, and gjt's first stage is view 2.

jt's node bounds and leaves (the last free view's candidates) and gjt's
stages score all of a view's candidates in one kernel call; a partition
finds each row's S largest entries.  These scores reproduce the
per-candidate rule bit for bit: each row is ((0.0 + c_1) + c_2) + ... +
c_J in view order, as in ``correlation_vector`` (the kernel adds the
row to the gathered values, and float addition is commutative), and the
S largest entries are summed in descending order, as ``select_top_s``
sums them.
Only the winning candidate becomes a ``TransformVector``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .sensing import MeasurementSet, SensingMatrix
from .transforms import CandidateSet, TransformVector, apply_to_support

LSTSQ_RCOND = 1e-10
# _search prunes a node only when its bound plus a slack of _SLACK_EPS *
# S (J + S) * A is below the incumbent, A = sum_j max |c_j|.  An entry of
# a leaf and the same entry of its node's bound are each a float sum of
# J terms, in another association, the bound's with each later view's
# term raised to its envelope; every term is at most max |c_j| in
# magnitude, so each sum is within (J - 1) u A of its exact value, u =
# eps / 2 the unit roundoff, and the exact bound entry is at least the
# exact leaf entry.  A top-S sum moves by at most S times the largest
# entry change, and a float top-S sum, of S entries at most A in
# magnitude, is within (S - 1) S u A of the exact one.  So a leaf's float
# top-S exceeds its node's float bound by at most 2 S (J - 1) u A +
# 2 (S - 1) S u A = 2 S (S + J - 2) u A, under half the slack.
_SLACK_EPS = 2.0 * np.finfo(float).eps
_NO_VALID_CANDIDATE = ("every candidate transformation leaves fewer valid "
                       "atoms than the sparsity level")


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
    lowest atom index.  The returned support is sorted ascending, and the
    sum runs over the chosen entries in descending order of value, ties in
    index order.  Raises ValueError when fewer than S entries are
    selectable.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    if np.count_nonzero(values > -np.inf) < sparsity:
        raise ValueError("fewer valid entries than the sparsity level")
    # every entry above the S-th largest value, then the lowest-index
    # entries equal to it; negated, so a NaN sorts last and is never chosen
    negated = -values
    cut = np.partition(negated, sparsity - 1)[sparsity - 1]
    above = np.flatnonzero(negated < cut)
    tied = np.flatnonzero(negated == cut)[:sparsity - above.size]
    chosen = np.concatenate((above, tied))
    chosen = chosen[np.lexsort((chosen, negated[chosen]))]
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
    columns = dictionary.atoms[:, support]
    coeffs, _, rank, _ = np.linalg.lstsq(matrix.entries @ columns,
                                         np.asarray(measurement, float),
                                         rcond=LSTSQ_RCOND)
    reconstruction = columns @ coeffs
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


class Workspace:
    """The arrays that jt and gjt decode in, made once for a candidate set
    and reused by every decode over it or over a set of its leading views.

    - ``table``: the (J, K + 1) buffer of ``_gather``'s padded c_j table.
    - ``scratch``: the (n_max, K) buffer that ``_scores`` scores in, n_max
      the length of the longest candidate list.
    - ``rows(n)``: n K-vectors, the rows a decode extends, adds and
      bounds; jt's search asks for 2J + 1 and gjt for 2.
    - ``stacked(cands)``: each candidate list's mappings, stacked once.

    A run makes one and passes it to every decode it runs, so a decode
    takes no fresh pages for these arrays, and each list is stacked once
    per run; the public decoders make their own.  No result holds a
    buffer, so a decode that overwrites them changes no earlier result.
    """

    def __init__(self, candidates: CandidateSet):
        k = candidates.identity.n_atoms
        lists = ((candidates.identity,),) + candidates.per_view
        self.table = np.empty((len(lists), k + 1))
        self.scratch = np.empty((max(map(len, lists)), k))
        self._rows = np.empty((0, k))
        # id key -> (candidate list, its stacked mappings); the list is
        # kept with its stack, so no id in a key can be reused.  The stacks
        # stay writeable: ``take`` copies a read-only index array per call.
        self._stacks = {}
        for cands in lists:
            key = tuple(map(id, cands))
            if key not in self._stacks:
                self._stacks[key] = (cands,
                                     np.stack([t.mapping for t in cands]))

    def rows(self, n: int) -> np.ndarray:
        """An (n, K) float buffer, grown on the first call that needs more
        rows than the last."""
        if len(self._rows) < n:
            self._rows = np.empty((n, self._rows.shape[1]))
        return self._rows[:n]

    def stacked(self, cands) -> np.ndarray:
        """The (n, K) stacked mappings of one of the set's candidate lists;
        lists that hold the same transforms share one array."""
        return self._stacks[tuple(map(id, cands))][1]


def _gather(base: np.ndarray, candidates: CandidateSet,
            workspace: Workspace):
    """The (K, J) table ``base`` and the candidates in the form that
    ``_scores`` reads: (padded, maps), both held by ``workspace``, which
    must have been made for ``candidates`` or for a set whose leading
    views they are.

    ``padded`` is the (J, K + 1) array ``base.T`` followed by a -inf
    column.  ``maps[j]`` is view j's candidate mappings stacked into an
    (n, K) index array; views whose candidate lists hold the same
    transforms share one stacked array, so ``from_uniform_offsets``
    stacks once.  ``padded[j].take(maps[j], mode="wrap")`` is view j's
    gathered table, -inf where the mapping is -1: a -1 wraps onto the
    -inf column.  View 1 is a view whose one candidate is the identity.
    The candidate set must cover every view of the table."""
    if candidates.n_views != base.shape[1]:
        raise ValueError("candidate set and measurements disagree on view count")
    padded = workspace.table[:base.shape[1]]
    padded[:, :-1] = base.T
    padded[:, -1] = -np.inf
    lists = ((candidates.identity,),) + candidates.per_view
    return padded, [workspace.stacked(cands) for cands in lists]


def _top_s(rows: np.ndarray, sparsity: int) -> np.ndarray:
    """The top-S score of each row of the (n, K) array ``rows``: -inf when
    that row has fewer than S entries above -inf.  Partitions ``rows``
    in place, so their order is lost.

    ``partition`` moves the S largest entries of each row to its end;
    sorted in descending order they are the values that ``select_top_s``
    sums, in its order, so ``sum(axis=1)`` gives its score bit for bit.
    A row with fewer than S entries above -inf has -inf among them and
    sums to -inf.  S outside 1..K raises ValueError.
    """
    k = rows.shape[1]
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    if sparsity > k:
        raise ValueError(_NO_VALID_CANDIDATE)
    rows.partition(k - sparsity, axis=1)
    top = rows[:, k - sparsity:]
    return (-np.sort(-top, axis=1)).sum(axis=1)


def _scores(row: np.ndarray, padded: np.ndarray, maps: np.ndarray,
            sparsity: int, scratch: np.ndarray) -> np.ndarray:
    """The ``_top_s`` score of ``row`` plus each candidate of one view:
    ``padded`` is that view's row of ``_gather``'s padded table, ``maps``
    its (n, K) stacked mappings.  The sums are formed in the first n rows
    of the workspace's buffer ``scratch`` and partitioned there, so no
    (n, K) array is allocated.  Each entry is ``table + row``, the same
    float as the ``row + table`` of ``correlation_vector``."""
    rows = scratch[:len(maps)]
    padded.take(maps, out=rows, mode="wrap")
    rows += row
    return _top_s(rows, sparsity)


def _best(row: np.ndarray, padded: np.ndarray, maps: np.ndarray,
          sparsity: int, scratch: np.ndarray):
    """(i, score) for the first candidate i with the highest ``_scores``
    score; (0, -inf) when every candidate keeps fewer than S atoms."""
    scores = _scores(row, padded, maps, sparsity, scratch)
    i = int(np.argmax(scores))
    return i, scores[i]


def _fold(padded: np.ndarray, maps, row: np.ndarray,
          gathered: np.ndarray) -> int:
    """Write into ``row`` the partial d_T of the leading views with one
    candidate, views 1..first, and return first, the index of the first
    view after them; the last view is never folded, so a decode still
    scores it.  The row is ((0.0 + c_1) + c_2) + ... in view order, the
    float additions of ``correlation_vector``; each view is gathered into
    ``gathered``."""
    row[:] = 0.0
    first = 0
    while first < len(maps) - 1 and len(maps[first]) == 1:
        row += padded[first].take(maps[first][0], out=gathered, mode="wrap")
        first += 1
    return first


def _winner(base: np.ndarray, sparsity: int, candidates: CandidateSet, picks):
    """Candidate ``picks[j]`` of each view j (view 1: the identity) as a
    vector; ``correlation_vector`` and ``select_top_s`` give its supports
    and score."""
    vector = TransformVector(tuple(
        cands[i] for cands, i in zip(((candidates.identity,),)
                                     + candidates.per_view, picks)))
    support, score = select_top_s(correlation_vector(base, vector), sparsity)
    supports = tuple(apply_to_support(t, support) for t in vector)
    return supports, vector, score


def _search(base: np.ndarray, sparsity: int, candidates: CandidateSet,
            workspace: Workspace):
    """jt's candidate search: the first strict maximizer of the top-S
    score over every candidate vector in enumeration order (the product
    of the per-view lists, last view fastest), scored from the (K, J)
    correlation table ``base`` alone.

    An exact depth-first branch-and-bound over the views.  A node fixes
    views 1..v and holds its per-view picks as a tuple; its partial d_T,
    ((0.0 + c_1) + c_2) + ... + c_v, the float additions of
    ``correlation_vector``, is its parent's row plus its own pick's
    gathered row, formed only when the node is popped and survives the
    pruning test, in the workspace's row for its view, so the stack holds
    no (n, K) array of children.
    Leading views with one candidate are folded into the root.  Before
    the search, each later view w is gathered whole into the scratch
    buffer once and reduced to its envelope E_w, the per-atom maximum over
    its candidates, and env[v] sums the envelopes of the views after v.
    A child c of a node at view v is bounded by the top-S of row + c's
    gathered row + env[v]: every extension of c has a d_T no larger in
    any entry, and the top-S sum is nondecreasing in each entry.  The
    node bounds and the leaves are each one ``_scores`` call in the
    scratch buffer.  Children are expanded in descending bound order, and
    the last free view's candidates are scored as leaves, all in one
    call.  A node is pruned when its bound is -inf (it keeps fewer than
    S entries above -inf under every extension) or when its bound plus a
    rounding slack is strictly below the incumbent's score; the slack
    covers the float error by which a leaf's score can exceed its bound
    (see ``_SLACK_EPS``).  A leaf replaces the incumbent when it scores
    higher, or the same with picks that come first in enumeration order
    (the last view varies fastest, so that is tuple order).  So the
    winner is the first strict maximizer in enumeration order, as a scan
    of every vector would find it, whatever order the nodes are visited
    in, and its score is bit-identical to scoring it alone.  Only the
    winner becomes a ``TransformVector``.

    Candidates that leave fewer than S entries above -inf are skipped; if
    that removes every candidate a ValueError is raised.  Returns
    (per-view supports, vector, score).
    """
    padded, maps = _gather(base, candidates, workspace)
    scratch = workspace.scratch
    last = len(maps) - 1
    # partial[v]: the partial d_T of the views before v at the node being
    # expanded at view v, the root's in partial[0].  The stack is depth
    # first, so a node's children are all popped before a sibling of the
    # node overwrites the row they extend.  env[v][i]: the most that the
    # views after v can add to entry i, the sum over those views of each
    # one's largest gathered value at i.
    partial, env, (work,) = np.split(workspace.rows(2 * len(maps) + 1),
                                     [len(maps), 2 * len(maps)])
    first = _fold(padded, maps, partial[0], work)
    env[last] = 0.0
    for v in range(last - 1, first - 1, -1):
        rows = scratch[:len(maps[v + 1])]
        padded[v + 1].take(maps[v + 1], out=rows, mode="wrap")
        np.max(rows, axis=0, out=env[v])
        env[v] += env[v + 1]
    # max |c_j| per view, as np.abs(base).max(axis=0) finds it but without
    # a (K, J) temporary
    slack = (_SLACK_EPS * sparsity * (base.shape[1] + sparsity)
             * np.maximum(base.max(axis=0), -base.min(axis=0)).sum()
             if first < last else 0.0)
    best_score, best = -np.inf, None
    # (bound, view v, picks of the views before v, the parent's partial
    # d_T, the pick of view v - 1 that extends it, None at the root);
    # children are pushed worst first, so the best bound pops first
    nodes = [(np.inf, first, (0,) * first, partial[0], None)]
    while nodes:
        bound, v, picks, row, pick = nodes.pop()
        if bound == -np.inf or bound + slack < best_score:
            continue
        if pick is not None:
            row = np.add(row, padded[v - 1].take(maps[v - 1][pick],
                                                 out=partial[v], mode="wrap"),
                         out=partial[v])
        if v == last:
            i, score = _best(row, padded[v], maps[v], sparsity, scratch)
            if (score > best_score
                    or score == best_score > -np.inf and picks + (i,) < best):
                best_score, best = score, picks + (i,)
            continue
        bounds = _scores(np.add(row, env[v], out=work), padded[v], maps[v],
                         sparsity, scratch)
        for c in np.argsort(-bounds, kind="stable")[::-1]:
            nodes.append((bounds[c], v + 1, picks + (int(c),), row, int(c)))
    if best is None:
        raise ValueError(_NO_VALID_CANDIDATE)
    return _winner(base, sparsity, candidates, best)


def _jt(base, measurements, dictionary, sparsity, candidates, workspace):
    """jt's core: the branch-and-bound search on ``base``, then least
    squares."""
    return _finalize(measurements, dictionary,
                     *_search(base, sparsity, candidates, workspace))


def _gjt(base, measurements, dictionary, sparsity, candidates, workspace):
    """gjt's core: one running aggregate over ``base``, one view at a
    time, then least squares.  The leading views with one candidate are
    folded into the row first, as ``_search`` folds them; a row that
    keeps fewer than S atoms then leaves every candidate of the next
    stage at -inf, which raises."""
    padded, maps = _gather(base, candidates, workspace)
    scratch = workspace.scratch
    row, gathered = workspace.rows(2)
    first = _fold(padded, maps, row, gathered)
    picks = [0] * first
    for view, stack in zip(padded[first:], maps[first:]):
        i, score = _best(row, view, stack, sparsity, scratch)
        if score == -np.inf:
            raise ValueError(_NO_VALID_CANDIDATE)
        row += view.take(stack[i], out=gathered, mode="wrap")
        picks.append(i)
    return _finalize(measurements, dictionary,
                     *_winner(base, sparsity, candidates, picks))


def _it(base, measurements, dictionary, sparsity, candidates, workspace):
    """it's core: top-S of each view's |c_j|, then least squares; the
    candidates and the workspace are not used.  Each view's |c_j| is
    formed on its own, so no (K, J) array is allocated."""
    supports = []
    total = 0.0
    for j in range(base.shape[1]):
        support, score = select_top_s(np.abs(base[:, j]), sparsity)
        supports.append(support)
        total += score
    return _finalize(measurements, dictionary, supports, None, total)


# every decoder's core by algorithm name, each called as
# (base, measurements, dictionary, sparsity, candidates, workspace)
_DECODERS = {"jt": _jt, "gjt": _gjt, "it": _it}


def joint_threshold_decode(measurements: MeasurementSet,
                           dictionary: Dictionary, sparsity: int,
                           candidates: CandidateSet) -> DecodeResult:
    """Exact joint decoder.

    Finds the candidate transformation vector whose aggregate correlation
    vector has the largest sum of S largest entries, the first such
    maximizer in enumeration order, then reconstructs each view by least
    squares on the transformed support.  The search is a branch-and-bound
    that skips only vectors it has proven cannot reach the best score
    found, with a rounding slack on each bound and ties going to the
    lower enumeration index; its result is that of scoring every vector.
    Candidates that leave fewer than S atoms valid are skipped; if that
    removes every candidate a ValueError is raised.
    """
    return _jt(atom_measurement_correlations(measurements, dictionary),
               measurements, dictionary, sparsity, candidates,
               Workspace(candidates))


def greedy_joint_threshold_decode(measurements: MeasurementSet,
                                  dictionary: Dictionary, sparsity: int,
                                  candidates: CandidateSet) -> DecodeResult:
    """Greedy joint decoder: one running aggregate, one view at a time.

    View 1's one candidate, the identity, keeps all K atoms and is stage
    1, so the row starts at 0.0 + c_1; it is added without being scored,
    as is every later leading view with one candidate.  Stage V
    (V = 2..J) scores row + c_V[T(.)] for each candidate T of view V,
    takes the first with the highest top-S score, and adds its gathered
    correlations to the row, so the row is ((0.0 + c_1) + c_2*) + ...,
    the partial aggregate of the chosen vector.  A stage where every
    candidate leaves fewer than S atoms valid raises a ValueError.  The
    chosen vector provides the reference support and full score.  With
    one view it is the identity alone; with two views the one stage is
    the scan the joint decoder runs, so the results coincide.
    """
    return _gjt(atom_measurement_correlations(measurements, dictionary),
                measurements, dictionary, sparsity, candidates,
                Workspace(candidates))


def independent_threshold_decode(measurements: MeasurementSet,
                                 dictionary: Dictionary,
                                 sparsity: int) -> DecodeResult:
    """Per-view thresholding baseline; no information is shared across views.

    Each view keeps the S atoms with the largest absolute correlation and
    reconstructs by least squares.  ``transforms`` is None in the result
    and the score is the summed selected absolute correlations over views.
    """
    return _it(atom_measurement_correlations(measurements, dictionary),
               measurements, dictionary, sparsity, None, None)


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
