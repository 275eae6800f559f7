"""Recovery metrics and concentration-of-measure bound evaluators.

The decoders' scores are Gaussian chaos variables whose deviation from
the noiseless score obeys a Bernstein-type tail bound; propagating that
bound through the decoder's selection step yields a lower bound on the
probability of recovering most support atoms, with an exponent linear in
(number of measurements) x (number of views).  This module evaluates
those closed-form bounds and the matching empirical quantities.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Bernstein-type tail constants for the normalized score deviation:
# the quadratic (variance-like) and linear (scale-like) denominator terms.
BERNSTEIN_VARIANCE_COEFF = 8.0 * math.e / math.sqrt(6.0 * math.pi)
BERNSTEIN_SCALE_COEFF = 2.0 * math.sqrt(2.0) * math.e
# Exponent constant of the recovery bound, 1 / (4 a + 2 b) for the two
# tail constants a, b above.
RECOVERY_EXPONENT_COEFF = 1.0 / (4.0 * BERNSTEIN_VARIANCE_COEFF
                                 + 2.0 * BERNSTEIN_SCALE_COEFF)


def recovery_rate(true_supports, estimated_supports) -> float:
    """Fraction of support atoms recovered, averaged over views.

    Computes sum_j |true_j intersect estimated_j| / (S * J).  Both
    arguments are per-view index collections of a common size S.
    """
    true_supports = [np.asarray(s, dtype=np.int64) for s in true_supports]
    estimated_supports = [np.asarray(s, dtype=np.int64)
                          for s in estimated_supports]
    if len(true_supports) == 0:
        raise ValueError("need at least one view")
    if len(true_supports) != len(estimated_supports):
        raise ValueError("need one estimated support per true support")
    sparsity = true_supports[0].size
    if sparsity == 0:
        raise ValueError("supports must be nonempty")
    for t, e in zip(true_supports, estimated_supports):
        if t.size != sparsity or e.size != sparsity:
            raise ValueError("all supports must share the size S")
    hits = sum(np.intersect1d(t, e).size
               for t, e in zip(true_supports, estimated_supports))
    return hits / (sparsity * len(true_supports))


def mse(signals, reconstructions) -> float:
    """Mean over views of the per-sample squared reconstruction error.

    Each view contributes ||y - y_hat||^2 / N; views are averaged.
    """
    signals = [np.asarray(y, dtype=float) for y in signals]
    reconstructions = [np.asarray(y, dtype=float) for y in reconstructions]
    if len(signals) == 0:
        raise ValueError("need at least one view")
    if len(signals) != len(reconstructions):
        raise ValueError("need one reconstruction per signal")
    total = 0.0
    for y, y_hat in zip(signals, reconstructions):
        if y.shape != y_hat.shape:
            raise ValueError("signal and reconstruction lengths differ")
        total += float(np.mean((y - y_hat) ** 2))
    return total / len(signals)


def _require_finite(name: str, value) -> None:
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, not {value!r}")


@dataclass(frozen=True)
class BoundInputs:
    """Problem quantities that the recovery bound depends on.

    The counts must be positive integers and the margin and energies
    finite numbers; anything else raises a ValueError naming the field.
    """

    sparsity: int
    n_views: int
    n_atoms: int
    n_candidates: int
    n_measurements: int
    margin: float
    min_energy: float
    max_energy: float

    def __post_init__(self):
        for name in ("sparsity", "n_views", "n_atoms", "n_candidates",
                     "n_measurements"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 1):
                raise ValueError(
                    f"{name} must be a positive integer, not {value!r}")
        for name in ("margin", "min_energy", "max_energy"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class BoundValue:
    """A probability bound, unclamped; ``vacuous`` marks values below 0."""

    value: float
    vacuous: bool


def recovery_rate_bound(inputs: BoundInputs, alpha: float) -> BoundValue:
    """Lower bound on P(recovery rate >= 1 - alpha).

    Evaluates 1 - 4 S J K |T| exp(-c M J eta^2 alpha^2 (m/M)^2) with c the
    recovery exponent constant, eta the margin, and m, M the extreme
    signal energies.  The value may be negative (vacuous); it is returned
    unclamped with a flag rather than truncated.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if inputs.margin < 0.0:
        raise ValueError("margin must be nonnegative")
    if inputs.min_energy <= 0.0 or inputs.max_energy <= 0.0:
        raise ValueError("signal energies must be positive")
    exponent = (RECOVERY_EXPONENT_COEFF * inputs.n_measurements * inputs.n_views
                * inputs.margin ** 2 * alpha ** 2
                * (inputs.min_energy / inputs.max_energy) ** 2)
    failure = (4.0 * inputs.sparsity * inputs.n_views * inputs.n_atoms
               * inputs.n_candidates * math.exp(-exponent))
    value = 1.0 - failure
    return BoundValue(value=value, vacuous=value < 0.0)


def min_measurements_for_recovery(beta: float, margin: float, alpha: float,
                                  min_energy: float, max_energy: float) -> float:
    """Per-view measurement threshold sufficient for asymptotic recovery.

    ``beta`` is the exponential growth rate of the candidate count in the
    number of views.  Subexponential growth (beta = 0) needs only one
    measurement per view; otherwise the threshold grows linearly in beta
    as beta / (c eta^2 alpha^2) * (M/m)^2.  A non-finite beta, margin or
    energy raises a ValueError naming it.
    """
    for name, value in (("beta", beta), ("margin", margin),
                        ("min_energy", min_energy),
                        ("max_energy", max_energy)):
        _require_finite(name, value)
    if beta < 0.0:
        raise ValueError("beta cannot be negative")
    if beta == 0.0:
        return 1.0
    if margin <= 0.0:
        raise ValueError("a positive margin is required for a finite threshold")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if min_energy <= 0.0 or max_energy <= 0.0:
        raise ValueError("signal energies must be positive")
    return (beta / (RECOVERY_EXPONENT_COEFF * margin ** 2 * alpha ** 2)
            * (max_energy / min_energy) ** 2)


def concentration_tail_bound(tau: float, n_views: int, n_measurements: int,
                             norm_bound_u: float, norm_bound_v: float) -> float:
    """Tail bound for the averaged bilinear Gaussian chaos deviation.

    Bounds the probability that the view-averaged deviation
    (1/J) |sum_j (A_j u_j . A_j v_j - u_j . v_j)| reaches tau, for
    independent Gaussian sensing matrices and vectors with norms at most
    the given bounds:

        2 exp(- J M tau^2 / (a Bu^2 Bv^2 + b tau Bu Bv))

    with a, b the Bernstein tail constants.  The bound can exceed 1.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if n_views < 1 or n_measurements < 1:
        raise ValueError("view and measurement counts must be positive")
    if norm_bound_u <= 0.0 or norm_bound_v <= 0.0:
        raise ValueError("norm bounds must be positive")
    bu_bv = norm_bound_u * norm_bound_v
    denom = (BERNSTEIN_VARIANCE_COEFF * bu_bv ** 2
             + BERNSTEIN_SCALE_COEFF * tau * bu_bv)
    return 2.0 * math.exp(-n_views * n_measurements * tau * tau / denom)


def empirical_tail_frequency(u_vectors, v_vectors, n_measurements: int,
                             tau: float, trials: int, seed=None):
    """Monte-Carlo frequency of the deviation event, with its analytic bound.

    Draws fresh N(0, 1/M) sensing matrices for every view and trial and
    counts how often the view-averaged bilinear deviation reaches tau.
    Returns ``(frequency, bound)`` where the bound plugs the largest
    vector norms into :func:`concentration_tail_bound`.
    """
    us = [np.asarray(u, dtype=float) for u in u_vectors]
    vs = [np.asarray(v, dtype=float) for v in v_vectors]
    if not us or len(us) != len(vs):
        raise ValueError("need matching nonempty u and v vector lists")
    length = us[0].size
    if any(u.size != length for u in us) or any(v.size != length for v in vs):
        raise ValueError("all vectors must share one length")
    if trials < 1:
        raise ValueError("need at least one trial")
    if n_measurements < 1:
        raise ValueError("measurement count must be positive")

    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(n_measurements)
    deviation = np.zeros(trials)
    for u, v in zip(us, vs):
        matrices = rng.standard_normal((trials, n_measurements, length)) * scale
        proj_u = matrices @ u
        proj_v = matrices @ v
        deviation += np.einsum("tm,tm->t", proj_u, proj_v) - float(u @ v)
    frequency = float(np.mean(np.abs(deviation) / len(us) >= tau))
    bound = concentration_tail_bound(
        tau, len(us), n_measurements,
        max(float(np.linalg.norm(u)) for u in us),
        max(float(np.linalg.norm(v)) for v in vs))
    return frequency, bound
