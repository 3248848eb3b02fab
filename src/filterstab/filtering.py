"""Forward filtering recursion, paired correct/misspecified runs, decay estimation.

The filter alternates a prediction through the transition kernel with a
Bayes reweighting by the observation likelihood, renormalizing in the linear
domain at every step. For two filters driven by the same observation record,
the total variation distance between their posteriors is the quantity whose
decay (or non-decay) this package measures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidModelError, NumericalError
from .model import Density, FiniteModel, StateSpace, TransitionKernel, as_density
from .simulate import likelihood_rows, likelihood_vector

UNDERFLOW_FLOOR = 1e-300
TV_FLOOR = 1e-280


@dataclass(frozen=True)
class FilterRun:
    """Posterior densities ``pi_0..pi_N`` from one prior on one observation record.

    ``densities`` is a read-only ``(N+1, d)`` array whose row ``n`` is
    ``pi_n``. ``log_normalizers[k]`` is the log of the Bayes normalizing
    constant of step ``k+1``; their sum is the log marginal likelihood of the
    record under this prior, which tests use as an independent route to
    likelihood ratios.
    """

    densities: np.ndarray
    prior_label: str
    observations: np.ndarray
    log_normalizers: np.ndarray


@dataclass(frozen=True)
class PairRun:
    """Correct and misspecified filters on a shared record, with their TV gap."""

    run_correct: FilterRun
    run_wrong: FilterRun
    tv: np.ndarray


@dataclass(frozen=True)
class DecayEstimate:
    slope: float
    converged: bool


ZERO_LIKELIHOOD = (
    "zero-likelihood observation: observation has probability 0 under the predicted law"
)


def _filter_update(pi: np.ndarray, likelihood: np.ndarray, matrix: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prediction plus Bayes reweighting of a stack of densities: the one filter kernel.

    ``pi`` is a stack of row vectors ``(..., 1, d)`` and ``likelihood``
    broadcasts against it. Returns the unnormalized posteriors and their
    ``(..., 1, 1)`` normalizing constants
    ``sum_x likelihood[x] * predicted[x] * w[x]``; the caller checks the
    constants before dividing. Each product is a stacked matmul of row
    vectors, which numpy runs as one gemv or dot per row, so a row rounds
    exactly as it does alone (a 2-D ``X @ M`` would be a gemm, which does not).
    """
    unnormalized = likelihood * ((pi * weights) @ matrix)
    return unnormalized, unnormalized @ weights[:, None]


def _log_domain_update(pi: np.ndarray, y, model: FiniteModel) -> Optional[tuple[np.ndarray, float]]:
    """One Gaussian filter step computed in the log domain.

    Used only where the linear-domain normalizer underflows: the log joint
    ``log lik[x] + log(predicted[x] w[x])`` is shifted by its maximum before
    exponentiating, and the shift goes back into the log normalizer. Returns
    None when the observation has no positive density at all (e.g. NaN).
    """
    obs, weights = model.observation, model.space.weights
    z = (float(y) - obs.means) / obs.sigma
    log_lik = -0.5 * z * z - math.log(obs.sigma * math.sqrt(2.0 * math.pi))
    with np.errstate(divide="ignore"):
        log_joint = log_lik + np.log((model.kernel.matrix.T @ (pi * weights)) * weights)
    shift = float(log_joint.max())
    if not math.isfinite(shift):
        return None
    joint = np.exp(log_joint - shift)
    total = float(joint.sum())
    return joint / total / weights, shift + math.log(total)


def filter_step_with_likelihood(
    pi_prev: Density,
    likelihood: np.ndarray,
    kernel: TransitionKernel,
    space: StateSpace,
) -> tuple[Density, float]:
    """Prediction plus Bayes reweighting by an explicit likelihood vector.

    Returns the posterior and the normalizing constant
    ``sum_x likelihood[x] * predicted[x] * w[x]``. A normalizer at or below
    the underflow floor means the observation has probability zero under the
    predicted law.
    """
    unnormalized, normalizer = _filter_update(
        pi_prev.values[None], np.asarray(likelihood, dtype=float), kernel.matrix, space.weights
    )
    normalizer = float(normalizer[0, 0])
    if not UNDERFLOW_FLOOR < normalizer < math.inf:
        raise NumericalError(ZERO_LIKELIHOOD)
    return Density(unnormalized[0] / normalizer), normalizer


def _filter_records(priors: np.ndarray, observations,
                    model: FiniteModel) -> tuple[np.ndarray, np.ndarray, list]:
    """The filter from each of ``P`` priors on each of ``R`` records, in one pass.

    ``priors`` is ``(P, d)`` and ``observations`` holds ``R`` records of
    ``N`` observations, validated at once. All ``R * P`` filters advance together,
    one stacked `_filter_update` per step. Returns the read-only
    ``(R, P, N+1, d)`` densities, the ``(R, P, N)`` log normalizers and, per
    filter in ``(R, P)`` order, the error it raises when run alone (or None).

    A Gaussian step whose normalizer underflows or overflows is redone for
    that filter alone in the log domain; where no rescue exists the filter
    fails at that step and holds its last density, so the other rows run on
    unaffected.
    """
    n_records, n_obs = np.shape(observations)
    n_priors, d = priors.shape
    # an axis of one for the priors, and each step's densities as row vectors
    liks = likelihood_rows(model.observation, np.ravel(observations))
    liks = liks.reshape(n_records, 1, n_obs, 1, d)
    matrix, weights = model.kernel.matrix, model.space.weights
    gaussian = model.observation.kind == "gaussian"
    densities = np.empty((n_records, n_priors, n_obs + 1, 1, d))
    densities[:, :, 0, 0] = priors
    normalizers = np.empty((n_records, n_priors, n_obs, 1, 1))
    failed_at = np.zeros((n_records, n_priors), dtype=np.int64)  # first failing step, 0 if none
    rescued_logs = {}
    for n in range(n_obs):
        pi = densities[:, :, n]
        unnormalized, z = _filter_update(pi, liks[:, :, n], matrix, weights)
        zs = z.ravel().tolist()
        # the normalizers are nonnegative, so their sum is NaN or infinite
        # exactly when one of them is
        if not (min(zs) > UNDERFLOW_FLOOR and sum(zs) < math.inf):
            for r, p in zip(*np.nonzero(~((z[..., 0, 0] > UNDERFLOW_FLOOR)
                                          & (z[..., 0, 0] < math.inf)))):
                rescued = None
                if gaussian and not failed_at[r, p]:
                    rescued = _log_domain_update(pi[r, p, 0], observations[r][n], model)
                if rescued is None:
                    failed_at[r, p] = failed_at[r, p] or n + 1
                    unnormalized[r, p] = pi[r, p]
                else:
                    unnormalized[r, p, 0], rescued_logs[r, p, n] = rescued
                z[r, p] = 1.0
        normalizers[:, :, n] = z
        np.divide(unnormalized, z, out=densities[:, :, n + 1])
    densities = densities[..., 0, :]
    normalizers = normalizers[..., 0, 0]
    invalid = ~np.isfinite(densities).all(axis=(2, 3)) | (densities < 0.0).any(axis=(2, 3))
    errors = [
        NumericalError(f"{ZERO_LIKELIHOOD} (at step {step})") if step
        else InvalidModelError("density values must be finite and nonnegative") if bad else None
        for step, bad in zip(failed_at.ravel().tolist(), invalid.ravel().tolist())
    ]
    log_norms = np.fromiter(map(math.log, normalizers.flat), float, normalizers.size)
    log_norms = log_norms.reshape(n_records, n_priors, n_obs)
    for index, value in rescued_logs.items():
        log_norms[index] = value
    densities.flags.writeable = False
    return densities, log_norms, errors


def _raise_first(errors) -> None:
    """Raise the first error of a batch in row order, as the rows run one by one would."""
    for error in errors:
        if error is not None:
            raise error


def run_filter(prior: Density, observations: Sequence, model: FiniteModel,
               prior_label: str = "custom") -> FilterRun:
    """Fold the filter over an observation record, keeping every posterior.

    On a Gaussian channel a step whose normalizer underflows (an outlier far
    from every mean) is redone in the log domain; on a finite alphabet it is
    a genuine impossibility and raises.
    """
    densities, log_norms, errors = _filter_records(prior.values[None], [observations], model)
    _raise_first(errors)
    return FilterRun(
        densities=densities[0, 0],
        prior_label=prior_label,
        observations=np.asarray(observations),
        log_normalizers=log_norms[0, 0],
    )


def tv_norm(p: Density, q: Density, space: StateSpace) -> float:
    """Total variation distance as the L1 gap of densities against the weights."""
    if p.dim != q.dim or p.dim != space.num_states:
        raise InvalidModelError(
            f"dimension mismatch: densities of size {p.dim} and {q.dim} on {space.num_states} states"
        )
    return float(np.abs(p.values - q.values) @ space.weights)


def _check_priors(true_prior: Density, wrong_prior: Density, space: StateSpace) -> None:
    """The wrong prior must be strictly positive; a true prior with zero atoms warns."""
    positive = space.weights > 0.0
    if np.any(wrong_prior.values[positive] <= 0.0):
        raise InvalidModelError("beta not bounded below: wrong prior has a zero atom")
    if np.any(true_prior.values[positive] == 0.0):
        warnings.warn(
            "true prior has zero atoms; absolute continuity with respect to the "
            "wrong prior still holds",
            RuntimeWarning,
            stacklevel=3,
        )


def _pair_records(true_prior: Density, wrong_prior: Density, observations,
                  model: FiniteModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Both filters on each of ``R`` records in one `_filter_records` pass.

    Returns the ``(R, 2, N+1, d)`` densities (correct prior first), the log
    normalizers, the ``(R, N+1)`` TV gaps and the per-filter errors.
    """
    densities, log_norms, errors = _filter_records(
        np.stack([true_prior.values, wrong_prior.values]), observations, model)
    # one dot per row, the same product `tv_norm` takes on a single pair
    gaps = np.subtract(densities[:, 0], densities[:, 1])
    np.abs(gaps, out=gaps)
    tv = (gaps[..., None, :] @ model.space.weights[:, None])[..., 0, 0]
    return densities, log_norms, tv, errors


def _pair_run(densities: np.ndarray, log_norms: np.ndarray, observations: np.ndarray,
              tv: np.ndarray) -> PairRun:
    """The `PairRun` of one record's rows of `_pair_records`."""
    return PairRun(
        run_correct=FilterRun(densities[0], "correct", observations, log_norms[0]),
        run_wrong=FilterRun(densities[1], "wrong", observations, log_norms[1]),
        tv=tv,
    )


def run_filter_pair(true_prior: Density, wrong_prior: Density, observations: Sequence,
                    model: FiniteModel) -> PairRun:
    """Run the filter from both priors on the same record and track the TV gap.

    The wrong prior must be strictly positive so its filter is well defined on
    any record the true model can produce. The true prior may have zero atoms.
    Both filters advance in one pass; the correct prior's failure is raised first.
    """
    _check_priors(true_prior, wrong_prior, model.space)
    densities, log_norms, tv, errors = _pair_records(true_prior, wrong_prior, [observations],
                                                     model)
    _raise_first(errors)
    return _pair_run(densities[0], log_norms[0], np.asarray(observations), tv[0])


def decay_rate(tv: Sequence[float], window_fraction: float = 0.5) -> DecayEstimate:
    """Least-squares slope of ``log tv[n]`` over the trailing window.

    Entries below the tracking floor (1e-280) are skipped; when the whole
    window sits below the floor the gap has collapsed to numerical zero and
    the estimate reports ``converged`` with slope ``-inf``.
    """
    tv = np.asarray(tv, dtype=float)
    if tv.size == 0:
        raise InvalidModelError("decay_rate needs a nonempty gap sequence")
    if not 0.0 < window_fraction <= 1.0:
        raise InvalidModelError(f"window_fraction must lie in (0, 1], got {window_fraction}")
    last = tv.size - 1
    start = last - int(math.floor(window_fraction * last))
    if last >= 1:
        start = min(start, last - 1)  # a slope needs two points
    window = np.arange(start, last + 1)
    usable = window[tv[window] >= TV_FLOOR]
    if usable.size == 0:
        return DecayEstimate(slope=-math.inf, converged=True)
    if usable.size < 2:
        raise NumericalError("insufficient data: fewer than two usable points in the window")
    slope = float(np.polyfit(usable, np.log(tv[usable]), 1)[0])
    return DecayEstimate(slope=slope, converged=False)


def _path_mass(model: FiniteModel, prior: Density, observations: Sequence) -> np.ndarray:
    """Joint mass table of (x_0, x_n) by full path enumeration (oracle core).

    Entry ``[u, x]`` sums ``prior(x0) w(x0) * prod_k matrix[x_{k-1}, x_k] w(x_k)
    * lik_k(x_k)`` over all state paths from ``x0 = u`` to ``x_n = x``.
    Deliberately naive; guarded against instances beyond ``d**(N+1) > 1e7``.
    """
    d = model.space.num_states
    n = len(observations)
    if d ** (n + 1) > 10**7:
        raise InvalidModelError(f"instance too large: {d}^{n + 1} paths")
    weights = model.space.weights
    start = (prior.values * weights).tolist()
    # factor[k - 1][i][j] = matrix[i, j] w(j) lik_k(j), the weight of step k
    factor = [(model.kernel.matrix * weights * likelihood_vector(model.observation, y)).tolist()
              for y in observations]
    mass = np.zeros((d, d))
    for path in product(range(d), repeat=n + 1):
        w = start[path[0]]
        for k in range(1, n + 1):
            w *= factor[k - 1][path[k - 1]][path[k]]
        mass[path[0], path[-1]] += w
    return mass


def brute_force_posterior(model: FiniteModel, prior: Density, observations: Sequence) -> Density:
    """Exact posterior of the final state by full path enumeration (test oracle):
    the final-state marginal of `_path_mass`."""
    mass = _path_mass(model, prior, observations).sum(axis=0)
    total = mass.sum()
    if total <= 0.0:
        raise NumericalError("zero-likelihood observation: record impossible under this prior")
    return as_density(mass / total / model.space.weights, model.space)
