"""Forward filtering recursion, paired correct/misspecified runs, decay estimation.

The filter alternates a prediction through the transition kernel with a
Bayes reweighting by the observation likelihood, renormalizing in the linear
domain at every step. For two filters driven by the same observation record,
the total variation distance between their posteriors is the quantity whose
decay (or non-decay) this package measures.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidModelError, NumericalError
from .model import Density, FiniteModel, StateSpace, TransitionKernel, as_density
from .simulate import likelihood_rows

UNDERFLOW_FLOOR = 1e-300
TV_FLOOR = 1e-280


@dataclass(frozen=True)
class FilterRun:
    """Posterior densities ``pi_0..pi_N`` from one prior on one observation record.

    ``densities`` is a read-only ``(N+1, d)`` array whose row ``n`` is
    ``pi_n``. ``log_normalizers[k]`` is the log of the Bayes normalizing
    constant of step ``k+1``; their sum is the log marginal likelihood of the
    record under this prior, which tests use as an independent route to
    likelihood ratios. It is computed on first read, cached and read-only, from
    the linear ``normalizers`` (1.0 at a step redone in the log domain, whose
    log is in ``rescued_logs`` by step index).
    """

    densities: np.ndarray
    observations: np.ndarray
    normalizers: np.ndarray
    rescued_logs: Mapping[int, float]

    @functools.cached_property
    def log_normalizers(self) -> np.ndarray:
        # `math.log` per step: `np.log` can differ from it in the last bit
        logs = np.fromiter(map(math.log, self.normalizers.tolist()), float)
        logs[list(self.rescued_logs)] = list(self.rescued_logs.values())
        logs.flags.writeable = False
        return logs


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


def _log_likelihood_rows(observation, observations) -> np.ndarray:
    """Log observation densities of a record, row ``n`` for ``observations[n]``:
    ``-z**2/2 - log(sigma sqrt(2 pi))`` for a Gaussian channel, the log of the
    emission-table column (-inf for a zero) for a finite alphabet."""
    if observation.kind == "finite":
        with np.errstate(divide="ignore"):
            return np.log(likelihood_rows(observation, observations))
    z = (np.asarray(observations, dtype=float)[:, None] - observation.means) / observation.sigma
    return -0.5 * z * z - math.log(observation.sigma * math.sqrt(2.0 * math.pi))


def _log_domain_update(pi: np.ndarray, y, model: FiniteModel) -> Optional[tuple[np.ndarray, float]]:
    """One Gaussian filter step computed in the log domain.

    Used only where the linear-domain normalizer underflows: the log joint
    ``log lik[x] + log(predicted[x] w[x])`` is shifted by its maximum before
    exponentiating, and the shift goes back into the log normalizer. Returns
    None when the observation has no positive density at all (e.g. NaN). It
    runs under `_engine`'s ``np.errstate``, where the log of 0 is -inf.
    """
    weights = model.space.weights
    log_lik = _log_likelihood_rows(model.observation, [y])[0]
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
    predicted = (pi_prev.values * space.weights) @ kernel.matrix
    unnormalized = np.asarray(likelihood, dtype=float) * predicted
    normalizer = float(unnormalized @ space.weights)
    if not UNDERFLOW_FLOOR < normalizer < math.inf:
        raise NumericalError(ZERO_LIKELIHOOD)
    return Density(unnormalized / normalizer), normalizer


# entries of backward densities held at once: `_engine` runs each stage on a chunk of steps
_CHUNK_ENTRIES = 2**13


class _EngineRun(NamedTuple):
    """What `_engine` returns; the parts a pass does not compute are None."""

    densities: Optional[np.ndarray] = None  # (R, P, N+1, d), read-only
    normalizers: Optional[np.ndarray] = None  # (R, P, N), read-only, linear
    rescued_logs: Optional[dict] = None  # {(r, p): {step: log normalizer}} of log-domain steps
    oscillations: Optional[np.ndarray] = None  # (R, N, d)
    ratios: Optional[np.ndarray] = None  # (R, N+1)

    def filter_run(self, r: int, p: int, observations) -> FilterRun:
        """The `FilterRun` of prior ``p`` on record ``r``, `observations`."""
        return FilterRun(self.densities[r, p], observations, self.normalizers[r, p],
                         self.rescued_logs.get((r, p), {}))


def _engine(model: FiniteModel, start: np.ndarray, observations=None,
            backward: Optional[tuple] = None) -> _EngineRun:
    """The one time loop: the filter from ``P`` priors on ``R`` records and
    ρ along one of those priors, a chunk of ``_CHUNK_ENTRIES // (R d d)``
    steps at a time.

    ``start`` holds the ``(P, d)`` priors, or, without observations, the
    ``(N+1, d)`` density history of one run, read instead of filtered.
    ``backward = (p, theta0, ratio)`` advances ρ from the strictly positive
    ``theta0`` along prior ``p``, dividing by that prior's prediction, and
    reduces it to oscillations and the likelihood ratios of ``ratio``.
    Each chunk runs in two stages. The filter fills the chunk's weighted and
    predicted rows, normalizers and densities (a given history's rows are
    weighted and predicted by one time-stacked product); then ρ is carried
    across the chunk from those buffers and reduced. Each product is one gemv
    or dot per row, so every row rounds as it does alone; a lone row, and ρ
    of a lone record, take ``ndarray.dot``, the same BLAS call at less cost.
    Elementwise steps run on same-shape operands tiled once per chunk.
    A Gaussian step whose normalizer underflows or overflows is redone for
    that row in the log domain, and the filter resumes after that step in
    runs of 1, 2, 4, ... steps. Any other bad normalizer fails the filter,
    and a zero predicted mass fails ρ; a failed run goes on with whatever
    values it gets and is not checked again. The normalizers are returned
    linear, 1.0 at rescued steps, with their log-domain values beside them;
    no logarithm is taken until a `FilterRun` is read.

    When a run has failed, the first error in record order is raised: each
    record's filters in prior order, then its ρ, as if the runs went one by
    one.
    """
    matrix, weights = model.kernel.matrix, model.space.weights
    d = model.space.num_states
    filtering = observations is not None
    n_records, n_obs = np.shape(observations) if filtering else (1, len(start) - 1)
    n_priors = len(start) if filtering else 1
    n_rows = n_priors * n_records  # prior-major: row p * R + r
    # a lone row or record is 1-D: numpy rounds it the same way, at less cost per call
    row = (n_rows, 1, d) if n_rows > 1 else (d,)
    run_row = (n_records, 1, d) if n_records > 1 else (d,)  # the rows of one prior
    held = max(1, min(_CHUNK_ENTRIES // (n_records * d * d), n_obs))  # steps per chunk
    weighted, predicted = np.empty((2, held) + row)
    multiply, divide, matmul = np.multiply, np.divide, np.matmul
    if filtering:
        liks = likelihood_rows(model.observation, np.ravel(observations))
        liks = np.ascontiguousarray(liks.reshape(n_records, n_obs, d).swapaxes(0, 1))
        densities = np.empty((n_obs + 1,) + row)
        densities[0] = np.repeat(start, n_records, axis=0).reshape(row)
        normalizers = np.empty((n_obs,) + row[:-1] + (1,))
        # a chunk's densities and normalizers, copied out at its end
        pis, zs = np.empty((held + 1,) + row), np.empty((held,) + row[:-1] + (1,))
        row_pis, row_zs = pis.reshape(held + 1, n_rows, d), zs.reshape(held, n_rows)
        tiled_liks = np.empty((held,) + row)  # each record's likelihoods, for every prior
        tiled_weights = np.tile(weights, n_rows).reshape(row)
        unnormalized, weights_column = np.empty(row), weights[:, None]
        # one row goes through `ndarray.dot`: the same BLAS call
        row_product = np.ndarray.dot if n_rows == 1 else matmul
        # each buffer's per-step views, made once; step k writes the density step k + 1 reads
        pi_views = list(pis)
        steps = pi_views, list(weighted), list(predicted), list(tiled_liks), list(zs), pi_views[1:]
        failed_at = np.zeros(n_rows, dtype=np.int64)  # first failing step, or 0
        rescued_logs = {}
    else:
        densities = start
    follow, theta0, ratio = backward or (0, None, None)
    history = densities.reshape((n_obs + 1, n_priors) + run_row)[:, follow]  # ρ's prior
    rho = rho_error = None
    if backward is not None:
        ratios = np.empty((n_obs + 1, n_records))
        ratios[0] = float((ratio * theta0) @ weights)
        oscillations = np.zeros((n_obs, n_records, d))
        square = run_row[:-2] + (d, d)
        # a chunk of ρ, and its prior's weighted and predicted rows tiled over ρ's rows
        rhos, rho_weighted, rho_predicted = np.empty((3, held) + square)
        try:
            if n_obs:
                rhos[0] = _rho_init(theta0, matrix, weights)
                rho = rhos[0]
        except NumericalError as exc:  # the first step is the same for every run
            rho_error = exc
        scaled, numerator = np.empty((2,) + square)
        column_sums = np.empty(run_row)
        weights_row = weights[None, :] if n_records > 1 else weights
        rho_product = np.ndarray.dot if n_records == 1 else matmul
        rho_steps = list(rho_weighted), list(rho_predicted), list(rhos)
        invalid, dead = np.zeros((2, n_records), dtype=bool)  # dead: a zero predicted mass
        ratio_weighted = (ratio * weights)[None, :]
    with np.errstate(all="ignore"):  # every failure is caught by the checks below
        for first in range(0, n_obs, held):
            m, after = min(held, n_obs - first), first + 1
            if filtering:
                pis[0] = densities[first]
                tiled_liks[:m].reshape(m, n_priors, -1)[:] = liks[first:first + m].reshape(m, 1, -1)
                done, size = 0, m
                while done < m:
                    stop = min(done + size, m)
                    for pi, w, p, lik, z, pi_next in zip(*(views[done:stop] for views in steps)):
                        multiply(pi, tiled_weights, w)
                        row_product(w, matrix, p)
                        multiply(lik, p, unnormalized)
                        matmul(unnormalized, weights_column, z)
                        divide(unnormalized, z, pi_next)
                    z = row_zs[done:stop]
                    bad = ~((z > UNDERFLOW_FLOOR) & (z < math.inf))
                    bad &= failed_at == 0
                    if not bad.any():
                        done, size = stop, 2 * size
                        continue
                    k = done + int(bad.any(axis=1).argmax())  # the first failing step
                    n = first + k
                    for i in np.flatnonzero(bad[k - done]).tolist():
                        p, r = divmod(i, n_records)
                        rescued = (model.observation.kind == "gaussian"
                                   and _log_domain_update(row_pis[k, i], observations[r][n], model))
                        if rescued:
                            row_pis[k + 1, i], rescued_logs.setdefault((r, p), {})[n] = rescued
                            row_zs[k, i] = 1.0
                        else:
                            failed_at[i] = n + 1
                    done, size = k + 1, 1
                densities[after:after + m] = pis[1:m + 1]
                normalizers[first:first + m] = zs[:m]
            else:  # a given history: one time-stacked product of its rows
                multiply(densities[first:first + m], weights, weighted[:m])
                matmul(weighted[:m, None], matrix, predicted[:m, None])
            if rho is None:
                continue
            # ρ's step n divides by its prior's prediction of filter step n
            by_run = (m, n_priors, n_records, 1, d)
            step_weighted = rho_weighted[:m].reshape(m, n_records, d, d)
            step_predicted = rho_predicted[:m].reshape(m, n_records, d, d)
            step_weighted[:] = weighted[:m].reshape(by_run)[:, follow]
            step_predicted[:] = predicted[:m].reshape(by_run)[:, follow]
            # step 0 is `_rho_init`, from theta0
            dead |= (step_predicted[0 if first else 1:, :, 0].min(axis=-1) <= 0.0).any(axis=0)
            for w, p, rho_next in zip(*(views[0 if first else 1:m] for views in rho_steps)):
                multiply(rho, w, scaled)
                rho_product(scaled, matrix, numerator)
                divide(numerator, p, numerator)
                rho_product(weights_row, numerator, column_sums)
                rho = divide(numerator, column_sums, rho_next)
            # the chunk's column extrema, and its likelihood ratios as one dot per step
            chunk = rhos[:m].reshape(m, n_records, d, d)
            upper, lower = chunk.max(axis=-1), chunk.min(axis=-1)
            invalid |= ~np.isfinite(upper).all(axis=(0, 2)) | (lower < 0.0).any(axis=(0, 2))
            np.subtract(upper, lower, out=oscillations[first:first + m])
            later = history[after:after + m].reshape(m, n_records, 1, d) * weights
            ratios[after:after + m] = ((ratio_weighted @ chunk) @ later.swapaxes(-1, -2))[..., 0, 0]
    run = {}
    failed = broken = np.zeros((n_records, 0), dtype=bool)  # (R, P): per filter
    if filtering:
        densities = densities.reshape(n_obs + 1, n_priors, n_records, d).transpose(2, 1, 0, 3)
        normalizers = normalizers.reshape(n_obs, n_priors, n_records).transpose(2, 1, 0)
        densities.flags.writeable = normalizers.flags.writeable = False
        run = dict(densities=densities, normalizers=normalizers, rescued_logs=rescued_logs)
        failed = failed_at.reshape(n_priors, n_records).T
        broken = ~np.isfinite(densities).all(axis=(2, 3)) | (densities < 0.0).any(axis=(2, 3))
    failing = failed.any(axis=1) | broken.any(axis=1)
    if backward is not None:
        ratios = ratios.T
        bad_ratios = ~np.isfinite(ratios) | (ratios < 0.0)
        failing |= (rho_error is not None) | dead | invalid | bad_ratios.any(axis=1)
        run.update(oscillations=oscillations.transpose(1, 0, 2), ratios=ratios)
    if failing.any():
        r = int(failing.argmax())  # the lowest failing record
        for step, bad in zip(failed[r].tolist(), broken[r].tolist()):
            if step:
                raise NumericalError(f"{ZERO_LIKELIHOOD} (at step {step})")
            if bad:
                raise InvalidModelError("density values must be finite and nonnegative")
        if rho_error is not None:
            raise rho_error
        if dead[r]:
            raise NumericalError("state has zero predicted mass")
        if invalid[r]:
            raise InvalidModelError("backward density entries must be finite and nonnegative")
        value = float(ratios[r, bad_ratios[r].argmax()])
        raise NumericalError(f"likelihood ratio must be finite and nonnegative, got {value!r}")
    return _EngineRun(**run)


def _rho_init(theta0: np.ndarray, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Backward density after the first step, on plain arrays."""
    numerator = matrix * theta0[:, None]
    denominator = (theta0 * weights) @ matrix
    if np.any(denominator <= 0.0):
        raise NumericalError("state unreachable in one step: conditioning event has probability 0")
    rho = numerator / denominator[None, :]
    return rho / (weights @ rho)


def run_filter(prior: Density, observations: Sequence, model: FiniteModel) -> FilterRun:
    """Fold the filter over an observation record, keeping every posterior.

    On a Gaussian channel a step whose normalizer underflows (an outlier far
    from every mean) is redone in the log domain; on a finite alphabet it is
    a genuine impossibility and raises.
    """
    return _engine(model, prior.values[None], [observations]).filter_run(
        0, 0, np.asarray(observations))


def tv_norm(p: Density, q: Density, space: StateSpace) -> float:
    """Total variation distance as the L1 gap of densities against the weights."""
    if p.dim != q.dim or p.dim != space.num_states:
        raise InvalidModelError(
            f"dimension mismatch: densities of size {p.dim} and {q.dim} on {space.num_states} states"
        )
    return float(np.abs(p.values - q.values) @ space.weights)


def _check_priors(true_prior: Density, wrong_prior: Density) -> None:
    """The wrong prior must be strictly positive; a true prior with zero atoms warns."""
    if np.any(wrong_prior.values <= 0.0):
        raise InvalidModelError("beta not bounded below: wrong prior has a zero atom")
    if np.any(true_prior.values == 0.0):
        warnings.warn(
            "true prior has zero atoms; absolute continuity with respect to the "
            "wrong prior still holds",
            RuntimeWarning,
            stacklevel=3,
        )


def _pair_run(run: _EngineRun, r: int, observations: np.ndarray,
              weights: np.ndarray) -> PairRun:
    """The `PairRun` of record ``r`` of an `_engine` pass over both priors."""
    correct, wrong = run.filter_run(r, 0, observations), run.filter_run(r, 1, observations)
    gaps = np.abs(correct.densities - wrong.densities)
    # one dot per row, the same product `tv_norm` takes on a single pair
    tv = (gaps[:, None, :] @ weights[:, None])[:, 0, 0]
    return PairRun(run_correct=correct, run_wrong=wrong, tv=tv)


def run_filter_pair(true_prior: Density, wrong_prior: Density, observations: Sequence,
                    model: FiniteModel) -> PairRun:
    """Run the filter from both priors on the same record and track the TV gap.

    The wrong prior must be strictly positive so its filter is well defined on
    any record the true model can produce. The true prior may have zero atoms.
    Both filters advance in one pass; the correct prior's failure is raised first.
    """
    _check_priors(true_prior, wrong_prior)
    run = _engine(model, np.stack([true_prior.values, wrong_prior.values]), [observations])
    return _pair_run(run, 0, np.asarray(observations), model.space.weights)


def decay_rate(tv: Sequence[float], window_fraction: float = 0.5) -> DecayEstimate:
    """Least-squares slope of ``log tv[n]`` over the trailing window.

    Entries below the tracking floor (1e-280) are skipped; when the window's
    last entry sits below the floor the gap has collapsed to numerical zero
    and the estimate reports ``converged`` with slope ``-inf``.
    """
    tv = np.asarray(tv, dtype=float)
    if tv.size == 0:
        raise InvalidModelError("decay_rate needs a nonempty gap sequence")
    if not 0.0 < window_fraction <= 1.0:
        raise InvalidModelError(f"window_fraction must lie in (0, 1], got {window_fraction}")
    last = tv.size - 1
    if tv[last] < TV_FLOOR:
        return DecayEstimate(slope=-math.inf, converged=True)
    start = last - int(math.floor(window_fraction * last))
    if last >= 1:
        start = min(start, last - 1)  # a slope needs two points
    window = np.arange(start, last + 1)
    usable = window[tv[window] >= TV_FLOOR]
    if usable.size < 2:
        raise NumericalError("insufficient data: fewer than two usable points in the window")
    slope = float(np.polyfit(usable, np.log(tv[usable]), 1)[0])
    return DecayEstimate(slope=slope, converged=False)


def _path_log_mass(model: FiniteModel, prior: Density, observations: Sequence) -> np.ndarray:
    """Log joint mass table of (x_0, x_n) by full path enumeration (oracle core).

    Entry ``[u, x]`` is the log of the sum of ``prior(x0) w(x0) * prod_k
    matrix[x_{k-1}, x_k] w(x_k) * lik_k(x_k)`` over all state paths from
    ``x0 = u`` to ``x_n = x``. Each path's weight is kept as a sum of logs
    (-inf for a zero factor) and the paths are added by logsumexp, so a record
    whose path masses lie below the float range is not called impossible.
    Deliberately naive: it holds one float per path, and is guarded against
    instances beyond ``d**(N+1) > 1e7``.
    """
    d = model.space.num_states
    n = len(observations)
    if d ** (n + 1) > 10**7:
        raise InvalidModelError(f"instance too large: {d}^{n + 1} paths")
    weights = model.space.weights
    with np.errstate(divide="ignore"):
        paths = np.log(prior.values * weights)
        log_step = np.log(model.kernel.matrix * weights)
    if n == 0:
        return np.where(np.eye(d, dtype=bool), paths, -np.inf)
    # axis k of `paths` is x_k; step k adds log(matrix[x_{k-1}, x_k] w(x_k) lik_k(x_k))
    for log_lik in _log_likelihood_rows(model.observation, observations):
        paths = paths[..., None] + (log_step + log_lik)
    return _logsumexp(paths.reshape(d, -1, d), axis=1)


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(values)))`` along `axis`, shifted by the maximum; -inf
    where every entry is -inf."""
    top = values.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(values - top).sum(axis=axis)) + top.squeeze(axis)


def _shifted_mass(log_mass: np.ndarray, message: str) -> np.ndarray:
    """``exp(log_mass - max)`` normalized to total one; NumericalError(`message`)
    when every entry is log 0."""
    top = log_mass.max()
    if not top > -np.inf:
        raise NumericalError(message)
    mass = np.exp(log_mass - top)
    return mass / mass.sum()


def brute_force_posterior(model: FiniteModel, prior: Density, observations: Sequence) -> Density:
    """Exact posterior of the final state by full path enumeration (test oracle):
    the final-state marginal of `_path_log_mass`."""
    mass = _shifted_mass(_logsumexp(_path_log_mass(model, prior, observations), axis=0),
                         "zero-likelihood observation: record impossible under this prior")
    return as_density(mass / model.space.weights, model.space)
