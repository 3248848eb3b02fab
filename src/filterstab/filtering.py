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
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidModelError, NumericalError
from .model import Density, FiniteModel, StateSpace, TransitionKernel
from .simulate import likelihood_rows

UNDERFLOW_FLOOR = 1e-300
TV_FLOOR = 1e-280


class FilterRun(namedtuple("FilterRun", "densities normalizers rescued_logs")):
    """Posterior densities ``pi_0..pi_N`` from one prior on one observation record.

    ``densities`` is a read-only ``(N+1, d)`` array whose row ``n`` is
    ``pi_n``. ``log_normalizers[k]`` is the log of the Bayes normalizing
    constant of step ``k+1``; their sum is the log marginal likelihood of the
    record under this prior, which tests use as an independent route to
    likelihood ratios. It is computed on first read, cached and read-only, from
    the linear ``normalizers`` (1.0 at a step redone in the log domain, whose
    log is in ``rescued_logs`` by step index). The cache lives in the
    instance ``__dict__``, which is why this record declares no ``__slots__``.
    """

    @functools.cached_property
    def log_normalizers(self) -> np.ndarray:
        # `math.log` per step: `np.log` can differ from it in the last bit
        logs = np.fromiter(map(math.log, self.normalizers.tolist()), float)
        logs[list(self.rescued_logs)] = list(self.rescued_logs.values())
        logs.flags.writeable = False
        return logs


class PairRun(NamedTuple):
    """Correct and misspecified filters on a shared record, with their TV gap."""

    run_correct: FilterRun
    run_wrong: FilterRun
    tv: np.ndarray


class DecayEstimate(NamedTuple):
    slope: float
    converged: bool


ZERO_LIKELIHOOD = (
    "zero-likelihood observation: observation has probability 0 under the predicted law"
)


def _log_domain_update(pi: np.ndarray, y, model: FiniteModel) -> Optional[tuple[np.ndarray, float]]:
    """One Gaussian filter step computed in the log domain.

    Used only where the linear-domain normalizer underflows: the log joint
    ``log lik[x] + log(predicted[x] w[x])`` is shifted by its maximum before
    exponentiating, and the shift goes back into the log normalizer. Returns
    None when the observation has no positive density at all (e.g. NaN). It
    runs under `_engine`'s ``np.errstate``, where the log of 0 is -inf.
    """
    weights, obs = model.space.weights, model.observation
    z = (float(y) - obs.means) / obs.sigma
    log_lik = -0.5 * z * z - math.log(obs.sigma * math.sqrt(2.0 * math.pi))
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


# entries of a filter buffer held at once: `_engine` runs a chunk of steps at a time
_CHUNK_ENTRIES = 2**13


class _EngineRun(NamedTuple):
    """What `_engine` returns."""

    densities: np.ndarray  # (R, P, N+1, d), read-only
    normalizers: np.ndarray  # (R, P, N), read-only, linear
    rescued_logs: dict  # {(r, p): {step: log normalizer}} of log-domain steps

    def filter_run(self, r: int, p: int) -> FilterRun:
        """The `FilterRun` of prior ``p`` on record ``r``."""
        return FilterRun(self.densities[r, p], self.normalizers[r, p],
                         self.rescued_logs.get((r, p), {}))


def _engine(model: FiniteModel, priors: np.ndarray, observations) -> _EngineRun:
    """The filter loop: the filter from each of the ``(P, d)`` priors on each
    of the ``R`` records of ``observations``, a chunk of
    ``_CHUNK_ENTRIES // (P R d)`` steps at a time. It runs no ρ: that is
    `backward_pass`'s own loop, along one density history.

    Each step advances every filter as one stack of row vectors. Each product
    is one gemv or dot per row, so every row rounds as it does alone; a lone
    row takes ``ndarray.dot``, the same BLAS call at less cost. Elementwise
    steps run on same-shape operands tiled once per chunk. A chunk's
    normalizers are checked in one vectorized test. A Gaussian step whose
    normalizer underflows or overflows is redone for that row in the log
    domain, and the filter resumes after that step in runs of 1, 2, 4, ...
    steps. Any other bad normalizer fails the filter, which goes on with
    whatever values it gets and is not checked again. The normalizers are
    returned linear, 1.0 at rescued steps, with their log-domain values
    beside them; no logarithm is taken until a `FilterRun` is read.

    When a filter has failed, the first error in record order is raised:
    each record's filters in prior order, as if they ran one by one.
    """
    matrix, weights = model.kernel.matrix, model.space.weights
    d = model.space.num_states
    n_records, n_obs = np.shape(observations)
    n_priors = len(priors)
    n_rows = n_priors * n_records  # prior-major: row p * R + r
    # a lone row is 1-D: numpy rounds it the same way, at less cost per call
    row = (n_rows, 1, d) if n_rows > 1 else (d,)
    held = max(1, min(_CHUNK_ENTRIES // (n_rows * d), n_obs))  # steps per chunk
    multiply, divide, matmul = np.multiply, np.divide, np.matmul
    liks = likelihood_rows(model.observation, np.ravel(observations))
    liks = np.ascontiguousarray(liks.reshape(n_records, n_obs, d).swapaxes(0, 1))
    densities = np.empty((n_obs + 1,) + row)
    densities[0] = np.repeat(priors, n_records, axis=0).reshape(row)
    normalizers = np.empty((n_obs,) + row[:-1] + (1,))
    # a chunk's densities and normalizers, copied out at its end
    pis, zs = np.empty((held + 1,) + row), np.empty((held,) + row[:-1] + (1,))
    row_pis, row_zs = pis.reshape(held + 1, n_rows, d), zs.reshape(held, n_rows)
    weighted, predicted = np.empty((2,) + row)  # read only by the step that writes them
    tiled_liks = np.empty((held,) + row)  # each record's likelihoods, for every prior
    tiled_weights = np.tile(weights, n_rows).reshape(row)
    unnormalized, weights_column = np.empty(row), weights[:, None]
    # one row goes through `ndarray.dot`: the same BLAS call
    row_product = np.ndarray.dot if n_rows == 1 else matmul
    # each buffer's per-step views, made once; step k writes the density step k + 1 reads
    pi_views = list(pis)
    steps = pi_views, list(tiled_liks), list(zs), pi_views[1:]
    failed_at = np.zeros(n_rows, dtype=np.int64)  # first failing step, or 0
    rescued_logs = {}
    with np.errstate(all="ignore"):  # every failure is caught by the checks below
        for first in range(0, n_obs, held):
            m = min(held, n_obs - first)
            pis[0] = densities[first]
            tiled_liks[:m].reshape(m, n_priors, -1)[:] = liks[first:first + m].reshape(m, 1, -1)
            done, size = 0, m
            while done < m:
                stop = min(done + size, m)
                for pi, lik, z, pi_next in zip(*(views[done:stop] for views in steps)):
                    multiply(pi, tiled_weights, weighted)
                    row_product(weighted, matrix, predicted)
                    multiply(lik, predicted, unnormalized)
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
            densities[first + 1:first + 1 + m] = pis[1:m + 1]
            normalizers[first:first + m] = zs[:m]
    densities = densities.reshape(n_obs + 1, n_priors, n_records, d).transpose(2, 1, 0, 3)
    normalizers = normalizers.reshape(n_obs, n_priors, n_records).transpose(2, 1, 0)
    densities.flags.writeable = normalizers.flags.writeable = False
    failed = failed_at.reshape(n_priors, n_records).T  # (R, P): per filter
    broken = ~np.isfinite(densities).all(axis=(2, 3)) | (densities < 0.0).any(axis=(2, 3))
    failing = failed.any(axis=1) | broken.any(axis=1)
    if failing.any():
        r = int(failing.argmax())  # the lowest failing record
        for step, bad in zip(failed[r].tolist(), broken[r].tolist()):
            if step:
                raise NumericalError(f"{ZERO_LIKELIHOOD} (at step {step})")
            if bad:
                raise InvalidModelError("density values must be finite and nonnegative")
    return _EngineRun(densities, normalizers, rescued_logs)


def run_filter(prior: Density, observations: Sequence, model: FiniteModel) -> FilterRun:
    """Fold the filter over an observation record, keeping every posterior.

    On a Gaussian channel a step whose normalizer underflows (an outlier far
    from every mean) is redone in the log domain; on a finite alphabet it is
    a genuine impossibility and raises.
    """
    return _engine(model, prior.values[None], [observations]).filter_run(0, 0)


def _pair_run(run: _EngineRun, r: int, weights: np.ndarray) -> PairRun:
    """The `PairRun` of record ``r`` of an `_engine` pass over both priors."""
    correct, wrong = run.filter_run(r, 0), run.filter_run(r, 1)
    gaps = np.abs(correct.densities - wrong.densities)
    # one dot per row: each TV rounds as ``np.abs(p - q) @ weights`` does alone
    tv = (gaps[:, None, :] @ weights[:, None])[:, 0, 0]
    return PairRun(run_correct=correct, run_wrong=wrong, tv=tv)


def _filter_pairs(model: FiniteModel, records) -> list[PairRun]:
    """The `PairRun` of the model's two priors on each of the ``R`` observation
    records, from one `_engine` pass; the lowest failing record's first error
    is raised. A true prior with zero atoms warns."""
    if np.any(model.true_prior.values == 0.0):
        warnings.warn(
            "true prior has zero atoms; absolute continuity with respect to the "
            "wrong prior still holds",
            RuntimeWarning,
            stacklevel=3,
        )
    run = _engine(model, np.stack([model.true_prior.values, model.wrong_prior.values]), records)
    return [_pair_run(run, r, model.space.weights) for r in range(len(records))]


def run_filter_pair(model: FiniteModel, observations: Sequence) -> PairRun:
    """Run the filter from the model's true and wrong priors on the same
    record and track the TV gap.

    `FiniteModel` keeps the wrong prior strictly positive, so its filter is
    well defined on any record the true model can produce. The true prior may
    have zero atoms. Both filters advance in one pass; the correct prior's
    failure is raised first.
    """
    return _filter_pairs(model, [observations])[0]


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
