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
from .model import Density, FiniteModel, _frozen
from .simulate import likelihood_rows

UNDERFLOW_FLOOR = 1e-300
TV_FLOOR = 1e-280


class FilterRun(namedtuple("FilterRun", "probabilities normalizers rescued_logs weights")):
    """Posteriors ``pi_0..pi_N`` from one prior on one observation record.

    ``probabilities`` is a read-only ``(N+1, d)`` array whose row ``n`` is
    the law of ``pi_n``, and `densities` is ``p / w``. ``log_normalizers[k]``
    is the log of the Bayes normalizing constant of step ``k+1``, from the
    linear ``normalizers`` (1.0 at a step redone in the log domain, whose log
    is in ``rescued_logs`` by step index); their sum, the log marginal
    likelihood of the record, is the tests' independent route to likelihood
    ratios. Both are read-only, formed on first read and cached in the
    instance ``__dict__``, which is why this record declares no ``__slots__``.
    """

    @functools.cached_property
    def densities(self) -> np.ndarray:
        return _frozen(self.probabilities / self.weights)

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
DENSITY_RANGE = "posterior density leaves the float range: an entry is inf or nan"


def _log_domain_update(p: np.ndarray, y, model: FiniteModel) -> Optional[tuple[np.ndarray, float]]:
    """One Gaussian filter step from the law `p`, computed in the log domain.

    Used only where the linear-domain normalizer underflows: the log joint
    ``log lik[x] + log(predicted[x])`` is shifted by its maximum before
    exponentiating, and the shift goes back into the log normalizer. Returns
    None when the observation has no positive density at all (e.g. NaN). It
    runs under `_engine`'s ``np.errstate``, where the log of 0 is -inf.
    """
    obs = model.observation
    z = (float(y) - obs.means) / obs.sigma
    log_lik = -0.5 * z * z - math.log(obs.sigma * math.sqrt(2.0 * math.pi))
    log_joint = log_lik + np.log(model.transition_probabilities.T @ p)
    shift = float(log_joint.max())
    if not math.isfinite(shift):
        return None
    joint = np.exp(log_joint - shift)
    total = float(joint.sum())
    return joint / total, shift + math.log(total)


def filter_step_with_likelihood(p_prev: np.ndarray, likelihood: np.ndarray,
                                model: FiniteModel) -> tuple[np.ndarray, float]:
    """The posterior law from the law `p_prev`: prediction through
    ``P = K diag(w)``, then Bayes reweighting by an explicit likelihood
    vector, and the normalizing constant ``sum_x likelihood[x] *
    predicted[x]``. A normalizer at or below the underflow floor means the
    observation has probability zero under the predicted law; a posterior
    whose density ``p / w`` leaves the float range is a `NumericalError` too.
    """
    unnormalized = np.asarray(likelihood, dtype=float) * (p_prev @ model.transition_probabilities)
    normalizer = float(unnormalized @ np.ones_like(unnormalized))
    if not UNDERFLOW_FLOOR < normalizer < math.inf:
        raise NumericalError(ZERO_LIKELIHOOD)
    p = unnormalized / normalizer
    with np.errstate(over="ignore"):
        if not (p / model.space.weights).max() < math.inf:
            raise NumericalError(DENSITY_RANGE)
    return p, normalizer


# entries of a filter buffer held at once: `_engine` runs a chunk of steps at a time
_CHUNK_ENTRIES = 2**13


def _engine(model: FiniteModel, priors: np.ndarray, observations, offset: int = 0):
    """The filter loop: the read-only ``(N+1, P, R, d)`` posterior laws and
    ``(N, P, R)`` normalizers from each of the ``(P, d)`` prior laws on each
    of the ``R`` records of ``observations``, with the log normalizers of
    rescued steps by ``(r, p)`` and step, a chunk of
    ``_CHUNK_ENTRIES // (P R d)`` steps at a time. The priors are the laws
    of step `offset`, from which an error counts its step. It runs no ρ: that
    is `backward_pass`'s own loop, along one history.

    Each step advances every filter as one stack of rows through
    ``P = K diag(w)``, each row rounding as it does alone. A lone row is 1-D:
    its product and normalizer are ``ndarray.dot`` calls, the normalizer a
    ddot against ones into a 0-d view of the chunk's normalizers. A stack of
    d <= 15 rows is 2-D: its normalizer is one ``(rows, d) @ (d, d)`` gemm
    against ones, tiled across each row with column 0 read as the
    normalizer, so its divide takes operands of one shape. Its product is
    one such gemm at d <= 3, and from d = 4 one gemv per row, through a
    ``(rows, 1, d)`` view. Every 2-D gemm is an ``ndarray.dot`` call, the
    BLAS call of `np.matmul` at lower cost. Those gemms round as the per-row
    calls; the product's identity fails from d = 4 and the normalizer's
    from d = 16 (`test_a_gemm_rounds_as_the_stacked_rows`). So a stack of
    d >= 16 keeps ``(rows, 1, d)`` rows, and `np.matmul` makes one gemv per
    row for the product and one dot per row for the normalizer; only its
    divide broadcasts. A step fails only at the check after each run of
    steps, of the run's normalizers and its densities ``p / w``. A Gaussian
    step whose normalizer leaves the float range is redone for that row in
    the log domain, and the filter resumes after it in runs of 1, 2, 4, ...
    steps. Any other bad normalizer fails the filter with `ZERO_LIKELIHOOD`,
    a density out of the float range (rescued or not) with `DENSITY_RANGE`.
    The normalizers are returned linear, 1.0 at rescued steps, with their
    log-domain values beside them.

    A failed filter goes on unchecked. The first error in record order is
    raised, each record's filters in prior order, as if they ran one by one.
    """
    matrix, weights = model.transition_probabilities, model.space.weights
    d = model.space.num_states
    n_records, n_obs = np.shape(observations)
    n_priors = len(priors)
    n_rows = n_priors * n_records  # prior-major: row p * R + r
    held = max(1, min(_CHUNK_ENTRIES // (n_rows * d), n_obs))  # steps per chunk
    multiply, divide, matmul, dot = np.multiply, np.divide, np.matmul, np.ndarray.dot
    if n_rows == 1:  # 1-D, its normalizer a ddot into a 0-d array
        row, z_row, ones, row_product, normalize = (d,), (), np.ones(d), dot, dot
    elif d <= 15:  # 2-D, the normalizer one gemm tiled across each row
        row = z_row = (n_rows, d)
        ones, normalize = np.ones((d, d)), dot
        row_product = dot if d <= 3 else matmul  # one gemm, or one gemv per row
    else:  # one gemv and one dot per row
        row, z_row, ones = (n_rows, 1, d), (n_rows, 1, 1), np.ones((d, 1))
        row_product = normalize = matmul
    # the product's operand shape: a (rows, 1, d) view of a 2-D stack when it takes gemvs
    product_row = (n_rows, 1, d) if row_product is matmul else row
    liks = likelihood_rows(model.observation, np.ravel(observations))
    liks = np.ascontiguousarray(liks.reshape(n_records, n_obs, d).swapaxes(0, 1))
    laws = np.empty((n_obs + 1,) + row)
    laws[0] = np.repeat(priors, n_records, axis=0).reshape(row)
    normalizers = np.empty((n_obs, n_rows))
    # a chunk's laws and normalizers, copied out at its end; a step's
    # normalizers are column 0 of its `zs`
    pis, zs = np.empty((held + 1,) + row), np.empty((held,) + z_row)
    row_pis, row_zs = pis.reshape(held + 1, n_rows, d), zs.reshape(held, n_rows, -1)[..., 0]
    predicted = np.empty(product_row)  # read only by the step that writes it
    tiled_liks = np.empty((held,) + row)  # each record's likelihoods, for every prior
    unnormalized = np.empty(row)
    predicted_row = predicted.reshape(row)
    # each buffer's per-step views, made once; step k writes the law step k + 1 reads
    # (`zs[k, ...]` is a view even when zs is 1-D, where iterating would copy)
    steps = (list(pis.reshape((held + 1,) + product_row)), list(tiled_liks),
             [zs[k, ...] for k in range(held)], list(pis)[1:])
    errors = {}  # row -> the error of its first failing step
    rescued_logs = {}
    with np.errstate(all="ignore"):  # every failure is caught by the check below
        for first in range(0, n_obs, held):
            m = min(held, n_obs - first)
            pis[0] = laws[first]
            tiled_liks[:m].reshape(m, n_priors, -1)[:] = liks[first:first + m].reshape(m, 1, -1)
            done, size = 0, m
            while done < m:
                start, done, size = done, min(done + size, m), 2 * size
                for pi, lik, z, pi_next in zip(*(views[start:done] for views in steps)):
                    row_product(pi, matrix, predicted)
                    multiply(lik, predicted_row, unnormalized)
                    normalize(unnormalized, ones, z)
                    divide(unnormalized, z, pi_next)
                # look closer only if a row may fail: NaN fails every test, p / w <= max p / min w
                z = row_zs[start:done]
                z_ok = (z > UNDERFLOW_FLOOR) & (z < math.inf)
                if z_ok.all() and pis[start + 1:done + 1].max() / weights.min() < math.inf:
                    continue
                bad = ~(z_ok & ((row_pis[start + 1:done + 1] / weights).max(axis=2) < math.inf))
                bad[:, list(errors)] = False  # a failed row is not checked again
                if not bad.any():
                    continue
                k = start + int(bad.any(axis=1).argmax())  # the first failing step
                n = first + k
                for i in np.flatnonzero(bad[k - start]).tolist():
                    p, r = divmod(i, n_records)
                    rescued = (not z_ok[k - start, i] and model.observation.kind == "gaussian"
                               and _log_domain_update(row_pis[k, i], observations[r][n], model))
                    if rescued and (rescued[0] / weights).max() < math.inf:
                        row_pis[k + 1, i], rescued_logs.setdefault((r, p), {})[n] = rescued
                        row_zs[k, i] = 1.0
                    else:
                        error = DENSITY_RANGE if rescued or z_ok[k - start, i] else ZERO_LIKELIHOOD
                        errors[i] = f"{error} (at step {offset + n + 1})"
                done, size = k + 1, 1
            laws[first + 1:first + 1 + m] = pis[1:m + 1]
            normalizers[first:first + m] = row_zs[:m]
    if errors:  # the lowest failing record's error, its priors in order
        raise NumericalError(errors[min(errors, key=lambda i: (i % n_records, i))])
    laws = laws.reshape(n_obs + 1, n_priors, n_records, d)
    normalizers = normalizers.reshape(n_obs, n_priors, n_records)
    laws.flags.writeable = normalizers.flags.writeable = False
    return laws, normalizers, rescued_logs


def _runs(laws: np.ndarray, normalizers: np.ndarray, rescued_logs: dict,
          weights: np.ndarray) -> list[list[FilterRun]]:
    """`_engine`'s arrays as the `FilterRun` ``runs[r][p]`` of record r and
    prior p, each array a view."""
    _, n_priors, n_records, _ = laws.shape
    return [[FilterRun(laws[:, p, r], normalizers[:, p, r], rescued_logs.get((r, p), {}), weights)
             for p in range(n_priors)] for r in range(n_records)]


def run_filter(prior: Density, observations: Sequence, model: FiniteModel) -> FilterRun:
    """Fold the filter over an observation record, keeping every posterior.

    On a Gaussian channel a step whose normalizer underflows (an outlier far
    from every mean) is redone in the log domain; on a finite alphabet it is
    a genuine impossibility and raises.
    """
    weights = model.space.weights
    return _runs(*_engine(model, (prior.values * weights)[None], [observations]), weights)[0][0]


def _filter_pairs(model: FiniteModel, records) -> list[PairRun]:
    """The `PairRun` of the model's two priors on each of the ``R`` observation
    records, from one `_engine` pass; the lowest failing record's first
    error is raised. A true prior with zero atoms warns. The TVs of a block
    of records whose gaps fill one filter chunk (``_CHUNK_ENTRIES``) come
    from one stacked `np.matmul` of ``(1, d) @ (d, 1)`` items, each gap row
    contiguous: a ddot per item against ones, rounding as
    ``np.abs(p - q).sum()`` by a ddot does alone. One product over every
    record measured a higher peak RSS."""
    if np.any(model.true_prior.values == 0.0):
        warnings.warn(
            "true prior has zero atoms; absolute continuity with respect to the "
            "wrong prior still holds",
            RuntimeWarning,
            stacklevel=3,
        )
    weights = model.space.weights
    priors = np.stack([model.true_prior.values, model.wrong_prior.values]) * weights
    stack = _engine(model, priors, records)
    laws, ones = stack[0], np.ones((len(weights), 1))
    n_steps, _, n_records, d = laws.shape
    tv = np.empty((n_records, n_steps))  # row r contiguous
    block = max(1, _CHUNK_ENTRIES // (n_steps * d))  # records whose gaps are held at once
    for first in range(0, n_records, block):
        part = slice(first, first + block)
        gaps = np.subtract(laws[:, 0, part], laws[:, 1, part])[:, :, None]  # [n, r]
        np.matmul(np.abs(gaps, out=gaps), ones, out=tv[part].T[:, :, None, None])
    return [PairRun(run_correct=correct, run_wrong=wrong, tv=tv[r])
            for r, (correct, wrong) in enumerate(_runs(*stack, weights))]


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
