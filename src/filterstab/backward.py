"""Backward conditional density of the initial state, its oscillation, its
envelope, and the likelihood ratio between the two priors.

For a filter started from a strictly positive prior, the conditional density
of ``X_0`` given the current state and all observations so far satisfies a
forward-in-time recursion driven by the same filter densities:

    rho_1[u, x]  = matrix[u, x] * prior[u] / sum_v matrix[v, x] * prior[v] * w[v]
    rho_n[u, x]  = sum_z matrix[z, x] * rho_{n-1}[u, z] * pi_{n-1}[z] * w[z]
                   / sum_z matrix[z, x] * pi_{n-1}[z] * w[z]

Each column (fixed conditioning state ``x``) is a density in ``u``. The
per-``u`` oscillation across columns measures how much the current state
still reveals about the initial state; its decay to zero is what makes the
filter forget a misspecified prior. The oscillation admits an explicit
per-run envelope (`BackwardPass.bounds`) whose exponent accumulates the
filter-averaged row minima of the transition density.

The recursion's denominator ``sum_z matrix[z, x] * pi_{n-1}[z] * w[z]`` is
the filter's own prediction of step ``n``, so ρ reads the history of a
filter already run by `filtering._engine`. ρ has one loop, `backward_pass`
along one given history, run by the commands that print ρ (``backward`` and
``stability``) after their filters. `BackwardContext` advances ρ and its
filter one observation at a time; tests hold the loop to it bit for bit.

The expected prior ratio under the backward density is the likelihood ratio
between the observation laws of the two priors. The change-of-measure
identities that tie it to the filter pair are checked by the tests, in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidModelError, NumericalError
from .filtering import filter_step_with_likelihood
from .model import Coefficients, Density, FiniteModel, row_minima
from .simulate import likelihood_rows

RHO_RANGE = "backward density leaves the float range: an entry is inf or nan"
ZERO_MASS = "state has zero predicted mass"
UNREACHABLE = "state unreachable in one step: conditioning event has probability 0"
RATIO = "likelihood ratio must be finite and nonnegative, got {!r}"


class BackwardPass(NamedTuple):
    """The backward density along one filter run, reduced to what the
    stability experiment reports.

    Row ``n-1`` of ``oscillations`` and of ``bounds`` belongs to step ``n``;
    ``bounds`` is None when the envelope is vacuous (zero averaged row
    minimum). ``likelihood_ratios[n]`` is the ratio after ``n`` observations,
    so it has one entry more.
    """

    oscillations: np.ndarray
    bounds: Optional[np.ndarray]
    likelihood_ratios: np.ndarray


class OscillationRecord(NamedTuple):
    """Per-``u`` spread of a backward density across its columns and, when
    coefficients permit, the envelope value."""

    oscillation: np.ndarray
    bound: Optional[np.ndarray]
    bound_vacuous: bool


def backward_pass(model: FiniteModel, coeffs: Coefficients,
                  pi_history: np.ndarray) -> BackwardPass:
    """Oscillations, envelope and likelihood ratios along an existing filter run.

    ρ starts from the wrong prior, and the likelihood ratios are those of the
    true prior to it. ``pi_history`` is the ``(N+1, d)`` density array of the
    filter started from the wrong prior (`FilterRun.densities`); the backward
    density reads it step by step and no filter is run here, so its entries
    must be finite and nonnegative. Row ``n-1`` of the results agrees bit for
    bit with `BackwardContext` after ``n`` steps. Every array is read-only.
    The errors: the arguments', the run's constants (the prior ratio, then
    the envelope scale), then the first failing step's, as in `BackwardContext`.
    """
    theta0 = model.wrong_prior
    d = model.space.num_states
    pis = np.asarray(pi_history, dtype=float)
    if pis.ndim != 2 or pis.shape[1] != d or len(pis) < 1:
        raise InvalidModelError(
            f"dimension mismatch: filter history shape {pis.shape} vs {d} states")
    if not np.isfinite(pis).all() or (pis < 0.0).any():
        raise InvalidModelError("filter history entries must be finite and nonnegative")
    ratio, scale = _prior_ratio(model), _envelope_scale(theta0.values, coeffs)
    oscillations, ratios = _rho_along(model, theta0.values, ratio, pis)
    bounds = None if scale is None else _envelope(model, scale, coeffs, pis)
    for array in (oscillations, bounds, ratios):
        if array is not None:
            array.flags.writeable = False
    return BackwardPass(oscillations=oscillations, bounds=bounds, likelihood_ratios=ratios)


# entries of ρ held at once: `_rho_along` runs a chunk of ``_RHO_ENTRIES // d**2`` steps at a time
_RHO_ENTRIES = 2**13


def _rho_along(model: FiniteModel, theta0: np.ndarray, ratio: np.ndarray,
               history: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ρ from the strictly positive `theta0` along ``history``, the ``(N+1, d)``
    densities of the filter from `theta0`: its ``(N, d)`` oscillations and the
    ``N+1`` likelihood ratios of the prior ratio `ratio`.

    A chunk's history rows are weighted and predicted by one time-stacked
    product, one gemv per row, so each rounds as it does alone, and tiled to
    ρ's shape once. ρ is carried across the chunk with ``ndarray.dot``,
    dividing by the filter's own prediction, then reduced. A step fails only
    at the check after its chunk, whose predicted masses, ρ's maxima and
    likelihood ratios raise the first failing step's `_rho_error`.
    """
    matrix, weights = model.kernel.matrix, model.space.weights
    d = len(weights)
    n_obs = len(history) - 1
    held = max(1, min(_RHO_ENTRIES // (d * d), n_obs))  # steps per chunk
    oscillations, ratios = np.empty((n_obs, d)), np.empty(n_obs + 1)
    # a chunk of ρ, and the history's weighted and predicted rows tiled over ρ's rows
    rhos, tiled_weighted, tiled_predicted = np.empty((3, held, d, d))
    scaled, numerator = np.empty((2, d, d))
    column_sums = np.empty(d)
    multiply, divide, dot = np.multiply, np.divide, np.ndarray.dot
    steps = list(tiled_weighted), list(tiled_predicted), list(rhos)
    with np.errstate(all="ignore"):  # every failure is caught by the check below
        rho = rhos[0]  # ρ's step 1, from theta0 itself
        divide(matrix * theta0[:, None], (theta0 * weights) @ matrix, rho)
        rho /= weights @ rho
        ratios[0] = float((ratio * theta0) @ weights)
        ratio_weighted = (ratio * weights)[None, :]
        # a history of one row is one chunk of no steps, which checks step 0's ratio
        for first in range(0, max(n_obs, 1), held):
            m, start = min(held, n_obs - first), 0 if first else 1  # step 1 is done
            weighted = history[first:first + m, None] * weights
            predicted = weighted @ matrix  # row k: what ρ's step first + k + 1 divides by
            tiled_weighted[:m], tiled_predicted[:m] = weighted, predicted
            for w, p, rho_next in zip(*(views[start:m] for views in steps)):
                multiply(rho, w, scaled)
                dot(scaled, matrix, numerator)
                divide(numerator, p, numerator)
                dot(weights, numerator, column_sums)
                rho = divide(numerator, column_sums, rho_next)
            # the chunk's column extrema, and its likelihood ratios as one dot per step
            chunk = rhos[:m]
            upper, lower = chunk.max(axis=-1), chunk.min(axis=-1)
            np.subtract(upper, lower, out=oscillations[first:first + m])
            later = history[first + 1:first + 1 + m, :, None] * weights[:, None]
            ratios[first + 1:first + 1 + m] = ((ratio_weighted @ chunk) @ later)[:, 0, 0]
            # steps first..first + m, where step 0 has a ratio only; NaN fails every test
            checked = ratios[first:first + 1 + m]
            if (predicted.min(initial=math.inf) > 0.0 and upper.max(initial=0.0) < math.inf
                    and checked.min() >= 0.0 and checked.max() < math.inf):
                continue
            mass, in_range = predicted[:, 0].min(axis=-1) > 0.0, upper.max(axis=-1) < math.inf
            ok = (checked >= 0.0) & (checked < math.inf)
            ok[1:] &= mass & in_range
            k = int(ok.argmin())  # the first failing step: its mass, its range, then its ratio
            message = RATIO.format(float(checked[k]))
            if k and not (mass[k - 1] and in_range[k - 1]):
                message = RHO_RANGE if mass[k - 1] else ZERO_MASS
            raise _rho_error(first + k, message)
    return oscillations, ratios


def _rho_error(n: int, message: str) -> NumericalError:
    """ρ's `message` at step `n`, naming the step; at step 1 a zero predicted
    mass is a state unreachable in one step."""
    unreachable = n == 1 and message == ZERO_MASS
    return NumericalError(UNREACHABLE if unreachable else f"{message} (at step {n})")


def _prior_ratio(model: FiniteModel) -> np.ndarray:
    """The entrywise ratio of the true prior to the wrong one, which
    `FiniteModel` keeps strictly positive; NumericalError where it overflows."""
    nu, beta = model.true_prior.values, model.wrong_prior.values
    with np.errstate(over="ignore"):
        ratio = np.divide(nu, beta)
    if not np.isfinite(ratio).all():
        u = int(np.isfinite(ratio).argmin())
        raise NumericalError(
            f"prior ratio overflows at state {u}: nu {float(nu[u])!r} / beta {float(beta[u])!r}")
    return ratio


class BackwardContext:
    """Co-evolves the filter density and the backward density from one prior.

    The backward recursion consumes the filter densities produced by the very
    prior that initialized it; this context keeps the two in lockstep so an
    inconsistent pairing cannot be constructed. Feed observations one at a
    time with `step`; after ``n`` steps, `pi` is the filter posterior, `rho`
    the read-only ``(d, d)`` backward density, and `record` carries the
    oscillation together with the envelope (when coefficients with a
    positive averaged row minimum were supplied).

    It fails as `backward_pass` does: the envelope scale at construction,
    then at ρ's first failing step, in `step` or `likelihood_ratio`. A step
    that raises leaves the context as it was.
    """

    def __init__(self, model: FiniteModel, theta0: Density,
                 coeffs: Optional[Coefficients] = None):
        if np.any(theta0.values <= 0.0):
            raise InvalidModelError(
                "initial backward prior must be strictly positive on every atom")
        self.model = model
        self.theta0 = theta0
        self.coeffs = coeffs
        self.pi = theta0
        self.rho: Optional[np.ndarray] = None
        self.steps = 0
        self.exponent_sum = 0.0
        self._row_min_weighted = row_minima(model.kernel) * model.space.weights
        self._scale = _envelope_scale(theta0.values, coeffs)

    def step(self, y) -> None:
        model, weights, matrix = self.model, self.model.space.weights, self.model.kernel.matrix
        n, exponent_sum = self.steps + 1, self.exponent_sum
        weighted = self.pi.values * weights
        predicted = weighted @ matrix
        if predicted.min() <= 0.0:
            raise _rho_error(n, ZERO_MASS)
        with np.errstate(all="ignore"):  # an entry out of the float range is caught below
            if self.rho is None:  # ρ's step 1, from theta0 itself
                numerator = matrix * self.pi.values[:, None]
            else:
                exponent_sum += float(self.pi.values @ self._row_min_weighted)
                numerator = (self.rho * weighted) @ matrix
            rho = numerator / predicted
            rho = rho / (weights @ rho)
        if not np.isfinite(rho).all():
            raise _rho_error(n, RHO_RANGE)
        rho.flags.writeable = False
        lik = likelihood_rows(model.observation, [y])[0]
        self.pi, _ = filter_step_with_likelihood(self.pi, lik, model.kernel, model.space)
        self.rho, self.exponent_sum, self.steps = rho, exponent_sum, n

    @property
    def record(self) -> OscillationRecord:
        if self.rho is None:
            raise NumericalError("no observations consumed yet")
        spread = self.rho.max(axis=1) - self.rho.min(axis=1)
        if self._scale is None:
            return OscillationRecord(spread, None, self.coeffs is not None)
        bound = self._scale * math.exp(-self.exponent_sum / self.coeffs.max_density)
        return OscillationRecord(spread, bound, False)

    def likelihood_ratio(self, prior_ratio: np.ndarray) -> float:
        """Likelihood ratio after the steps taken so far (1 before any), or that step's error."""
        ratio = np.asarray(prior_ratio, dtype=float)
        weights = self.model.space.weights
        with np.errstate(all="ignore"):  # a ratio out of range is caught below
            value = float((ratio * self.theta0.values) @ weights if self.rho is None
                          else ((ratio * weights) @ self.rho) @ (self.pi.values * weights))
        if not 0.0 <= value < math.inf:
            raise _rho_error(self.steps, RATIO.format(value))
        return value


def _envelope_scale(theta0: np.ndarray, coeffs: Optional[Coefficients]) -> Optional[np.ndarray]:
    """``max**2 / (theta_min * avg) * theta0``, or None when the envelope is
    vacuous (no coefficients, or a zero averaged row minimum). A product
    ``theta_min * avg`` that underflows to 0, or a scale that overflows,
    raises `NumericalError`."""
    if coeffs is None or coeffs.mixing_coefficient <= 0.0:
        return None
    theta_min = float(theta0.min())
    product = theta_min * coeffs.mixing_coefficient
    if product == 0.0:
        raise NumericalError(
            f"envelope scale underflows: theta_min * mixing coefficient = "
            f"{theta_min!r} * {coeffs.mixing_coefficient!r} rounds to 0")
    try:
        with np.errstate(over="ignore"):
            scale = coeffs.max_density**2 / product * theta0
        finite = bool(np.all(np.isfinite(scale)))
    except OverflowError:  # max**2 itself
        finite = False
    if not finite:
        raise NumericalError(
            f"envelope scale overflows: max density**2 / (theta_min * mixing coefficient) = "
            f"{coeffs.max_density!r}**2 / ({theta_min!r} * {coeffs.mixing_coefficient!r})")
    return scale


def _envelope(model: FiniteModel, scale: np.ndarray, coeffs: Coefficients,
              pis: np.ndarray) -> np.ndarray:
    """Envelope rows ``scale * exp(-exponent_n / max)`` for ``n = 1..N`` along
    the ``(N+1, d)`` filter run whose `_envelope_scale` is `scale`.

    The exponent accumulates one filter average per step, left to right as
    `BackwardContext` does (``cumsum`` is sequential), and ``math.exp`` is
    taken per step, so each row equals that context's ``record.bound``
    exactly.
    """
    row_min_weighted = row_minima(model.kernel) * model.space.weights
    steps = len(pis) - 1
    exponents = np.zeros(steps)
    # one dot per row, the product `BackwardContext` takes on one density
    np.cumsum((pis[1:steps, None, :] @ row_min_weighted[:, None])[:, 0, 0], out=exponents[1:])
    exponents *= -1.0
    exponents /= coeffs.max_density
    decays = np.fromiter(map(math.exp, exponents), float, steps)
    return scale * decays[:, None]
