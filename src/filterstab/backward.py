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
    The errors, in this order: the arguments', the prior ratio's, ρ's, then
    the envelope's.
    """
    theta0 = model.wrong_prior
    _require_positive(theta0, "initial backward prior")
    d = model.space.num_states
    pis = np.asarray(pi_history, dtype=float)
    if pis.ndim != 2 or pis.shape[1] != d or len(pis) < 1:
        raise InvalidModelError(
            f"dimension mismatch: filter history shape {pis.shape} vs {d} states")
    if not np.isfinite(pis).all() or (pis < 0.0).any():
        raise InvalidModelError("filter history entries must be finite and nonnegative")
    oscillations, ratios = _rho_along(model, theta0.values, _prior_ratio(model), pis)
    bounds = _envelope(model, theta0, coeffs, pis)
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
    dividing by the filter's own prediction, then reduced. The errors, in
    this order: `_rho_init`'s, a zero predicted mass, a ρ entry that leaves
    the float range, then a likelihood ratio that is not finite and
    nonnegative.
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
    if n_obs:
        rho = rhos[0] = _rho_init(theta0, matrix, weights)
    out_of_range = False
    with np.errstate(all="ignore"):  # every failure is caught by the checks below
        ratios[0] = float((ratio * theta0) @ weights)
        ratio_weighted = (ratio * weights)[None, :]
        for first in range(0, n_obs, held):
            m, start = min(held, n_obs - first), 0 if first else 1  # step 0 is `_rho_init`
            weighted = history[first:first + m, None] * weights
            predicted = weighted @ matrix
            # ρ's step n divides by the prediction of filter step n
            if (predicted[start:, 0].min(axis=-1) <= 0.0).any():
                raise NumericalError("state has zero predicted mass")
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
            out_of_range = out_of_range or not np.isfinite(upper).all()
            np.subtract(upper, lower, out=oscillations[first:first + m])
            later = history[first + 1:first + 1 + m, :, None] * weights[:, None]
            ratios[first + 1:first + 1 + m] = ((ratio_weighted @ chunk) @ later)[:, 0, 0]
    if out_of_range:
        raise NumericalError(RHO_RANGE)
    bad = ~np.isfinite(ratios) | (ratios < 0.0)
    if bad.any():
        value = float(ratios[bad.argmax()])
        raise NumericalError(f"likelihood ratio must be finite and nonnegative, got {value!r}")
    return oscillations, ratios


def _rho_init(theta0: np.ndarray, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Backward density after the first step, on plain arrays. Entries that
    overflow or underflow to nan are left to the caller's check."""
    with np.errstate(all="ignore"):
        numerator = matrix * theta0[:, None]
        denominator = (theta0 * weights) @ matrix
        if np.any(denominator <= 0.0):
            raise NumericalError(
                "state unreachable in one step: conditioning event has probability 0")
        rho = numerator / denominator[None, :]
        return rho / (weights @ rho)


def _prior_ratio(model: FiniteModel) -> np.ndarray:
    """The entrywise ratio of the true prior to the wrong one, which
    `build_model` keeps strictly positive; NumericalError where it overflows."""
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
    """

    def __init__(self, model: FiniteModel, theta0: Density,
                 coeffs: Optional[Coefficients] = None):
        _require_positive(theta0, "initial backward prior")
        self.model = model
        self.theta0 = theta0
        self.coeffs = coeffs
        self.pi = theta0
        self.rho: Optional[np.ndarray] = None
        self.exponent_sum = 0.0
        self._row_min_weighted = row_minima(model.kernel, model.space) * model.space.weights
        self._scale = _envelope_scale(theta0.values, coeffs)

    def step(self, y) -> None:
        model, weights = self.model, self.model.space.weights
        matrix = model.kernel.matrix
        exponent_sum = self.exponent_sum
        if self.rho is None:
            rho = _rho_init(self.theta0.values, matrix, weights)
        else:
            exponent_sum += float(self.pi.values @ self._row_min_weighted)
            weighted = self.pi.values * weights
            predicted = weighted @ matrix
            if predicted.min() <= 0.0:
                raise NumericalError("state has zero predicted mass")
            rho = (self.rho * weighted) @ matrix / predicted
            rho = rho / (weights @ rho)
        if not np.isfinite(rho).all():
            raise NumericalError(RHO_RANGE)
        rho.flags.writeable = False
        lik = likelihood_rows(model.observation, [y])[0]
        self.pi, _ = filter_step_with_likelihood(self.pi, lik, model.kernel, model.space)
        # a step that raises leaves the context as it was
        self.rho, self.exponent_sum = rho, exponent_sum

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
        """Likelihood ratio after the observations consumed so far (1 before any)."""
        ratio = np.asarray(prior_ratio, dtype=float)
        weights = self.model.space.weights
        if self.rho is None:
            return float((ratio * self.theta0.values) @ weights)
        value = float(((ratio * weights) @ self.rho) @ (self.pi.values * weights))
        if not math.isfinite(value) or value < 0.0:
            raise NumericalError(f"likelihood ratio must be finite and nonnegative, got {value!r}")
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


def _envelope(model: FiniteModel, theta0: Density, coeffs: Optional[Coefficients],
              pis: np.ndarray) -> Optional[np.ndarray]:
    """Envelope rows ``scale * exp(-exponent_n / max)`` for ``n = 1..N`` along
    the ``(N+1, d)`` filter run from `theta0`, or None when vacuous.

    The exponent accumulates one filter average per step, left to right as
    `BackwardContext` does (``cumsum`` is sequential), and ``math.exp`` is
    taken per step, so each row equals that context's ``record.bound``
    exactly.
    """
    scale = _envelope_scale(theta0.values, coeffs)
    if scale is None:
        return None
    row_min_weighted = row_minima(model.kernel, model.space) * model.space.weights
    steps = len(pis) - 1
    exponents = np.zeros(steps)
    # one dot per row, the product `BackwardContext` takes on one density
    np.cumsum((pis[1:steps, None, :] @ row_min_weighted[:, None])[:, 0, 0], out=exponents[1:])
    exponents *= -1.0
    exponents /= coeffs.max_density
    decays = np.fromiter(map(math.exp, exponents), float, steps)
    return scale * decays[:, None]


def _require_positive(density: Density, what: str) -> None:
    if np.any(density.values <= 0.0):
        raise InvalidModelError(f"{what} must be strictly positive on every atom")
