"""Backward conditional law of the initial state, its oscillation, its
envelope, and the likelihood ratio between the two priors.

For a filter started from a strictly positive prior, the conditional law of
``X_0`` given the current state and all observations so far satisfies a
forward-in-time recursion driven by the same filter laws. With
``P = K diag(w)`` and the filter laws ``p_n`` from the prior law ``p_0``:

    R_0        = I
    R_n[u, x]  = sum_z R_{n-1}[u, z] * p_{n-1}[z] * P[z, x]
                 / sum_z p_{n-1}[z] * P[z, x]

Each column (fixed conditioning state ``x``) is a law in ``u``, and the
paper's backward density ρ is ``R[u, x] / w[u]``. The per-``u`` oscillation
of ρ across columns measures how much the current state still reveals about
the initial state; its decay to zero is what makes the filter forget a
misspecified prior. It admits an explicit per-run envelope
(`BackwardPass.bounds`) whose exponent accumulates the filter-averaged row
minima of the transition density.

The denominator is the filter's own prediction of step ``n``, so ρ reads
the history of a filter already run by `filtering._engine`: `backward_pass`
is its one loop, run by the commands that print ρ. `BackwardContext`
advances ρ and its filter one observation at a time, each ρ step one step of
that loop and each filter step one step of `_engine`.

The expected prior ratio under the backward law is the likelihood ratio
between the observation laws of the two priors. The change-of-measure
identities that tie it to the filter pair are checked by the tests, in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidModelError, NumericalError
# filter_step_with_likelihood: unused here, but bench/spans.py counts it here (ROADMAP item 9)
from .filtering import _engine, filter_step_with_likelihood
from .model import Coefficients, Density, FiniteModel, _frozen, row_minima

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
                  history: np.ndarray) -> BackwardPass:
    """Oscillations, envelope and likelihood ratios along an existing filter run.

    ρ starts from the identity, so its first step reads the wrong prior's law
    in row 0 of ``history``, and the likelihood ratios are those of the true
    prior to it. ``history`` is the ``(N+1, d)`` array of posterior laws of
    the filter from the wrong prior (`FilterRun.probabilities`), read step
    by step with no filter run here, so its entries must be finite and
    nonnegative. Row ``n-1`` of the results, read-only arrays whose
    oscillations and envelope are densities, agrees bit for bit with
    `BackwardContext` after ``n`` steps. The errors: the arguments', the run's
    constants (the prior ratio, then the envelope scale), then the first
    failing step's, as in `BackwardContext`.
    """
    theta0 = model.wrong_prior
    d = model.space.num_states
    laws = np.asarray(history, dtype=float)
    if laws.ndim != 2 or laws.shape[1] != d or len(laws) < 1:
        raise InvalidModelError(
            f"dimension mismatch: filter history shape {laws.shape} vs {d} states")
    if not np.isfinite(laws).all() or (laws < 0.0).any():
        raise InvalidModelError("filter history entries must be finite and nonnegative")
    ratio, scale = _prior_ratio(model), _envelope_scale(theta0.values, coeffs)
    oscillations, ratios, _ = _rho_along(model, np.eye(d), ratio, laws)
    bounds = None if scale is None else _envelope(model, scale, coeffs, laws)
    for array in (oscillations, bounds, ratios):
        if array is not None:
            array.flags.writeable = False
    return BackwardPass(oscillations=oscillations, bounds=bounds, likelihood_ratios=ratios)


# entries of ρ held at once: `_rho_along` runs a chunk of ``_RHO_ENTRIES // d**2`` steps at a time
_RHO_ENTRIES = 2**13


def _rho_along(model: FiniteModel, rho: np.ndarray, ratio: np.ndarray, history: np.ndarray,
               offset: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ρ's laws carried from `rho`, those of step `offset`, along ``history``,
    the ``(N+1, d)`` filter laws from that step on: the ``(N, d)``
    oscillations of the steps after it, as densities, the ``N+1`` likelihood
    ratios of the prior ratio `ratio` from it on, and the last step's laws.
    From the identity, the first step is ``diag(p_0) P / (p_0 P)``,
    column-normalized, and the first ratio ``(ratio * p_0) @ ones``, bit for
    bit: each product by the identity adds only exact zeros.

    A chunk's history rows are predicted by one time-stacked product, one
    gemv per row, so each rounds as it does alone, and tiled to ρ's shape
    once. ρ's laws are carried across the chunk with ``ndarray.dot``,
    dividing by the filter's own prediction and by the column sums, a gemv
    against ones, then reduced: a row's spread and maximum over its weight
    are its density's. A step fails only at the check after its chunk, whose
    predicted masses, density maxima and likelihood ratios raise the first
    failing step's `_rho_error`, the step counted from `offset`.
    """
    matrix, weights = model.transition_probabilities, model.space.weights
    d = len(weights)
    n_obs = len(history) - 1
    held = max(1, min(_RHO_ENTRIES // (d * d), n_obs))  # steps per chunk
    oscillations, ratios = np.empty((n_obs, d)), np.empty(n_obs + 1)
    # a chunk of ρ, and the history's rows and their predictions tiled over ρ's rows
    rhos, tiled_laws, tiled_predicted = np.empty((3, held, d, d))
    scaled, numerator = np.empty((2, d, d))
    column_sums, ones = np.empty(d), np.ones(d)
    multiply, divide, dot = np.multiply, np.divide, np.ndarray.dot
    with np.errstate(all="ignore"):  # every failure is caught by the check below
        ratios[0] = float(((ratio @ rho) * history[0]) @ ones)
        # a history of one row is one chunk of no steps, which checks the first ratio
        for first in range(0, max(n_obs, 1), held):
            m = min(held, n_obs - first)
            laws = history[first:first + m, None]
            predicted = laws @ matrix  # row k: what ρ's step first + k + 1 divides by
            tiled_laws[:m], tiled_predicted[:m] = laws, predicted
            for law, p, rho_next in zip(tiled_laws[:m], tiled_predicted[:m], rhos[:m]):
                multiply(rho, law, scaled)
                dot(scaled, matrix, numerator)
                divide(numerator, p, numerator)
                dot(ones, numerator, column_sums)
                rho = divide(numerator, column_sums, rho_next)
            # the chunk's row spreads and maxima as densities, in place, and its likelihood
            # ratios as one dot per step
            chunk = rhos[:m]
            upper = chunk.max(axis=-1)
            spreads = np.subtract(upper, chunk.min(axis=-1), out=oscillations[first:first + m])
            spreads /= weights
            upper /= weights
            later = history[first + 1:first + 1 + m, :, None]
            ratios[first + 1:first + 1 + m] = ((ratio[None, :] @ chunk) @ later)[:, 0, 0]
            # steps first..first + m, where the first has a ratio only; NaN fails every test
            checked = ratios[first:first + 1 + m]
            mass, in_range = predicted[:, 0].min(axis=-1) > 0.0, upper.max(axis=-1) < math.inf
            ok = (checked >= 0.0) & (checked < math.inf)
            ok[1:] &= mass & in_range
            if ok.all():
                continue
            k = int(ok.argmin())  # the first failing step: its mass, its range, then its ratio
            message = RATIO.format(float(checked[k]))
            if k and not (mass[k - 1] and in_range[k - 1]):
                message = RHO_RANGE if mass[k - 1] else ZERO_MASS
            raise _rho_error(offset + first + k, message)
    return oscillations, ratios, rho


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
    """Co-evolves the filter and the backward law from one prior.

    The backward recursion consumes the filter laws produced by the very
    prior that initialized it; this context keeps the two in lockstep so an
    inconsistent pairing cannot be constructed. Feed observations one at a
    time with `step`; after ``n`` steps, `law` is the filter posterior's law,
    `rho` the read-only ``(d, d)`` backward density, and `record` carries the
    oscillation together with the envelope (when coefficients with a
    positive averaged row minimum were supplied).

    It fails as `backward_pass` does: the envelope scale at construction,
    then at ρ's first failing step, in `step` or `likelihood_ratio`. Its
    filter fails as `run_filter` does, so a Gaussian outlier is redone in the
    log domain. A step that raises leaves the context as it was.
    """

    def __init__(self, model: FiniteModel, theta0: Density,
                 coeffs: Optional[Coefficients] = None):
        if np.any(theta0.values <= 0.0):
            raise InvalidModelError(
                "initial backward prior must be strictly positive on every atom")
        self.model = model
        self.theta0 = theta0
        self.coeffs = coeffs
        self.law = theta0.values * model.space.weights
        self._rho = np.eye(len(self.law))  # ρ's columns as laws, from the identity
        self.steps = 0
        self.exponent_sum = 0.0
        self._row_minima = row_minima(model.kernel)
        self._scale = _envelope_scale(theta0.values, coeffs)

    @property
    def rho(self) -> Optional[np.ndarray]:
        weights = self.model.space.weights[:, None]
        return _frozen(self._rho / weights) if self.steps else None

    def step(self, y) -> None:
        model, law, exponent_sum = self.model, self.law, self.exponent_sum
        # ρ's step is one step of `backward_pass`'s loop, taken before the filter's so that
        # its errors come first; the second history row feeds only a ratio of ones
        (spread,), _, rho = _rho_along(model, self._rho, np.ones(len(law)),
                                       np.array([law, law]), self.steps)
        if self.steps:
            exponent_sum += float(law @ self._row_minima)
        self.law = _engine(model, law[None], [[y]], self.steps)[0][1, 0, 0]
        self._rho, self._spread, self.exponent_sum, self.steps = (
            rho, _frozen(spread), exponent_sum, self.steps + 1)

    @property
    def record(self) -> OscillationRecord:
        if not self.steps:
            raise NumericalError("no observations consumed yet")
        if self._scale is None:
            return OscillationRecord(self._spread, None, self.coeffs is not None)
        bound = self._scale * math.exp(-self.exponent_sum / self.coeffs.max_density)
        return OscillationRecord(self._spread, bound, False)

    def likelihood_ratio(self, prior_ratio: np.ndarray) -> float:
        """Likelihood ratio after the steps taken so far (1 before any), or that step's error."""
        ratio = np.asarray(prior_ratio, dtype=float)
        with np.errstate(all="ignore"):  # a ratio out of range is caught below
            value = float((ratio @ self._rho) @ self.law if self.steps
                          else (ratio * self.law) @ np.ones_like(ratio))
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
              laws: np.ndarray) -> np.ndarray:
    """Envelope rows ``scale * exp(-exponent_n / max)`` for ``n = 1..N`` along
    the ``(N+1, d)`` filter laws whose `_envelope_scale` is `scale`.

    The exponent accumulates one filter average of the row minima per step,
    left to right as `BackwardContext` does (``cumsum`` is sequential), and
    ``math.exp`` is taken per step, so each row equals that context's
    ``record.bound`` exactly.
    """
    steps = len(laws) - 1
    exponents = np.zeros(steps)
    # one dot per row, the product `BackwardContext` takes on one law
    np.cumsum((laws[1:steps, None, :] @ row_minima(model.kernel)[:, None])[:, 0, 0],
              out=exponents[1:])
    exponents *= -1.0
    exponents /= coeffs.max_density
    decays = np.fromiter(map(math.exp, exponents), float, steps)
    return scale * decays[:, None]
