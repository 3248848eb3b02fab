"""Backward conditional density of the initial state, its oscillation, and
the change-of-measure quantities connecting misspecified filters.

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
the filter's own prediction of step ``n``, so ρ runs in the filter's time
loop, `filtering._engine`: `run_scenario` and the ``backward`` command
advance filters and ρ in one pass, and `backward_pass` runs that loop on a
density history it is given. `BackwardContext` advances ρ and its filter
one observation at a time; tests hold the engine to it bit for bit.

The expected prior ratio under the backward density is the likelihood ratio
between the observation laws of the two priors; `change_of_measure_residual`
verifies the algebraic identities tying that ratio to the filter pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidModelError, NumericalError
from .filtering import (
    FilterRun,
    _engine,
    _path_log_mass,
    _rho_init,
    _shifted_mass,
    filter_step_with_likelihood,
)
from .model import (
    Coefficients,
    Density,
    FiniteModel,
    StateSpace,
    row_minima,
)
from .simulate import likelihood_vector


@dataclass(frozen=True)
class BackwardPass:
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


@dataclass(frozen=True)
class OscillationRecord:
    """Per-``u`` spread of a backward density across its columns and, when
    coefficients permit, the envelope value."""

    oscillation: np.ndarray
    bound: Optional[np.ndarray]
    bound_vacuous: bool


def backward_pass(
    model: FiniteModel,
    theta0: Density,
    coeffs: Coefficients,
    pi_history: np.ndarray,
    prior_ratio: np.ndarray,
) -> BackwardPass:
    """Oscillations, envelope and likelihood ratios along an existing filter run.

    ``pi_history`` is the ``(N+1, d)`` density array of the filter started
    from `theta0` (`FilterRun.densities`); the backward density reads it
    step by step and no filter is run here. ``prior_ratio`` is the entrywise
    ratio of the data-generating prior to `theta0`. Row ``n-1`` of the
    results agrees bit for bit with `BackwardContext` after ``n`` steps.
    """
    _require_positive(theta0, "initial backward prior")
    d = model.space.num_states
    pis = np.asarray(pi_history, dtype=float)
    ratio = np.asarray(prior_ratio, dtype=float)
    if pis.ndim != 2 or pis.shape[1] != d or len(pis) < 1 or ratio.shape != (d,):
        raise InvalidModelError(
            f"dimension mismatch: filter history shape {pis.shape}, prior ratio shape "
            f"{ratio.shape} vs {d} states"
        )
    return _backward_along(model, theta0, coeffs, ratio, history=pis)


def _backward_along(model: FiniteModel, theta0: Density, coeffs: Coefficients,
                    ratio: np.ndarray, history: Optional[np.ndarray] = None,
                    observations=None) -> BackwardPass:
    """ρ from the strictly positive `theta0` along ``history``, or along the
    filter from `theta0` on ``observations`` in the same pass, whose error comes first."""
    backward = (0, theta0.values, ratio)
    if observations is None:
        run = _engine(model, history, backward=backward)
    else:
        run = _engine(model, theta0.values[None], [observations], backward)
        history = run.densities[0, 0]
    return BackwardPass(oscillations=run.oscillations[0],
                        bounds=_envelope(model, theta0, coeffs, history),
                        likelihood_ratios=run.ratios[0])


def change_of_measure_residual(
    run_wrong: FilterRun,
    run_reference: FilterRun,
    rho: np.ndarray,
    prior_ratio: np.ndarray,
    space: StateSpace,
) -> float:
    """Residual of the exact identities linking the two filters through `rho`.

    ``run_wrong`` is the filter from the prior that generated the record and
    initialized the ``(d, d)`` backward density `rho`; ``run_reference`` is
    the filter from the other prior on the *same* record. With ``L`` the
    likelihood ratio and ``h(x) = sum_u ratio[u] rho[u, x] w[u]``, both of

        L * reference(x)              = h(x) * wrong(x)
        L * (reference(x) - wrong(x)) = wrong(x) * (h(x) - L)

    hold exactly; the returned value is the largest absolute violation (the
    first identity is checked on probability scale, times ``w[x]``).
    """
    if run_wrong.observations.shape != run_reference.observations.shape or np.any(
        run_wrong.observations != run_reference.observations
    ):
        raise InvalidModelError("observation-sequence mismatch between the paired runs")
    pi_wrong = run_wrong.densities[-1]
    pi_reference = run_reference.densities[-1]
    d = space.num_states
    rho = np.asarray(rho, dtype=float)
    if pi_wrong.shape != (d,) or pi_reference.shape != (d,) or rho.shape != (d, d):
        raise InvalidModelError("dimension mismatch between runs, backward density and space")
    ratio = np.asarray(prior_ratio, dtype=float)
    if ratio.shape != (d,):
        raise InvalidModelError(
            f"dimension mismatch: prior ratio shape {ratio.shape} vs {d} states"
        )
    w = space.weights
    per_state = (ratio * w) @ rho
    value = float(per_state @ (pi_wrong * w))
    res_centered = np.abs(
        value * (pi_reference - pi_wrong)
        - pi_wrong * (per_state - value)
    )
    res_direct = np.abs(value * pi_reference - per_state * pi_wrong) * w
    return float(max(res_centered.max(), res_direct.max()))


def brute_force_backward(
    model: FiniteModel,
    theta0: Density,
    observations: Sequence,
    conditioning_state: int,
) -> Density:
    """Exact backward density column by path enumeration (test oracle).

    Returns the density in ``u`` of ``P(X_0 = u | X_n = conditioning_state,
    Y_1..Y_n)`` under the prior `theta0`. Guarded against instances beyond
    ``d**(N+1) > 1e7`` paths.
    """
    if not 0 <= conditioning_state < model.space.num_states:
        raise InvalidModelError(f"conditioning state {conditioning_state} out of range")
    mass = _shifted_mass(_path_log_mass(model, theta0, observations)[:, conditioning_state],
                         "conditioning event has probability 0")
    return Density(mass / model.space.weights)


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
        if not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
            raise InvalidModelError("backward density entries must be finite and nonnegative")
        rho.flags.writeable = False
        lik = likelihood_vector(model.observation, y)
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
    vacuous (no coefficients, or a zero averaged row minimum)."""
    if coeffs is None or coeffs.mixing_coefficient <= 0.0:
        return None
    theta_min = float(theta0.min())
    return coeffs.max_density**2 / (theta_min * coeffs.mixing_coefficient) * theta0


def _envelope(model: FiniteModel, theta0: Density, coeffs: Optional[Coefficients],
              pis: np.ndarray) -> Optional[np.ndarray]:
    """Envelope rows ``scale * exp(-exponent_n / max)`` for ``n = 1..N`` along
    the ``(..., N+1, d)`` filter runs from `theta0`, or None when vacuous.

    The exponent accumulates one filter average per step, left to right as
    `BackwardContext` does (``cumsum`` is sequential), and ``math.exp`` is
    taken per step, so each row equals that context's ``record.bound``
    exactly.
    """
    scale = _envelope_scale(theta0.values, coeffs)
    if scale is None:
        return None
    row_min_weighted = row_minima(model.kernel, model.space) * model.space.weights
    steps = pis.shape[-2] - 1
    exponents = np.zeros(pis.shape[:-2] + (steps,))
    averages = (pis[..., 1:steps, None, :] @ row_min_weighted[:, None])[..., 0, 0]
    np.cumsum(averages, axis=-1, out=exponents[..., 1:])
    del averages
    exponents *= -1.0
    exponents /= coeffs.max_density
    decays = np.fromiter(map(math.exp, exponents.flat), float, exponents.size)
    return scale * decays.reshape(exponents.shape + (1,))


def _require_positive(density: Density, what: str) -> None:
    if np.any(density.values <= 0.0):
        raise InvalidModelError(f"{what} must be strictly positive on every atom")
