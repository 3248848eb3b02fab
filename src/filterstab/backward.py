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
per-run envelope (`oscillation_bound`) whose exponent accumulates the
filter-averaged row minima of the transition density.

`backward_pass` replays the recursion along the densities of a filter run
that already exists, on plain arrays; `BackwardContext` advances filter and
backward density together one observation at a time. Both call the same
arithmetic helpers, so they agree bit for bit.

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
from .filtering import FilterRun, _path_mass, _raise_first, filter_step_with_likelihood
from .model import (
    Coefficients,
    Density,
    FiniteModel,
    StateSpace,
    TransitionKernel,
    row_minima,
)
from .simulate import likelihood_vector

# entries of backward densities held at once before they are reduced
_CHUNK_ENTRIES = 2**13


@dataclass(frozen=True)
class BackwardDensity:
    """Column-stochastic table ``matrix[u, x]``: density of the initial state
    at ``u`` conditioned on current state ``x``."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidModelError(f"backward density must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise InvalidModelError("backward density entries must be finite and nonnegative")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    """Per-``u`` column extrema and spread of a backward density, with the
    accumulated contraction exponent and (when coefficients permit) the
    envelope value."""

    oscillation: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    exponent_sum: float
    bound: Optional[np.ndarray]
    bound_vacuous: bool


def backward_init(theta0: Density, kernel: TransitionKernel, space: StateSpace) -> BackwardDensity:
    """Backward density after one step from a strictly positive initial prior."""
    _require_positive(theta0, space, "initial backward prior")
    return BackwardDensity(_rho_init(theta0.values, kernel.matrix, space.weights))


def backward_step(
    rho_prev: BackwardDensity,
    pi_prev: Density,
    kernel: TransitionKernel,
    space: StateSpace,
) -> BackwardDensity:
    """Advance the backward density one step using the filter density of the
    previous time (which must come from the same prior as `rho_prev`)."""
    weighted = pi_prev.values * space.weights
    return BackwardDensity(_rho_advance(rho_prev.matrix, weighted[None], kernel.matrix,
                                        space.weights))


def oscillation(rho: BackwardDensity) -> OscillationRecord:
    """Per-``u`` spread of the backward density across conditioning states."""
    upper = rho.matrix.max(axis=1)
    lower = rho.matrix.min(axis=1)
    return OscillationRecord(
        oscillation=upper - lower,
        upper=upper,
        lower=lower,
        exponent_sum=0.0,
        bound=None,
        bound_vacuous=False,
    )


def oscillation_bound(
    pi_history: np.ndarray,
    model: FiniteModel,
    coeffs: Coefficients,
    theta0: Density,
) -> tuple[np.ndarray, bool]:
    """Envelope for the backward oscillation along a run.

    ``pi_history`` is the filter trajectory ``pi_0..pi_N`` started from
    ``theta0``, as an ``(N+1, d)`` array (`FilterRun.densities`). Returns an
    ``(N, d)`` array whose row ``n-1`` bounds the oscillation after ``n``
    steps:

        bound_n(u) = max**2 / (theta_min * avg) * theta0[u]
                     * exp(-(1/max) * sum_{k=2..n} sum_z pi_{k-1}[z] row_min[z] w[z])

    A zero averaged row minimum makes the prefactor infinite; the bound is
    then flagged vacuous and filled with ``inf`` so callers can still report
    oscillation trajectories.
    """
    space = model.space
    _require_positive(theta0, space, "initial backward prior")
    pis = np.asarray(pi_history, dtype=float)
    steps = len(pis) - 1
    if steps < 1:
        return np.zeros((0, space.num_states)), coeffs.mixing_coefficient <= 0.0
    scale = _envelope_scale(theta0.values, space.weights, coeffs)
    if scale is None:
        return np.full((steps, space.num_states), np.inf), True
    row_min_weighted = row_minima(model.kernel, space) * space.weights
    return _envelope(scale, pis, row_min_weighted, coeffs.max_density), False


def backward_pass(
    model: FiniteModel,
    theta0: Density,
    coeffs: Coefficients,
    pi_history: np.ndarray,
    prior_ratio: np.ndarray,
) -> BackwardPass:
    """Oscillations, envelope and likelihood ratios along an existing filter run.

    ``pi_history`` is the ``(N+1, d)`` density array of the filter started
    from `theta0` (`FilterRun.densities`); the backward density consumes it
    step by step and no filter is run here. ``prior_ratio`` is the entrywise
    ratio of the data-generating prior to `theta0`. Row ``n-1`` of the
    results agrees bit for bit with `BackwardContext` after ``n`` steps.
    """
    _require_positive(theta0, model.space, "initial backward prior")
    d = model.space.num_states
    pis = np.asarray(pi_history, dtype=float)
    ratio = np.asarray(prior_ratio, dtype=float)
    if pis.ndim != 2 or pis.shape[1] != d or len(pis) < 1 or ratio.shape != (d,):
        raise InvalidModelError(
            f"dimension mismatch: filter history shape {pis.shape}, prior ratio shape "
            f"{ratio.shape} vs {d} states"
        )
    oscillations, bounds, ratios, errors = _backward_records(model, theta0, coeffs, pis[None],
                                                             ratio)
    _raise_first(errors)
    return BackwardPass(oscillations=oscillations[0],
                        bounds=None if bounds is None else bounds[0],
                        likelihood_ratios=ratios[0])


def _backward_records(model: FiniteModel, theta0: Density, coeffs: Coefficients,
                      pis: np.ndarray, ratio: np.ndarray):
    """`backward_pass` along ``R`` filter runs at once, ``pis`` being ``(R, N+1, d)``.

    ρ advances as an ``(R, d, d)`` stack, kept for a chunk of steps
    (``_CHUNK_ENTRIES`` entries) and then reduced to its per-``u`` column
    extrema and likelihood ratios, so no ``(R, N, d, d)`` array is built.
    Returns the ``(R, N, d)`` oscillations and envelope (None when
    vacuous), the ``(R, N+1)`` likelihood ratios and, per run, the error
    `backward_pass` raises on it alone (or None). A run whose predicted mass
    hits zero carries on from ``theta0 * w``, whose mass is positive
    everywhere, so the other runs are unaffected. ``theta0`` must be
    strictly positive.
    """
    space = model.space
    weights, matrix = space.weights, model.kernel.matrix
    n_runs, n_steps, d = len(pis), pis.shape[1] - 1, space.num_states
    ratios = np.empty((n_runs, n_steps + 1))
    ratios[:, 0] = float((ratio * theta0.values) @ weights)
    try:
        rho = _rho_init(theta0.values, matrix, weights) if n_steps else None
    except NumericalError as exc:
        # the first step does not depend on the run, so every run fails there
        return np.zeros((n_runs, n_steps, d)), None, ratios, [exc] * n_runs
    errors = [None] * n_runs
    ratio_weighted = (ratio * weights)[None, :]
    oscillations = np.empty((n_runs, n_steps, d))
    invalid = np.zeros(n_runs, dtype=bool)
    dead = np.zeros(n_runs, dtype=bool)  # runs carrying on from theta0 * w
    held = max(1, _CHUNK_ENTRIES // (n_runs * d * d))
    rhos = np.empty((min(held, n_steps), n_runs, d, d))
    per_state = np.empty((min(held, n_steps), n_runs, 1, d))
    for start in range(0, n_steps, held):
        stop = min(start + held, n_steps)
        # row vectors pi_k * w for k = start..stop
        weighted = pis[:, start:stop + 1, None, :] * weights
        weighted[dead] = theta0.values * weights
        for j in range(stop - start):
            if start + j:
                try:
                    rho = _rho_advance(rho, weighted[:, j], matrix, weights)
                except NumericalError as exc:
                    hit = (weighted[:, j] @ matrix).min(axis=(1, 2)) <= 0.0
                    for r in np.flatnonzero(hit):
                        errors[r] = errors[r] or exc
                    dead |= hit
                    weighted[dead, j:] = theta0.values * weights
                    rho = _rho_advance(rho, weighted[:, j], matrix, weights)
            rhos[j] = rho
            np.matmul(ratio_weighted, rho, out=per_state[j])
        # the chunk's column extrema, and its likelihood ratios as one dot per step
        held_now = stop - start
        upper, lower = rhos[:held_now].max(axis=-1), rhos[:held_now].min(axis=-1)
        invalid |= ~np.isfinite(upper).all(axis=(0, 2)) | (lower < 0.0).any(axis=(0, 2))
        oscillations[:, start:stop] = (upper - lower).transpose(1, 0, 2)
        ratios[:, start + 1:stop + 1] = (per_state[:held_now].transpose(1, 0, 2, 3)
                                         @ weighted[:, 1:].swapaxes(-1, -2))[..., 0, 0]
    del rhos, per_state
    bad_ratios = ~np.isfinite(ratios) | (ratios < 0.0)
    for r in range(n_runs):
        if errors[r] is None and invalid[r]:
            errors[r] = InvalidModelError("backward density entries must be finite and nonnegative")
        elif errors[r] is None and bad_ratios[r].any():
            value = float(ratios[r, bad_ratios[r].argmax()])
            errors[r] = NumericalError(
                f"likelihood ratio must be finite and nonnegative, got {value!r}")
    scale = _envelope_scale(theta0.values, weights, coeffs)
    bounds = None
    if scale is not None:
        row_min_weighted = row_minima(model.kernel, space) * weights
        bounds = _envelope(scale, pis, row_min_weighted, coeffs.max_density)
    return oscillations, bounds, ratios, errors


def likelihood_ratio(
    rho: BackwardDensity,
    pi: Density,
    prior_ratio: np.ndarray,
    space: StateSpace,
) -> float:
    """Expected prior ratio of the initial state given the observations.

    ``prior_ratio`` is the entrywise ratio of the data-generating prior to
    the filter prior that produced `rho` and `pi`. The value equals the
    likelihood ratio of the observation record between the two priors.
    """
    ratio = np.asarray(prior_ratio, dtype=float)
    per_state = (ratio * space.weights) @ rho.matrix
    value = float(per_state @ (pi.values * space.weights))
    if not np.isfinite(value) or value < 0.0:
        raise NumericalError(f"likelihood ratio must be finite and nonnegative, got {value!r}")
    return value


def change_of_measure_residual(
    run_wrong: FilterRun,
    run_reference: FilterRun,
    rho: BackwardDensity,
    prior_ratio: np.ndarray,
    space: StateSpace,
) -> float:
    """Residual of the exact identities linking the two filters through `rho`.

    ``run_wrong`` is the filter from the prior that generated the record and
    initialized `rho`; ``run_reference`` is the filter from the other prior on
    the *same* record. With ``L`` the likelihood ratio and
    ``h(x) = sum_u ratio[u] rho[u, x] w[u]``, both of

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
    if pi_wrong.shape != (d,) or pi_reference.shape != (d,) or rho.dim != d:
        raise InvalidModelError("dimension mismatch between runs, backward density and space")
    ratio = np.asarray(prior_ratio, dtype=float)
    if ratio.shape != (d,):
        raise InvalidModelError(
            f"dimension mismatch: prior ratio shape {ratio.shape} vs {d} states"
        )
    w = space.weights
    per_state = (ratio * w) @ rho.matrix
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
    mass = _path_mass(model, theta0, observations)[:, conditioning_state]
    total = mass.sum()
    if total <= 0.0:
        raise NumericalError("conditioning event has probability 0")
    return Density(mass / total / model.space.weights)


class BackwardContext:
    """Co-evolves the filter density and the backward density from one prior.

    The backward recursion consumes the filter densities produced by the very
    prior that initialized it; this context keeps the two in lockstep so an
    inconsistent pairing cannot be constructed. Feed observations one at a
    time with `step`; after ``n`` steps, `pi` is the filter posterior, `rho`
    the backward density, and `record` carries the oscillation together with
    the envelope (when coefficients with a positive averaged row minimum were
    supplied).
    """

    def __init__(self, model: FiniteModel, theta0: Density,
                 coeffs: Optional[Coefficients] = None):
        _require_positive(theta0, model.space, "initial backward prior")
        self.model = model
        self.theta0 = theta0
        self.coeffs = coeffs
        self.pi = theta0
        self.rho: Optional[BackwardDensity] = None
        self.steps = 0
        self.exponent_sum = 0.0
        self._row_min_weighted = row_minima(model.kernel, model.space) * model.space.weights
        self._scale = _envelope_scale(theta0.values, model.space.weights, coeffs)

    def step(self, y) -> None:
        model, space = self.model, self.model.space
        if self.steps == 0:
            self.rho = backward_init(self.theta0, model.kernel, space)
        else:
            self.exponent_sum += float(self.pi.values @ self._row_min_weighted)
            self.rho = backward_step(self.rho, self.pi, model.kernel, space)
        lik = likelihood_vector(model.observation, y)
        self.pi, _ = filter_step_with_likelihood(self.pi, lik, model.kernel, space)
        self.steps += 1

    @property
    def record(self) -> OscillationRecord:
        if self.rho is None:
            raise NumericalError("no observations consumed yet")
        base = oscillation(self.rho)
        if self.coeffs is None:
            return base
        if self._scale is None:
            bound = None
            vacuous = True
        else:
            bound = self._scale * math.exp(-self.exponent_sum / self.coeffs.max_density)
            vacuous = False
        return OscillationRecord(
            oscillation=base.oscillation,
            upper=base.upper,
            lower=base.lower,
            exponent_sum=self.exponent_sum,
            bound=bound,
            bound_vacuous=vacuous,
        )

    def likelihood_ratio(self, prior_ratio: np.ndarray) -> float:
        """Likelihood ratio after the observations consumed so far (1 before any)."""
        space = self.model.space
        if self.rho is None:
            ratio = np.asarray(prior_ratio, dtype=float)
            return float((ratio * self.theta0.values) @ space.weights)
        return likelihood_ratio(self.rho, self.pi, prior_ratio, space)


def _rho_init(theta0: np.ndarray, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Backward density after the first step, on plain arrays."""
    numerator = matrix * theta0[:, None]
    denominator = (theta0 * weights) @ matrix
    if np.any(denominator <= 0.0):
        raise NumericalError("state unreachable in one step: conditioning event has probability 0")
    return _renormalize_columns(numerator / denominator[None, :], weights)


def _rho_advance(rho: np.ndarray, weighted: np.ndarray, matrix: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """One backward step of a stack of backward densities: the one backward kernel.

    ``rho`` is ``(..., d, d)`` and ``weighted`` the matching row vectors
    ``(..., 1, d)`` of ``pi_prev * w``. Stacked matmuls run one gemm or gemv
    per density, so each rounds exactly as it does alone.
    """
    numerator = (rho * weighted) @ matrix
    denominator = weighted @ matrix
    if denominator.min() <= 0.0:
        raise NumericalError("state has zero predicted mass")
    return _renormalize_columns(numerator / denominator, weights)


def _renormalize_columns(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return matrix / (weights[None, :] @ matrix)


def _envelope_scale(theta0: np.ndarray, weights: np.ndarray,
                    coeffs: Optional[Coefficients]) -> Optional[np.ndarray]:
    """``max**2 / (theta_min * avg) * theta0``, or None when the envelope is
    vacuous (no coefficients, or a zero averaged row minimum)."""
    if coeffs is None or coeffs.mixing_coefficient <= 0.0:
        return None
    theta_min = float(theta0[weights > 0.0].min())
    return coeffs.max_density**2 / (theta_min * coeffs.mixing_coefficient) * theta0


def _envelope(scale: np.ndarray, pis: np.ndarray, row_min_weighted: np.ndarray,
              max_density: float) -> np.ndarray:
    """Envelope rows ``scale * exp(-exponent_n / max)`` for ``n = 1..N``.

    ``pis`` is ``(..., N+1, d)``, one filter run per leading index. The
    exponent accumulates one filter average per step, left to right as
    `BackwardContext` does (``cumsum`` is sequential), and ``math.exp`` is
    taken per step, so each row equals that context's ``record.bound``
    exactly.
    """
    steps = pis.shape[-2] - 1
    exponents = np.zeros(pis.shape[:-2] + (steps,))
    averages = (pis[..., 1:steps, None, :] @ row_min_weighted[:, None])[..., 0, 0]
    np.cumsum(averages, axis=-1, out=exponents[..., 1:])
    del averages
    exponents *= -1.0
    exponents /= max_density
    decays = np.fromiter(map(math.exp, exponents.flat), float, exponents.size)
    return scale * decays.reshape(exponents.shape + (1,))


def _require_positive(density: Density, space: StateSpace, what: str) -> None:
    if np.any(density.values[space.weights > 0.0] <= 0.0):
        raise InvalidModelError(f"{what} must be strictly positive on every atom")
