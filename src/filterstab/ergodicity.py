"""Geometric ergodicity with explicit constants, the stationary backward
recursion, the Poisson-equation solver, and the conditional-expectation
running average.

The multi-step transition density of a kernel with positive averaged row
minimum converges to the invariant density in L1 at an explicit geometric
envelope ``prefactor * ratio**n``. The verification here is pure matrix
arithmetic: the n-step densities are computed exactly (up to float) and
compared to the envelope pointwise in the starting state.

Floating point limits how small an inequality can be certified: once the
envelope falls below `BOUND_FLOOR` the measured gap consists of rounding
noise, so those entries are excluded from the ratio and instead required to
sit below the floor themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidModelError, NumericalError
from .filtering import FilterRun
from .model import Coefficients, Density, FiniteModel, StateSpace, TransitionKernel

BOUND_FLOOR = 1e-10


def n_step_density(kernel: TransitionKernel, space: StateSpace, n: int) -> np.ndarray:
    """n-step transition density: weight-contracted matrix power."""
    if n < 1:
        raise InvalidModelError(f"step count must be at least 1, got {n}")
    out = kernel.matrix.copy()
    for _ in range(n - 1):
        out = (out * space.weights[None, :]) @ kernel.matrix
    return out


@dataclass(frozen=True)
class ErgodicityReport:
    """L1 gaps ``gaps[n-1, u]`` between the n-step density from ``u`` and the
    invariant density, against the geometric envelope.

    ``worst_ratio`` is the largest gap/envelope ratio over entries where the
    envelope is numerically resolvable (at least ``floor``);
    ``unresolved_max_gap`` is the largest gap among the remaining entries,
    which should itself be below the floor when the theory applies.
    """

    gaps: np.ndarray
    prefactor: Optional[float]
    ratio: Optional[float]
    worst_ratio: Optional[float]
    unresolved_max_gap: float
    applicable: bool
    degenerate: bool
    floor: float


def geometric_ergodicity_report(
    model: FiniteModel,
    invariant: Density,
    coeffs: Coefficients,
    n_max: int,
) -> ErgodicityReport:
    """Compare n-step convergence against ``prefactor * ratio**n`` for n up to `n_max`.

    With a zero averaged row minimum the envelope carries no information and
    the report only tabulates the gaps (the chain may well still be ergodic).
    In the degenerate constant-kernel case the gaps vanish from the first
    step and the ratio is skipped.
    """
    if n_max < 1:
        raise InvalidModelError(f"n_max must be at least 1, got {n_max}")
    space = model.space
    weights = space.weights
    gaps = np.empty((n_max, space.num_states))
    power = model.kernel.matrix
    target = invariant.values[None, :]
    gaps[0] = np.abs(power - target) @ weights
    for n in range(2, n_max + 1):
        power = (power * weights[None, :]) @ model.kernel.matrix
        gaps[n - 1] = np.abs(power - target) @ weights

    if not coeffs.applicable:
        return ErgodicityReport(
            gaps=gaps,
            prefactor=coeffs.geo_prefactor,
            ratio=coeffs.geo_ratio,
            worst_ratio=None,
            unresolved_max_gap=float(gaps.max()) if coeffs.degenerate else 0.0,
            applicable=False,
            degenerate=coeffs.degenerate,
            floor=BOUND_FLOOR,
        )

    envelope = coeffs.geo_prefactor * np.power(
        coeffs.geo_ratio, np.arange(1, n_max + 1, dtype=float)
    )
    resolvable = envelope >= BOUND_FLOOR
    worst_ratio = 0.0
    if np.any(resolvable):
        worst_ratio = float((gaps[resolvable].max(axis=1) / envelope[resolvable]).max())
    unresolved = ~resolvable
    unresolved_max = float(gaps[unresolved].max()) if np.any(unresolved) else 0.0
    return ErgodicityReport(
        gaps=gaps,
        prefactor=coeffs.geo_prefactor,
        ratio=coeffs.geo_ratio,
        worst_ratio=worst_ratio,
        unresolved_max_gap=unresolved_max,
        applicable=True,
        degenerate=False,
        floor=BOUND_FLOOR,
    )


@dataclass(frozen=True)
class StationaryBackward:
    """Stationary-chain backward density ``matrix[u, x]`` after `step` steps,
    with its per-``u`` oscillation across conditioning states."""

    matrix: np.ndarray
    oscillation: np.ndarray
    step: int


def stationary_backward_sequence(model: FiniteModel, invariant: Density, n_max: int):
    """Yield the stationary backward densities (no observations) for steps ``1..n_max``.

    ``matrix_1[u, x] = kernel[u, x] m[u] / m[x]`` and each further step
    contracts through the kernel weighted by the invariant density.
    """
    if n_max < 1:
        raise InvalidModelError(f"step count must be at least 1, got {n_max}")
    space = model.space
    m = invariant.values
    if np.any(m[space.weights > 0.0] <= 0.0):
        raise NumericalError("invariant density degenerate: zero atom")
    q = model.kernel.matrix * m[:, None] / m[None, :]
    yield StationaryBackward(q.copy(), q.max(axis=1) - q.min(axis=1), 1)
    for step in range(2, n_max + 1):
        q = (q * (m * space.weights)[None, :]) @ model.kernel.matrix / m[None, :]
        yield StationaryBackward(q.copy(), q.max(axis=1) - q.min(axis=1), step)


@dataclass(frozen=True)
class StationaryBoundCheck:
    worst_ratio: float
    unresolved_max: float
    floor: float


def stationary_bound_check(
    sequence: Sequence[StationaryBackward],
    invariant: Density,
    coeffs: Coefficients,
) -> StationaryBoundCheck:
    """Check the stationary oscillation against its geometric envelope.

    The envelope after ``n`` steps is
    ``m(u) * (max / avg) * (1 - avg / max)**(n-1)``. Entries whose envelope
    falls below the resolution floor are checked absolutely instead of by
    ratio. Requires a positive averaged row minimum.
    """
    if coeffs.mixing_coefficient <= 0.0:
        raise NumericalError("bound inapplicable: averaged row minimum is zero")
    scale = coeffs.max_density / coeffs.mixing_coefficient
    contraction = 1.0 - coeffs.mixing_coefficient / coeffs.max_density
    worst = 0.0
    unresolved = 0.0
    for sb in sequence:
        envelope = invariant.values * scale * contraction ** (sb.step - 1)
        resolvable = envelope >= BOUND_FLOOR
        if np.any(resolvable):
            worst = max(worst, float((sb.oscillation[resolvable] / envelope[resolvable]).max()))
        if np.any(~resolvable):
            unresolved = max(unresolved, float(sb.oscillation[~resolvable].max()))
    return StationaryBoundCheck(worst_ratio=worst, unresolved_max=unresolved, floor=BOUND_FLOOR)


@dataclass(frozen=True)
class PoissonSolution:
    """Solution of ``g = centered + (kernel g)`` for a centered test function."""

    values: np.ndarray
    centered: np.ndarray
    terms: int


def solve_poisson(
    model: FiniteModel,
    invariant: Density,
    f: Sequence[float],
    *,
    term_tol: float = 1e-13,
    max_terms: int = 10**5,
) -> PoissonSolution:
    """Sum the multi-step corrections of the centered function until they vanish.

    The solution is ``g = centered + sum_n (kernel-power n applied to
    centered)``, accumulated by repeated application of the one-step kernel.
    Geometric ergodicity makes the terms collapse geometrically; hitting the
    term cap means the series did not converge (reducible or periodic chain).
    The result is verified against the defining equation to 1e-10.
    """
    space = model.space
    fv = np.asarray(f, dtype=float)
    if fv.shape != (space.num_states,):
        raise InvalidModelError(
            f"dimension mismatch: f shape {fv.shape} vs {space.num_states} states"
        )
    centered = fv - float(fv @ (invariant.values * space.weights))
    apply_kernel = model.kernel.matrix * space.weights[None, :]
    g = centered.copy()
    term = centered
    terms = 0
    while True:
        term = apply_kernel @ term
        terms += 1
        g = g + term
        if float(np.abs(term).max()) <= term_tol:
            break
        if terms >= max_terms:
            raise NumericalError("series non-convergent within cap")
    residual = float(np.abs(g - centered - apply_kernel @ g).max())
    if residual > 1e-10:
        raise NumericalError(f"poisson residual {residual!r} exceeds 1e-10")
    return PoissonSolution(values=g, centered=centered, terms=terms)


@dataclass(frozen=True)
class LlnAverage:
    average: float
    target: float
    gap: float


def lln_average(run: FilterRun, f: Sequence[float], invariant: Density,
                space: StateSpace) -> LlnAverage:
    """Time average of posterior expectations of ``f`` against its invariant mean.

    Averages ``pi_{k-1}<f>`` over the steps of the run; for an ergodic model
    this converges to the invariant expectation regardless of the initial
    density.
    """
    densities = run.densities
    n = len(densities) - 1
    fv = np.asarray(f, dtype=float)
    if fv.shape != (space.num_states,):
        raise InvalidModelError(
            f"dimension mismatch: f shape {fv.shape} vs {space.num_states} states"
        )
    if n == 0:
        raise InvalidModelError("run has no steps to average over")
    weighted = fv * space.weights
    average = float(np.mean([pi @ weighted for pi in densities[:-1]]))
    target = float(invariant.values @ weighted)
    return LlnAverage(average=average, target=target, gap=abs(average - target))
