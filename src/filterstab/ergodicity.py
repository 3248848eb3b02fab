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

from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidModelError, NumericalError
from .filtering import FilterRun
from .model import Coefficients, Density, FiniteModel, StateSpace, TransitionKernel

BOUND_FLOOR = 1e-10


def _n_step_densities(kernel: TransitionKernel, space: StateSpace) -> Iterator[np.ndarray]:
    """The n-step densities for n = 1, 2, ...: the kernel, then each power
    contracted through it against the weights."""
    power = kernel.matrix
    while True:
        yield power
        power = (power * space.weights[None, :]) @ kernel.matrix


def n_step_density(kernel: TransitionKernel, space: StateSpace, n: int) -> np.ndarray:
    """n-step transition density: weight-contracted matrix power."""
    if n < 1:
        raise InvalidModelError(f"step count must be at least 1, got {n}")
    return next(islice(_n_step_densities(kernel, space), n - 1, None)).copy()


def _gate(values: np.ndarray, envelope: np.ndarray) -> tuple[float, float]:
    """The largest ``values / envelope`` over the entries whose envelope is at
    least `BOUND_FLOOR`, and the largest value among the rest (0.0 for none)."""
    values, envelope = np.broadcast_arrays(values, envelope)
    resolvable = envelope >= BOUND_FLOOR
    worst = (values[resolvable] / envelope[resolvable]).max(initial=0.0)
    return float(worst), float(values[~resolvable].max(initial=0.0))


class ErgodicityReport(NamedTuple):
    """L1 gaps ``gaps[n-1, u]`` between the n-step density from ``u`` and the
    invariant density, against the geometric envelope.

    ``envelope[n-1]`` is ``prefactor * ratio**n`` (Python ``**``), or None
    when the bound is inapplicable; the CLI's ``bound`` column prints it.
    ``worst_ratio`` is the largest gap/envelope ratio over entries where the
    envelope is numerically resolvable (at least ``floor``);
    ``unresolved_max_gap`` is the largest gap among the remaining entries,
    which should itself be below the floor when the theory applies.
    """

    gaps: np.ndarray
    envelope: Optional[np.ndarray]
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
    powers = np.array(list(islice(_n_step_densities(model.kernel, model.space), n_max)))
    gaps = np.abs(powers - invariant.values) @ model.space.weights
    envelope = worst_ratio = None
    unresolved_max = float(gaps.max()) if coeffs.degenerate else 0.0
    if coeffs.applicable:
        envelope = np.array([coeffs.geo_prefactor * coeffs.geo_ratio**n
                             for n in range(1, n_max + 1)])
        worst_ratio, unresolved_max = _gate(gaps, envelope[:, None])
    return ErgodicityReport(
        gaps=gaps,
        envelope=envelope,
        prefactor=coeffs.geo_prefactor,
        ratio=coeffs.geo_ratio,
        worst_ratio=worst_ratio,
        unresolved_max_gap=unresolved_max,
        applicable=coeffs.applicable,
        degenerate=coeffs.degenerate,
        floor=BOUND_FLOOR,
    )


class StationaryBackward(NamedTuple):
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
    if np.any(m <= 0.0):
        raise NumericalError("invariant density degenerate: zero atom")
    q = model.kernel.matrix * m[:, None] / m[None, :]
    yield StationaryBackward(q.copy(), q.max(axis=1) - q.min(axis=1), 1)
    for step in range(2, n_max + 1):
        q = (q * (m * space.weights)[None, :]) @ model.kernel.matrix / m[None, :]
        yield StationaryBackward(q.copy(), q.max(axis=1) - q.min(axis=1), step)


class StationaryBoundCheck(NamedTuple):
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
    sequence = list(sequence)
    envelopes = [invariant.values * scale * contraction ** (sb.step - 1) for sb in sequence]
    worst, unresolved = _gate(np.array([sb.oscillation for sb in sequence]), np.array(envelopes))
    return StationaryBoundCheck(worst_ratio=worst, unresolved_max=unresolved, floor=BOUND_FLOOR)


class PoissonSolution(NamedTuple):
    """Solution of ``g = centered + (kernel g)`` for a centered test function."""

    values: np.ndarray
    centered: np.ndarray


def _check_function(f: Sequence[float], space: StateSpace) -> np.ndarray:
    fv = np.asarray(f, dtype=float)
    if fv.shape != (space.num_states,):
        raise InvalidModelError(
            f"dimension mismatch: f shape {fv.shape} vs {space.num_states} states"
        )
    return fv


def solve_poisson(model: FiniteModel, invariant: Density, f: Sequence[float]) -> PoissonSolution:
    """Solve the Poisson equation ``g - (kernel g) = centered`` directly.

    With ``P = kernel * w`` and ``mu = m * w`` the stationary law, the
    solution is the one with ``mu . g = 0``, the unique solution of
    ``(I - P + 1 mu^T) g = centered`` (Kemeny & Snell's fundamental matrix).
    That system is nonsingular exactly when the chain has one closed class,
    so periodic chains are solvable too; a chain with several closed classes
    makes it singular, which raises `NumericalError`. The result is verified
    against the defining equation to 1e-10.
    """
    space = model.space
    fv = _check_function(f, space)
    mu = invariant.values * space.weights
    centered = fv - float(fv @ mu)
    apply_kernel = model.kernel.matrix * space.weights[None, :]
    system = np.eye(space.num_states) - apply_kernel + mu[None, :]
    try:
        g = np.linalg.solve(system, centered)
    except np.linalg.LinAlgError:
        raise NumericalError("poisson equation singular: no unique invariant density") from None
    residual = float(np.abs(g - centered - apply_kernel @ g).max())
    if residual > 1e-10:
        raise NumericalError(f"poisson residual {residual!r} exceeds 1e-10")
    return PoissonSolution(values=g, centered=centered)


class LlnAverage(NamedTuple):
    average: float
    target: float
    gap: float


def _running_averages(run: FilterRun, space: StateSpace) -> np.ndarray:
    """``(N, d)`` running means: row ``n-1`` is the mean of ``pi_k * w`` over
    ``k < n``, so its dot with ``f`` is the average of ``pi_k<f>``."""
    weighted = run.densities[:-1] * space.weights
    return np.cumsum(weighted, axis=0) / np.arange(1, len(weighted) + 1)[:, None]


def lln_average(run: FilterRun, f: Sequence[float], invariant: Density,
                space: StateSpace) -> LlnAverage:
    """Time average of posterior expectations of ``f`` against its invariant mean.

    Averages ``pi_{k-1}<f>`` over the steps of the run: the last running
    average that the ``lln`` command tabulates, dotted with ``f``. For an
    ergodic model this converges to the invariant expectation regardless of
    the initial density.
    """
    fv = _check_function(f, space)
    if len(run.densities) == 1:
        raise InvalidModelError("run has no steps to average over")
    average = float(_running_averages(run, space)[-1] @ fv)
    target = float(invariant.values @ (fv * space.weights))
    return LlnAverage(average=average, target=target, gap=abs(average - target))
