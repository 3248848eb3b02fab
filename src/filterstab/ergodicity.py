"""Geometric ergodicity with explicit constants, and the running averages
of posterior expectations that the ``lln`` command tabulates.

The multi-step transition density of a kernel with positive averaged row
minimum converges to the invariant density in L1 at an explicit geometric
envelope ``prefactor * ratio**n``. The verification here is pure matrix
arithmetic: the n-step transition laws are computed exactly (up to float)
and their L1 gaps compared to the envelope pointwise in the starting state.

Floating point limits how small an inequality can be certified: once the
envelope falls below `BOUND_FLOOR` the measured gap consists of rounding
noise, so those entries are excluded from the ratio and instead required to
sit below the floor themselves.

The running averages are the law-of-large-numbers check. The stationary
backward bound and the Poisson-equation solver are test references, in
``tests/reference.py``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidModelError
from .filtering import FilterRun
from .model import Coefficients, Density, FiniteModel

BOUND_FLOOR = 1e-10


def _n_step_probabilities(probabilities: np.ndarray, n_max: int) -> np.ndarray:
    """The n-step transition probabilities ``P**n`` for n = 1..n_max as one
    ``(n_max, d, d)`` stack: P, then each power times P, each product written
    into its slot."""
    powers = np.empty((n_max,) + probabilities.shape)
    powers[0] = probabilities
    dot, power = np.ndarray.dot, probabilities
    for next_power in powers[1:]:
        dot(power, probabilities, next_power)
        power = next_power
    return powers


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

    ``envelope[n-1]`` is ``geo_prefactor * geo_ratio**n`` of the
    `Coefficients` (Python ``**``), or None when they are not applicable; the
    CLI's ``bound`` column prints it. ``worst_ratio`` is the largest
    gap/envelope ratio over entries where the envelope is numerically
    resolvable (at least `BOUND_FLOOR`); ``unresolved_max_gap`` is the
    largest gap among the remaining entries, which should itself be below the
    floor when the theory applies.
    """

    gaps: np.ndarray
    envelope: Optional[np.ndarray]
    worst_ratio: Optional[float]
    unresolved_max_gap: float


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
        raise InvalidModelError(f"horizon must be at least 1, got {n_max}")
    # the L1 gap of densities against the weights is that of the laws
    powers = _n_step_probabilities(model.transition_probabilities, n_max)
    gaps = np.abs(powers - invariant.values * model.space.weights) @ np.ones(len(powers[0]))
    envelope = worst_ratio = None
    unresolved_max = float(gaps.max()) if coeffs.degenerate else 0.0
    if coeffs.applicable:
        envelope = np.array([coeffs.geo_prefactor * coeffs.geo_ratio**n
                             for n in range(1, n_max + 1)])
        worst_ratio, unresolved_max = _gate(gaps, envelope[:, None])
    return ErgodicityReport(gaps, envelope, worst_ratio, unresolved_max)


def _running_averages(run: FilterRun) -> np.ndarray:
    """``(N, d)`` running means of the posterior laws: row ``n-1`` is the mean
    of ``p_k`` over ``k < n``, so its dot with ``f`` averages ``pi_k<f>``."""
    laws = run.probabilities[:-1]
    return np.cumsum(laws, axis=0) / np.arange(1, len(laws) + 1)[:, None]
