"""Trajectory sampling and observation likelihood evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError
from .model import Density, FiniteModel, ObservationModel
from .rng import Xoshiro256StarStar


@dataclass(frozen=True)
class Trajectory:
    """A sampled signal/observation path.

    ``states`` holds the signal ``X_0..X_N`` as atom indices; ``observations``
    holds ``Y_1..Y_N`` (symbol indices for finite alphabets, reals for the
    Gaussian channel), so it is one entry shorter than ``states``.
    """

    states: np.ndarray
    observations: np.ndarray
    seed: int

    def __post_init__(self):
        if len(self.observations) != len(self.states) - 1:
            raise InvalidModelError(
                f"trajectory shape mismatch: {len(self.states)} states, "
                f"{len(self.observations)} observations"
            )
        s = np.array(self.states, dtype=np.int64)
        s.flags.writeable = False
        o = np.array(self.observations)
        o.flags.writeable = False
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "observations", o)


def sample_trajectory(model: FiniteModel, initial: Density, horizon: int, seed: int) -> Trajectory:
    """Sample ``X_0 ~ initial`` and `horizon` steps of the chain with observations.

    Every observation is drawn conditionally on the current state alone.
    Equal (model, initial, horizon, seed) reproduce bit-identical output.
    """
    if horizon < 1:
        raise InvalidModelError(f"horizon must be at least 1, got {horizon}")
    space = model.space
    stream = Xoshiro256StarStar(seed)

    state_probs = model.kernel.matrix * space.weights[None, :]
    obs = model.observation
    if obs.kind == "finite":
        symbol_probs = obs.emission * obs.symbol_weights[None, :]

    x = stream.pick(initial.values * space.weights)
    states = [x]
    observations = []
    for _ in range(horizon):
        x = stream.pick(state_probs[x])
        states.append(x)
        if obs.kind == "finite":
            observations.append(stream.pick(symbol_probs[x]))
        else:
            observations.append(stream.normal(obs.means[x], obs.sigma))

    obs_array = np.array(observations, dtype=np.int64 if obs.kind == "finite" else float)
    return Trajectory(states=np.array(states, dtype=np.int64), observations=obs_array, seed=seed)


def likelihood_vector(observation: ObservationModel, y) -> np.ndarray:
    """Observation density evaluated at ``y`` for every state."""
    return likelihood_rows(observation, [y])[0]


def likelihood_rows(observation: ObservationModel, observations) -> np.ndarray:
    """Observation densities of a whole record, validated and computed at once.

    Row ``n`` is the likelihood vector of ``observations[n]``: an
    emission-table column for a finite alphabet, the Gaussian density
    otherwise. The first invalid symbol, if any, is reported by value.
    """
    y = np.asarray(observations)
    if observation.kind == "finite":
        p = observation.num_symbols
        with np.errstate(invalid="ignore"):
            symbols = y.astype(np.int64)
        fractional = symbols != y
        bad = np.flatnonzero(fractional | (symbols < 0) | (symbols >= p))
        if bad.size:
            first = bad[0]
            if fractional[first]:
                raise InvalidModelError(
                    f"finite-alphabet observation must be integral, got {observations[first]!r}"
                )
            raise InvalidModelError(
                f"observation symbol {symbols[first]} outside alphabet of size {p}"
            )
        return observation.emission.T[symbols]
    z = (y.astype(float)[:, None] - observation.means[None, :]) / observation.sigma
    return np.exp(-0.5 * z * z) / (observation.sigma * math.sqrt(2.0 * math.pi))
