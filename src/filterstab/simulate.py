"""Trajectory sampling and observation likelihood evaluation."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidModelError
from .model import Density, FiniteModel, ObservationModel, validated_tuple
from .rng import _DOUBLE_SCALE, Xoshiro256StarStarLanes

_MAP_BLOCK = 1 << 16  # entries of the step-map comparison held at once
# up to this many records, walking each in plain Python beats a numpy gather per step
_PYTHON_WALK_RECORDS = 8


class Trajectory(validated_tuple("Trajectory", "states observations seed")):
    """A sampled signal/observation path.

    ``states`` holds the signal ``X_0..X_N`` as atom indices; ``observations``
    holds ``Y_1..Y_N`` (symbol indices for finite alphabets, reals for the
    Gaussian channel), so it is one entry shorter than ``states``. Both are
    stored read-only: copies, unless they are read-only arrays already.
    """

    __slots__ = ()

    def __new__(cls, states: np.ndarray, observations: np.ndarray, seed: int):
        if len(observations) != len(states) - 1:
            raise InvalidModelError(
                f"trajectory shape mismatch: {len(states)} states, "
                f"{len(observations)} observations"
            )
        return super().__new__(cls, _read_only(np.asarray(states, dtype=np.int64)),
                               _read_only(np.asarray(observations)), seed)


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` itself when it is read-only, else a read-only copy."""
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def sample_trajectory(model: FiniteModel, initial: Density, horizon: int, seed: int) -> Trajectory:
    """Sample ``X_0 ~ initial`` and `horizon` steps of the chain with observations.

    Every observation is drawn conditionally on the current state alone.
    Equal (model, initial, horizon, seed) reproduce bit-identical output.
    This is `sample_trajectories` on the one seed.
    """
    states, observations = sample_trajectories(model, initial, horizon, [seed])
    return Trajectory(states=states[0], observations=observations[0], seed=seed)


def sample_trajectories(model: FiniteModel, initial: Density, horizon: int,
                        seeds) -> tuple[np.ndarray, np.ndarray]:
    """Sample one trajectory per seed: read-only ``(R, N+1)`` states and
    ``(R, N)`` observations, row ``r`` bit for bit what the xoshiro256**
    stream of ``seeds[r]`` draws step by step: one word for ``X_0``, then per
    step one for the state pick and one, or two for Box-Muller, for the
    observation. So all the words come first, from jump-ahead lanes.
    Step n maps each state x to ``pick(u_n, kernel row x)``; one comparison
    builds the maps of a block of steps. A few records each walk their maps
    in plain Python; more records take one numpy gather per step.
    """
    if horizon < 1:
        raise InvalidModelError(f"horizon must be at least 1, got {horizon}")
    space, obs = model.space, model.observation
    finite = obs.kind == "finite"
    per_step = 2 if finite else 3  # words of one step: the state pick, then the observation
    words = Xoshiro256StarStarLanes(seeds).words(1 + per_step * horizon)
    words >>= 11
    draws = words.astype(float)  # exact: 53-bit integers
    del words
    if not finite:
        draws[2::3] += 1.0  # the Box-Muller radius uniform lies in (0, 1]
    draws *= _DOUBLE_SCALE

    state_table = _pick_table(model.kernel.matrix * space.weights[None, :])
    records, d = draws.shape[1], state_table.shape[0]
    states = np.empty((horizon + 1, records), dtype=np.int64)
    states[0] = (draws[0][:, None] < _pick_table(initial.values * space.weights)).argmax(axis=1)
    block = max(1, _MAP_BLOCK // (records * d * d or 1))  # steps whose maps are built at once
    offsets = np.arange(records) * d
    for n0 in range(0, horizon, block):
        n1 = min(n0 + block, horizon)
        # maps[n, r, x]: the state after x at step n0 + n of record r
        maps = (draws[1 + per_step * n0:1 + per_step * n1:per_step, :, None, None]
                < state_table).argmax(axis=3)
        if records > _PYTHON_WALK_RECORDS:  # one gather per step serves every record
            x = states[n0]
            for n, step in enumerate(maps.reshape(n1 - n0, -1), n0 + 1):
                x = states[n] = step.take(offsets + x)
        else:
            for r in range(records):
                flat = memoryview(np.ascontiguousarray(maps[:, r]).ravel())  # indexes like a list
                x = int(states[n0, r])
                path = []
                for base in range(0, (n1 - n0) * d, d):
                    x = flat[base + x]
                    path.append(x)
                states[n0 + 1:n1 + 1, r] = path
    if finite:
        symbol_table = _pick_table(obs.emission * obs.symbol_weights[None, :])
        observations = (draws[2::2, :, None] < symbol_table[states[1:]]).argmax(axis=2)
    else:
        # `math.log` and `math.cos`, whose last bits `np.log` and `np.cos` need not match;
        # `np.sqrt` is correctly rounded like `math.sqrt`
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, draws[2::3].ravel().tolist()), float))
        cosine = np.fromiter(map(math.cos, (2.0 * math.pi * draws[3::3]).ravel().tolist()), float)
        observations = (obs.means[states[1:]]
                        + obs.sigma * radius.reshape(horizon, -1) * cosine.reshape(horizon, -1))
    return _read_only(states.T), _read_only(observations.T)


def _pick_table(probabilities: np.ndarray) -> np.ndarray:
    """Cumulative sums of each row of `probabilities` for vectorized picks.

    A pick by inverse CDF scans the atoms left to right with a running sum,
    and falls back to the last positive atom when rounding shortfall leaves
    the uniform ``u`` above the total mass. ``np.cumsum`` adds left to right
    the same way, and every entry from the last positive atom on is raised
    to infinity, so the first index with ``u < table`` is the pick's result,
    fallback included. A row with no positive atom, such as a hand-built
    all-zero initial `Density` (only `as_density` checks mass), has no pick.
    """
    table = np.cumsum(probabilities, axis=-1)
    positive = probabilities > 0.0
    if not positive.any(axis=-1).all():
        raise ValueError("cannot sample from an all-zero probability vector")
    last = positive.shape[-1] - 1 - positive[..., ::-1].argmax(axis=-1)
    table[np.arange(table.shape[-1]) >= last[..., None]] = np.inf
    return table


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
                    f"finite-alphabet observation must be integral, got {y[first].item()!r}"
                )
            raise InvalidModelError(
                f"observation symbol {symbols[first]} outside alphabet of size {p}"
            )
        return observation.emission.T[symbols]
    # z or z*z may overflow to inf, whose exp is the density, 0
    with np.errstate(over="ignore"):
        z = (y.astype(float)[:, None] - observation.means[None, :]) / observation.sigma
        exponent = -0.5 * z * z
    return np.exp(exponent) / (observation.sigma * math.sqrt(2.0 * math.pi))
