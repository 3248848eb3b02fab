"""Built-in scenarios, replicate orchestration, and the four-state
counterexample verifier.

The scenario registry holds model documents; `builtin_model` builds one
like a model file, by `build_model`. It covers the qualitatively distinct
regimes:

* ``kaijser``: the four-state cyclic-overlap chain with a deterministic
  binary read-out. The chain is ergodic (its cube is strictly positive) yet
  both the global and the averaged mixing coefficients vanish, and the
  filter-pair gap is exactly constant in time; the explicit per-state gap
  recursion verifies the generic filter step for step.
* ``example11``: one strictly positive transition row, zeros elsewhere, so
  the global minimum vanishes while the averaged coefficient stays positive.
  Only those qualitative properties are mandated; the concrete matrix is this
  repository's choice and its coefficient values are computed, not asserted.
* ``mixing2``: a two-state noisy-channel baseline whose decay-rate bound is
  nontrivial.
* ``uniformK``: the rank-one kernel, the degenerate one-step-convergence case.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidModelError
from .filtering import DecayEstimate, PairRun, _filter_pairs, decay_rate, run_filter_pair
from .model import (
    Coefficients,
    FiniteModel,
    build_model,
    invariant_density,
    mixing_coefficients,
    validated_tuple,
    with_priors,
)
from .rng import derive_seed
from .simulate import Trajectory, sample_trajectories, sample_trajectory

KAIJSER_TRUE_PRIOR = (0.5, 0.2, 0.2, 0.1)


class Scenario(validated_tuple("Scenario", "model horizon replicates seed")):
    """A model with the size and seed of a `run_scenario` experiment."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.replicates < 1:
            raise InvalidModelError("stability needs at least one replicate")
        if self.horizon < 1:
            raise InvalidModelError(f"horizon must be at least 1, got {self.horizon}")
        return self


class KaijserReport(NamedTuple):
    """Outcome of the counterexample regression gate.

    ``gap_obs_one`` and ``gap_obs_zero`` are the possible first-step gap
    sizes of the pair: the first applies when the first observation is
    symbol 1, the second when it is symbol 0. Their minimum, ``floor``, is
    the permanent lower bound on the pair gap whenever it is positive.
    """

    constant: bool
    floor: float
    max_drift: float
    agreement_gap: float
    floor_ok: Optional[bool]
    tv_first: float
    gap_obs_one: float
    gap_obs_zero: float

    @property
    def passed(self) -> bool:
        checks = [self.constant, self.agreement_gap <= 1e-12]
        if self.floor_ok is not None:
            checks.append(self.floor_ok)
        return all(checks)


class RunRecord(NamedTuple):
    """Everything measured on one replicate of a scenario, except ρ: a
    command that prints ρ runs `backward.backward_pass` along
    ``pair.run_wrong``. The replicate's seed is ``trajectory.seed``.
    ``kaijser`` is the counterexample gate's report, or None when the model
    is not the counterexample's."""

    trajectory: Trajectory
    pair: PairRun
    decay: DecayEstimate
    coeffs: Coefficients
    kaijser: Optional[KaijserReport] = None


_UNIFORM4 = (0.25, 0.25, 0.25, 0.25)
_THIRD = 1.0 / 3.0

# the registry: every builtin scenario is a model document, built by `build_model`
BUILTIN_DOCUMENTS = {
    "kaijser": {
        "states": 4,
        "transition": (
            (0.5, 0.5, 0.0, 0.0),
            (0.0, 0.5, 0.5, 0.0),
            (0.0, 0.0, 0.5, 0.5),
            (0.5, 0.0, 0.0, 0.5),
        ),
        # states 0 and 2 deterministically emit symbol 1, states 1 and 3 emit 0
        "observation": {"type": "finite", "gamma": (
            (0.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0),
        )},
        "nu": KAIJSER_TRUE_PRIOR,
        "beta": _UNIFORM4,
    },
    "example11": {
        "states": 4,
        "transition": (
            (0.25, 0.25, 0.25, 0.25),
            (0.0, 0.5, 0.25, 0.25),
            (0.25, 0.0, 0.5, 0.25),
            (0.25, 0.25, 0.0, 0.5),
        ),
        "observation": {"type": "finite", "gamma": (
            (0.9, 0.1), (0.6, 0.4), (0.4, 0.6), (0.1, 0.9),
        )},
        "nu": (0.7, 0.1, 0.1, 0.1),
        "beta": _UNIFORM4,
    },
    "mixing2": {
        "states": 2,
        "transition": ((0.5, 0.5), (0.3, 0.7)),
        "observation": {"type": "finite", "gamma": ((0.8, 0.2), (0.2, 0.8))},
        "nu": (0.9, 0.1),
        "beta": (0.5, 0.5),
    },
    "uniformK": {
        "states": 3,
        "transition": ((_THIRD,) * 3,) * 3,
        "observation": {"type": "finite", "gamma": ((0.7, 0.3), (0.5, 0.5), (0.2, 0.8))},
        "nu": (0.6, 0.3, 0.1),
        "beta": (_THIRD,) * 3,
    },
}

# the commands' default horizon on each scenario
SCENARIO_HORIZONS = {"kaijser": 10_000, "example11": 500, "mixing2": 500, "uniformK": 200}

SCENARIO_NAMES = tuple(sorted(BUILTIN_DOCUMENTS))


def builtin_model(name: str, true_prior=None, wrong_prior=None) -> FiniteModel:
    """The model of a registry scenario, its priors replaced where given."""
    if name not in BUILTIN_DOCUMENTS:
        raise InvalidModelError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    return build_model(with_priors(BUILTIN_DOCUMENTS[name], true_prior, wrong_prior))


def kaijser_closed_form(true_prior, wrong_prior, observations) -> np.ndarray:
    """Per-state absolute filter-pair gaps by the explicit gap recursion.

    Row ``n`` holds ``|pi_n - pi_n'|`` per state. The first step combines the
    signed prior differences (masses can cancel); from then on the supports
    are disjoint and the absolute gaps themselves recurse, driven by the last
    two observations:

        g'[0] = (g[0] y_prev + g[3] (1 - y_prev)) y
        g'[1] = (g[1] (1 - y_prev) + g[0] y_prev) (1 - y)
        g'[2] = (g[2] y_prev + g[1] (1 - y_prev)) y
        g'[3] = (g[3] (1 - y_prev) + g[2] y_prev) (1 - y)

    With binary symbols and finite gaps each step only moves entries or zeroes
    them, exactly: it keeps the row when ``y == y_prev`` and rotates it one
    state forward when the symbol changes. So row ``n >= 1`` is row 1 rotated
    by the number of symbol changes among ``y_1..y_n``; any other symbol, and
    a prior difference whose gaps at step 0 or 1 are not finite, is rejected.
    Independent of the generic filter.
    """
    s = np.asarray(true_prior, dtype=float) - np.asarray(wrong_prior, dtype=float)
    if s.shape != (4,):
        raise InvalidModelError(f"wrong dimension: expected 4 states, got shape {s.shape}")
    ys = np.asarray(observations)
    binary = (ys == 0) | (ys == 1)
    if not binary.all():
        raise InvalidModelError(
            f"the Kaijser read-out is binary: got symbol {ys[binary.argmin()].item()!r}")
    gaps = np.empty((len(ys) + 1, 4))
    gaps[0] = np.abs(s)
    if len(ys):
        y = float(ys[0])
        gaps[1] = np.abs(s + np.roll(s, 1)) * np.array([y, 1.0 - y, y, 1.0 - y])
        rotations = gaps[1][(np.arange(4) - np.arange(4)[:, None]) % 4]  # row k: rolled by k
        np.take(rotations, np.cumsum(ys[1:] != ys[:-1]) % 4, axis=0, out=gaps[2:])
    # the recursion spreads a NaN or an inf (inf * 0 is NaN); the rotation would not
    if not np.isfinite(gaps[:2]).all():
        raise InvalidModelError(f"the Kaijser gaps must be finite, got {gaps[:2].tolist()}")
    return gaps


def _verify_kaijser_on(model: FiniteModel, observations, pair: PairRun) -> KaijserReport:
    """Gate the generic filter pair of `model`'s two priors on `observations`
    against the closed form; `pair` is that pair, already computed."""
    gaps = kaijser_closed_form(model.true_prior.values, model.wrong_prior.values, observations)
    generic_gaps = np.abs(pair.run_correct.densities - pair.run_wrong.densities)
    agreement_gap = float(np.abs(generic_gaps - gaps).max())
    s = model.true_prior.values - model.wrong_prior.values
    gap_one = abs(s[0] + s[3]) + abs(s[2] + s[1])
    gap_zero = abs(s[1] + s[0]) + abs(s[3] + s[2])
    floor = min(gap_one, gap_zero)
    tv = pair.tv
    max_drift = float(np.abs(tv[1:] - tv[1]).max()) if tv.size > 1 else 0.0
    constant = max_drift <= 1e-12
    # the floor claim needs a genuinely positive constant; float cancellation
    # in the prior differences can leave an epsilon-sized residue
    if floor > 1e-12:
        floor_ok = bool(np.all(tv[1:] >= floor - 1e-12))
    else:
        floor_ok = None
    return KaijserReport(
        constant=constant,
        floor=floor,
        max_drift=max_drift,
        agreement_gap=agreement_gap,
        floor_ok=floor_ok,
        tv_first=float(tv[1]) if tv.size > 1 else 0.0,
        gap_obs_one=gap_one,
        gap_obs_zero=gap_zero,
    )


def kaijser_verify(true_prior, wrong_prior, horizon: int, seed: int) -> KaijserReport:
    """Simulate the counterexample and gate the generic filter against the
    closed form: stepwise agreement, exact gap constancy, and the positive
    floor when the first-step constants allow one."""
    model = builtin_model("kaijser", true_prior, wrong_prior)
    trajectory = sample_trajectory(model, model.true_prior, horizon, seed)
    pair = run_filter_pair(model, trajectory.observations)
    return _verify_kaijser_on(model, trajectory.observations, pair)


def _is_kaijser(model: FiniteModel) -> bool:
    """Whether `model` has the counterexample's state space, kernel and
    read-out, whatever its priors: the closed form holds for any of them."""
    if model.space.num_states != 4 or model.observation.kind != "finite":
        return False  # without building the reference
    reference = builtin_model("kaijser")
    obs, ref = model.observation, reference.observation
    return (obs.kind == ref.kind
            and np.array_equal(model.space.weights, reference.space.weights)
            and np.array_equal(model.kernel.matrix, reference.kernel.matrix)
            and np.array_equal(obs.emission, ref.emission)
            and np.array_equal(obs.symbol_weights, ref.symbol_weights))


def run_scenario(scenario: Scenario, window_fraction: float = 0.5) -> list[RunRecord]:
    """Execute every replicate of a scenario and collect full diagnostics.

    Each replicate gets an independent stream derived from the scenario seed,
    and records are ordered by replicate, so output is a pure function of
    (scenario, seed). One pass samples every record, and one filter pass
    advances both priors of every replicate; the Kaijser gate, run
    whenever the model is the counterexample's, reuses each pair. No ρ is
    run here. Every replicate's arrays equal those it gets alone, bit for
    bit. When filters fail, the lowest failing replicate's first filter
    error is raised, as if the replicates ran one after another, before any
    replicate's decay fit or Kaijser check.
    """
    model = scenario.model
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    seeds = [derive_seed(scenario.seed, replicate) for replicate in range(scenario.replicates)]
    states, observations = sample_trajectories(model, model.true_prior, scenario.horizon, seeds)
    pairs = _filter_pairs(model, observations)
    kaijser = _is_kaijser(model)
    records = []
    for replicate, (seed, pair) in enumerate(zip(seeds, pairs)):
        trajectory = Trajectory(states=states[replicate], observations=observations[replicate],
                                seed=seed)
        records.append(RunRecord(
            trajectory=trajectory,
            pair=pair,
            decay=decay_rate(pair.tv, window_fraction),
            coeffs=coeffs,
            kaijser=_verify_kaijser_on(model, trajectory.observations, pair) if kaijser else None,
        ))
    return records
