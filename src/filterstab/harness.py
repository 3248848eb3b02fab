"""Built-in scenarios, replicate orchestration, and the four-state
counterexample verifier.

The scenario registry holds model documents, built like a model file by
`build_model`; it covers the qualitatively distinct regimes:

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

import functools
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .backward import BackwardPass, _envelope_scale, _prior_ratio, backward_pass
from .errors import InvalidModelError
from .filtering import (
    DecayEstimate,
    PairRun,
    _check_priors,
    _engine,
    _pair_run,
    decay_rate,
    run_filter_pair,
)
from .model import (
    Coefficients,
    FiniteModel,
    build_model,
    invariant_density,
    mixing_coefficients,
    with_priors,
)
from .rng import derive_seed
from .simulate import Trajectory, sample_trajectories, sample_trajectory

KAIJSER_TRUE_PRIOR = (0.5, 0.2, 0.2, 0.1)


@dataclass(frozen=True)
class Scenario:
    name: str
    model: FiniteModel
    horizon: int
    replicates: int
    seed: int

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidModelError(f"horizon must be at least 1, got {self.horizon}")
        if self.replicates < 0:
            raise InvalidModelError(f"replicates must be nonnegative, got {self.replicates}")


@dataclass(frozen=True)
class KaijserConstants:
    """Possible first-step gap sizes of the counterexample pair.

    ``gap_obs_one`` applies when the first observation is symbol 1,
    ``gap_obs_zero`` when it is symbol 0; their minimum is the permanent
    lower bound on the pair gap whenever it is positive.
    """

    gap_obs_one: float
    gap_obs_zero: float

    @property
    def floor(self) -> float:
        return min(self.gap_obs_one, self.gap_obs_zero)


@dataclass(frozen=True)
class KaijserReport:
    """Outcome of the counterexample regression gate."""

    constant: bool
    floor: float
    max_drift: float
    agreement_gap: float
    floor_ok: Optional[bool]
    tv_first: float
    constants: KaijserConstants

    @property
    def passed(self) -> bool:
        checks = [self.constant, self.agreement_gap <= 1e-12]
        if self.floor_ok is not None:
            checks.append(self.floor_ok)
        return all(checks)


@dataclass(frozen=True)
class RunRecord:
    """Everything measured on one replicate of a scenario of `model`.

    ρ is not run with the filters. ``oscillations``, ``likelihood_ratios``
    and the envelope ``oscillation_bounds`` come from one `backward_pass`
    along the wrong-prior run, made on the first read of any of them; it is
    cached and its arrays are read-only. Its errors (an overflowing prior
    ratio, a failing ρ, an envelope scale that underflows or overflows) are
    raised at that read. ``bounds_vacuous`` runs no ρ: it reads only the
    envelope scale, and raises its errors.
    """

    replicate: int
    seed: int
    trajectory: Trajectory
    pair: PairRun
    decay: DecayEstimate
    coeffs: Coefficients
    model: FiniteModel
    kaijser: Optional[KaijserReport] = None

    @property
    def bounds_vacuous(self) -> bool:
        return _envelope_scale(self.model.wrong_prior.values, self.coeffs) is None

    @functools.cached_property
    def _backward(self) -> BackwardPass:
        model = self.model
        return backward_pass(model, model.wrong_prior, self.coeffs, self.pair.run_wrong.densities,
                             _prior_ratio(model))

    oscillations = property(operator.attrgetter("_backward.oscillations"))
    likelihood_ratios = property(operator.attrgetter("_backward.likelihood_ratios"))
    oscillation_bounds = property(operator.attrgetter("_backward.bounds"))


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

# default horizon of each scenario; every scenario defaults to one replicate
SCENARIO_HORIZONS = {"kaijser": 10_000, "example11": 500, "mixing2": 500, "uniformK": 200}

SCENARIO_NAMES = tuple(sorted(BUILTIN_DOCUMENTS))


def kaijser_model(true_prior=None, wrong_prior=None) -> FiniteModel:
    """The counterexample model; priors default to `KAIJSER_TRUE_PRIOR` and uniform."""
    return build_model(with_priors(BUILTIN_DOCUMENTS["kaijser"], true_prior, wrong_prior))


def builtin_scenario(
    name: str,
    horizon: Optional[int] = None,
    replicates: Optional[int] = None,
    seed: int = 7,
    true_prior=None,
    wrong_prior=None,
) -> Scenario:
    """Instantiate a registry scenario, optionally overriding priors and sizes."""
    if name not in BUILTIN_DOCUMENTS:
        raise InvalidModelError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    return Scenario(
        name=name,
        model=build_model(with_priors(BUILTIN_DOCUMENTS[name], true_prior, wrong_prior)),
        horizon=SCENARIO_HORIZONS[name] if horizon is None else horizon,
        replicates=1 if replicates is None else replicates,
        seed=seed,
    )


def kaijser_constants(true_prior, wrong_prior) -> KaijserConstants:
    """First-step gap sizes from the prior difference (four states)."""
    s = np.asarray(true_prior, dtype=float) - np.asarray(wrong_prior, dtype=float)
    if s.shape != (4,):
        raise InvalidModelError(f"wrong dimension: expected 4 states, got shape {s.shape}")
    gap_one = abs(s[0] + s[3]) + abs(s[2] + s[1])
    gap_zero = abs(s[1] + s[0]) + abs(s[3] + s[2])
    return KaijserConstants(gap_obs_one=gap_one, gap_obs_zero=gap_zero)


def kaijser_filter_recursion(prior, observations) -> np.ndarray:
    """Posterior trajectory of the counterexample by its explicit recursion.

    With a binary observation ``y`` the posterior permutes and merges
    adjacent masses:

        p'[0] = (p[0] + p[3]) * y        p'[1] = (p[1] + p[0]) * (1 - y)
        p'[2] = (p[2] + p[1]) * y        p'[3] = (p[3] + p[2]) * (1 - y)

    The update preserves total mass exactly; each row is renormalized to
    guard against float drift. Entirely independent of the generic filter.
    """
    p = np.asarray(prior, dtype=float)
    if p.shape != (4,):
        raise InvalidModelError(f"wrong dimension: expected 4 states, got shape {p.shape}")
    out = np.empty((len(observations) + 1, 4))
    out[0] = p
    for n, y in enumerate(observations, start=1):
        y = int(y)
        p = np.array([
            (p[0] + p[3]) * y,
            (p[1] + p[0]) * (1 - y),
            (p[2] + p[1]) * y,
            (p[3] + p[2]) * (1 - y),
        ])
        p /= p.sum()
        out[n] = p
    return out


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
    constants = kaijser_constants(model.true_prior.values, model.wrong_prior.values)
    tv = pair.tv
    max_drift = float(np.abs(tv[1:] - tv[1]).max()) if tv.size > 1 else 0.0
    constant = max_drift <= 1e-12
    # the floor claim needs a genuinely positive constant; float cancellation
    # in the prior differences can leave an epsilon-sized residue
    if constants.floor > 1e-12:
        floor_ok = bool(np.all(tv[1:] >= constants.floor - 1e-12))
    else:
        floor_ok = None
    return KaijserReport(
        constant=constant,
        floor=constants.floor,
        max_drift=max_drift,
        agreement_gap=agreement_gap,
        floor_ok=floor_ok,
        tv_first=float(tv[1]) if tv.size > 1 else 0.0,
        constants=constants,
    )


def kaijser_verify(true_prior, wrong_prior, horizon: int, seed: int) -> KaijserReport:
    """Simulate the counterexample and gate the generic filter against the
    closed form: stepwise agreement, exact gap constancy, and the positive
    floor when the first-step constants allow one."""
    model = kaijser_model(true_prior, wrong_prior)
    trajectory = sample_trajectory(model, model.true_prior, horizon, seed)
    pair = run_filter_pair(model.true_prior, model.wrong_prior, trajectory.observations, model)
    return _verify_kaijser_on(model, trajectory.observations, pair)


def _is_kaijser(model: FiniteModel) -> bool:
    """Whether `model` has the counterexample's state space, kernel and
    read-out, whatever its priors: the closed form holds for any of them."""
    reference = kaijser_model()
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
    (scenario, seed). One pass samples every record, and one filter pass,
    `_engine`, advances both priors of every replicate; the Kaijser gate, run
    whenever the model is the counterexample's, reuses each pair. No ρ is run
    here: a record runs it along its wrong-prior densities when its
    oscillations, likelihood ratios or envelope are first read. Every
    replicate's arrays equal those it gets alone, bit for bit. When filters
    fail, the lowest failing replicate's first filter error is raised, as if
    the replicates ran one after another, before any replicate's decay fit
    or Kaijser check. A replicate's ρ error is raised at its first read, so
    a caller that reads only replicate 0's ρ never sees another's.
    """
    model = scenario.model
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    seeds = [derive_seed(scenario.seed, replicate) for replicate in range(scenario.replicates)]
    if not seeds:
        return []
    states, observations = sample_trajectories(model, model.true_prior, scenario.horizon, seeds)
    _check_priors(model.true_prior, model.wrong_prior)
    run = _engine(model, np.stack([model.true_prior.values, model.wrong_prior.values]),
                  observations)
    kaijser = _is_kaijser(model)
    records = []
    for replicate, seed in enumerate(seeds):
        trajectory = Trajectory(states=states[replicate], observations=observations[replicate],
                                seed=seed)
        pair = _pair_run(run, replicate, trajectory.observations, model.space.weights)
        records.append(RunRecord(
            replicate=replicate,
            seed=seed,
            trajectory=trajectory,
            pair=pair,
            decay=decay_rate(pair.tv, window_fraction),
            coeffs=coeffs,
            model=model,
            kaijser=_verify_kaijser_on(model, trajectory.observations, pair) if kaijser else None,
        ))
    return records
