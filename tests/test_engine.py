"""The replicate-batched engine against replicates run one at a time.

`run_scenario` samples every replicate's record at once and advances both
priors of every replicate in one time loop over stacked arrays;
`backward_pass` runs the backward density along a record's wrong-prior run.
`filter_step_with_likelihood` and `BackwardContext` advance one observation
at a time, and the reference loops of `reference.py` redo each replicate
alone with plain 1-D arithmetic. Stacked products round like the one-row ones, so every array
must agree exactly, not just to a tolerance.
"""

import math

import numpy as np
import pytest

import filterstab.backward
import filterstab.filtering
import filterstab.harness
import filterstab.simulate
from filterstab import (
    BackwardContext,
    Density,
    InvalidModelError,
    NumericalError,
    SCENARIO_NAMES,
    Scenario,
    backward_pass,
    build_model,
    builtin_model,
    decay_rate,
    derive_seed,
    filter_step_with_likelihood,
    invariant_density,
    kaijser_verify,
    likelihood_rows,
    mixing_coefficients,
    run_filter,
    run_filter_pair,
    run_scenario,
    sample_trajectories,
    sample_trajectory,
)
from filterstab.cli import main
from filterstab.filtering import _engine, _pair_run
from filterstab.harness import KAIJSER_TRUE_PRIOR, _verify_kaijser_on
from filterstab.simulate import _pick_table
from helpers import random_positive_model, record_rho
from reference import (
    Xoshiro256StarStar,
    brute_force_posterior,
    log_domain_filter,
    reference_backward,
    reference_filter,
    reference_trajectory,
)

ENGINE_MODELS = {
    **{name: builtin_model(name) for name in SCENARIO_NAMES},
    "gaussian3": random_positive_model(91, 3, gaussian=True),
    # at d >= 4 a 2-D gemm rounds differently from per-row products on
    # generic entries, which the builtin kernels' dyadic entries hide
    "finite5": random_positive_model(17, 5, n_symbols=3),
    "gaussian6": random_positive_model(23, 6, gaussian=True),
}
ENGINE_SCENARIOS = [Scenario(model, horizon=300, replicates=2, seed=5)
                    for model in ENGINE_MODELS.values()]


def incremental_filter(model, prior, observations):
    pi = prior
    densities = [prior.values]
    log_norms = []
    for y in observations:
        lik = likelihood_rows(model.observation, [y])[0]
        pi, normalizer = filter_step_with_likelihood(pi, lik, model.kernel, model.space)
        densities.append(pi.values)
        log_norms.append(math.log(normalizer))
    return np.array(densities), np.array(log_norms)


def incremental_backward(model, coeffs, observations, prior_ratio):
    context = BackwardContext(model, model.wrong_prior, coeffs)
    oscillations, bounds = [], []
    ratios = [context.likelihood_ratio(prior_ratio)]
    for y in observations:
        context.step(y)
        record = context.record
        oscillations.append(record.oscillation)
        bounds.append(record.bound)
        ratios.append(context.likelihood_ratio(prior_ratio))
    return np.array(oscillations), bounds, np.array(ratios)


@pytest.mark.parametrize("scenario", ENGINE_SCENARIOS, ids=list(ENGINE_MODELS))
def test_batch_engine_equals_incremental_api(scenario):
    model = scenario.model
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    prior_ratio = model.true_prior.values / model.wrong_prior.values
    for record in run_scenario(scenario):
        obs = record.trajectory.observations
        correct, log_correct = incremental_filter(model, model.true_prior, obs)
        wrong, log_wrong = incremental_filter(model, model.wrong_prior, obs)
        np.testing.assert_array_equal(record.pair.run_correct.densities, correct)
        np.testing.assert_array_equal(record.pair.run_wrong.densities, wrong)
        np.testing.assert_array_equal(record.pair.run_correct.log_normalizers, log_correct)
        np.testing.assert_array_equal(record.pair.run_wrong.log_normalizers, log_wrong)
        tv = [np.abs(p - q) @ model.space.weights for p, q in zip(correct, wrong)]
        np.testing.assert_array_equal(record.pair.tv, tv)

        oscillations, bounds, ratios = incremental_backward(model, coeffs, obs, prior_ratio)
        back = record_rho(model, record)
        np.testing.assert_array_equal(back.oscillations, oscillations)
        np.testing.assert_array_equal(back.likelihood_ratios, ratios)
        if back.bounds is None:
            assert all(b is None for b in bounds)
        else:
            np.testing.assert_array_equal(back.bounds, np.array(bounds))


def test_kaijser_report_with_reused_pair_equals_recomputed():
    scenario = Scenario(builtin_model("kaijser"), horizon=400, replicates=2, seed=13)
    model = scenario.model
    for record in run_scenario(scenario):
        # the priors the builtin scenario is built from
        recomputed = kaijser_verify(KAIJSER_TRUE_PRIOR, (0.25,) * 4, scenario.horizon,
                                    record.trajectory.seed)
        assert record.kaijser == recomputed
        fresh = run_filter_pair(model, record.trajectory.observations)
        assert _verify_kaijser_on(model, record.trajectory.observations, fresh) == record.kaijser


@pytest.mark.parametrize("name,replicates", [("mixing2", 3), ("kaijser", 2)])
def test_run_scenario_makes_one_engine_pass_for_all_replicates(monkeypatch, name, replicates):
    calls = []
    original = filterstab.filtering._engine

    def counting(model, priors, observations):
        calls.append((priors.shape, np.shape(observations)))
        return original(model, priors, observations)

    def forbidden(*args, **kwargs):
        raise AssertionError("run_scenario ran a filter or ρ of its own")

    monkeypatch.setattr(filterstab.filtering, "_engine", counting)
    monkeypatch.setattr(filterstab.filtering, "run_filter", forbidden)
    monkeypatch.setattr(filterstab.backward, "_rho_along", forbidden)
    scenario = Scenario(builtin_model(name), horizon=50, replicates=replicates, seed=7)
    run_scenario(scenario)
    d = scenario.model.space.num_states
    # both priors of every replicate, one pass over the 50 observations, and no ρ
    assert calls == [((2, d), (replicates, 50))]


def test_stability_runs_rho_for_replicate_0_only(monkeypatch, tmp_path):
    calls = []
    original = filterstab.backward._rho_along

    def counting(model, theta0, ratio, history):
        calls.append(len(history))
        return original(model, theta0, ratio, history)

    monkeypatch.setattr(filterstab.backward, "_rho_along", counting)
    assert main(["stability", "--scenario", "mixing2", "--horizon", "60", "--replicates", "50",
                 "--output", str(tmp_path / "run.csv")]) == 0
    assert calls == [61]


def test_backward_pass_runs_no_filter(monkeypatch):
    model = builtin_model("example11")
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    run = run_filter(model.wrong_prior, [0, 1, 1, 0, 1], model)

    def forbidden(*args, **kwargs):
        raise AssertionError("backward_pass ran a filter step")

    monkeypatch.setattr(filterstab.backward, "filter_step_with_likelihood", forbidden)
    result = backward_pass(model, coeffs, run.densities)
    assert result.oscillations.shape == (5, 4)
    assert result.likelihood_ratios.shape == (6,)
    assert not result.oscillations.flags.writeable
    assert not result.likelihood_ratios.flags.writeable


class TestGaussianUnderflow:
    MEANS = np.array([0.0, 1.0])
    SIGMA = 0.5
    RECORD = [0.3, 25.0, 0.2]

    def model(self):
        return build_model({
            "states": 2,
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "observation": {"type": "gaussian", "means": self.MEANS.tolist(), "sigma": self.SIGMA},
            "nu": [0.7, 0.3],
            "beta": [0.5, 0.5],
        })

    def test_outlier_no_longer_fails(self):
        model = self.model()
        run = run_filter(model.true_prior, self.RECORD, model)
        densities, log_norms = log_domain_filter(model, model.true_prior, self.RECORD)
        assert np.all(np.isfinite(run.densities))
        np.testing.assert_allclose(run.densities @ model.space.weights, 1.0, rtol=1e-15)
        np.testing.assert_allclose(run.densities, densities, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(run.log_normalizers, log_norms, rtol=1e-12)
        # the outlier's density is far below the float range, yet positive
        assert run.log_normalizers[1] < -1000.0

    def test_outlier_matches_the_path_enumeration_oracle(self):
        # the path masses through the outlier are below the float range; the
        # oracle sums them in the log domain
        model = self.model()
        run = run_filter(model.true_prior, self.RECORD, model)
        for n in range(len(self.RECORD) + 1):
            oracle = brute_force_posterior(model, model.true_prior, self.RECORD[:n])
            np.testing.assert_allclose(run.densities[n], oracle.values, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(run.densities[-1], [0.45356, 0.54644], atol=1e-5)

    def test_steps_without_underflow_keep_the_linear_arithmetic(self):
        model = self.model()
        run = run_filter(model.true_prior, self.RECORD, model)
        prefix = run_filter(model.true_prior, self.RECORD[:1], model)
        np.testing.assert_array_equal(run.densities[:2], prefix.densities)
        after, normalizer = filter_step_with_likelihood(
            Density(run.densities[2]), likelihood_rows(model.observation, [self.RECORD[2]])[0],
            model.kernel, model.space,
        )
        np.testing.assert_array_equal(run.densities[3], after.values)
        assert run.log_normalizers[2] == math.log(normalizer)

    def test_likelihood_ratio_through_the_outlier(self):
        model = self.model()
        coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
        pair = run_filter_pair(model, self.RECORD)
        result = backward_pass(model, coeffs, pair.run_wrong.densities)
        marginal = math.exp(pair.run_correct.log_normalizers.sum()
                            - pair.run_wrong.log_normalizers.sum())
        assert result.likelihood_ratios[-1] == pytest.approx(marginal, rel=1e-10)

    def test_nan_observation_still_fails(self):
        model = self.model()
        with pytest.raises(NumericalError, match=r"zero-likelihood observation.*at step 2"):
            run_filter(model.true_prior, [0.3, float("nan")], model)

    def test_finite_alphabet_zero_still_fails(self):
        model = build_model({
            "states": 2,
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.0, 1.0]]},
            "nu": [1.0, 0.0],
            "beta": [0.5, 0.5],
        })
        with pytest.raises(NumericalError, match=r"zero-likelihood observation.*at step 2"):
            run_filter(model.true_prior, [0, 1], model)


def test_backward_pass_rejects_mismatched_shapes():
    model = builtin_model("mixing2")
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    run = run_filter(model.wrong_prior, [0, 1], model)
    with pytest.raises(InvalidModelError, match="dimension mismatch"):
        backward_pass(model, coeffs, run.densities[:, :1])


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.25])
def test_backward_pass_rejects_a_history_that_is_not_finite_and_nonnegative(value):
    # the history is outside input: it fails as invalid before rho reads it
    model = builtin_model("mixing2")
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    history = run_filter(model.wrong_prior, [0, 1, 1], model).densities.copy()
    history[2] = value
    with pytest.raises(InvalidModelError,
                       match="^filter history entries must be finite and nonnegative$"):
        backward_pass(model, coeffs, history)


# ---------------------------------------------------------------------------
# the replicate-batched engine against replicates computed one at a time (see
# `reference.py`)


@pytest.mark.parametrize("replicates", [1, 3])
@pytest.mark.parametrize("scenario", ENGINE_SCENARIOS, ids=list(ENGINE_MODELS))
def test_batched_run_scenario_equals_replicates_run_alone(scenario, replicates):
    scenario = scenario._replace(replicates=replicates)
    model = scenario.model
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    records = run_scenario(scenario)
    assert len(records) == replicates
    for replicate, record in enumerate(records):
        seed = record.trajectory.seed
        assert seed == derive_seed(scenario.seed, replicate)
        alone = reference_trajectory(model, model.true_prior, scenario.horizon, seed)
        np.testing.assert_array_equal(record.trajectory.states, alone.states)
        np.testing.assert_array_equal(record.trajectory.observations, alone.observations)
        correct, log_correct = reference_filter(model, model.true_prior.values, alone.observations)
        wrong, log_wrong = reference_filter(model, model.wrong_prior.values, alone.observations)
        np.testing.assert_array_equal(record.pair.run_correct.densities, correct)
        np.testing.assert_array_equal(record.pair.run_wrong.densities, wrong)
        np.testing.assert_array_equal(record.pair.run_correct.log_normalizers, log_correct)
        np.testing.assert_array_equal(record.pair.run_wrong.log_normalizers, log_wrong)
        tv = np.array([row @ model.space.weights for row in np.abs(correct - wrong)])
        np.testing.assert_array_equal(record.pair.tv, tv)
        oscillations, bounds, ratios = reference_backward(model, coeffs, wrong)
        back = record_rho(model, record)
        np.testing.assert_array_equal(back.oscillations, oscillations)
        np.testing.assert_array_equal(back.likelihood_ratios, ratios)
        assert (back.bounds is None) == (bounds is None)
        if bounds is not None:
            np.testing.assert_array_equal(back.bounds, bounds)
        assert record.decay == decay_rate(tv)
        assert not record.pair.run_correct.densities.flags.writeable


@pytest.mark.parametrize("model", list(ENGINE_MODELS.values()), ids=list(ENGINE_MODELS))
def test_sample_trajectories_equal_scalar_sampler(model):
    seeds = [derive_seed(11, r) for r in range(4)]
    states, observations = sample_trajectories(model, model.true_prior, 400, seeds)
    assert states.shape == (4, 401) and observations.shape == (4, 400)
    for r, seed in enumerate(seeds):
        alone = reference_trajectory(model, model.true_prior, 400, seed)
        np.testing.assert_array_equal(states[r], alone.states)
        np.testing.assert_array_equal(observations[r], alone.observations)
        assert observations.dtype == alone.observations.dtype


def test_sample_trajectories_shortfall_and_zero_atoms():
    model = builtin_model("kaijser")  # zero-probability transitions and symbols
    # an initial law with zero atoms whose mass falls short of one: a fifth
    # of the draws overshoot it and take the last positive atom
    initial = Density([0.3, 0.0, 0.5, 0.0])
    seeds = [derive_seed(3, r) for r in range(60)]
    states, observations = sample_trajectories(model, initial, 5, seeds)
    for r, seed in enumerate(seeds):
        alone = reference_trajectory(model, initial, 5, seed)
        np.testing.assert_array_equal(states[r], alone.states)
        np.testing.assert_array_equal(observations[r], alone.observations)
    assert set(states[:, 0].tolist()) == {0, 2}


@pytest.mark.parametrize("probabilities", [
    [0.5 - 1e-3, 0.5 - 1e-3, 0.0],
    [0.0, 0.3, 0.0, 0.7],
    [0.2, 0.0, 0.0, 0.5, 0.0],
    [1.0],
])
def test_pick_table_equals_scalar_pick(probabilities):
    table = _pick_table(np.array(probabilities))
    picker, drawer = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    for _ in range(3000):
        assert int((drawer.random() < table).argmax()) == picker.pick(probabilities)


@pytest.mark.parametrize("replicates", [1, 3, 20])
@pytest.mark.parametrize("name", ["mixing2", "kaijser"])
def test_one_or_more_seeds_equal_the_reference(name, replicates):
    model = builtin_model(name)
    seeds = [derive_seed(99, r) for r in range(replicates)]
    states, observations = sample_trajectories(model, model.true_prior, 30, seeds)
    for r, seed in enumerate(seeds):
        alone = reference_trajectory(model, model.true_prior, 30, seed)
        np.testing.assert_array_equal(states[r], alone.states)
        np.testing.assert_array_equal(observations[r], alone.observations)
        trajectory = sample_trajectory(model, model.true_prior, 30, seed)
        np.testing.assert_array_equal(trajectory.states, alone.states)
        np.testing.assert_array_equal(trajectory.observations, alone.observations)
        assert trajectory.seed == seed


@pytest.mark.parametrize("replicates", [1, 20])
def test_map_blocks_do_not_change_the_records(monkeypatch, replicates):
    # blocks of 1 to 3 steps, walked in Python (1 record) or gathered (20)
    monkeypatch.setattr(filterstab.simulate, "_MAP_BLOCK", 64)
    model = ENGINE_MODELS["gaussian3"]
    seeds = [derive_seed(4, r) for r in range(replicates)]
    states, observations = sample_trajectories(model, model.true_prior, 50, seeds)
    for r, seed in enumerate(seeds):
        alone = reference_trajectory(model, model.true_prior, 50, seed)
        np.testing.assert_array_equal(states[r], alone.states)
        np.testing.assert_array_equal(observations[r], alone.observations)


@pytest.mark.parametrize("name", ["kaijser", "gaussian3"])
def test_no_seeds_give_empty_records(name):
    model = ENGINE_MODELS[name]
    states, observations = sample_trajectories(model, model.true_prior, 7, [])
    assert states.shape == (0, 8) and states.dtype == np.int64
    assert observations.shape == (0, 7)
    assert observations.dtype == (np.int64 if model.observation.kind == "finite" else float)


@pytest.mark.parametrize("horizon", [0, -3])
def test_short_horizon_fails_before_drawing(monkeypatch, horizon):
    model = builtin_model("mixing2")

    def no_draws(seeds):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(filterstab.simulate, "Xoshiro256StarStarLanes", no_draws)
    message = f"horizon must be at least 1, got {horizon}"
    with pytest.raises(InvalidModelError, match=message):
        sample_trajectories(model, model.true_prior, horizon, [1, 2])
    with pytest.raises(InvalidModelError, match=message):
        sample_trajectory(model, model.true_prior, horizon, 1)


def pair_records(model, records):
    """Both filters on every record in one engine pass: the densities, log
    normalizers and TV gaps."""
    runs = _engine(model, np.stack([model.true_prior.values, model.wrong_prior.values]), records)
    pairs = [_pair_run(correct, wrong, model.space.weights) for correct, wrong in runs]
    densities = np.array([[run.densities for run in filters] for filters in runs])
    log_norms = np.array([[run.log_normalizers for run in filters] for filters in runs])
    return densities, log_norms, np.array([pair.tv for pair in pairs])


def crafted_records(monkeypatch, observations):
    """Make `run_scenario` filter the given records instead of sampled ones."""
    observations = np.asarray(observations)
    states = np.zeros((len(observations), observations.shape[1] + 1), dtype=np.int64)
    monkeypatch.setattr(filterstab.harness, "sample_trajectories",
                        lambda model, initial, horizon, seeds: (states, observations))


def test_gaussian_batch_with_one_underflowing_replicate(monkeypatch):
    model = TestGaussianUnderflow().model()
    tail = [1.0, 0.1, 0.8, 0.4, 0.6]
    records_in = [[0.3, 0.9, 0.2, *tail], [*TestGaussianUnderflow.RECORD, *tail],
                  [1.1, 0.1, 0.4, *tail]]
    crafted_records(monkeypatch, records_in)
    records = run_scenario(Scenario(model=model, horizon=8, replicates=3, seed=1))
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    for record, observations in zip(records, records_in):
        pair = run_filter_pair(model, observations)
        for batched, alone in ((record.pair.run_correct, pair.run_correct),
                               (record.pair.run_wrong, pair.run_wrong)):
            np.testing.assert_array_equal(batched.densities, alone.densities)
            np.testing.assert_array_equal(batched.log_normalizers, alone.log_normalizers)
        np.testing.assert_array_equal(record.pair.tv, pair.tv)
        backward = backward_pass(model, coeffs, pair.run_wrong.densities)
        batched = record_rho(model, record)
        np.testing.assert_array_equal(batched.oscillations, backward.oscillations)
        np.testing.assert_array_equal(batched.bounds, backward.bounds)
        np.testing.assert_array_equal(batched.likelihood_ratios, backward.likelihood_ratios)
    # only the outlier replicate left the linear domain, at its second step
    assert records[1].pair.run_correct.log_normalizers[1] < -1000.0
    for record, observations in zip(records[::2], records_in[::2]):
        correct, log_correct = reference_filter(model, model.true_prior.values, observations)
        np.testing.assert_array_equal(record.pair.run_correct.densities, correct)
        np.testing.assert_array_equal(record.pair.run_correct.log_normalizers, log_correct)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_normalizer_is_redone_in_the_log_domain():
    # a subnormal sigma makes every Gaussian density, hence every normalizer, infinite
    model = build_model({
        "states": 2,
        "transition": [[0.9, 0.1], [0.2, 0.8]],
        "observation": {"type": "gaussian", "means": [0.0, 1.0], "sigma": 1e-310},
        "nu": [0.7, 0.3],
        "beta": [0.5, 0.5],
    })
    run = run_filter(model.true_prior, [0.0, 1.0, 0.0], model)
    np.testing.assert_array_equal(run.densities, [[0.7, 0.3], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert np.all(run.log_normalizers > 700.0) and np.all(np.isfinite(run.log_normalizers))
    records = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    densities, log_norms, tv = pair_records(model, records)
    for r, observations in enumerate(records):
        alone = run_filter_pair(model, observations)
        np.testing.assert_array_equal(densities[r, 1], alone.run_wrong.densities)
        np.testing.assert_array_equal(log_norms[r, 0], alone.run_correct.log_normalizers)
        np.testing.assert_array_equal(tv[r], alone.tv)


class TestErrorPrecedence:
    """When filters fail, `run_scenario` raises what running them one after
    another raised: the lowest failing replicate's first filter error. It
    runs no ρ, so a replicate's ρ error is raised by `backward_pass` along it."""

    # state 1 always returns to 0 and each state reads out its own index, so
    # a record is the state path; the true prior starts in state 1
    MODEL = build_model({
        "states": 2,
        "transition": [[0.5, 0.5], [1.0, 0.0]],
        "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.0, 1.0]]},
        "nu": [0.0, 1.0],
        "beta": [0.5, 0.5],
    })
    VALID = [0, 0, 0]
    BOTH_FAIL_AT_3 = [0, 1, 1]         # 1 -> 1 is impossible for either prior
    CORRECT_FAILS_AT_1 = [1, 0, 0]     # 1 -> 1 is impossible from the true start
    BACKWARD_FAILS = [0, 1, 0]         # filters fine; after state 1 a state has no mass

    def run(self, monkeypatch, observations):
        crafted_records(monkeypatch, observations)
        scenario = Scenario(model=self.MODEL, horizon=3,
                            replicates=len(observations), seed=1)
        with pytest.warns(RuntimeWarning, match="zero atoms"):
            return run_scenario(scenario)

    def alone(self, observations):
        """The error of one replicate run by itself, stage by stage."""
        model = self.MODEL
        with pytest.warns(RuntimeWarning, match="zero atoms"):
            with pytest.raises((NumericalError, InvalidModelError)) as caught:
                pair = run_filter_pair(model, observations)
                coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
                backward_pass(model, coeffs, pair.run_wrong.densities)
        return caught.value

    def test_lowest_replicate_wins_over_an_earlier_step(self, monkeypatch):
        expected = self.alone(self.BOTH_FAIL_AT_3)
        assert str(expected).endswith("(at step 3)")
        with pytest.raises(NumericalError) as caught:
            self.run(monkeypatch, [self.VALID, self.BOTH_FAIL_AT_3, self.CORRECT_FAILS_AT_1])
        assert str(caught.value) == str(expected)

    def test_a_later_replicate_filter_wins_over_a_backward_failure(self, monkeypatch):
        # the filters of every replicate run before any ρ
        expected = self.alone(self.BACKWARD_FAILS)
        assert "zero predicted mass" in str(expected)
        with pytest.raises(NumericalError, match=r"at step 1\)$"):
            self.run(monkeypatch, [self.VALID, self.BACKWARD_FAILS, self.CORRECT_FAILS_AT_1])
        records = self.run(monkeypatch, [self.VALID, self.BACKWARD_FAILS, self.VALID])
        with pytest.raises(NumericalError) as caught:
            record_rho(self.MODEL, records[1])
        assert str(caught.value) == str(expected)
        # the other replicates run their ρ as before
        np.testing.assert_array_equal(record_rho(self.MODEL, records[2]).likelihood_ratios,
                                      record_rho(self.MODEL, records[0]).likelihood_ratios)

    def test_first_replicate_failing_at_step_one(self, monkeypatch):
        with pytest.raises(NumericalError, match=r"at step 1\)$"):
            self.run(monkeypatch, [self.CORRECT_FAILS_AT_1, self.BOTH_FAIL_AT_3])

    def test_correct_prior_error_precedes_wrong_prior_error(self):
        # on [1, 1, 0] the prior on both states fails at step 2 and the true
        # prior, on state 1, at step 1: the engine raises the first prior's error
        model = self.MODEL
        true, wrong = model.true_prior.values, model.wrong_prior.values
        for priors, step in (((true, wrong), 1), ((wrong, true), 2)):
            with pytest.raises(NumericalError, match=rf"\(at step {step}\)$"):
                _engine(model, np.stack(priors), [[1, 1, 0]])
        # and the lowest record's error, though a later record fails sooner
        with pytest.raises(NumericalError, match=r"\(at step 3\)$"):
            pair_records(model, np.array([self.VALID, self.BOTH_FAIL_AT_3,
                                          self.CORRECT_FAILS_AT_1]))

    def test_valid_replicates_alone_pass(self, monkeypatch):
        records = self.run(monkeypatch, [self.VALID, self.VALID])
        assert [r.pair.tv[-1] for r in records] == [0.0, 0.0]
