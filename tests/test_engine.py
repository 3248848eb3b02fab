"""The batch replicate engine against the incremental per-step API.

`run_scenario` folds each filter over a whole record on plain arrays and
replays the backward density along the wrong-prior run
(`backward_pass`); `filter_step_with_likelihood` and `BackwardContext`
advance one observation at a time. Both share their arithmetic, so every
array must agree exactly, not just to a tolerance.
"""

import math

import numpy as np
import pytest

import filterstab.backward
import filterstab.filtering
from filterstab import (
    BackwardContext,
    Density,
    InvalidModelError,
    NumericalError,
    SCENARIO_NAMES,
    Scenario,
    backward_pass,
    build_model,
    builtin_scenario,
    filter_step_with_likelihood,
    invariant_density,
    kaijser_verify,
    likelihood_vector,
    mixing_coefficients,
    run_filter,
    run_filter_pair,
    run_scenario,
    tv_norm,
)
from filterstab.harness import KAIJSER_TRUE_PRIOR, _verify_kaijser_on
from helpers import random_positive_model

ENGINE_SCENARIOS = [
    *(builtin_scenario(name, horizon=300, replicates=2, seed=5) for name in SCENARIO_NAMES),
    Scenario(name="gaussian3", model=random_positive_model(91, 3, gaussian=True),
             horizon=300, replicates=2, seed=5),
]


def incremental_filter(model, prior, observations):
    pi = prior
    densities = [prior.values]
    log_norms = []
    for y in observations:
        lik = likelihood_vector(model.observation, y)
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


@pytest.mark.parametrize("scenario", ENGINE_SCENARIOS, ids=lambda s: s.name)
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
        tv = [tv_norm(Density(p), Density(q), model.space) for p, q in zip(correct, wrong)]
        np.testing.assert_array_equal(record.pair.tv, tv)

        oscillations, bounds, ratios = incremental_backward(model, coeffs, obs, prior_ratio)
        np.testing.assert_array_equal(record.oscillations, oscillations)
        np.testing.assert_array_equal(record.likelihood_ratios, ratios)
        if record.bounds_vacuous:
            assert record.oscillation_bounds is None
            assert all(b is None for b in bounds)
        else:
            np.testing.assert_array_equal(record.oscillation_bounds, np.array(bounds))


def test_kaijser_report_with_reused_pair_equals_recomputed():
    scenario = builtin_scenario("kaijser", horizon=400, replicates=2, seed=13)
    model = scenario.model
    for record in run_scenario(scenario):
        # the priors the builtin scenario is built from
        recomputed = kaijser_verify(KAIJSER_TRUE_PRIOR, (0.25,) * 4, scenario.horizon, record.seed)
        assert record.kaijser == recomputed
        fresh = run_filter_pair(model.true_prior, model.wrong_prior,
                                record.trajectory.observations, model)
        assert _verify_kaijser_on(model, record.trajectory.observations, fresh) == record.kaijser


@pytest.mark.parametrize("name,replicates", [("mixing2", 3), ("kaijser", 2)])
def test_run_scenario_makes_two_filter_passes_per_replicate(monkeypatch, name, replicates):
    calls = []
    original = filterstab.filtering.run_filter

    def counting(*args, **kwargs):
        calls.append(kwargs.get("prior_label"))
        return original(*args, **kwargs)

    monkeypatch.setattr(filterstab.filtering, "run_filter", counting)
    run_scenario(builtin_scenario(name, horizon=50, replicates=replicates))
    assert calls == ["correct", "wrong"] * replicates


def test_backward_pass_runs_no_filter(monkeypatch):
    model = builtin_scenario("example11").model
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    run = run_filter(model.wrong_prior, [0, 1, 1, 0, 1], model)

    def forbidden(*args, **kwargs):
        raise AssertionError("backward_pass ran a filter step")

    monkeypatch.setattr(filterstab.backward, "filter_step_with_likelihood", forbidden)
    result = backward_pass(model, model.wrong_prior, coeffs, run.densities,
                           model.true_prior.values / model.wrong_prior.values)
    assert result.oscillations.shape == (5, 4)
    assert result.likelihood_ratios.shape == (6,)


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

    def log_domain_filter(self, model, prior, record):
        """Forward filter computed entirely with logsumexp."""
        def logsumexp(a, axis=None):
            top = np.max(a, axis=axis, keepdims=True)
            return np.squeeze(top + np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)),
                              axis=axis)

        w = model.space.weights
        log_step = np.log(model.kernel.matrix * w[None, :])
        log_alpha = np.log(prior.values * w)
        densities, log_norms = [prior.values], []
        for y in record:
            log_pred = logsumexp(log_alpha[:, None] + log_step, axis=0)
            z = (y - self.MEANS) / self.SIGMA
            log_joint = log_pred - 0.5 * z * z - math.log(self.SIGMA * math.sqrt(2.0 * math.pi))
            log_norm = float(logsumexp(log_joint))
            log_alpha = log_joint - log_norm
            densities.append(np.exp(log_alpha) / w)
            log_norms.append(log_norm)
        return np.array(densities), np.array(log_norms)

    def test_outlier_no_longer_fails(self):
        model = self.model()
        run = run_filter(model.true_prior, self.RECORD, model)
        densities, log_norms = self.log_domain_filter(model, model.true_prior, self.RECORD)
        assert np.all(np.isfinite(run.densities))
        np.testing.assert_allclose(run.densities @ model.space.weights, 1.0, rtol=1e-15)
        np.testing.assert_allclose(run.densities, densities, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(run.log_normalizers, log_norms, rtol=1e-12)
        # the outlier's density is far below the float range, yet positive
        assert run.log_normalizers[1] < -1000.0

    def test_steps_without_underflow_keep_the_linear_arithmetic(self):
        model = self.model()
        run = run_filter(model.true_prior, self.RECORD, model)
        prefix = run_filter(model.true_prior, self.RECORD[:1], model)
        np.testing.assert_array_equal(run.densities[:2], prefix.densities)
        after, normalizer = filter_step_with_likelihood(
            Density(run.densities[2]), likelihood_vector(model.observation, self.RECORD[2]),
            model.kernel, model.space,
        )
        np.testing.assert_array_equal(run.densities[3], after.values)
        assert run.log_normalizers[2] == math.log(normalizer)

    def test_likelihood_ratio_through_the_outlier(self):
        model = self.model()
        coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
        pair = run_filter_pair(model.true_prior, model.wrong_prior, self.RECORD, model)
        prior_ratio = model.true_prior.values / model.wrong_prior.values
        result = backward_pass(model, model.wrong_prior, coeffs, pair.run_wrong.densities,
                               prior_ratio)
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
    model = builtin_scenario("mixing2").model
    coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
    run = run_filter(model.wrong_prior, [0, 1], model)
    with pytest.raises(InvalidModelError, match="dimension mismatch"):
        backward_pass(model, model.wrong_prior, coeffs, run.densities[:, :1], np.ones(2))
    with pytest.raises(InvalidModelError, match="dimension mismatch"):
        backward_pass(model, model.wrong_prior, coeffs, run.densities, np.ones(3))
