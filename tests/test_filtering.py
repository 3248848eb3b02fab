import math

import numpy as np
import pytest

from filterstab import (
    Density,
    InvalidModelError,
    NumericalError,
    Scenario,
    as_kernel,
    build_model,
    decay_rate,
    filter_step_with_likelihood,
    invariant_density,
    builtin_model,
    likelihood_rows,
    run_filter,
    run_filter_pair,
    run_scenario,
    sample_trajectory,
    unit_space,
)
from filterstab.filtering import TV_FLOOR
from helpers import point_mass, random_positive_model, uniform_density
from reference import brute_force_posterior, kaijser_filter_recursion

TWO_STATE = [[0.5, 0.5], [0.3, 0.7]]


def two_state_model():
    return build_model({
        "states": 2,
        "transition": TWO_STATE,
        "observation": {"type": "finite", "gamma": [[0.8, 0.2], [0.2, 0.8]]},
        "nu": [0.9, 0.1],
        "beta": [0.5, 0.5],
    })


class TestPredict:
    def test_invariant_density_is_fixed_point(self):
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        out, _ = filter_step_with_likelihood(m, np.ones(2), model.kernel, model.space)
        np.testing.assert_allclose(out.values, m.values, atol=1e-14)

    def test_doubly_stochastic_preserves_uniform(self):
        model = builtin_model("kaijser")
        # column sums of the transition matrix are 1 (checked by brute force),
        # so the uniform density is invariant under prediction
        np.testing.assert_allclose(model.kernel.matrix.sum(axis=0), 1.0)
        out, _ = filter_step_with_likelihood(
            uniform_density(model.space), np.ones(4), model.kernel, model.space
        )
        np.testing.assert_allclose(out.values, 0.25, atol=1e-15)

    def test_point_mass_reads_off_row(self):
        space = unit_space(2)
        kernel = as_kernel(TWO_STATE, space)
        out, _ = filter_step_with_likelihood(point_mass(0, space), np.ones(2), kernel, space)
        np.testing.assert_allclose(out.values, [0.5, 0.5], atol=1e-15)


class TestFilterStep:
    def test_kaijser_uniform_prior_symbol_one(self):
        model = builtin_model("kaijser")
        posterior, _ = filter_step_with_likelihood(
            uniform_density(model.space), likelihood_rows(model.observation, [1])[0],
            model.kernel, model.space,
        )
        np.testing.assert_allclose(posterior.values, [0.5, 0.0, 0.5, 0.0], atol=1e-15)

    def test_constant_likelihood_reduces_to_prediction(self):
        model = random_positive_model(4, 3)
        pi = model.true_prior
        lik = np.full(3, 0.7)
        posterior, _ = filter_step_with_likelihood(pi, lik, model.kernel, model.space)
        predicted = model.kernel.matrix.T @ (pi.values * model.space.weights)
        np.testing.assert_allclose(posterior.values, predicted, atol=1e-14)

    def test_single_state(self):
        model = build_model({
            "states": 1,
            "transition": [[1.0]],
            "observation": {"type": "finite", "gamma": [[0.4, 0.6]]},
            "nu": [1.0],
            "beta": [1.0],
        })
        posterior, _ = filter_step_with_likelihood(
            Density([1.0]), likelihood_rows(model.observation, [1])[0], model.kernel, model.space
        )
        np.testing.assert_allclose(posterior.values, [1.0])

    def test_likelihood_scaling_invariance(self):
        model = random_positive_model(8, 4)
        pi = model.true_prior
        lik = np.array([0.3, 0.1, 0.9, 0.2])
        base, _ = filter_step_with_likelihood(pi, lik, model.kernel, model.space)
        scaled, _ = filter_step_with_likelihood(pi, 7.3e5 * lik, model.kernel, model.space)
        assert np.abs(base.values - scaled.values).max() <= 1e-14

    def test_zero_likelihood_observation(self):
        # identity dynamics pinned at state 0 cannot emit symbol 1
        model = build_model({
            "states": 2,
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.0, 1.0]]},
            "nu": [1.0, 0.0],
            "beta": [0.5, 0.5],
        })
        with pytest.raises(NumericalError, match="zero-likelihood observation"):
            filter_step_with_likelihood(
                model.true_prior, likelihood_rows(model.observation, [1])[0],
                model.kernel, model.space,
            )


class TestRunFilter:
    def test_empty_observations(self):
        model = two_state_model()
        run = run_filter(model.true_prior, [], model)
        assert len(run.densities) == 1
        np.testing.assert_array_equal(run.densities[0], model.true_prior.values)

    def test_kaijser_support_alternates_with_observations(self):
        model = builtin_model("kaijser")
        t = sample_trajectory(model, model.true_prior, 200, seed=2)
        run = run_filter(uniform_density(model.space), t.observations, model)
        for y, pi in zip(t.observations, run.densities[1:]):
            support = np.nonzero(pi)[0]
            expected = (0, 2) if y == 1 else (1, 3)
            assert set(support).issubset(expected)

    def test_kaijser_matches_explicit_recursion(self):
        model = builtin_model("kaijser")
        t = sample_trajectory(model, model.true_prior, 300, seed=21)
        run = run_filter(model.true_prior, t.observations, model)
        expected = kaijser_filter_recursion(model.true_prior.values, t.observations)
        actual = run.densities
        assert np.abs(actual - expected).max() <= 1e-14

    def test_matches_brute_force_gaussian(self):
        model = random_positive_model(77, 2, gaussian=True)
        t = sample_trajectory(model, model.true_prior, 6, seed=77)
        run = run_filter(model.true_prior, t.observations, model)
        for n in range(len(t.observations) + 1):
            oracle = brute_force_posterior(model, model.true_prior, t.observations[:n])
            np.testing.assert_allclose(
                run.densities[n], oracle.values, atol=1e-10
            )

    def test_error_reports_failing_step(self):
        model = build_model({
            "states": 2,
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.0, 1.0]]},
            "nu": [1.0, 0.0],
            "beta": [0.5, 0.5],
        })
        with pytest.raises(NumericalError, match="at step 3"):
            run_filter(model.true_prior, [0, 0, 1, 0], model)

    def test_normalization_survives_long_runs(self):
        model = two_state_model()
        t = sample_trajectory(model, model.true_prior, 10_000, seed=13)
        run = run_filter(model.true_prior, t.observations, model)
        masses = np.array([
            pi @ model.space.weights for pi in run.densities
        ])
        assert np.abs(masses - 1.0).max() <= 1e-10


class TestRunFilterPair:
    def test_identical_priors_have_zero_gap(self):
        model = two_state_model()
        t = sample_trajectory(model, model.true_prior, 100, seed=1)
        pair = run_filter_pair(model._replace(wrong_prior=model.true_prior), t.observations)
        assert pair.tv.max() == 0.0

    def test_kaijser_gap_is_constant_and_floored(self):
        model = builtin_model("kaijser")
        t = sample_trajectory(model, model.true_prior, 3000, seed=4)
        pair = run_filter_pair(model, t.observations)
        assert np.abs(pair.tv[1:] - pair.tv[1]).max() <= 1e-12
        assert pair.tv[1:].min() >= 0.2 - 1e-12

    def test_mixing_pair_forgets_the_prior(self):
        model = two_state_model()
        t = sample_trajectory(model, model.true_prior, 200, seed=5)
        pair = run_filter_pair(model, t.observations)
        assert pair.tv[0] > 0.1
        assert pair.tv[-1] <= 1e-12

    @staticmethod
    def _frozen_pair(nu, beta, psi=None):
        """Both filters of a model whose state never moves and whose one
        symbol carries no information, so each keeps its prior."""
        d = len(nu)
        document = {
            "states": d,
            "transition": (np.diag(1.0 / np.asarray(psi or [1.0] * d))).tolist(),
            "observation": {"type": "finite", "gamma": [[1.0]] * d},
            "nu": nu,
            "beta": beta,
        }
        if psi is not None:
            document["psi"] = psi
        model = build_model(document)
        return run_filter_pair(model, [0] * 5)

    def test_tv_is_the_hand_sum_of_the_gap(self):
        pair = self._frozen_pair([0.4, 0.4, 0.1, 0.1], [0.25] * 4)
        np.testing.assert_allclose(pair.tv, 0.6, rtol=0, atol=1e-15)

    def test_tv_is_the_probability_gap_under_state_weights(self):
        # probabilities (0.5, 0.3, 0.1, 0.1) against uniform, as densities on psi:
        # the gap of the atoms' masses is 0.6; the unweighted density gap is 0.775
        pair = self._frozen_pair([0.25, 0.3, 0.2, 0.2], [0.125, 0.25, 0.5, 0.5],
                                 psi=[2.0, 1.0, 0.5, 0.5])
        np.testing.assert_allclose(pair.tv, 0.6, rtol=0, atol=1e-15)

    def test_zero_atom_wrong_prior_rejected(self):
        model = builtin_model("kaijser")
        bad = Density([0.5, 0.5, 0.0, 0.0])
        # the model itself refuses it, so no filter pair can start from it
        with pytest.raises(InvalidModelError, match="beta not bounded below"):
            model._replace(wrong_prior=bad)

    def test_zero_atom_true_prior_warns(self):
        model = builtin_model("kaijser")
        spiky = Density([1.0, 0.0, 0.0, 0.0])
        with pytest.warns(RuntimeWarning, match="zero atoms"):
            run_filter_pair(model._replace(true_prior=spiky), [1, 0, 0])

    def test_zero_atom_warning_names_the_caller(self):
        model = builtin_model("kaijser", true_prior=[1.0, 0.0, 0.0, 0.0])
        with pytest.warns(RuntimeWarning, match="zero atoms") as caught:
            run_filter_pair(model, [1, 0, 0])
            run_scenario(Scenario(model=model, horizon=3, replicates=2, seed=1))
        assert [w.filename for w in caught] == [__file__] * 2


class TestDecayRate:
    def test_exact_exponential(self):
        tv = np.exp(-0.5 * np.arange(200))
        est = decay_rate(tv)
        assert not est.converged
        assert est.slope == pytest.approx(-0.5, abs=1e-9)

    def test_constant_sequence(self):
        est = decay_rate(np.full(500, 0.2))
        assert est.slope == pytest.approx(0.0, abs=1e-9)

    def test_collapsed_window_reports_converged(self):
        tv = np.concatenate([np.exp(-2.0 * np.arange(10)), np.zeros(100)])
        est = decay_rate(tv)
        assert est.converged
        assert est.slope == -math.inf

    @pytest.mark.parametrize("usable", [1, 2, 5])
    def test_gap_that_collapses_inside_the_window_reports_converged(self, usable):
        # the window is steps 5..10; its first `usable` entries lie above the
        # floor and the rest are 0, so the gap has collapsed however many remain
        tv = np.concatenate([np.exp(-2.0 * np.arange(5 + usable)), np.zeros(6 - usable)])
        est = decay_rate(tv)
        assert est.converged
        assert est.slope == -math.inf

    def test_last_entry_just_under_the_floor_has_collapsed(self):
        est = decay_rate([1e-3, 1e-250, 1e-279, 0.5 * TV_FLOOR])
        assert est.converged and est.slope == -math.inf

    def test_one_usable_point_at_the_end_is_insufficient(self):
        with pytest.raises(NumericalError, match="insufficient data"):
            decay_rate([0.5, 0.0, 0.0, 0.0, 1e-3])

    def test_insufficient_data(self):
        with pytest.raises(NumericalError, match="insufficient data"):
            decay_rate([0.5])

    def test_window_fraction_validation(self):
        with pytest.raises(InvalidModelError):
            decay_rate([0.5, 0.4], window_fraction=0.0)
        with pytest.raises(InvalidModelError):
            decay_rate([], window_fraction=0.5)


class TestBruteForcePosterior:
    def test_no_observations_returns_prior(self):
        model = two_state_model()
        out = brute_force_posterior(model, model.true_prior, [])
        np.testing.assert_allclose(out.values, model.true_prior.values, atol=1e-15)

    def test_uninformative_likelihood_is_prediction(self):
        model = build_model({
            "states": 2,
            "transition": TWO_STATE,
            "observation": {"type": "finite", "gamma": [[0.5, 0.5], [0.5, 0.5]]},
            "nu": [0.9, 0.1],
            "beta": [0.5, 0.5],
        })
        out = brute_force_posterior(model, model.true_prior, [1])
        predicted, _ = filter_step_with_likelihood(
            model.true_prior, np.ones(2), model.kernel, model.space
        )
        np.testing.assert_allclose(out.values, predicted.values, atol=1e-14)

    def test_instance_too_large(self):
        model = random_positive_model(3, 3)
        with pytest.raises(InvalidModelError, match="instance too large"):
            brute_force_posterior(model, model.true_prior, list(np.zeros(20, dtype=int)))

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_equivalence_random_models(self, seed):
        d = 2 + seed % 2
        model = random_positive_model(200 + seed, d)
        t = sample_trajectory(model, model.true_prior, 5, seed=seed)
        run = run_filter(model.true_prior, t.observations, model)
        for n in range(len(t.observations) + 1):
            oracle = brute_force_posterior(model, model.true_prior, t.observations[:n])
            assert np.abs(run.densities[n] - oracle.values).max() <= 1e-10
