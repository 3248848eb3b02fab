import math

import numpy as np
import pytest

from filterstab import (
    InvalidModelError,
    build_model,
    finite_observation,
    gaussian_observation,
    invariant_density,
    builtin_model,
    likelihood_rows,
    primitivity_check,
    sample_trajectory,
)
from helpers import random_positive_model


def single_state_model():
    return build_model({
        "states": 1,
        "transition": [[1.0]],
        "observation": {"type": "finite", "gamma": [[0.4, 0.6]]},
        "nu": [1.0],
        "beta": [1.0],
    })


def two_state_model():
    return build_model({
        "states": 2,
        "transition": [[0.5, 0.5], [0.3, 0.7]],
        "observation": {"type": "finite", "gamma": [[0.8, 0.2], [0.2, 0.8]]},
        "nu": [0.9, 0.1],
        "beta": [0.5, 0.5],
    })


class TestSampleTrajectory:
    def test_single_state(self):
        model = single_state_model()
        t = sample_trajectory(model, model.true_prior, 50, seed=3)
        assert np.all(t.states == 0)
        assert len(t.observations) == 50

    def test_kaijser_observations_are_deterministic_in_state(self):
        model = builtin_model("kaijser")
        t = sample_trajectory(model, model.true_prior, 2000, seed=11)
        expected = np.isin(t.states[1:], (0, 2)).astype(int)
        np.testing.assert_array_equal(t.observations, expected)

    def test_seeded_determinism(self):
        model = two_state_model()
        a = sample_trajectory(model, model.true_prior, 300, seed=5)
        b = sample_trajectory(model, model.true_prior, 300, seed=5)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.observations, b.observations)
        c = sample_trajectory(model, model.true_prior, 300, seed=6)
        assert not np.array_equal(a.states, c.states)

    def test_horizon_validation(self):
        model = two_state_model()
        with pytest.raises(InvalidModelError):
            sample_trajectory(model, model.true_prior, 0, seed=1)

    def test_empirical_frequencies_match_invariant(self):
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        t = sample_trajectory(model, model.true_prior, 100_000, seed=17)
        freq = np.bincount(t.states, minlength=2) / len(t.states)
        np.testing.assert_allclose(freq, m.values * model.space.weights, atol=0.01)

    @pytest.mark.parametrize("seed", range(3))
    def test_ergodic_occupation_law_of_large_numbers(self, seed):
        model = random_positive_model(seed + 50, 3)
        assert primitivity_check(model.kernel) == 1
        m = invariant_density(model.kernel, model.space)
        t = sample_trajectory(model, model.true_prior, 100_000, seed=seed)
        freq = np.bincount(t.states, minlength=3) / len(t.states)
        np.testing.assert_allclose(freq, m.values * model.space.weights, atol=0.02)

    def test_gaussian_observations(self):
        model = random_positive_model(123, 2, gaussian=True)
        t = sample_trajectory(model, model.true_prior, 5000, seed=9)
        assert t.observations.dtype == float
        # observations cluster around the state means
        spread = np.abs(t.observations - model.observation.means[t.states[1:]])
        assert spread.mean() < 3.0 * model.observation.sigma


class TestLikelihoodVector:
    def test_kaijser_symbol_one(self):
        model = builtin_model("kaijser")
        np.testing.assert_array_equal(
            likelihood_rows(model.observation, [1])[0], [1.0, 0.0, 1.0, 0.0]
        )
        np.testing.assert_array_equal(
            likelihood_rows(model.observation, [0])[0], [0.0, 1.0, 0.0, 1.0]
        )

    def test_gaussian_mode_value(self):
        obs = gaussian_observation([0.0, 2.0], sigma=1.0)
        lik = likelihood_rows(obs, [0.0])[0]
        assert lik[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_uniform_rows(self):
        obs = finite_observation(np.full((3, 4), 0.25))
        np.testing.assert_allclose(likelihood_rows(obs, [2])[0], 0.25)

    def test_symbol_out_of_range(self):
        obs = finite_observation([[0.5, 0.5]])
        with pytest.raises(InvalidModelError, match="alphabet"):
            likelihood_rows(obs, [2])
