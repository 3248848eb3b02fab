import math
from itertools import product

import numpy as np
import pytest

from filterstab import (
    BackwardContext,
    Density,
    InvalidModelError,
    NumericalError,
    backward_pass,
    build_model,
    invariant_density,
    builtin_model,
    likelihood_rows,
    mixing_coefficients,
    run_filter,
    sample_trajectory,
)
from filterstab.model import row_minima
from helpers import (
    RHO_OVERFLOWS_AT_STEP_1,
    random_positive_model,
    rho_three_ways,
    uniform_density,
)
from reference import (
    brute_force_backward,
    change_of_measure_residual,
    stationary_backward_sequence,
)


def single_state_model():
    return build_model({
        "states": 1,
        "transition": [[1.0]],
        "observation": {"type": "finite", "gamma": [[0.4, 0.6]]},
        "nu": [1.0],
        "beta": [1.0],
    })


def uninformative_model(d, transition):
    return build_model({
        "states": d,
        "transition": transition,
        "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * d},
        "nu": [1.0 / d] * d,
        "beta": [1.0 / d] * d,
    })


def brute_force_prior_ratio_expectation(model, theta0, ratio, observations):
    """Path-enumeration oracle for E(ratio(X_0) | observations) under theta0."""
    d = model.space.num_states
    weights = model.space.weights
    matrix = model.kernel.matrix
    liks = [likelihood_rows(model.observation, [y])[0] for y in observations]
    num = 0.0
    den = 0.0
    for path in product(range(d), repeat=len(observations) + 1):
        w = theta0.values[path[0]] * weights[path[0]]
        for k in range(1, len(path)):
            w *= matrix[path[k - 1], path[k]] * weights[path[k]] * liks[k - 1][path[k]]
        num += ratio[path[0]] * w
        den += w
    return num / den


def first_step(model, theta0, y=0):
    """The backward density after one observation, which does not depend on it."""
    ctx = BackwardContext(model, theta0)
    ctx.step(y)
    return ctx.rho


class TestBackwardInit:
    def test_kaijser_uniform_prior_gives_kernel_columns(self):
        model = builtin_model("kaijser")
        for y in (0, 1):
            rho = first_step(model, uniform_density(model.space), y)
            np.testing.assert_allclose(rho, model.kernel.matrix, atol=1e-15)
            np.testing.assert_allclose(rho[:, 0], [0.5, 0.0, 0.0, 0.5], atol=1e-15)

    def test_single_state(self):
        model = single_state_model()
        rho = first_step(model, Density([1.0]))
        np.testing.assert_allclose(rho, [[1.0]])

    def test_two_state_invariant_prior_matches_stationary_recursion(self):
        model = build_model({
            "states": 2,
            "transition": [[0.5, 0.5], [0.3, 0.7]],
            "observation": {"type": "finite", "gamma": [[0.8, 0.2], [0.2, 0.8]]},
            "nu": [0.9, 0.1],
            "beta": [0.5, 0.5],
        })
        m = invariant_density(model.kernel, model.space)
        rho = first_step(model, m)
        q1 = next(iter(stationary_backward_sequence(model, m, 1)))
        np.testing.assert_allclose(rho, q1.matrix, atol=1e-14)
        np.testing.assert_allclose(rho[:, 0], [0.5, 0.5], atol=1e-14)

    def test_requires_strictly_positive_prior(self):
        model = builtin_model("kaijser")
        with pytest.raises(InvalidModelError, match="strictly positive"):
            BackwardContext(model, Density([0.5, 0.5, 0.0, 0.0]))

    def test_unreachable_state(self):
        model = build_model({
            "states": 2,
            "transition": [[1.0, 0.0], [1.0, 0.0]],
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 2},
            "nu": [0.5, 0.5],
            "beta": [0.5, 0.5],
        })
        ctx = BackwardContext(model, model.wrong_prior)
        with pytest.raises(NumericalError, match="unreachable"):
            ctx.step(0)
        assert ctx.rho is None

    def test_rho_is_a_read_only_square_array(self):
        model = random_positive_model(7, 3)
        rho = first_step(model, model.wrong_prior)
        assert isinstance(rho, np.ndarray) and rho.shape == (3, 3)
        with pytest.raises(ValueError):
            rho[0, 0] = 0.5


class TestBackwardStep:
    def test_single_state_stays_trivial(self):
        model = single_state_model()
        ctx = BackwardContext(model, Density([1.0]))
        for y in [0, 1, 1, 0]:
            ctx.step(y)
            np.testing.assert_allclose(ctx.rho, [[1.0]])

    def test_uninformative_observations_reduce_to_stationary_recursion(self):
        transition = [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]
        model = uninformative_model(3, transition)
        m = invariant_density(model.kernel, model.space)
        ctx = BackwardContext(model, m)
        stationary = stationary_backward_sequence(model, m, 8)
        for n, sb in enumerate(stationary, start=1):
            ctx.step(0)
            np.testing.assert_allclose(ctx.rho, sb.matrix, atol=1e-12)
            np.testing.assert_allclose(ctx.law / model.space.weights, m.values, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_path_enumeration(self, seed):
        model = random_positive_model(300 + seed, 3)
        theta0 = model.wrong_prior
        t = sample_trajectory(model, model.true_prior, 6, seed=seed)
        ctx = BackwardContext(model, theta0)
        for n in range(1, 7):
            ctx.step(t.observations[n - 1])
            for x in range(3):
                oracle = brute_force_backward(model, theta0, t.observations[:n], x)
                np.testing.assert_allclose(ctx.rho[:, x], oracle.values, atol=1e-10)

    def test_columns_stay_stochastic_on_long_runs(self):
        model = random_positive_model(42, 2)
        t = sample_trajectory(model, model.true_prior, 10_000, seed=42)
        ctx = BackwardContext(model, model.wrong_prior)
        for y in t.observations:
            ctx.step(y)
        column_mass = model.space.weights @ ctx.rho
        assert np.abs(column_mass - 1.0).max() <= 1e-10

    def test_failed_step_leaves_the_context_unchanged(self):
        model = build_model({
            "states": 2,
            "transition": [[0.5, 0.5], [0.5, 0.5]],
            "observation": {"type": "finite", "gamma": [[1.0, 0.0], [1.0, 0.0]]},
            "nu": [0.5, 0.5],
            "beta": [0.5, 0.5],
        })
        ctx = BackwardContext(model, model.wrong_prior)
        ctx.step(0)
        rho, law, exponent_sum = ctx.rho, ctx.law, ctx.exponent_sum
        with pytest.raises(NumericalError, match="zero-likelihood"):
            ctx.step(1)
        assert ctx.rho.tobytes() == rho.tobytes()
        assert ctx.law is law and ctx.exponent_sum == exponent_sum

    def test_a_tiny_density_on_a_huge_weight_keeps_its_rho(self):
        # one state of weight 7.6e299 and density 1.3e-300: its probabilities
        # are about 1, so ρ is the density 1 / weight, though a product of the
        # density and the density underflows
        weight = 7.564873388636578e299
        model = build_model({
            "states": 1, "psi": [weight],
            "transition": [[1.3218991893534264e-300]],
            "observation": {"type": "finite", "gamma": [[1.0]]},
            "nu": [1.3218991893534264e-300], "beta": [1.3218991893534264e-300],
        })
        ctx = BackwardContext(model, model.wrong_prior)
        ctx.step(0)
        assert ctx.rho.tolist() == [[1.0 / weight]]
        run = run_filter(model.wrong_prior, [0, 0], model)
        back = backward_pass(model, None, run.probabilities)
        assert back.oscillations.tolist() == [[0.0], [0.0]]
        assert back.likelihood_ratios.tolist() == [1.0, 1.0, 1.0]


class TestFailureRule:
    """ρ fails at its first failing step, after the run's constants, with the
    step named, in `backward_pass`, `BackwardContext` and the reference loop
    alike."""

    def test_the_first_failing_step_is_named_on_every_history(self):
        # ρ leaves the float range at step 1, and a state has zero predicted
        # mass at step 2 of this record
        model = build_model(RHO_OVERFLOWS_AT_STEP_1)
        record = sample_trajectory(model, model.true_prior, 60, 902602949).observations
        expected = "backward density leaves the float range: an entry is inf or nan (at step 1)"
        for n in (1, 2, 60):
            assert rho_three_ways(model, None, record[:n]) == [expected] * 3

    def test_a_huge_prior_ratio_on_a_huge_weight_keeps_a_finite_ratio(self):
        # the prior ratio of state 0 is 1e299, and times its weight 1e10 it would
        # be inf; ρ's laws never take that product, and the uninformative
        # channel keeps every likelihood ratio at 1
        model = build_model({
            "states": 2, "psi": [1e10, 1.0], "transition": [[1e-10, 0.0], [5e-11, 0.5]],
            "observation": {"type": "finite", "gamma": [[0.5, 0.5], [0.5, 0.5]]},
            "nu": [1e-11, 0.9], "beta": [1e-310, 1.0],
        })
        along, stepped, plain = rho_three_ways(model, None, [0, 1, 0])
        assert along == stepped == plain
        np.testing.assert_allclose(np.frombuffer(along[2]), 1.0, rtol=1e-15)

    def test_the_ratio_of_step_0_is_read_before_step_1_fails(self):
        # nu / beta of state 0 rounds up to near the float maximum, and times the
        # law beta * psi it is finite; state 0 is unreachable in one step
        top = 1.7976931348623157e308
        model = build_model({
            "states": 2, "psi": [5e-309, 1.0], "transition": [[0.0, 1.0], [0.0, 1.0]],
            "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.5, 0.5]]},
            "nu": [top, 1.0 - top * 5e-309], "beta": [3.0, 1.0 - 1.5e-308],
        })
        along, stepped, plain = rho_three_ways(model, None, [])
        assert along == stepped == plain and np.frombuffer(along[2]).tolist() == [1.0]
        expected = "state unreachable in one step: conditioning event has probability 0"
        for observations in ([1], [1, 0]):
            assert rho_three_ways(model, None, observations) == [expected] * 3

    def test_the_envelope_scale_fails_before_rho(self):
        # theta_min * mixing coefficient underflows, before ρ's first step
        model = build_model({
            "states": 1, "psi": [7.564873388636578e299], "transition": [[1.3218991893534264e-300]],
            "observation": {"type": "finite", "gamma": [[1.0]]},
            "nu": [1.3218991893534264e-300], "beta": [1.3218991893534264e-300],
        })
        coeffs = mixing_coefficients(model, model.wrong_prior)
        expected = ("envelope scale underflows: theta_min * mixing coefficient = "
                    "1.3218991893534264e-300 * 1.3218991893534264e-300 rounds to 0")
        assert rho_three_ways(model, coeffs, [0, 0]) == [expected] * 3

    def test_a_record_needs_a_step(self):
        model = random_positive_model(7, 3)
        with pytest.raises(NumericalError, match="^no observations consumed yet$"):
            BackwardContext(model, model.wrong_prior).record


class TestOscillation:
    def test_identical_columns_have_zero_spread(self):
        # under a rank-one kernel the current state says nothing about the
        # initial one, so every column of rho_1 is the prior itself
        model = uninformative_model(2, [[0.3, 0.7], [0.3, 0.7]])
        ctx = BackwardContext(model, Density([0.2, 0.8]))
        ctx.step(0)
        np.testing.assert_allclose(ctx.rho, [[0.2, 0.2], [0.8, 0.8]], atol=1e-15)
        np.testing.assert_allclose(ctx.record.oscillation, 0.0, atol=1e-15)

    def test_kaijser_first_step_spread(self):
        model = builtin_model("kaijser")
        ctx = BackwardContext(model, uniform_density(model.space))
        ctx.step(1)
        assert ctx.record.oscillation[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(34))
    def test_stepwise_contraction_inequality(self, d, seed):
        # the spread shrinks at least by the filter-averaged row-minimum factor
        model = random_positive_model(1000 * d + seed, d)
        coeffs = mixing_coefficients(model, invariant_density(model.kernel, model.space))
        mins = row_minima(model.kernel)
        t = sample_trajectory(model, model.true_prior, 12, seed=seed)
        ctx = BackwardContext(model, model.wrong_prior)
        prev_spread = None
        prev_law = ctx.law
        for y in t.observations:
            ctx.step(y)
            spread = ctx.record.oscillation
            if prev_spread is not None:
                factor = 1.0 - float(prev_law @ mins) / coeffs.max_density
                assert np.all(spread <= prev_spread * factor + 1e-14)
            prev_spread = spread
            prev_law = ctx.law


class TestOscillationBound:
    def test_first_step_bound_is_prefactor_times_prior(self):
        model = random_positive_model(5, 3)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        theta0 = model.wrong_prior
        run = run_filter(theta0, [0], model)
        bounds = backward_pass(model, coeffs, run.probabilities).bounds
        assert bounds is not None
        theta_min = theta0.values.min()
        expected = coeffs.max_density**2 / (theta_min * coeffs.mixing_coefficient) * theta0.values
        np.testing.assert_allclose(bounds[0], expected, rtol=1e-12)

    def test_uniform_kernel_closed_form(self):
        # with a rank-one kernel every coefficient equals 1/d and the exponent
        # increments by 1 per step regardless of the filter, so
        # bound_n(u) = (1/d) * exp(-(n - 1))
        d = 3
        model = uninformative_model(d, np.full((d, d), 1.0 / d).tolist())
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        theta0 = uniform_density(model.space)
        run = run_filter(theta0, [0, 1, 0, 1, 1, 0], model)
        bounds = backward_pass(model._replace(wrong_prior=theta0), coeffs, run.probabilities).bounds
        assert bounds is not None
        for n in range(1, 7):
            np.testing.assert_allclose(
                bounds[n - 1], (1.0 / d) * math.exp(-(n - 1)), rtol=1e-12
            )

    def test_kaijser_bound_is_vacuous(self):
        model = builtin_model("kaijser")
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        run = run_filter(model.wrong_prior, [1, 0, 1], model)
        back = backward_pass(model, coeffs, run.probabilities)
        assert back.bounds is None
        assert back.oscillations.shape == (3, 4)

    @pytest.mark.parametrize("seed", range(25))
    def test_bound_dominates_oscillation(self, seed):
        d = 2 + seed % 3
        model = random_positive_model(4000 + seed, d)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        t = sample_trajectory(model, model.true_prior, 40, seed=seed)
        ctx = BackwardContext(model, model.wrong_prior, coeffs)
        laws = [ctx.law]
        for y in t.observations:
            ctx.step(y)
            laws.append(ctx.law)
            rec = ctx.record
            assert not rec.bound_vacuous
            assert np.all(rec.oscillation <= rec.bound + 1e-12)
        # the incremental context agrees with the pass over the law history
        bounds = backward_pass(model, coeffs, np.array(laws)).bounds
        np.testing.assert_allclose(bounds[-1], ctx.record.bound, rtol=1e-12)


class TestLikelihoodRatio:
    def test_equal_priors_give_unity(self):
        model = random_positive_model(11, 3)
        t = sample_trajectory(model, model.true_prior, 30, seed=3)
        ctx = BackwardContext(model, model.wrong_prior)
        ratio = np.ones(3)
        for y in t.observations:
            ctx.step(y)
        assert ctx.likelihood_ratio(ratio) == pytest.approx(1.0, abs=1e-12)

    def test_no_observations_convention(self):
        model = random_positive_model(12, 3)
        ratio = model.true_prior.values / model.wrong_prior.values
        ctx = BackwardContext(model, model.wrong_prior)
        assert ctx.likelihood_ratio(ratio) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_path_enumeration(self, seed):
        model = random_positive_model(600 + seed, 3)
        ratio = model.true_prior.values / model.wrong_prior.values
        t = sample_trajectory(model, model.true_prior, 5, seed=seed)
        ctx = BackwardContext(model, model.wrong_prior)
        for y in t.observations:
            ctx.step(y)
        oracle = brute_force_prior_ratio_expectation(
            model, model.wrong_prior, ratio, t.observations
        )
        assert ctx.likelihood_ratio(ratio) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_marginal_likelihood_ratio(self, seed):
        # independent route: ratio of observation-record likelihoods from the
        # per-step filter normalizers of the two priors
        model = random_positive_model(700 + seed, 3)
        ratio = model.true_prior.values / model.wrong_prior.values
        t = sample_trajectory(model, model.true_prior, 25, seed=seed)
        run_true = run_filter(model.true_prior, t.observations, model)
        run_wrong = run_filter(model.wrong_prior, t.observations, model)
        marginal = math.exp(
            run_true.log_normalizers.sum() - run_wrong.log_normalizers.sum()
        )
        ctx = BackwardContext(model, model.wrong_prior)
        for y in t.observations:
            ctx.step(y)
        assert ctx.likelihood_ratio(ratio) == pytest.approx(marginal, rel=1e-10)

    @pytest.mark.parametrize("entry, text", [(np.inf, "inf"), (np.nan, "nan")])
    def test_a_ratio_out_of_range_names_its_step(self, entry, text):
        model = random_positive_model(13, 2)
        ctx = BackwardContext(model, model.wrong_prior)
        ratio = np.array([entry, 1.0])
        for steps in (0, 3):
            while ctx.steps < steps:
                ctx.step(0)
            expected = (rf"^likelihood ratio must be finite and nonnegative, "
                        rf"got {text} \(at step {steps}\)$")
            with pytest.raises(NumericalError, match=expected):
                ctx.likelihood_ratio(ratio)


class TestChangeOfMeasure:
    def test_equal_priors_zero_residual(self):
        model = random_positive_model(31, 3)
        t = sample_trajectory(model, model.wrong_prior, 10, seed=31)
        run_wrong = run_filter(model.wrong_prior, t.observations, model)
        run_same = run_filter(model.wrong_prior, t.observations, model)
        ctx = BackwardContext(model, model.wrong_prior)
        for y in t.observations:
            ctx.step(y)
        res = change_of_measure_residual(
            run_wrong, run_same, ctx.rho, np.ones(3), model.space
        )
        assert res <= 1e-13

    def test_single_state_zero_residual(self):
        model = single_state_model()
        t = sample_trajectory(model, model.true_prior, 5, seed=2)
        run_a = run_filter(model.wrong_prior, t.observations, model)
        run_b = run_filter(model.true_prior, t.observations, model)
        ctx = BackwardContext(model, model.wrong_prior)
        for y in t.observations:
            ctx.step(y)
        res = change_of_measure_residual(run_a, run_b, ctx.rho, np.ones(1), model.space)
        assert res <= 1e-15

    def test_gaussian_model_residual(self):
        model = random_positive_model(888, 4, gaussian=True)
        t = sample_trajectory(model, model.wrong_prior, 20, seed=888)
        run_wrong = run_filter(model.wrong_prior, t.observations, model)
        run_reference = run_filter(model.true_prior, t.observations, model)
        ctx = BackwardContext(model, model.wrong_prior)
        for y in t.observations:
            ctx.step(y)
        ratio = model.true_prior.values / model.wrong_prior.values
        res = change_of_measure_residual(run_wrong, run_reference, ctx.rho, ratio, model.space)
        assert res <= 1e-9


class TestBruteForceBackward:
    def test_one_step_matches_init(self):
        model = random_positive_model(21, 3)
        theta0 = model.wrong_prior
        t = sample_trajectory(model, model.true_prior, 1, seed=21)
        rho1 = first_step(model, theta0, t.observations[0])
        for x in range(3):
            oracle = brute_force_backward(model, theta0, t.observations[:1], x)
            np.testing.assert_allclose(rho1[:, x], oracle.values, atol=1e-12)

    def test_impossible_conditioning_event(self):
        model = build_model({
            "states": 2,
            "transition": [[1.0, 0.0], [1.0, 0.0]],
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 2},
            "nu": [0.5, 0.5],
            "beta": [0.5, 0.5],
        })
        with pytest.raises(NumericalError, match="probability 0"):
            brute_force_backward(model, model.wrong_prior, [0], 1)

    def test_instance_too_large(self):
        model = random_positive_model(22, 3)
        with pytest.raises(InvalidModelError, match="instance too large"):
            brute_force_backward(model, model.wrong_prior, list(np.zeros(20, dtype=int)), 0)
