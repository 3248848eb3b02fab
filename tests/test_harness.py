import numpy as np
import pytest

from filterstab import (
    InvalidModelError,
    Scenario,
    builtin_scenario,
    invariant_density,
    kaijser_closed_form,
    kaijser_constants,
    kaijser_filter_recursion,
    kaijser_model,
    kaijser_verify,
    mixing_coefficients,
    primitivity_check,
    run_filter_pair,
    run_scenario,
    sample_trajectory,
)

AC1_TRUE = (0.5, 0.2, 0.2, 0.1)
UNIFORM4 = (0.25, 0.25, 0.25, 0.25)


class TestKaijserConstants:
    def test_reference_priors(self):
        c = kaijser_constants(AC1_TRUE, UNIFORM4)
        assert c.gap_obs_one == pytest.approx(0.2, abs=1e-12)
        assert c.gap_obs_zero == pytest.approx(0.4, abs=1e-12)
        assert c.floor == pytest.approx(0.2, abs=1e-12)

    def test_cancelling_priors_have_zero_floor(self):
        c = kaijser_constants((0.4, 0.3, 0.2, 0.1), UNIFORM4)
        assert c.gap_obs_one == pytest.approx(0.0, abs=1e-12)
        assert c.floor == pytest.approx(0.0, abs=1e-12)

    def test_equal_priors(self):
        c = kaijser_constants(UNIFORM4, UNIFORM4)
        assert c.gap_obs_one == 0.0
        assert c.gap_obs_zero == 0.0

    def test_wrong_dimension(self):
        with pytest.raises(InvalidModelError, match="wrong dimension"):
            kaijser_constants((0.5, 0.5), (0.5, 0.5))


class TestKaijserClosedForm:
    def test_equal_priors_all_zero(self):
        gaps = kaijser_closed_form(UNIFORM4, UNIFORM4, [1, 0, 1, 1])
        np.testing.assert_array_equal(gaps[1:], 0.0)

    def test_first_step_totals_depend_on_first_symbol(self):
        gaps_one = kaijser_closed_form(AC1_TRUE, UNIFORM4, [1])
        assert gaps_one[1].sum() == pytest.approx(0.2, abs=1e-12)
        gaps_zero = kaijser_closed_form(AC1_TRUE, UNIFORM4, [0])
        assert gaps_zero[1].sum() == pytest.approx(0.4, abs=1e-12)

    def test_total_gap_constant_after_first_step(self):
        model = kaijser_model()
        t = sample_trajectory(model, model.true_prior, 500, seed=3)
        gaps = kaijser_closed_form(AC1_TRUE, UNIFORM4, t.observations)
        totals = gaps[1:].sum(axis=1)
        assert np.abs(totals - totals[0]).max() <= 1e-12

    def test_matches_generic_filter_pair(self):
        model = kaijser_model()
        t = sample_trajectory(model, model.true_prior, 400, seed=8)
        pair = run_filter_pair(model.true_prior, model.wrong_prior, t.observations, model)
        gaps = kaijser_closed_form(AC1_TRUE, UNIFORM4, t.observations)
        generic = np.abs(pair.run_correct.densities - pair.run_wrong.densities)
        assert np.abs(generic - gaps).max() <= 1e-12


class TestKaijserFilterRecursion:
    def test_preserves_mass(self):
        model = kaijser_model()
        t = sample_trajectory(model, model.true_prior, 1000, seed=12)
        traj = kaijser_filter_recursion(AC1_TRUE, t.observations)
        np.testing.assert_allclose(traj.sum(axis=1), 1.0, atol=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(InvalidModelError, match="wrong dimension"):
            kaijser_filter_recursion((0.5, 0.5), [1, 0])


class TestKaijserVerify:
    def test_reference_priors_pass(self):
        report = kaijser_verify(AC1_TRUE, UNIFORM4, horizon=2000, seed=5)
        assert report.passed
        assert report.constant
        assert report.floor == pytest.approx(0.2, abs=1e-12)
        assert report.floor_ok
        assert report.agreement_gap <= 1e-12
        assert report.tv_first in (
            pytest.approx(0.2, abs=1e-12), pytest.approx(0.4, abs=1e-12)
        )

    def test_equal_priors_skip_floor(self):
        report = kaijser_verify(UNIFORM4, UNIFORM4, horizon=100, seed=5)
        assert report.constant
        assert report.floor == 0.0
        assert report.floor_ok is None
        assert report.passed

    def test_cancelling_priors_assert_constancy_only(self):
        report = kaijser_verify((0.4, 0.3, 0.2, 0.1), UNIFORM4, horizon=500, seed=5)
        assert report.floor == pytest.approx(0.0, abs=1e-12)
        assert report.floor_ok is None
        assert report.constant
        assert report.passed


class TestBuiltinScenarios:
    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidModelError, match="unknown scenario"):
            builtin_scenario("nope")

    def test_prior_overrides(self):
        sc = builtin_scenario("kaijser", true_prior=[0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(sc.model.true_prior.values, [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InvalidModelError, match="beta not bounded below"):
            builtin_scenario("kaijser", wrong_prior=[0.5, 0.5, 0.0, 0.0])

    def test_example11_has_the_mandated_qualitative_properties(self):
        sc = builtin_scenario("example11")
        model = sc.model
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.min_density == 0.0
        assert coeffs.mixing_coefficient > 0.0
        assert primitivity_check(model.kernel) is not None

    def test_uniform_scenario_is_degenerate(self):
        sc = builtin_scenario("uniformK")
        model = sc.model
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.degenerate

    def test_scenario_validation(self):
        with pytest.raises(InvalidModelError):
            builtin_scenario("mixing2", horizon=0)
        with pytest.raises(InvalidModelError):
            builtin_scenario("mixing2", replicates=-1)

    def test_custom_scenario_from_model(self):
        model = kaijser_model(true_prior=(0.4, 0.3, 0.2, 0.1))
        sc = Scenario(name="custom", model=model, horizon=50, replicates=2, seed=1)
        records = run_scenario(sc)
        assert len(records) == 2
        # the gate follows the model, not the name: the counterexample's
        # kernel and read-out get the closed-form report under any priors
        assert all(rec.kaijser is not None and rec.kaijser.passed for rec in records)
        other = builtin_scenario("example11").model
        sc = Scenario(name="kaijser", model=other, horizon=50, replicates=2, seed=1)
        assert all(rec.kaijser is None for rec in run_scenario(sc))


class TestRunScenario:
    def test_zero_replicates_empty(self):
        sc = builtin_scenario("mixing2", horizon=50, replicates=0)
        assert run_scenario(sc) == []

    def test_mixing_replicates_converge(self):
        sc = builtin_scenario("mixing2", horizon=300, replicates=5, seed=1)
        records = run_scenario(sc)
        assert len(records) == 5
        rate = records[0].coeffs.tv_decay_rate
        for rec in records:
            assert rec.decay.converged or rec.decay.slope <= -rate + 0.1
            assert not rec.bounds_vacuous
            assert np.all(rec.oscillations <= rec.oscillation_bounds + 1e-12)
            assert np.all(rec.pair.tv <= 2.0 + 1e-12)

    def test_kaijser_scenario_attaches_report(self):
        sc = builtin_scenario("kaijser", horizon=200, replicates=2, seed=3)
        records = run_scenario(sc)
        for rec in records:
            assert rec.kaijser is not None
            assert rec.kaijser.passed
            assert rec.bounds_vacuous
            assert rec.oscillation_bounds is None
            # the observation record carries no information about the prior,
            # so the likelihood ratio stays at one
            np.testing.assert_allclose(rec.likelihood_ratios, 1.0, atol=1e-12)

    def test_records_are_reproducible(self):
        sc = builtin_scenario("example11", horizon=100, replicates=2, seed=9)
        a = run_scenario(sc)
        b = run_scenario(sc)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.trajectory.states, rb.trajectory.states)
            np.testing.assert_array_equal(ra.trajectory.observations, rb.trajectory.observations)
            np.testing.assert_array_equal(ra.pair.tv, rb.pair.tv)
            np.testing.assert_array_equal(ra.likelihood_ratios, rb.likelihood_ratios)
            assert ra.seed == rb.seed

    def test_replicates_use_distinct_streams(self):
        sc = builtin_scenario("mixing2", horizon=100, replicates=3, seed=4)
        records = run_scenario(sc)
        assert len({rec.seed for rec in records}) == 3
        assert not np.array_equal(
            records[0].trajectory.states, records[1].trajectory.states
        )
