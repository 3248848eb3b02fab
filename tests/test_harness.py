import numpy as np
import pytest

from filterstab import (
    InvalidModelError,
    Scenario,
    builtin_model,
    invariant_density,
    kaijser_closed_form,
    kaijser_verify,
    mixing_coefficients,
    primitivity_check,
    run_filter_pair,
    run_scenario,
    sample_trajectory,
)
from helpers import record_rho
from reference import kaijser_filter_recursion, reference_kaijser_gaps

AC1_TRUE = (0.5, 0.2, 0.2, 0.1)
UNIFORM4 = (0.25, 0.25, 0.25, 0.25)


class TestKaijserConstants:
    """The first-step gap sizes that the gate's report carries."""

    def test_reference_priors(self):
        c = kaijser_verify(AC1_TRUE, UNIFORM4, horizon=20, seed=5)
        assert c.gap_obs_one == pytest.approx(0.2, abs=1e-12)
        assert c.gap_obs_zero == pytest.approx(0.4, abs=1e-12)
        assert c.floor == pytest.approx(0.2, abs=1e-12)

    def test_cancelling_priors_have_zero_floor(self):
        c = kaijser_verify((0.4, 0.3, 0.2, 0.1), UNIFORM4, horizon=20, seed=5)
        assert c.gap_obs_one == pytest.approx(0.0, abs=1e-12)
        assert c.floor == pytest.approx(0.0, abs=1e-12)

    def test_equal_priors(self):
        c = kaijser_verify(UNIFORM4, UNIFORM4, horizon=20, seed=5)
        assert c.gap_obs_one == 0.0
        assert c.gap_obs_zero == 0.0


class TestKaijserClosedForm:
    def test_wrong_dimension(self):
        with pytest.raises(InvalidModelError, match="wrong dimension"):
            kaijser_closed_form((0.5, 0.5), (0.5, 0.5), [1, 0])

    def test_equal_priors_all_zero(self):
        gaps = kaijser_closed_form(UNIFORM4, UNIFORM4, [1, 0, 1, 1])
        np.testing.assert_array_equal(gaps[1:], 0.0)

    def test_first_step_totals_depend_on_first_symbol(self):
        gaps_one = kaijser_closed_form(AC1_TRUE, UNIFORM4, [1])
        assert gaps_one[1].sum() == pytest.approx(0.2, abs=1e-12)
        gaps_zero = kaijser_closed_form(AC1_TRUE, UNIFORM4, [0])
        assert gaps_zero[1].sum() == pytest.approx(0.4, abs=1e-12)

    def test_total_gap_constant_after_first_step(self):
        model = builtin_model("kaijser")
        t = sample_trajectory(model, model.true_prior, 500, seed=3)
        gaps = kaijser_closed_form(AC1_TRUE, UNIFORM4, t.observations)
        totals = gaps[1:].sum(axis=1)
        assert np.abs(totals - totals[0]).max() <= 1e-12

    def test_matches_generic_filter_pair(self):
        model = builtin_model("kaijser")
        t = sample_trajectory(model, model.true_prior, 400, seed=8)
        pair = run_filter_pair(model, t.observations)
        gaps = kaijser_closed_form(AC1_TRUE, UNIFORM4, t.observations)
        generic = np.abs(pair.run_correct.densities - pair.run_wrong.densities)
        assert np.abs(generic - gaps).max() <= 1e-12


def assert_same_bits(actual, expected):
    """Equal arrays down to the sign bit of every zero."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


class TestKaijserClosedFormOracle:
    """The rotation form against the step-by-step gap recursion on Python floats."""

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 50, 20_000])
    def test_sampled_records(self, length):
        model = builtin_model("kaijser")
        observations = sample_trajectory(model, model.true_prior, max(length, 1),
                                         seed=length).observations[:length]
        assert_same_bits(kaijser_closed_form(AC1_TRUE, UNIFORM4, observations),
                         reference_kaijser_gaps(AC1_TRUE, UNIFORM4, observations))

    def test_random_priors_and_records(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            true_prior, wrong_prior = rng.dirichlet(np.ones(4), size=2)
            observations = rng.integers(0, 2, size=int(rng.integers(0, 500)))
            assert_same_bits(kaijser_closed_form(true_prior, wrong_prior, observations),
                             reference_kaijser_gaps(true_prior, wrong_prior, observations))

    @pytest.mark.parametrize("true_prior, wrong_prior", [
        ((0.4, 0.3, 0.2, 0.1), UNIFORM4),  # the symbol-1 masses cancel
        ((0.1, 0.4, 0.2, 0.3), UNIFORM4),  # the symbol-0 masses cancel
        (UNIFORM4, UNIFORM4),
        ((-0.0, 0.5, -0.0, 0.5), (0.0, 0.5, 0.0, 0.5)),  # negative zero differences
    ])
    @pytest.mark.parametrize("observations", [[], [0], [1], [0, 1], [1, 1], [1, 0, 0, 1, 0, 1]])
    def test_cancelling_prior_differences(self, true_prior, wrong_prior, observations):
        assert_same_bits(kaijser_closed_form(true_prior, wrong_prior, observations),
                         reference_kaijser_gaps(true_prior, wrong_prior, observations))

    def test_rows_rotate_once_per_symbol_change(self):
        gaps = kaijser_closed_form(AC1_TRUE, UNIFORM4, [1, 1, 0, 0, 1, 0])
        for n, changes in zip(range(1, 7), [0, 0, 1, 1, 2, 3]):
            np.testing.assert_array_equal(gaps[n], np.roll(gaps[1], changes))

    @pytest.mark.parametrize("observations, symbol", [
        ([0, 1, 2], "2"), ([1, -1, 0], "-1"), ([3], "3"), ([0.0, 0.5], "0.5"),
    ])
    def test_non_binary_symbol_raises(self, observations, symbol):
        with pytest.raises(InvalidModelError, match=f"got symbol {symbol}$"):
            kaijser_closed_form(AC1_TRUE, UNIFORM4, observations)

    @pytest.mark.parametrize("true_prior, observations", [
        ((np.nan, 0.0, 0.0, 0.0), [1, 1]),  # the loop gives row 2 all NaN but state 3
        ((np.inf, 0.0, 0.0, 0.0), [0, 1]),
        ((-np.inf, 0.0, 0.0, 0.0), []),
        ((1e308, 0.0, 0.0, 1e308), [1, 1]),  # finite, but the step-1 gap overflows
    ])
    def test_non_finite_gaps_raise(self, true_prior, observations):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InvalidModelError, match="the Kaijser gaps must be finite"):
            kaijser_closed_form(true_prior, (0.0, 0.0, 0.0, 0.0), observations)


class TestKaijserFilterRecursion:
    def test_preserves_mass(self):
        model = builtin_model("kaijser")
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
            builtin_model("nope")

    def test_prior_overrides(self):
        model = builtin_model("kaijser", true_prior=[0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(model.true_prior.values, [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InvalidModelError, match="beta not bounded below"):
            builtin_model("kaijser", wrong_prior=[0.5, 0.5, 0.0, 0.0])

    def test_example11_has_the_mandated_qualitative_properties(self):
        model = builtin_model("example11")
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.min_density == 0.0
        assert coeffs.mixing_coefficient > 0.0
        assert primitivity_check(model.kernel) is not None

    def test_uniform_scenario_is_degenerate(self):
        model = builtin_model("uniformK")
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.degenerate

    def test_scenario_validation(self):
        model = builtin_model("mixing2")
        with pytest.raises(InvalidModelError):
            Scenario(model, horizon=0, replicates=1, seed=7)
        for replicates in (0, -1):
            with pytest.raises(InvalidModelError, match="^stability needs at least one replicate$"):
                Scenario(model, horizon=500, replicates=replicates, seed=7)

    def test_custom_scenario_from_model(self):
        model = builtin_model("kaijser", true_prior=(0.4, 0.3, 0.2, 0.1))
        sc = Scenario(model=model, horizon=50, replicates=2, seed=1)
        records = run_scenario(sc)
        assert len(records) == 2
        # the gate follows the model, not the name: the counterexample's
        # kernel and read-out get the closed-form report under any priors
        assert all(rec.kaijser is not None and rec.kaijser.passed for rec in records)
        other = builtin_model("example11")
        sc = Scenario(model=other, horizon=50, replicates=2, seed=1)
        assert all(rec.kaijser is None for rec in run_scenario(sc))


class TestRunScenario:
    def test_mixing_replicates_converge(self):
        sc = Scenario(builtin_model("mixing2"), horizon=300, replicates=5, seed=1)
        records = run_scenario(sc)
        assert len(records) == 5
        rate = records[0].coeffs.tv_decay_rate
        for rec in records:
            assert rec.decay.converged or rec.decay.slope <= -rate + 0.1
            back = record_rho(sc.model, rec)
            assert back.bounds is not None
            assert np.all(back.oscillations <= back.bounds + 1e-12)
            assert np.all(rec.pair.tv <= 2.0 + 1e-12)

    def test_kaijser_scenario_attaches_report(self):
        sc = Scenario(builtin_model("kaijser"), horizon=200, replicates=2, seed=3)
        records = run_scenario(sc)
        for rec in records:
            assert rec.kaijser is not None
            assert rec.kaijser.passed
            back = record_rho(sc.model, rec)
            assert back.bounds is None
            # the observation record carries no information about the prior,
            # so the likelihood ratio stays at one
            np.testing.assert_allclose(back.likelihood_ratios, 1.0, atol=1e-12)

    def test_records_are_reproducible(self):
        sc = Scenario(builtin_model("example11"), horizon=100, replicates=2, seed=9)
        a = run_scenario(sc)
        b = run_scenario(sc)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.trajectory.states, rb.trajectory.states)
            np.testing.assert_array_equal(ra.trajectory.observations, rb.trajectory.observations)
            np.testing.assert_array_equal(ra.pair.tv, rb.pair.tv)
            np.testing.assert_array_equal(record_rho(sc.model, ra).likelihood_ratios,
                                          record_rho(sc.model, rb).likelihood_ratios)
            assert ra.trajectory.seed == rb.trajectory.seed

    def test_replicates_use_distinct_streams(self):
        sc = Scenario(builtin_model("mixing2"), horizon=100, replicates=3, seed=4)
        records = run_scenario(sc)
        assert len({rec.trajectory.seed for rec in records}) == 3
        assert not np.array_equal(
            records[0].trajectory.states, records[1].trajectory.states
        )
