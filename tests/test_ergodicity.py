from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest

from filterstab import (
    Density,
    NumericalError,
    as_kernel,
    build_model,
    geometric_ergodicity_report,
    invariant_density,
    builtin_model,
    mixing_coefficients,
    run_filter,
    sample_trajectory,
    unit_space,
)
from filterstab.ergodicity import BOUND_FLOOR, _n_step_densities, _running_averages
from helpers import random_kernel_matrix, random_positive_model
from reference import solve_poisson, stationary_backward_sequence, stationary_bound_check


def solve_exact(matrix, rhs):
    """Gauss-Jordan elimination in exact rationals (nonsingular systems only)."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def two_state_model():
    return build_model({
        "states": 2,
        "transition": [[0.5, 0.5], [0.3, 0.7]],
        "observation": {"type": "finite", "gamma": [[0.8, 0.2], [0.2, 0.8]]},
        "nu": [0.9, 0.1],
        "beta": [0.5, 0.5],
    })


def uniform_model(d=3):
    return build_model({
        "states": d,
        "transition": np.full((d, d), 1.0 / d).tolist(),
        "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * d},
        "nu": [1.0 / d] * d,
        "beta": [1.0 / d] * d,
    })


class TestNStepDensity:
    """The generator of n-step densities that the ergodicity report reads."""

    def test_one_step_is_the_kernel(self):
        model = two_state_model()
        np.testing.assert_array_equal(
            next(_n_step_densities(model.kernel, model.space)), model.kernel.matrix
        )

    def test_kaijser_cube_is_strictly_positive(self):
        model = builtin_model("kaijser")
        *_, three = islice(_n_step_densities(model.kernel, model.space), 3)
        # brute-force oracle: literal matrix cube with unit weights
        expected = np.linalg.matrix_power(np.asarray(model.kernel.matrix), 3)
        np.testing.assert_allclose(three, expected, atol=1e-15)
        assert three.min() >= 0.125

    def test_uniform_kernel_idempotent(self):
        model = uniform_model()
        for power in islice(_n_step_densities(model.kernel, model.space), 7):
            np.testing.assert_allclose(power, 1.0 / 3.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_step_composition(self, seed):
        space = unit_space(3)
        kernel = as_kernel(random_kernel_matrix(90 + seed, 3), space)
        a, b = 2 + seed % 3, 3
        powers = list(islice(_n_step_densities(kernel, space), a + b))
        composed = (powers[a - 1] * space.weights[None, :]) @ powers[b - 1]
        assert np.abs(powers[a + b - 1] - composed).max() <= 1e-12


class TestGeometricErgodicityReport:
    def test_two_state_hand_point(self):
        # first-step gap from state 0: |0.5 - 0.375| + |0.5 - 0.625| = 0.25,
        # envelope value prefactor * ratio = max/avg = 0.7/0.375 = 28/15
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        report = geometric_ergodicity_report(model, m, coeffs, 50)
        assert report.gaps[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert coeffs.geo_prefactor * coeffs.geo_ratio == pytest.approx(28.0 / 15.0, abs=1e-12)
        assert report.gaps[0, 0] <= coeffs.geo_prefactor * coeffs.geo_ratio
        assert coeffs.applicable
        assert report.worst_ratio <= 1.0
        assert report.unresolved_max_gap <= BOUND_FLOOR + 1e-12

    def test_uniform_kernel_converges_in_one_step(self):
        model = uniform_model(4)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        report = geometric_ergodicity_report(model, m, coeffs, 10)
        assert coeffs.degenerate
        assert not coeffs.applicable
        assert report.gaps.max() <= 1e-14

    def test_kaijser_inapplicable_but_still_converges(self):
        model = builtin_model("kaijser")
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        report = geometric_ergodicity_report(model, m, coeffs, 50)
        assert not coeffs.applicable
        assert report.worst_ratio is None
        # the chain is ergodic even though the coefficient bound is silent
        assert report.gaps[0].max() > 0.1
        assert report.gaps[-1].max() < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_envelope_dominates_on_random_positive_kernels(self, seed):
        d = 2 + seed % 5
        model = random_positive_model(7000 + seed, d)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        report = geometric_ergodicity_report(model, m, coeffs, 50)
        assert coeffs.applicable
        assert report.worst_ratio <= 1.0
        assert report.unresolved_max_gap <= BOUND_FLOOR + 1e-12


class TestStationaryBackward:
    def test_two_state_first_step(self):
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        sb = list(stationary_backward_sequence(model, m, 1))[-1]
        np.testing.assert_allclose(sb.matrix[:, 0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sb.matrix[:, 1], [0.3, 0.7], atol=1e-12)
        np.testing.assert_allclose(sb.oscillation, [0.2, 0.2], atol=1e-12)

    def test_symmetric_kernel_reproduces_itself(self):
        space = unit_space(3)
        matrix = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        model = build_model({
            "states": 3,
            "transition": matrix.tolist(),
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 3},
            "nu": [1 / 3] * 3,
            "beta": [1 / 3] * 3,
        })
        m = invariant_density(model.kernel, model.space)
        np.testing.assert_allclose(m.values, 1 / 3, atol=1e-12)
        sb = list(stationary_backward_sequence(model, m, 1))[-1]
        np.testing.assert_allclose(sb.matrix, matrix, atol=1e-12)

    def test_zero_invariant_atom_rejected(self):
        model = two_state_model()
        degenerate = Density([1.0, 0.0])
        with pytest.raises(NumericalError, match="invariant density degenerate"):
            list(stationary_backward_sequence(model, degenerate, 2))

    def test_columns_are_densities(self):
        model = random_positive_model(55, 4)
        m = invariant_density(model.kernel, model.space)
        for sb in stationary_backward_sequence(model, m, 20):
            mass = model.space.weights @ sb.matrix
            np.testing.assert_allclose(mass, 1.0, atol=1e-10)


class TestStationaryBoundCheck:
    def test_two_state_first_step_hand_value(self):
        # oscillation 0.2 against envelope m(u) * max/avg = 0.375 * 28/15 = 0.7
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        check = stationary_bound_check(
            list(stationary_backward_sequence(model, m, 1)), m, coeffs
        )
        assert check.worst_ratio == pytest.approx(0.2 / 0.7, abs=1e-12)

    def test_uniform_kernel_zero_oscillation(self):
        model = uniform_model()
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        check = stationary_bound_check(
            list(stationary_backward_sequence(model, m, 5)), m, coeffs
        )
        assert check.worst_ratio == 0.0
        assert check.unresolved_max == 0.0

    def test_inapplicable_when_coefficient_vanishes(self):
        model = builtin_model("kaijser")
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        with pytest.raises(NumericalError, match="inapplicable"):
            stationary_bound_check(
                list(stationary_backward_sequence(model, m, 3)), m, coeffs
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_holds_on_random_kernels(self, seed):
        model = random_positive_model(8000 + seed, 4)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        check = stationary_bound_check(
            list(stationary_backward_sequence(model, m, 50)), m, coeffs
        )
        assert check.worst_ratio <= 1.0
        assert check.unresolved_max <= check.floor + 1e-12


class TestSolvePoisson:
    def test_uniform_kernel_annihilates_centered_functions(self):
        model = uniform_model()
        m = invariant_density(model.kernel, model.space)
        sol = solve_poisson(model, m, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(sol.values, sol.centered, atol=1e-13)

    def test_constant_function_gives_zero(self):
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        sol = solve_poisson(model, m, [3.0, 3.0])
        np.testing.assert_allclose(sol.values, 0.0, atol=1e-13)
        np.testing.assert_allclose(sol.centered, 0.0, atol=1e-15)

    def test_defining_equation_residual(self):
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        sol = solve_poisson(model, m, [1.0, 0.0])
        apply_kernel = model.kernel.matrix * model.space.weights[None, :]
        residual = sol.values - sol.centered - apply_kernel @ sol.values
        assert np.abs(residual).max() <= 1e-10

    def test_non_convergent_series(self):
        # identity dynamics never mix: the correction series cannot settle and
        # the fundamental-matrix system is singular
        model = build_model({
            "states": 2,
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 2},
            "nu": [0.5, 0.5],
            "beta": [0.5, 0.5],
        })
        with pytest.raises(NumericalError, match="singular"):
            solve_poisson(model, Density([0.5, 0.5]), [1.0, 0.0])

    def test_slowly_mixing_kernel_with_computed_invariant(self):
        # the exact solution with mu . g = 0 is (1/(9 eps), -2/(9 eps))
        eps = 1e-3
        model = build_model({
            "states": 2,
            "transition": [[1.0 - eps, eps], [2.0 * eps, 1.0 - 2.0 * eps]],
            "observation": {"type": "finite", "gamma": [[0.8, 0.2], [0.2, 0.8]]},
            "nu": [0.5, 0.5],
            "beta": [0.5, 0.5],
        })
        m = invariant_density(model.kernel, model.space)
        sol = solve_poisson(model, m, [1.0, 0.0])
        apply_kernel = model.kernel.matrix * model.space.weights[None, :]
        residual = sol.values - sol.centered - apply_kernel @ sol.values
        assert np.abs(residual).max() <= 1e-10
        np.testing.assert_allclose(sol.values, [1 / (9 * eps), -2 / (9 * eps)], rtol=1e-9)

    def test_dyadic_kernel_matches_the_exact_solution(self):
        matrix = [[F(1, 2), F(1, 4), F(1, 4)],
                  [F(1, 8), F(5, 8), F(1, 4)],
                  [F(3, 8), F(1, 8), F(1, 2)]]
        f = [F(1), F(0), F(-2)]
        model = build_model({
            "states": 3,
            "transition": [[float(x) for x in row] for row in matrix],
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 3},
            "nu": [1 / 3] * 3,
            "beta": [1 / 3] * 3,
        })
        # mu (I - P) = 0 with sum(mu) = 1: replace the last equation by the mass
        system = [[(i == j) - matrix[j][i] for j in range(3)] for i in range(2)]
        mu = solve_exact(system + [[F(1)] * 3], [F(0), F(0), F(1)])
        mean = sum(a * b for a, b in zip(mu, f))
        fundamental = [[(i == j) - matrix[i][j] + mu[j] for j in range(3)] for i in range(3)]
        exact = solve_exact(fundamental, [x - mean for x in f])
        sol = solve_poisson(model, invariant_density(model.kernel, model.space), [1.0, 0.0, -2.0])
        np.testing.assert_allclose(sol.values, [float(x) for x in exact], rtol=0, atol=1e-14)

    def test_periodic_flip_chain_is_solvable(self):
        model = build_model({
            "states": 2,
            "transition": [[0.0, 1.0], [1.0, 0.0]],
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 2},
            "nu": [0.5, 0.5],
            "beta": [0.5, 0.5],
        })
        m = invariant_density(model.kernel, model.space)
        sol = solve_poisson(model, m, [1.0, 0.0])
        apply_kernel = model.kernel.matrix * model.space.weights[None, :]
        residual = sol.values - sol.centered - apply_kernel @ sol.values
        assert np.abs(residual).max() <= 1e-10
        assert abs(sol.values @ (m.values * model.space.weights)) <= 1e-15
        np.testing.assert_allclose(sol.values, [0.25, -0.25], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("matrix", [
        np.eye(3),
        np.kron(np.eye(2), np.full((2, 2), 0.5)),  # two closed classes
    ], ids=["identity", "two-class"])
    def test_reducible_chain_is_singular(self, matrix):
        d = len(matrix)
        model = build_model({
            "states": d,
            "transition": matrix.tolist(),
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * d},
            "nu": [1 / d] * d,
            "beta": [1 / d] * d,
        })
        with pytest.raises(NumericalError, match="singular"):
            solve_poisson(model, Density([1 / d] * d), np.arange(d, dtype=float))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_models_residual(self, seed):
        model = random_positive_model(9000 + seed, 4)
        m = invariant_density(model.kernel, model.space)
        f = np.zeros(4)
        f[seed % 4] = 1.0
        sol = solve_poisson(model, m, f)
        apply_kernel = model.kernel.matrix * model.space.weights[None, :]
        residual = sol.values - sol.centered - apply_kernel @ sol.values
        assert np.abs(residual).max() <= 1e-10


class TestLlnAverage:
    """The last running average of the ``lln`` table, dotted with ``f``, is
    the time average of ``pi_k<f>``; its target is the invariant mean of ``f``."""

    def test_constant_function(self):
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        t = sample_trajectory(model, model.true_prior, 50, seed=1)
        run = run_filter(model.true_prior, t.observations, model)
        assert _running_averages(run, model.space)[-1] @ [1.0, 1.0] == \
            pytest.approx(1.0, abs=1e-12)
        assert m.values @ model.space.weights == pytest.approx(1.0, abs=1e-12)

    def test_single_state(self):
        model = build_model({
            "states": 1,
            "transition": [[1.0]],
            "observation": {"type": "finite", "gamma": [[0.4, 0.6]]},
            "nu": [1.0],
            "beta": [1.0],
        })
        t = sample_trajectory(model, model.true_prior, 10, seed=1)
        run = run_filter(model.true_prior, t.observations, model)
        assert _running_averages(run, model.space)[-1] @ [2.5] == pytest.approx(2.5, abs=1e-12)

    def test_mixing_model_state_indicator(self):
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        t = sample_trajectory(model, model.true_prior, 10_000, seed=99)
        run = run_filter(model.true_prior, t.observations, model)
        targets = m.values * model.space.weights
        assert targets[0] == pytest.approx(0.375, abs=1e-12)
        assert abs(_running_averages(run, model.space)[-1, 0] - targets[0]) <= 0.05
