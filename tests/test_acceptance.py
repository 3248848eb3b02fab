"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criteria with runtime limits time the complete check.
"""

import math
import time

import numpy as np
import pytest

from filterstab import (
    BackwardContext,
    builtin_scenario,
    build_model,
    geometric_ergodicity_report,
    invariant_density,
    kaijser_model,
    mixing_coefficients,
    run_filter,
    run_filter_pair,
    run_scenario,
    sample_trajectory,
    unit_space,
    as_kernel,
    backward_pass,
)
from filterstab.cli import main
from filterstab.ergodicity import _running_averages
from helpers import random_positive_model, random_kernel_matrix
from reference import (
    brute_force_backward,
    brute_force_posterior,
    change_of_measure_residual,
    solve_poisson,
    stationary_backward_sequence,
    stationary_bound_check,
)

RATE_MIXING2 = 15.0 / 28.0  # averaged row minimum over maximum density


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{criterion} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_ac1_counterexample_never_forgets():
    started = time.perf_counter()
    model = kaijser_model()
    trajectory = sample_trajectory(model, model.true_prior, 10_000, seed=42)
    pair = run_filter_pair(model.true_prior, model.wrong_prior,
                           trajectory.observations, model)
    tv = pair.tv
    drift = float(np.abs(tv[1:] - tv[1]).max())
    expected_first = 0.2 if trajectory.observations[0] == 1 else 0.4
    first_ok = abs(tv[1] - expected_first) <= 1e-12
    floor_ok = bool(np.all(tv[1:] >= 0.2 - 1e-12))
    elapsed = time.perf_counter() - started
    report(
        "AC-1",
        drift <= 1e-12 and first_ok and floor_ok and elapsed < 1.0,
        f"drift={drift:.2e}, tv[1]={tv[1]:.3f}, floor ok={floor_ok}, {elapsed:.2f}s",
    )


@pytest.mark.usefixtures("cold_invariant_memo")
def test_ac2_invariant_densities():
    model = kaijser_model()
    m4 = invariant_density(model.kernel, model.space)
    kaijser_ok = np.abs(m4.values - 0.25).max() <= 1e-10
    space = unit_space(2)
    kernel = as_kernel([[0.5, 0.5], [0.3, 0.7]], space)
    m2 = invariant_density(kernel, space)
    two_ok = np.abs(m2.values - np.array([0.375, 0.625])).max() <= 1e-12
    report("AC-2", kaijser_ok and two_ok,
           f"4-state gap={np.abs(m4.values - 0.25).max():.2e}, "
           f"2-state gap={np.abs(m2.values - [0.375, 0.625]).max():.2e}")


def test_ac3_oracle_equivalence():
    started = time.perf_counter()
    worst_filter = 0.0
    worst_backward = 0.0
    for i in range(100):
        d = 2 + i % 2
        model = random_positive_model(10_000 + i, d, n_symbols=2)
        trajectory = sample_trajectory(model, model.true_prior, 6, seed=i)
        obs = trajectory.observations
        run = run_filter(model.true_prior, obs, model)
        for n in range(len(obs) + 1):
            oracle = brute_force_posterior(model, model.true_prior, obs[:n])
            worst_filter = max(
                worst_filter,
                float(np.abs(run.densities[n] - oracle.values).max()),
            )
        context = BackwardContext(model, model.wrong_prior)
        for n in range(1, len(obs) + 1):
            context.step(obs[n - 1])
            for x in range(d):
                oracle = brute_force_backward(model, model.wrong_prior, obs[:n], x)
                worst_backward = max(
                    worst_backward,
                    float(np.abs(context.rho[:, x] - oracle.values).max()),
                )
    elapsed = time.perf_counter() - started
    report(
        "AC-3",
        worst_filter <= 1e-10 and worst_backward <= 1e-10 and elapsed < 30.0,
        f"filter gap={worst_filter:.2e}, backward gap={worst_backward:.2e}, {elapsed:.1f}s",
    )


def test_ac4_decay_rate_bound():
    started = time.perf_counter()
    scenario = builtin_scenario("mixing2", horizon=500, replicates=50, seed=2026)
    records = run_scenario(scenario)
    threshold = -RATE_MIXING2 + 0.1
    ok = all(r.decay.converged or r.decay.slope <= threshold for r in records)
    finite_slopes = [r.decay.slope for r in records if not r.decay.converged]
    elapsed = time.perf_counter() - started
    detail = (
        f"50 replicates, threshold={threshold:.4f}, "
        f"{len(finite_slopes)} finite slopes"
        + (f" (max {max(finite_slopes):.3f})" if finite_slopes else "")
        + f", {elapsed:.1f}s"
    )
    report("AC-4", ok and elapsed < 10.0, detail)


def test_ac5_geometric_ergodicity_family():
    worst = 0.0
    unresolved = 0.0
    for i in range(100):
        d = 2 + i % 5
        space = unit_space(d)
        kernel = as_kernel(random_kernel_matrix(20_000 + i, d), space)
        model = build_model({
            "states": d,
            "transition": kernel.matrix.tolist(),
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * d},
            "nu": [1.0 / d] * d,
            "beta": [1.0 / d] * d,
        })
        m = invariant_density(kernel, space)
        coeffs = mixing_coefficients(model, m)
        rep = geometric_ergodicity_report(model, m, coeffs, 50)
        assert rep.applicable
        worst = max(worst, rep.worst_ratio)
        unresolved = max(unresolved, rep.unresolved_max_gap)

    # hand-checked point on the 2-state model: gap 0.25 against envelope 28/15
    model2 = builtin_scenario("mixing2").model
    m2 = invariant_density(model2.kernel, model2.space)
    coeffs2 = mixing_coefficients(model2, m2)
    rep2 = geometric_ergodicity_report(model2, m2, coeffs2, 1)
    point_ok = (
        abs(rep2.gaps[0, 0] - 0.25) <= 1e-12
        and rep2.gaps[0, 0] <= 1.8667
    )
    report(
        "AC-5",
        worst <= 1.0 and unresolved <= 1e-10 + 1e-12 and point_ok,
        f"worst ratio={worst:.4f} over 100 kernels, unresolved max={unresolved:.2e}, "
        f"hand point 0.25 <= 1.8667",
    )


def test_ac6_oscillation_bounds_dominate():
    worst_stationary = 0.0
    for i in range(50):
        d = 2 + i % 5
        space = unit_space(d)
        kernel = as_kernel(random_kernel_matrix(30_000 + i, d), space)
        model = build_model({
            "states": d,
            "transition": kernel.matrix.tolist(),
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * d},
            "nu": [1.0 / d] * d,
            "beta": [1.0 / d] * d,
        })
        m = invariant_density(kernel, space)
        coeffs = mixing_coefficients(model, m)
        check = stationary_bound_check(
            list(stationary_backward_sequence(model, m, 50)), m, coeffs
        )
        assert check.unresolved_max <= check.floor + 1e-12
        worst_stationary = max(worst_stationary, check.worst_ratio)

    per_run_ok = True
    for i in range(50):
        d = 2 + i % 3
        model = random_positive_model(40_000 + i, d)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        trajectory = sample_trajectory(model, model.true_prior, 30, seed=i)
        context = BackwardContext(model, model.wrong_prior, coeffs)
        for y in trajectory.observations:
            context.step(y)
            rec = context.record
            if rec.bound_vacuous or np.any(rec.oscillation > rec.bound + 1e-12):
                per_run_ok = False

    # the counterexample must flag its bound vacuous without erroring
    scenario = builtin_scenario("kaijser", horizon=50, replicates=1, seed=3)
    record = run_scenario(scenario)[0]
    back = backward_pass(scenario.model, record.coeffs, record.pair.run_wrong.densities)
    vacuous_ok = back.bounds is None

    report(
        "AC-6",
        worst_stationary <= 1.0 and per_run_ok and vacuous_ok,
        f"stationary worst ratio={worst_stationary:.4f}, per-run dominance on 50 runs, "
        f"counterexample vacuous flag ok",
    )


def test_ac7_conditional_law_of_large_numbers():
    model = builtin_scenario("mixing2").model
    m = invariant_density(model.kernel, model.space)
    worst_gap = 0.0
    from filterstab.rng import derive_seed
    for i in range(20):
        seed = derive_seed(777, i)
        trajectory = sample_trajectory(model, model.true_prior, 10_000, seed=seed)
        run = run_filter(model.true_prior, trajectory.observations, model)
        # the last row of the `lln` table: one gap per state indicator
        gaps = np.abs(_running_averages(run, model.space)[-1] - m.values * model.space.weights)
        worst_gap = max(worst_gap, float(gaps.max()))

    worst_residual = 0.0
    apply_kernel = model.kernel.matrix * model.space.weights[None, :]
    for state in range(2):
        f = np.zeros(2)
        f[state] = 1.0
        sol = solve_poisson(model, m, f)
        residual = np.abs(sol.values - sol.centered - apply_kernel @ sol.values).max()
        worst_residual = max(worst_residual, float(residual))

    report(
        "AC-7",
        worst_gap <= 0.05 and worst_residual <= 1e-10,
        f"worst LLN gap={worst_gap:.4f} over 20 replicates, "
        f"poisson residual={worst_residual:.2e}",
    )


def test_ac8_change_of_measure_identities():
    worst_residual = 0.0
    for i in range(100):
        d = 2 + i % 3
        model = random_positive_model(50_000 + i, d)
        trajectory = sample_trajectory(model, model.wrong_prior, 20, seed=i)
        obs = trajectory.observations
        run_wrong = run_filter(model.wrong_prior, obs, model)
        run_reference = run_filter(model.true_prior, obs, model)
        context = BackwardContext(model, model.wrong_prior)
        for y in obs:
            context.step(y)
        ratio = model.true_prior.values / model.wrong_prior.values
        residual = change_of_measure_residual(
            run_wrong, run_reference, context.rho, ratio, model.space
        )
        worst_residual = max(worst_residual, residual)

    # long-run likelihood-ratio flatness on the mixing scenario
    model = builtin_scenario("mixing2").model
    trajectory = sample_trajectory(model, model.true_prior, 10_000, seed=4242)
    context = BackwardContext(model, model.wrong_prior)
    for y in trajectory.observations:
        context.step(y)
    ratio = model.true_prior.values / model.wrong_prior.values
    log_ratio = math.log(context.likelihood_ratio(ratio))
    flatness = abs(log_ratio) / 10_000

    report(
        "AC-8",
        worst_residual <= 1e-9 and flatness <= 0.01,
        f"identity residual={worst_residual:.2e} over 100 runs, "
        f"|log L_n|/n={flatness:.2e} at n=10^4",
    )


def test_ac9_byte_identical_outputs(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        stem = tmp_path / f"stability-{tag}.csv"
        rc = main(["stability", "--scenario", "mixing2", "--horizon", "400",
                   "--seed", "9", "--output", str(stem)])
        assert rc == 0
        kj = tmp_path / f"kaijser-{tag}.json"
        rc = main(["kaijser", "--horizon", "1000", "--seed", "9", "--output", str(kj)])
        assert rc == 0
        sim = tmp_path / f"sim-{tag}.csv"
        rc = main(["simulate", "--scenario", "example11", "--horizon", "200",
                   "--seed", "9", "--output", str(sim)])
        assert rc == 0
        pairs.append((stem.read_bytes(), stem.with_suffix(".json").read_bytes(),
                      kj.read_bytes(), sim.read_bytes()))
    ok = pairs[0] == pairs[1]
    report("AC-9", ok, "stability CSV+JSON, kaijser JSON, simulate CSV identical across reruns")
