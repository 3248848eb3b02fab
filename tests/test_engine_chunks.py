"""The filter loop and the ρ loop across their chunk boundaries.

`_engine`, the filter loop, runs ``_CHUNK_ENTRIES // (P * R * d)`` steps at
a time: every filter row fills the chunk, and the chunk is copied out.
`backward_pass` carries ρ along one density history in its own loop,
``_RHO_ENTRIES // d**2`` steps at a time: the chunk's rows are weighted and
predicted, ρ is carried across it, reduced, and carried into the next
chunk. With the constants patched so that a chunk of either loop holds 1, 2
or 3 steps, each boundary case meets the reference loops of `reference.py`,
which have no chunks at all: both loops as `run_scenario` and
`backward_pass` run them, and ρ on its own along a reference history. One
record (R = 1), as a pair of filter rows and as a lone ``ndarray.dot`` row,
meets the same reference, with unit and with other state weights. A record
that fails at every step, or at every other one, costs time linear in its
length, and about what a clean one costs. The gemms of a stack of d <= 15
rows round as its rows do alone, and a step of such a stack makes one
product call, one 2-D normalizer gemm and one same-shape divide.
"""

import time

import numpy as np
import pytest

import filterstab.backward
import filterstab.filtering
import filterstab.harness
from filterstab import (
    NumericalError,
    Scenario,
    backward_pass,
    build_model,
    builtin_model,
    derive_seed,
    invariant_density,
    mixing_coefficients,
    run_filter,
    run_scenario,
    sample_trajectories,
    sample_trajectory,
)
from filterstab.filtering import _engine, _runs
from helpers import LoggedNumpy, random_positive_model, record_rho
from reference import reference_backward, reference_filter

HELD = [1, 2, 3]

PSI = [0.5, 1.25, 2.0]

MODELS = {
    "mixing2": builtin_model("mixing2"),
    "kaijser": builtin_model("kaijser"),
    "finite5": random_positive_model(17, 5, n_symbols=3),
    "gaussian3": random_positive_model(91, 3, gaussian=True),
}

# one model with unit state weights (no `psi`) and one with other weights
PSI_MODELS = {
    "unit-psi": build_model({
        "states": 3,
        "transition": [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]],
        "observation": {"type": "finite", "gamma": [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]},
        "nu": [0.5, 0.3, 0.2],
        "beta": [0.2, 0.3, 0.5],
    }),
    "weighted-psi": build_model({
        "states": 3,
        "psi": PSI,
        # rows and priors are densities against `psi`
        "transition": (np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]])
                       / PSI).tolist(),
        "observation": {"type": "finite", "gamma": [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]},
        "nu": (np.array([0.5, 0.3, 0.2]) / PSI).tolist(),
        "beta": (np.array([0.2, 0.3, 0.5]) / PSI).tolist(),
    }),
}

# the Gaussian model whose outlier at 25 underflows the linear normalizer
OUTLIER_MODEL = build_model({
    "states": 2,
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "observation": {"type": "gaussian", "means": [0.0, 1.0], "sigma": 0.5},
    "nu": [0.7, 0.3],
    "beta": [0.5, 0.5],
})

# state 1 always returns to 0 and each state reads out its own index, so a
# record is the state path; after a 1, state 1 has no predicted mass
RETURN_MODEL = build_model({
    "states": 2,
    "transition": [[0.5, 0.5], [1.0, 0.0]],
    "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.0, 1.0]]},
    "nu": [0.5, 0.5],
    "beta": [0.4, 0.6],
})


def hold(monkeypatch, steps, n_records, d, priors=2):
    """Make a chunk of the filter loop over `priors` priors on `n_records`
    records, and a chunk of the ρ loop, hold `steps` whole steps."""
    monkeypatch.setattr(filterstab.filtering, "_CHUNK_ENTRIES", steps * priors * n_records * d)
    monkeypatch.setattr(filterstab.backward, "_RHO_ENTRIES", steps * d * d)


def coefficients(model):
    return mixing_coefficients(model, invariant_density(model.kernel, model.space))


def run_records(monkeypatch, model, records):
    """`run_scenario` on the given records instead of sampled ones."""
    records = np.asarray(records)
    states = np.zeros((len(records), records.shape[1] + 1), dtype=np.int64)
    monkeypatch.setattr(filterstab.harness, "sample_trajectories",
                        lambda model, initial, horizon, seeds: (states, records))
    return run_scenario(Scenario(model=model, horizon=records.shape[1],
                                 replicates=len(records), seed=1))


def assert_record_equals_reference(model, record, observations):
    correct, log_correct = reference_filter(model, model.true_prior.values, observations)
    wrong, log_wrong = reference_filter(model, model.wrong_prior.values, observations)
    np.testing.assert_array_equal(record.pair.run_correct.densities, correct)
    np.testing.assert_array_equal(record.pair.run_wrong.densities, wrong)
    np.testing.assert_array_equal(record.pair.run_correct.log_normalizers, log_correct)
    np.testing.assert_array_equal(record.pair.run_wrong.log_normalizers, log_wrong)
    oscillations, bounds, ratios = reference_backward(model, coefficients(model), wrong)
    back = record_rho(model, record)
    np.testing.assert_array_equal(back.oscillations, oscillations)
    np.testing.assert_array_equal(back.likelihood_ratios, ratios)
    if bounds is None:
        assert back.bounds is None
    else:
        np.testing.assert_array_equal(back.bounds, bounds)


@pytest.mark.parametrize("held", HELD)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_chunk_size_equals_the_reference(monkeypatch, name, held):
    model = MODELS[name]
    scenario = Scenario(model=model, horizon=3 * held + 2, replicates=3, seed=4)
    hold(monkeypatch, held, 3, model.space.num_states)
    for record in run_scenario(scenario):
        assert_record_equals_reference(model, record, record.trajectory.observations)


@pytest.mark.parametrize("held", HELD)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_rho_alone_in_chunks_equals_the_reference(monkeypatch, name, held):
    # ρ along a history made by the reference filter, never by the filter loop
    model = MODELS[name]
    d = model.space.num_states
    observations = sample_trajectory(model, model.true_prior, 3 * held + 2, 9).observations
    history, _ = reference_filter(model, model.wrong_prior.values, observations)
    coeffs = coefficients(model)
    oscillations, bounds, ratios = reference_backward(model, coeffs, history)
    hold(monkeypatch, held, 1, d)
    along = backward_pass(model, coeffs, history)
    np.testing.assert_array_equal(along.oscillations, oscillations)
    np.testing.assert_array_equal(along.likelihood_ratios, ratios)
    if bounds is None:
        assert along.bounds is None
    else:
        np.testing.assert_array_equal(along.bounds, bounds)


@pytest.mark.parametrize("held", HELD)
@pytest.mark.parametrize("offset", [0, 1])
def test_gaussian_rescue_at_and_after_the_chunk_end(monkeypatch, held, offset):
    # the outlier is observation `held + offset`: the last step of the first
    # chunk, or the first step of the second
    plain = [0.3, 0.9, 0.2, 1.0, 0.1, 0.8, 0.4, 0.6, 0.5]
    outlier = list(plain)
    outlier[held + offset - 1] = 25.0
    hold(monkeypatch, held, 2, 2)
    records = run_records(monkeypatch, OUTLIER_MODEL, [plain, outlier])
    assert records[1].pair.run_correct.log_normalizers[held + offset - 1] < -1000.0
    for record, observations in zip(records, (plain, outlier)):
        assert_record_equals_reference(OUTLIER_MODEL, record, observations)


@pytest.mark.parametrize("held", HELD)
@pytest.mark.parametrize("where", ["first", "last"])
def test_zero_predicted_mass_on_a_chunk_boundary(monkeypatch, held, where):
    # after observing state 1 at step m, ρ step m + 1 has no mass in state 1;
    # put that step first or last in the second chunk
    m = held if where == "first" else 2 * held - 1
    n_obs = 3 * held + 2
    valid = [0] * n_obs
    failing = [0] * n_obs
    failing[m - 1] = 1
    model = RETURN_MODEL
    coeffs = coefficients(model)
    wrong, _ = reference_filter(model, model.wrong_prior.values, failing)
    zero_mass = rf"^state has zero predicted mass \(at step {m + 1}\)$"
    with pytest.raises(NumericalError, match=zero_mass):
        reference_backward(model, coeffs, wrong)
    reference_backward(model, coeffs, wrong[:m + 1])  # ρ fails at step m + 1, not before
    # a later record whose ρ fails at step 2, and one whose filters fail at step 2
    early = [0] * n_obs
    early[0] = 1
    impossible = [1] * n_obs
    hold(monkeypatch, held, 3, 2)
    # every record's filters run before any ρ: the later filter failure is raised first
    with pytest.raises(NumericalError, match=r"\(at step 2\)$"):
        run_records(monkeypatch, model, [valid, failing, impossible])
    # each ρ fails on its own run; the valid record's equals the reference
    records = run_records(monkeypatch, model, [valid, failing, early])
    for record, step in zip(records[1:], (m + 1, 2)):
        with pytest.raises(NumericalError) as caught:
            record_rho(model, record)
        assert str(caught.value) == f"state has zero predicted mass (at step {step})"
    assert_record_equals_reference(model, records[0], valid)


@pytest.mark.parametrize("every", [1, 2])
def test_failing_steps_cost_linear_time(every):
    # a failed filter is not checked again, so the steps after its first
    # failure run as a clean record's do
    model, prior = OUTLIER_MODEL, OUTLIER_MODEL.true_prior
    record = np.random.default_rng(5).normal(0.5, 0.5, 20_000)
    record[::every] = np.nan
    started = time.perf_counter()
    with pytest.raises(NumericalError, match=r"\(at step 1\)$"):
        _engine(model, prior.values[None], [record])
    assert time.perf_counter() - started < 5.0
    with pytest.raises(NumericalError, match=r"\(at step 1\)$"):
        run_filter(prior, record, model)


def test_a_record_failing_at_every_step_costs_about_a_clean_one():
    model, prior = OUTLIER_MODEL, OUTLIER_MODEL.true_prior
    clean = np.random.default_rng(5).normal(0.5, 0.5, 20_000)
    failing = np.full(20_000, np.nan)

    def best_of_three(record):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            try:
                _engine(model, prior.values[None], [record])
            except NumericalError:
                pass
            times.append(time.perf_counter() - started)
        return min(times)

    with pytest.raises(NumericalError, match=r"\(at step 1\)$"):
        _engine(model, prior.values[None], [failing])
    assert best_of_three(failing) < 3.0 * best_of_three(clean)


@pytest.mark.parametrize("held", HELD)
@pytest.mark.parametrize("name", sorted(PSI_MODELS))
def test_one_record_equals_the_reference(monkeypatch, name, held):
    model = PSI_MODELS[name]
    assert (model.space.weights == 1.0).all() == (name == "unit-psi")
    scenario = Scenario(model=model, horizon=3 * held + 2, replicates=1, seed=4)
    hold(monkeypatch, held, 1, model.space.num_states)
    [record] = run_scenario(scenario)
    observations = record.trajectory.observations
    assert_record_equals_reference(model, record, observations)
    # one prior: a lone filter row; ρ read along an existing history
    hold(monkeypatch, held, 1, model.space.num_states, priors=1)
    densities, log_norms = reference_filter(model, model.wrong_prior.values, observations)
    run = run_filter(model.wrong_prior, observations, model)
    np.testing.assert_array_equal(run.densities, densities)
    np.testing.assert_array_equal(run.log_normalizers, log_norms)
    coeffs = coefficients(model)
    oscillations, _, ratios = reference_backward(model, coeffs, densities)
    along = backward_pass(model, coeffs, densities)
    np.testing.assert_array_equal(along.oscillations, oscillations)
    np.testing.assert_array_equal(along.likelihood_ratios, ratios)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_dot_rounds_as_matmul(d):
    """`ndarray.dot` makes the BLAS call `np.matmul` makes on the shapes the
    engine gives it: a row times a matrix, a matrix times a matrix, and a
    weight row times a matrix. A time-stacked ``(m, 1, d) @ (d, d)`` rounds
    each row as `ndarray.dot` does. A lone row's normalizer, ``(d,) @ (d,)``
    written into a 0-d array, rounds as `np.matmul`'s ``(d,) @ (d, 1)``, and
    the row divided by it as by that ``(1,)`` array.
    Elementwise calls on operands tiled to one shape equal the broadcasting
    calls they replace."""
    rng = np.random.default_rng(d)
    for _ in range(200):
        x, w = rng.random(d), rng.random(d) * 2.0
        s, m = rng.random((d, d)) * rng.random((d, 1)), rng.random((d, d))
        m /= m.sum(axis=1, keepdims=True)
        assert np.array_equal(x.dot(m), np.matmul(x, m))
        assert np.array_equal(s.dot(m), np.matmul(s, m))
        assert np.array_equal(w.dot(s), np.matmul(w, s))
        out = np.empty(d)
        np.ndarray.dot(x, m, out)
        assert np.array_equal(out, np.matmul(x, m))
        assert np.matmul(x, w[:, None])[0] == x.dot(w)
        z = np.empty(())
        np.ndarray.dot(x, w, z)
        assert z == np.matmul(x, w[:, None])[0]
        assert np.array_equal(np.divide(x, z), np.divide(x, np.matmul(x, w[:, None])))
        history = rng.random((50, d)) * rng.random((50, 1))
        stacked = np.matmul(history[:, None], m)[:, 0]
        assert all(np.array_equal(y, h.dot(m)) for y, h in zip(stacked, history))
        # filter rows (3, 1, d) times the state weights and the likelihoods of
        # one record; ρ of 2 records times its prior's rows, and divided by them
        rows, lik, rho = rng.random((3, 1, d)), rng.random(d), rng.random((2, d, d))
        prior_rows = rng.random((2, 1, d)) + 0.5
        tiled = np.broadcast_to(prior_rows, rho.shape).copy()
        assert np.array_equal(np.multiply(rows, np.tile(w, 3).reshape(rows.shape)), rows * w)
        assert np.array_equal(np.multiply(np.tile(lik, 3).reshape(rows.shape), rows), lik * rows)
        assert np.array_equal(np.multiply(rho, tiled), rho * prior_rows)
        assert np.array_equal(np.divide(rho, tiled), rho / prior_rows)


def awkward_entries(rng, shape, zeros=True):
    """Entries of which about a quarter each are zeros, subnormals,
    magnitudes near 1e300 and uniform in (0, 1]; without `zeros`, a third
    each of the last three."""
    x = 1.0 - rng.random(shape)
    kind = rng.integers(0 if zeros else 1, 4, shape)
    return np.select([kind == 0, kind == 1, kind == 2], [0.0, x * 1e-310, x * 1e300], x)


@pytest.mark.parametrize("rows", [2, 3, 50, 257])
@pytest.mark.parametrize("d", range(1, 16))
def test_a_gemm_rounds_as_the_stacked_rows(d, rows):
    """A stack of d <= 15 filter rows normalizes with one 2-D ``(rows, d) @
    (d, d)`` gemm, through `ndarray.dot` as the engine calls it, against the
    (d, d) matrix whose every column is the state weights; at d <= 3 its
    product is one such gemm too. Every column of the normalizer rounds as
    the per-row ``(rows, 1, d) @ (d, 1)``, and the product as the stacked
    ``(rows, 1, d) @ (d, d)``, one gemv per row, on entries and weights with
    subnormals and magnitudes near 1e300. With OpenBLAS 0.3.31 (DYNAMIC_ARCH,
    Haswell kernels) the product's identity holds for d <= 3 and fails from
    d = 4; the normalizer's holds for d <= 15 and fails from d = 16, and for
    a single row from d = 4. A BLAS that rounds otherwise fails here first."""
    rng = np.random.default_rng(1000 * d + rows)
    product, normalizer = np.empty((2, rows, d))
    dot = np.ndarray.dot
    with np.errstate(over="ignore"):
        for _ in range(100):
            x, matrix = awkward_entries(rng, (rows, d)), awkward_entries(rng, (d, d))
            w = awkward_entries(rng, d, zeros=False) * 4.0  # positive state weights
            dot(x, np.repeat(w[:, None], d, 1), normalizer)
            assert (normalizer == np.matmul(x[:, None], w[:, None])[:, 0]).all()
            if d <= 3:
                dot(x, matrix, product)
                assert np.array_equal(product, np.matmul(x[:, None], matrix)[:, 0])


STACKS = {  # a model, its records, and the product call of a step with its operand shapes
    "mixing2, 100 rows": (builtin_model("mixing2"), 50, ("dot", [(100, 2), (2, 2), (100, 2)])),
    "d = 4, a pair": (builtin_model("kaijser"), 1, ("matmul", [(2, 1, 4), (4, 4), (2, 1, 4)])),
}


@pytest.mark.parametrize("name", sorted(STACKS))
def test_a_stack_step_makes_one_product_one_normalizer_gemm_and_one_same_shape_divide(
        monkeypatch, name):
    """Each step of a stack of d <= 15 rows makes three calls: the product,
    one 2-D ``ndarray.dot`` gemm for the normalizer, and one `np.divide`
    whose operands all have one shape; no 2-D `np.matmul` is left, and a
    broadcasting divide fails here. Here mixing2's two priors on 50 records
    (d = 2, a gemm product) and kaijser's pair of rows (d = 4, a gemv per
    row)."""
    model, n_records, product = STACKS[name]
    d, steps = model.space.num_states, 40
    seeds = [derive_seed(5, r) for r in range(n_records)]
    _, records = sample_trajectories(model, model.true_prior, steps, seeds)
    logged = LoggedNumpy()
    monkeypatch.setattr(filterstab.filtering, "np", logged)
    runs = _runs(*_engine(model, np.stack([model.true_prior.values, model.wrong_prior.values]),
                          records))
    monkeypatch.undo()
    rows = (2 * n_records, d)
    assert logged.calls == [product, ("dot", [rows, (d, d), rows]), ("divide", [rows] * 3)] * steps
    densities, _ = reference_filter(model, model.wrong_prior.values, records[-1])
    np.testing.assert_array_equal(runs[-1][1].densities, densities)


@pytest.mark.parametrize("name, multiplies", [("unit-psi", 1), ("weighted-psi", 2)])
def test_unit_state_weights_skip_a_multiply_per_step(monkeypatch, name, multiplies):
    """A step of one record's filter multiplies by the likelihoods, and by
    the state weights only when one of them is not 1.0: an N-step run makes
    N elementwise multiplies with unit weights and 2N with others."""
    model = PSI_MODELS[name]
    assert (model.space.weights == 1.0).all() == (multiplies == 1)
    observations = sample_trajectory(model, model.true_prior, 40, seed=5).observations
    calls = []
    multiply = np.multiply

    def counted(*args, **kwargs):
        calls.append(1)
        return multiply(*args, **kwargs)

    monkeypatch.setattr(np, "multiply", counted)
    run = run_filter(model.wrong_prior, observations, model)
    monkeypatch.undo()
    assert len(calls) == multiplies * len(observations)
    densities, _ = reference_filter(model, model.wrong_prior.values, observations)
    np.testing.assert_array_equal(run.densities, densities)
