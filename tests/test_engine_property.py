"""Property tests of the filter and ρ loops against the reference loops,
and the known flush-to-zero defect.

Random finite and Gaussian models with zero-pattern kernels, d = 2..6 and
unit or other state weights, run through one filter pass over both priors
(as `run_scenario` runs them) on 1 or 3 records of up to 40 observations,
then through ρ along each record's wrong-prior run (as `backward_pass` runs
it). When `reference.py`'s plain loops fail, the package must raise their
first error in the order it runs them: every record's filters in record and
prior order, then each record's ρ in record order. Otherwise every array
must equal theirs bit for bit. Under chunks of 1 to 4 steps in both loops
or the default, Gaussian records with outliers hold the rescued and resumed
steps inside one chunk to the same loops, and records with NaNs or
infinities must raise the same first error. The sampler, on the same kind
of models with horizons up to 300, must draw what the scalar generator
draws step by step.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterstab import (
    Density,
    InvalidModelError,
    NumericalError,
    build_model,
    derive_seed,
    mixing_coefficients,
    run_filter,
    sample_trajectories,
)
from filterstab import backward, filtering
from filterstab.backward import backward_pass
from filterstab.filtering import _engine
from reference import log_domain_filter, reference_backward, reference_filter, reference_trajectory


@st.composite
def rows(draw, n_rows, weights, zeros=True):
    """Rows that integrate to 1 against `weights`; with `zeros`, entries may be exactly 0."""
    entry = st.floats(0.01, 1.0)
    if zeros:
        entry = st.one_of(st.just(0.0), entry)
    out = []
    for _ in range(n_rows):
        row = np.array(draw(st.lists(entry, min_size=len(weights), max_size=len(weights))))
        if row.max() == 0.0:
            row[draw(st.integers(0, len(weights) - 1))] = 1.0
        out.append((row / (row @ weights)).tolist())
    return out


@st.composite
def models(draw, gaussian=st.booleans()):
    d = draw(st.integers(2, 6))
    # unit state weights, or a reference measure with other weights
    psi = np.ones(d)
    if draw(st.booleans()):
        psi = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d)))
    if draw(gaussian):
        means = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
        observation = {"type": "gaussian", "means": means, "sigma": draw(st.floats(0.2, 2.0))}
    else:
        observation = {"type": "finite",
                       "gamma": draw(rows(d, np.ones(draw(st.integers(2, 3)))))}
    return build_model({
        "states": d,
        "psi": psi.tolist(),
        "transition": draw(rows(d, psi)),
        "observation": observation,
        "nu": draw(rows(1, psi))[0],
        "beta": draw(rows(1, psi, zeros=False))[0],
    })


@st.composite
def cases(draw):
    model = draw(models())
    n_records = draw(st.sampled_from([3, 1]))
    seeds = [derive_seed(draw(st.integers(0, 2**16)), r) for r in range(n_records)]
    _, records = sample_trajectories(model, model.true_prior, draw(st.integers(1, 40)), seeds)
    records = records.copy()
    if model.observation.kind == "gaussian" and draw(st.booleans()):
        # an outlier far beyond every mean leaves the linear domain
        r = draw(st.integers(0, n_records - 1))
        records[r, draw(st.integers(0, records.shape[1] - 1))] = model.observation.means.max() + 40.0
    return model, records


@st.composite
def rescue_cases(draw, bad):
    """Gaussian records with `bad` observations at random steps and records,
    some on consecutive steps, and the number of steps a chunk holds (1 to 4,
    or None for the default). A bad observation is NaN or ±inf, which fails
    the filter, or an outlier 25σ or 60σ beyond every mean; at 60σ the linear
    normalizer underflows and the step is rescued in the log domain."""
    model = draw(models(gaussian=st.just(True)))
    n_records = draw(st.sampled_from([3, 1]))
    seeds = [derive_seed(draw(st.integers(0, 2**16)), r) for r in range(n_records)]
    _, records = sample_trajectories(model, model.true_prior, draw(st.integers(1, 30)), seeds)
    records = records.copy()
    means, sigma = model.observation.means, model.observation.sigma
    outliers = [*(means.max() + k * sigma for k in (25.0, 60.0)),
                *(means.min() - k * sigma for k in (25.0, 60.0))]
    values = {"outliers": outliers, "non-finite": [np.nan, np.inf, -np.inf]}[bad]
    for _ in range(draw(st.integers(1, 6))):
        r, n = draw(st.integers(0, n_records - 1)), draw(st.integers(0, records.shape[1] - 1))
        records[r, n:n + draw(st.integers(1, 3))] = draw(st.sampled_from(values))
    return model, records, draw(st.sampled_from([1, 2, 3, 4, None]))


def first_reference_error(model, coeffs, records):
    """The reference loops in the order the package runs them: every
    record's filters, record by record in prior order, then ρ along each
    record's wrong-prior run in record order. Returns the message of the
    first error, or None with the arrays of every record."""
    true, wrong = model.true_prior.values, model.wrong_prior.values
    try:
        filters = [(reference_filter(model, true, record), reference_filter(model, wrong, record))
                   for record in records]
    except NumericalError as exc:
        return str(exc), None
    arrays = []
    for correct, (densities, log_norms) in filters:
        try:
            with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
                oscillations, bounds, ratios = reference_backward(model, coeffs, densities)
        except NumericalError as exc:
            return str(exc), None
        if not np.isfinite(oscillations).all():
            return "backward density leaves the float range: an entry is inf or nan", None
        bad = ~np.isfinite(ratios) | (ratios < 0.0)
        if bad.any():
            value = float(ratios[bad.argmax()])
            return f"likelihood ratio must be finite and nonnegative, got {value!r}", None
        arrays.append((correct, (densities, log_norms), oscillations, bounds, ratios))
    return None, arrays


def assert_engine_equals_reference(model, records):
    """One filter pass over both priors, then ρ along each wrong-prior run,
    against the reference loops: when they fail, the package raises their
    first error in its order; otherwise every array equals theirs bit for
    bit."""
    d = model.space.num_states
    true, wrong = model.true_prior.values, model.wrong_prior.values
    # any Coefficients drive the envelope; a uniform law stands in for the invariant
    coeffs = mixing_coefficients(model, Density(np.full(d, 1.0 / model.space.weights.sum())))
    message, arrays = first_reference_error(model, coeffs, records)

    def rho_along(run, r):
        return backward_pass(model, coeffs, run.densities[r, 1])

    if message is not None:
        with pytest.raises((NumericalError, InvalidModelError)) as caught:
            run = _engine(model, np.stack([true, wrong]), records)
            for r in range(len(records)):
                rho_along(run, r)
        assert str(caught.value) == message
        return
    run = _engine(model, np.stack([true, wrong]), records)
    for r, (*filters, oscillations, bounds, ratios) in enumerate(arrays):
        for p, (densities, log_norms) in enumerate(filters):
            np.testing.assert_array_equal(run.densities[r, p], densities)
            np.testing.assert_array_equal(run.filter_run(r, p).log_normalizers, log_norms)
        along = rho_along(run, r)
        np.testing.assert_array_equal(along.oscillations, oscillations)
        np.testing.assert_array_equal(along.likelihood_ratios, ratios)
        if bounds is None:
            assert along.bounds is None
        else:
            np.testing.assert_array_equal(along.bounds, bounds)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(cases())
def test_engine_equals_reference(case):
    assert_engine_equals_reference(*case)


def assert_chunked_engine_equals_reference(case):
    model, records, steps = case
    d = model.space.num_states
    entries, rho_entries = filtering._CHUNK_ENTRIES, backward._RHO_ENTRIES
    if steps is not None:  # both loops hold `steps` steps: two priors on every record, one ρ
        entries, rho_entries = steps * 2 * len(records) * d, steps * d * d
    with patch.object(filtering, "_CHUNK_ENTRIES", entries), \
            patch.object(backward, "_RHO_ENTRIES", rho_entries):
        assert_engine_equals_reference(model, records)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(rescue_cases("outliers"))
def test_rescues_inside_a_chunk_equal_reference(case):
    assert_chunked_engine_equals_reference(case)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(rescue_cases("non-finite"))
def test_failures_inside_a_chunk_raise_the_reference_error(case):
    assert_chunked_engine_equals_reference(case)


@st.composite
def sampler_cases(draw):
    """A model, an initial law with possible zero atoms whose mass may fall
    20% short of one, a horizon, and 1 or 3 seeds (walked in Python) or 12
    (gathered)."""
    model = draw(models())
    initial = np.array(draw(rows(1, model.space.weights))[0])
    if draw(st.booleans()):
        initial *= 0.8
    seeds = [derive_seed(draw(st.integers(0, 2**64 - 1)), r)
             for r in range(draw(st.sampled_from([1, 3, 12])))]
    return model, Density(initial), draw(st.integers(1, 300)), seeds


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(sampler_cases())
def test_sampler_equals_reference(case):
    model, initial, horizon, seeds = case
    states, observations = sample_trajectories(model, initial, horizon, seeds)
    assert states.shape == (len(seeds), horizon + 1) and observations.shape == (len(seeds), horizon)
    for r, seed in enumerate(seeds):
        alone = reference_trajectory(model, initial, horizon, seed)
        assert states.dtype == alone.states.dtype and observations.dtype == alone.observations.dtype
        np.testing.assert_array_equal(states[r], alone.states)
        np.testing.assert_array_equal(observations[r], alone.observations)


# A posterior entry flushed to 0 cannot recover: at step 3 the exact mass of
# state 1 is 2.3e-9796, which a double flushes to 0, and the outlier of step 4
# cannot revive it. Mending it needs log-domain storage, which changes bytes.
FLIP = build_model({
    "states": 2,
    "transition": [[0.0, 1.0], [1.0, 0.0]],
    "observation": {"type": "gaussian", "means": [-3.954, 3.02], "sigma": 0.1915},
    "nu": [0.99968, 0.00032],
    "beta": [0.5, 0.5],
})
FLIP_RECORD = [0.88, 45.46, -74.53, -143.26]


def test_flip_chain_ends_where_the_flushed_filter_leaves_it():
    np.testing.assert_array_equal(run_filter(FLIP.true_prior, FLIP_RECORD, FLIP).densities[-1],
                                  [0.0, 1.0])


@pytest.mark.xfail(strict=True, reason="a posterior entry flushed to 0 cannot recover, "
                                       "so the filter ends in the wrong state")
def test_flip_chain_posterior_matches_the_log_domain_oracle():
    densities, _ = log_domain_filter(FLIP, FLIP.true_prior, FLIP_RECORD)
    np.testing.assert_allclose(densities[-1], [1.0, 0.0], atol=1e-12)
    run = run_filter(FLIP.true_prior, FLIP_RECORD, FLIP)
    np.testing.assert_allclose(run.densities[-1], densities[-1], atol=1e-12)
