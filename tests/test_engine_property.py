"""Property tests of the filter and ρ loops against the reference loops,
and the known flush-to-zero defect.

Random finite and Gaussian models with zero-pattern kernels, d = 2..6 and
unit or other state weights, run through one filter pass over both priors
(as `run_scenario` runs them) on 1 or 3 records of up to 40 observations,
then through ρ along each record's wrong-prior run (as `backward_pass` runs
it). When `reference.py`'s plain filter loop fails, the package must raise
its first error in the order it runs the filters, in record and prior order.
Otherwise every filter array must equal the loop's bit for bit, and ρ along
each record must raise the plain ρ loop's error or equal its arrays. The
same holds at d = 4..16 on 1, 2, 3 or 7 records, on both sides of d = 15,
the largest d whose stack normalizes with one tiled gemm. Under chunks of 1 to 4 steps in both loops
or the default, Gaussian records with outliers hold the rescued and resumed
steps inside one chunk to the same loops, and records with NaNs or
infinities must raise the same first error. On models with one state of
tiny weight, whose posterior density, ρ or envelope scale can leave the
float range, the filter pass and ρ must do the same. On finite models with
one state of weight 1e-310 to 1e-200, `backward_pass`, `BackwardContext`
and the plain ρ loop must raise the same error at the same step or agree
bit for bit. On finite models with positive kernels, the
gap between the two filters stays below the bound that ρ's oscillation and
the likelihood ratio give it. The sampler, on the same kind of models with
horizons up to 300, must draw what the scalar generator draws step by step.
"""

import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterstab import (
    Density,
    NumericalError,
    build_model,
    derive_seed,
    mixing_coefficients,
    run_filter,
    sample_trajectories,
    sample_trajectory,
)
from filterstab import backward, filtering
from filterstab.backward import backward_pass
from filterstab.filtering import _engine
from helpers import OVERFLOWING_DENSITY, RHO_OVERFLOWS_AT_STEP_1, rho_three_ways
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
def models(draw, gaussian=st.booleans(), zeros=True, states=st.integers(2, 6)):
    """A finite or Gaussian model with d from `states` (2..6), unit or other
    state weights, and a kernel with zero entries unless `zeros` is false."""
    d = draw(states)
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
        "transition": draw(rows(d, psi, zeros)),
        "observation": observation,
        "nu": draw(rows(1, psi))[0],
        "beta": draw(rows(1, psi, zeros=False))[0],
    })


@st.composite
def cases(draw, states=st.integers(2, 6), n_records=st.sampled_from([3, 1])):
    model = draw(models(states=states))
    n_records = draw(n_records)
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


def assert_engine_equals_reference(model, records):
    """One filter pass over both priors against `reference_filter`, record
    by record in prior order: the package raises its first error, or equals
    its arrays bit for bit. Then ρ along each record's wrong-prior run
    against `reference_backward`: the package raises its error, or equals
    its arrays bit for bit."""
    d = model.space.num_states
    priors = np.stack([model.true_prior.values, model.wrong_prior.values])
    try:
        expected = [[reference_filter(model, prior, record) for prior in priors]
                    for record in records]
    except NumericalError as exc:
        with pytest.raises(NumericalError) as caught:
            _engine(model, priors, records)
        assert str(caught.value) == str(exc)
        return
    # any Coefficients drive the envelope; a uniform law stands in for the invariant
    coeffs = mixing_coefficients(model, Density(np.full(d, 1.0 / model.space.weights.sum())))
    for runs, filters in zip(_engine(model, priors, records), expected):
        for run, (densities, log_norms) in zip(runs, filters):
            np.testing.assert_array_equal(run.densities, densities)
            np.testing.assert_array_equal(run.log_normalizers, log_norms)
        try:
            oscillations, bounds, ratios = reference_backward(model, coeffs, filters[1][0])
        except NumericalError as exc:
            with pytest.raises(NumericalError) as caught:
                backward_pass(model, coeffs, runs[1].densities)
            assert str(caught.value) == str(exc)
            continue
        along = backward_pass(model, coeffs, runs[1].densities)
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


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(cases(states=st.integers(4, 16), n_records=st.sampled_from([1, 2, 3, 7])))
def test_engine_equals_reference_on_either_side_of_the_tiled_normalizer(case):
    """As `test_engine_equals_reference`, at d = 4..16 on 1, 2, 3 or 7
    records: a stack of d <= 15 rows normalizes with one tiled gemm, a stack
    of d = 16 with one dot per row, and a lone row with a ddot."""
    assert_engine_equals_reference(*case)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(models(gaussian=st.just(False), zeros=False), st.integers(0, 2**16), st.integers(1, 60))
def test_oscillation_bounds_forgetting(model, seed, horizon):
    """The change-of-measure identity bounds the filter gap by ρ's
    oscillation: ``tv_n <= sum_u r_u w_u delta_n(u) / L_n``, with r the prior
    ratio, delta_n(u) ρ's oscillation in u and L_n the likelihood ratio, up
    to a relative 1e-9 and an absolute 1e-15 for rounding: a kernel with
    equal rows forgets in one step, with a gap of one rounding error and a
    bound of exactly 0. A positive kernel keeps ρ defined."""
    _, records = sample_trajectories(model, model.true_prior, horizon, [derive_seed(seed, 0)])
    true, wrong, w = model.true_prior.values, model.wrong_prior.values, model.space.weights
    [runs] = _engine(model, np.stack([true, wrong]), records)
    along = backward_pass(model, None, runs[1].densities)
    bound = along.oscillations @ (true / wrong * w) / along.likelihood_ratios[1:]
    tv = filtering._pair_run(*runs, w).tv[1:]
    assert (tv <= bound * (1.0 + 1e-9) + 1e-15).all()


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


def first_failing_step(model, records):
    """The largest step at which a record's first failing filter fails in the
    reference loop, or None when every filter passes."""
    steps = []
    for record in records:
        for prior in (model.true_prior.values, model.wrong_prior.values):
            try:
                reference_filter(model, prior, record)
            except NumericalError as exc:
                steps.append(int(re.search(r"\(at step (\d+)\)$", str(exc)).group(1)))
                break
    return max(steps, default=None)


@st.composite
def subnormal_weight_cases(draw):
    """Models in which one state ``j`` has a tiny weight, so that its density
    is its probability over that weight. At a subnormal weight it leaves the
    float range once the filter gives state ``j`` more than 0.018, 0.18 or
    0.54 (weight 1e-310, 1e-309 or 3e-309); at a weight of 1e-150, 1e-100 or
    1e-60 it stays in range, and so does ρ, whose arrays are then compared.
    Each law puts 0, or 0.5 to 1 times the lesser of 0.9 and 1.7e308 times
    that weight, on ``j``, so the documents themselves are in range, and a
    filter fails on about a third of the subnormal cases. 3 or 5 records of
    up to 40 steps, or, when some filter fails, records cut at the step of
    the last record's first failure, so that a filter fails at the last
    step."""
    d = draw(st.integers(2, 4))
    j = draw(st.integers(0, d - 1))
    psi = np.ones(d)
    psi[j] = draw(st.sampled_from([1e-310, 1e-309, 3e-309, 1e-150, 1e-100, 1e-60]))
    most = min(0.9, 1.7e308 * psi[j])  # the largest mass on j

    def law(zeros=True):
        others = np.array(draw(rows(1, np.ones(d - 1), zeros))[0])
        fraction = st.floats(0.5, 1.0)
        on_j = draw(st.one_of(st.just(0.0), fraction) if zeros else fraction) * most
        return np.insert(others * (1.0 - on_j), j, on_j / psi[j]).tolist()

    if draw(st.booleans()):
        means = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
        observation = {"type": "gaussian", "means": means, "sigma": draw(st.floats(0.2, 2.0))}
    else:
        observation = {"type": "finite",
                       "gamma": draw(rows(d, np.ones(draw(st.integers(2, 3)))))}
    model = build_model({"states": d, "psi": psi.tolist(),
                         "transition": [law() for _ in range(d)], "observation": observation,
                         "nu": law(), "beta": law(zeros=False)})
    seeds = [derive_seed(draw(st.integers(0, 2**16)), r)
             for r in range(draw(st.sampled_from([3, 5])))]
    _, records = sample_trajectories(model, model.true_prior, draw(st.integers(1, 40)), seeds)
    step = first_failing_step(model, records)
    if step is not None and draw(st.booleans()):
        records = records[:, :step]
    return model, records


# the posterior density of state 1 is 1e310 at each step that observes symbol 1
OVERFLOWING = build_model(OVERFLOWING_DENSITY)
# state 0 is absorbing and cannot emit symbol 2: from the true prior, a first
# symbol 2 has probability 0; from the wrong one, a first symbol 1 or 2 gives
# state 1 a probability near 1, which is a density near 1e310
ONLY_THE_WRONG_PRIOR_REACHES = build_model({
    "states": 2, "psi": [1.0, 1e-310], "transition": [[1.0, 0.0], [0.99, 1e308]],
    "observation": {"type": "finite", "gamma": [[1.0 - 1e-6, 1e-6, 0.0], [0.0, 0.5, 0.5]]},
    "nu": [1.0, 0.0], "beta": [0.99, 1e308],
})


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(subnormal_weight_cases())
# record 0 passes; records 1 and 2 fail, record 2 first, and record 1's error
# is raised; a failure at the last step of the one record that fails; record
# 0 fails from the wrong prior only, record 1 from both, and record 0's error
# is raised
@example((OVERFLOWING, np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])))
@example((OVERFLOWING, np.array([[0, 0, 0], [0, 0, 1]])))
@example((ONLY_THE_WRONG_PRIOR_REACHES, np.array([[1, 0, 0], [2, 0, 0]])))
def test_overflowing_densities_raise_the_reference_error(case):
    """The filter pass and ρ against the reference loops, as in
    `test_engine_equals_reference`."""
    assert_engine_equals_reference(*case)


@st.composite
def tiny_weight_cases(draw):
    """A finite model with d = 2..4 in which one state ``j`` has a weight in
    [1e-310, 1e-200], with zero kernel entries, zero emissions and a zero
    atom of the true prior. Each law has a density of order 1 on ``j``, so
    ``j``'s masses and predictions are tiny or subnormal, and ρ's column
    ``j`` divides by them. Half the weights lie below 6e-309, where ρ's
    density ``1 / weight`` of state ``j`` overflows; the other half are
    log-uniform. 1 or 3 records of up to 60 steps, and the Coefficients of a
    uniform law or none."""
    d = draw(st.integers(2, 4))
    j = draw(st.integers(0, d - 1))
    psi = np.ones(d)
    psi[j] = draw(st.one_of(st.floats(1e-310, 6e-309),
                            st.floats(-310.0, -200.0).map(lambda e: 10.0 ** e)))

    def law(zeros=True):
        # the other states carry the mass, which j's density changes by < 1e-199
        others = draw(rows(1, np.ones(d - 1), zeros))[0]
        on_j = draw(st.floats(0.01, 2.0) if not zeros else
                    st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
        return np.insert(others, j, on_j).tolist()

    model = build_model({
        "states": d, "psi": psi.tolist(), "transition": [law() for _ in range(d)],
        "observation": {"type": "finite",
                        "gamma": draw(rows(d, np.ones(draw(st.integers(2, 3)))))},
        "nu": law(), "beta": law(zeros=False),
    })
    seeds = [derive_seed(draw(st.integers(0, 2**16)), r)
             for r in range(draw(st.sampled_from([1, 3])))]
    _, records = sample_trajectories(model, model.true_prior, draw(st.integers(1, 60)), seeds)
    return model, records, draw(st.booleans())


# ρ leaves the float range at step 1 of every record, and along this one a
# state has zero predicted mass at step 2
REPRODUCER = build_model(RHO_OVERFLOWS_AT_STEP_1)
REPRODUCER_RECORD = sample_trajectory(REPRODUCER, REPRODUCER.true_prior, 60, 902602949).observations


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(tiny_weight_cases())
@example((REPRODUCER, np.array([REPRODUCER_RECORD]), False))
def test_rho_fails_alike_on_tiny_weights(case):
    """On every record whose wrong-prior filter passes, `backward_pass`,
    `BackwardContext` and `reference_backward` raise the same error, which
    names its step unless it is one of the run's constants' or step 1's
    unreachable state, or agree bit for bit."""
    model, records, with_coeffs = case
    coeffs = None
    if with_coeffs:
        coeffs = mixing_coefficients(model, Density(np.full(model.space.num_states,
                                                            1.0 / model.space.weights.sum())))
    for record in records:
        try:
            run_filter(model.wrong_prior, record, model)
        except NumericalError:
            continue
        along, stepped, plain = rho_three_ways(model, coeffs, record)
        assert along == stepped == plain
        if isinstance(along, str):  # the run's constants, or a step named
            assert (along.startswith(("prior ratio", "envelope scale", "state unreachable in one"))
                    or re.search(r"\(at step \d+\)$", along))


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
