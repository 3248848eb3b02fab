"""The exact oracle of `tests/exact.py` against the independent references:
path enumeration in the log domain on short records of random finite
models, and the Kaijser closed form on its counterexample. Its log TV gap
stays finite where the float gap is 0."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import exact_posteriors, exact_run
from filterstab import builtin_model, sample_trajectory
from filterstab.harness import Scenario, kaijser_closed_form, run_scenario
from reference import _logsumexp, _path_log_mass
from test_engine_property import models


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(models(gaussian=st.just(False), zeros=False, states=st.integers(1, 3)),
       st.integers(1, 8), st.integers(0, 2**16))
def test_the_oracle_agrees_with_path_enumeration(model, steps, seed):
    """On every prefix of a record of at most 8 steps: both posterior laws
    within 1e-14 and the log likelihood ratio within 1e-13, a few roundings
    of the enumeration's logs, and the log TV gap within 1e-14 of the log of
    the TV gap."""
    record = sample_trajectory(model, model.true_prior, steps, seed).observations
    exact = exact_run(model, record)
    for n in range(steps + 1):
        masses = [_path_log_mass(model, prior, record[:n])
                  for prior in (model.true_prior, model.wrong_prior)]
        for laws, log_mass in zip((exact.correct, exact.wrong), masses):
            law = np.exp(_logsumexp(log_mass, axis=0) - _logsumexp(log_mass))
            np.testing.assert_allclose(laws[n], law, rtol=0, atol=1e-14)
        log_ratio = _logsumexp(masses[0]) - _logsumexp(masses[1])
        assert math.log(exact.likelihood_ratios[n]) == pytest.approx(log_ratio, rel=0, abs=1e-13)
        if exact.tv[n] > 0.0:
            assert exact.log_tv[n] == pytest.approx(math.log(exact.tv[n]), rel=0, abs=1e-14)


def test_the_log_gap_stays_finite_where_the_float_gap_is_zero():
    """mixing2's replicate 0 at seed 7: the float TV gap is 0 from step 19,
    and the exact one decays at about -2.1 per step (-2.08 to -2.12 over the
    replicates, against mpmath)."""
    model = builtin_model("mixing2")
    record, = run_scenario(Scenario(model, horizon=60, replicates=1, seed=7))
    exact = exact_run(model, record.trajectory.observations)
    assert (record.pair.tv[19:] == 0.0).all() and np.isfinite(exact.log_tv).all()
    slope = np.polyfit(np.arange(30, 61), exact.log_tv[30:], 1)[0]
    assert -2.2 < slope < -2.0


@st.composite
def priors(draw):
    row = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)))
    return (row / row.sum()).tolist()


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(priors(), priors(), st.integers(1, 60), st.integers(0, 2**16))
def test_the_oracle_reproduces_the_kaijser_closed_form(nu, beta, steps, seed):
    """The exact filter pair's per-state gaps are the closed form's within a
    few roundings of the prior differences. The kernel has zeros, so the gaps
    come from the filter pair alone, not from `exact_run`, whose ρ needs a
    positive kernel."""
    model = builtin_model("kaijser", nu, beta)
    record = sample_trajectory(model, model.true_prior, steps, seed).observations
    correct, wrong = exact_posteriors(model, record)
    gaps = [[float(abs(a - b)) for a, b in zip(p, q)] for p, q in zip(correct, wrong)]
    closed = kaijser_closed_form(model.true_prior.values, model.wrong_prior.values, record)
    np.testing.assert_allclose(gaps, closed, rtol=0, atol=1e-15)
