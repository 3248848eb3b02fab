"""Values computed on first read.

`FilterRun.log_normalizers` is not computed by `run_filter`,
`run_filter_pair` or `run_scenario`: the first read computes it, and every
later read returns that same read-only array. The first read equals the
reference loops of `reference.py`. Each replicate's envelope, which
`backward_pass` computes along its wrong-prior run, equals `_envelope`
along that run, bit for bit.
"""

import numpy as np
import pytest

from filterstab import (
    NumericalError,
    Scenario,
    backward_pass,
    build_model,
    builtin_model,
    run_filter,
    run_filter_pair,
    run_scenario,
)
from filterstab.backward import _envelope, _envelope_scale
from filterstab.filtering import _engine
from reference import reference_backward, reference_filter

# sigma 0.5 and means 0 and 1: an observation at 25 or -30 underflows the
# linear normalizer and is redone in the log domain
GAUSSIAN = build_model({
    "states": 2,
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "observation": {"type": "gaussian", "means": [0.0, 1.0], "sigma": 0.5},
    "nu": [0.7, 0.3],
    "beta": [0.5, 0.5],
})

OUTLIERS = [0.3, 25.0, 0.9, 0.2, -30.0, 0.6, 1.1]


def assert_read_once(run, expected):
    assert "log_normalizers" not in vars(run)
    logs = run.log_normalizers
    assert logs.tobytes() == np.asarray(expected, dtype=float).tobytes()
    assert run.log_normalizers is logs
    assert not logs.flags.writeable


def test_run_filter_logs_rescued_outliers_on_first_read():
    run = run_filter(GAUSSIAN.true_prior, OUTLIERS, GAUSSIAN)
    _, log_norms = reference_filter(GAUSSIAN, GAUSSIAN.true_prior.values, OUTLIERS)
    assert log_norms[1] < -1000.0 and log_norms[4] < -1000.0
    assert_read_once(run, log_norms)


def test_pair_logs_on_first_read():
    pair = run_filter_pair(GAUSSIAN, OUTLIERS)
    for run, prior in ((pair.run_correct, GAUSSIAN.true_prior),
                       (pair.run_wrong, GAUSSIAN.wrong_prior)):
        assert_read_once(run, reference_filter(GAUSSIAN, prior.values, OUTLIERS)[1])


def test_batch_logs_on_first_read_and_a_failed_step_raises():
    # rescues before and after a NaN: the NaN fails the pass; without it every
    # run's logs, rescued ones included, equal the reference
    records = np.array([[0.3, 25.0, 0.9, np.nan, 0.2, 0.6],
                        [0.4, 1.2, -30.0, 0.1, 25.0, 0.8]])
    priors = np.stack([GAUSSIAN.true_prior.values, GAUSSIAN.wrong_prior.values])
    with pytest.raises(NumericalError, match=r"\(at step 4\)$"):
        _engine(GAUSSIAN, priors, records)
    records[0, 3] = 0.5
    runs = _engine(GAUSSIAN, priors, records)
    for r, record in enumerate(records):
        for p, prior in enumerate(priors):
            densities, log_norms = reference_filter(GAUSSIAN, prior, record)
            assert (log_norms < -1000.0).sum() == (1 if r == 0 else 2)
            read = runs[r][p]
            np.testing.assert_array_equal(read.densities, densities)
            assert_read_once(read, log_norms)


@pytest.mark.parametrize("replicates", [1, 3, 50])
@pytest.mark.parametrize("name", ["example11", "mixing2", "uniformK"])
def test_every_replicate_reads_its_batched_envelope_row(name, replicates):
    scenario = Scenario(builtin_model(name), horizon=100, replicates=replicates, seed=3)
    records = run_scenario(scenario)
    model = scenario.model
    for record in records:
        wrong = record.pair.run_wrong.densities
        scale = _envelope_scale(model.wrong_prior.values, record.coeffs)
        assert scale is not None
        row = _envelope(model, scale, record.coeffs, wrong)
        bounds = backward_pass(model, record.coeffs, wrong).bounds
        assert "log_normalizers" not in vars(record.pair.run_correct)
        assert "log_normalizers" not in vars(record.pair.run_wrong)
        assert bounds.tobytes() == row.tobytes()
        assert bounds.tobytes() == reference_backward(model, record.coeffs, wrong)[1].tobytes()
        assert not bounds.flags.writeable
    for record in records:
        correct = reference_filter(model, model.true_prior.values,
                                   record.trajectory.observations)[1]
        assert_read_once(record.pair.run_correct, correct)

