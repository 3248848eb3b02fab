"""README's library example runs as written, so a signature change cannot
leave it stale, and its figures on the scope of the rate claim hold."""

import re
from pathlib import Path

import pytest

from filterstab import build_model, invariant_density, mixing_coefficients, run_filter_pair
from filterstab.filtering import decay_rate
from filterstab.harness import Scenario, run_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ```python block under README's "Library entry points" heading."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs():
    namespace = {}
    exec(compile(library_example(), f"{README}:Library entry points", "exec"), namespace)
    back, pair = namespace["back"], namespace["pair"]
    assert back.oscillations.shape == (500, 2)
    assert back.likelihood_ratios.shape == (501,)
    assert pair.run_wrong.densities.shape == (501, 2)


def scope_model(gamma):
    """README's two-state chain at unit weights, read through `gamma`."""
    return build_model({
        "states": 2, "transition": [[0.0, 1.0], [0.49815, 0.50185]],
        "observation": {"type": "finite", "gamma": gamma},
        "nu": [0.9, 0.1], "beta": [0.5, 0.5],
    })


def test_the_rate_holds_on_sampled_records_not_on_every_record():
    """The rate is a claim about the records the model draws. A record of 400
    zeros, each with likelihoods (0.627, 2.2e-4), forgets at a trailing-half
    slope of about -0.0133, far above -rate = -0.3325; through a sharper
    channel, 50 drawn records bring the gap below 1e-14 within 8 steps."""
    model = scope_model([[0.627, 0.373], [2.2e-4, 1.0 - 2.2e-4]])
    rate = mixing_coefficients(model, invariant_density(model.kernel, model.space)).tv_decay_rate
    assert rate == pytest.approx(0.3325, abs=1e-4)
    slope = decay_rate(run_filter_pair(model, [0] * 400).tv).slope
    assert slope == pytest.approx(-0.01334, abs=1e-5) and slope > -rate + 0.1
    sharp = scope_model([[0.99, 0.01], [0.0003, 0.9997]])
    for seed in (7, 1):
        records = run_scenario(Scenario(sharp, horizon=8, replicates=50, seed=seed))
        assert max(record.pair.tv[8] for record in records) < 1e-14
