"""Exact symmetries of the CLI outputs under a change of units of ψ.

Multiplying every state weight by 2**k and every density (transition rows,
``nu``, ``beta``) by 2**-k describes the same model, and a power of two
changes no bit of a product or quotient that stays in the float range. So
every subcommand but ``kaijser`` (which reads no model) must print the same
table: each column bit for bit, or, where its unit is a density, exactly
2**-k times its value at unit weights. The density columns are
``delta_max`` and ``osc_bound_max`` (``stability`` and ``backward``) and
``validate``'s density fields; ``validate``'s ``weights`` is ψ itself, 2**k
times its value. At k = ±520 the squared largest density leaves the float
range, which the geometric prefactor must not see; ``validate`` and
``ergodicity`` run there too.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import run_in_process

DENSITY_COLUMNS = {"delta_max", "osc_bound_max"}
DENSITY_FIELDS = {"invariant_density", "max_density", "min_density", "mixing_coefficient"}
VALIDATE, ERGODICITY = ["validate"], ["ergodicity", "--horizon", "20"]
COMMANDS = [
    VALIDATE,
    ["simulate", "--horizon", "40"],
    ["stability", "--horizon", "40", "--replicates", "3"],
    ERGODICITY,
    ["backward", "--horizon", "40"],
    ["lln", "--horizon", "40"],
    ["lln", "--horizon", "40", "--wrong-prior"],
]


@st.composite
def documents(draw, max_states=4):
    """A finite or Gaussian model document with d = 2..`max_states`, positive
    kernel entries, and unit weights or weights in [0.5, 2]."""
    d = draw(st.integers(2, max_states))
    psi = np.ones(d)
    if draw(st.booleans()):
        psi = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d)))

    def density(weights):
        row = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(weights),
                                     max_size=len(weights))))
        return (row / (row @ weights)).tolist()

    if draw(st.booleans()):
        observation = {"type": "gaussian", "sigma": draw(st.floats(0.2, 2.0)),
                       "means": draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))}
    else:
        symbols = np.ones(draw(st.integers(2, 3)))
        observation = {"type": "finite", "gamma": [density(symbols) for _ in range(d)]}
    return {"states": d, "psi": psi.tolist(), "transition": [density(psi) for _ in range(d)],
            "observation": observation, "nu": density(psi), "beta": density(psi)}


def rescaled(document, k):
    """The same model with the weight of each state j times 2**k[j] and each
    density's value at j times 2**-k[j]; a single k scales every state."""
    scale = 2.0 ** np.broadcast_to(k, document["states"])
    scaled = dict(document, psi=(document["psi"] * scale).tolist())
    for key in ("nu", "beta"):
        scaled[key] = (document[key] / scale).tolist()
    scaled["transition"] = (np.array(document["transition"]) / scale).tolist()
    return scaled


def outputs(tmp_path, argv, document):
    """The command's exit code, its stderr and every text it writes."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    out = tmp_path / ("validate.json" if argv == VALIDATE else "out.csv")
    result = run_in_process([*argv, "--model", str(path), "--output", str(out)])
    summary = tmp_path / "out.json"  # `stability`'s summary
    texts = [p.read_text() for p in (out, summary) if p.exists()]
    for p in (out, summary):
        p.unlink(missing_ok=True)
    return result, texts


def assert_scaled(unit, scaled, k):
    """Each scaled entry is its unit entry times 2**k exactly; empty cells stay empty."""
    def values(cells):
        return [None if c == "" else float(c) for c in cells]
    assert values(scaled) == [None if u is None else u * 2.0**k for u in values(unit)]


def assert_tables_match(unit, scaled, k):
    unit_rows, scaled_rows = (list(csv.reader(io.StringIO(text))) for text in (unit, scaled))
    assert unit_rows[0] == scaled_rows[0] and len(unit_rows) == len(scaled_rows)
    unit_columns, scaled_columns = (list(zip(*rows[1:])) for rows in (unit_rows, scaled_rows))
    for name, unit_column, scaled_column in zip(unit_rows[0], unit_columns, scaled_columns):
        if name in DENSITY_COLUMNS:
            assert_scaled(unit_column, scaled_column, -k)
        else:
            assert scaled_column == unit_column, name


def assert_reports_match(unit, scaled, k):
    unit, scaled = json.loads(unit), json.loads(scaled)
    assert unit.keys() == scaled.keys()
    for name, u in unit.items():
        if name in DENSITY_FIELDS:
            assert_scaled(np.ravel(u), np.ravel(scaled[name]), -k)
        elif name == "weights":
            assert_scaled(u, scaled[name], k)
        else:
            assert scaled[name] == u, name


def assert_scale_free(tmp_path, argv, document, k):
    (unit_code, unit_err), unit_texts = outputs(tmp_path, argv, document)
    (code, err), texts = outputs(tmp_path, argv, rescaled(document, k))
    assert (unit_code, unit_err) == (0, "")
    assert (code, err) == (0, "")
    assert len(texts) == len(unit_texts)
    for unit, scaled in zip(unit_texts, texts):
        if unit.startswith("{"):  # `validate`'s report or `stability`'s summary
            assert_reports_match(unit, scaled, k)
        else:
            assert_tables_match(unit, scaled, k)


@pytest.mark.parametrize("k", [3, -5, 40])
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(document=documents())
def test_every_command_is_scale_free_in_powers_of_two(k, document, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("symmetry")
    for argv in COMMANDS:
        assert_scale_free(tmp_path, argv, document, k)


@pytest.mark.parametrize("k", [520, -520])
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(document=documents())
def test_validate_and_ergodicity_are_scale_free_where_max_squared_leaves_the_range(
        k, document, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("symmetry")
    for argv in (VALIDATE, ERGODICITY):
        assert_scale_free(tmp_path, argv, document, k)


# the columns in probability units, by command: they read no density
PROBABILITY_COLUMNS = {
    "simulate": {"n", "state", "observation"},
    "stability": {"n", "tv", "log_tv", "likelihood_ratio"},
    "ergodicity": {"u", "n", "gap"},
    "backward": {"n"},
    "lln": {"n", "state", "running_average", "target", "gap"},
}


@pytest.mark.parametrize("k", [(1, -2, 3, 0, -4, 2), (5, -7, 2, 1, 0, -3),
                               (-30, 0, 12, 7, -9, 4)])
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(document=documents(max_states=6))
def test_filter_and_sampler_outputs_are_free_of_per_state_powers_of_two(
        k, document, tmp_path_factory):
    """Weight 2**k[j] on state j and densities 2**-k[j] at j: every column
    in probability units stays bit for bit, `simulate`'s, `stability`'s tv,
    log_tv and likelihood_ratio over 3 replicates (so a stack of filter rows
    runs with other weights), `ergodicity`'s gap and `lln`'s table from
    either prior; so does `validate`'s invariant density times the weights."""
    tmp_path = tmp_path_factory.mktemp("symmetry")
    scaled = rescaled(document, k[:document["states"]])
    for argv in COMMANDS:
        (unit_code, unit_err), unit_texts = outputs(tmp_path, argv, document)
        (code, err), texts = outputs(tmp_path, argv, scaled)
        assert (unit_code, unit_err) == (code, err) == (0, "")
        if argv == VALIDATE:
            laws = [np.multiply(report["invariant_density"], report["weights"]).tolist()
                    for report in (json.loads(t[0]) for t in (unit_texts, texts))]
            assert laws[1] == laws[0]
            continue
        unit_rows, rows = (list(csv.reader(io.StringIO(t[0]))) for t in (unit_texts, texts))
        assert unit_rows[0] == rows[0] and len(unit_rows) == len(rows)
        for name, unit_column, column in zip(rows[0], zip(*unit_rows), zip(*rows)):
            if name in PROBABILITY_COLUMNS[argv[0]]:
                assert column == unit_column, (argv, name)
