import argparse
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from filterstab import (
    SCENARIO_NAMES,
    build_model,
    builtin_model,
    geometric_ergodicity_report,
    invariant_density,
    mixing_coefficients,
    run_filter,
    sample_trajectory,
)
from filterstab import model as model_module
from filterstab.cli import _COMMANDS, build_parser, load_model, main
from filterstab.ergodicity import BOUND_FLOOR, _running_averages
from filterstab.errors import InvalidModelError
from filterstab.harness import BUILTIN_DOCUMENTS
from helpers import OVERFLOWING_DENSITY, RHO_OVERFLOWS_AT_STEP_1, random_kernel_matrix
from test_cli_bytes import GAUSSIAN3

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "kaijser.json"


def fixture_document():
    return json.loads(FIXTURE.read_text())


# a 3-state model whose rows change bits when renormalized a second time
REPRO = {
    "states": 3,
    "transition": [[0.1, 0.2, 0.7], [0.2, 0.7, 0.1], [0.7, 0.1, 0.2]],
    "observation": {"type": "finite", "gamma": [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]},
    "nu": [0.6, 0.3, 0.1],
    "beta": [0.3, 0.3, 0.4],
}

GAUSSIAN = {
    "states": 2,
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "observation": {"type": "gaussian", "means": [0.0, 1.0], "sigma": 0.5},
    "nu": [0.9, 0.1],
    "beta": [0.5, 0.5],
}


# one closed class of period 3, with the law (1/3, 1/3, 1/10, 7/30)
PERIOD_THREE = {
    "states": 4,
    "transition": [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.3, 0.7],
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ],
    "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 4},
    "nu": [0.25] * 4,
    "beta": [0.25] * 4,
}


# the benchmark's slowly mixing session model, at a faster eps = 1e-3
SLOWMIX = {
    "states": 2,
    "transition": [[1.0 - 1e-3, 1e-3], [2e-3, 1.0 - 2e-3]],
    "observation": {"type": "gaussian", "means": [0.0, 1.0], "sigma": 0.5},
    "nu": [0.9, 0.1],
    "beta": [0.5, 0.5],
}


# GAUSSIAN with state weights: its rows and priors are densities against `psi`
PSI = np.array([0.5, 2.0])
PSI_GAUSSIAN = dict(
    GAUSSIAN, psi=PSI.tolist(),
    transition=(np.array(GAUSSIAN["transition"]) / PSI).tolist(),
    nu=(np.array(GAUSSIAN["nu"]) / PSI).tolist(),
    beta=(np.array(GAUSSIAN["beta"]) / PSI).tolist(),
)


def copy_of(document):
    return json.loads(json.dumps(document))


def write_model(tmp_path, document):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    return path


class TestParseConfig:
    def test_kaijser_fixture(self):
        model = build_model(fixture_document())
        assert model.space.num_states == 4
        assert model.observation.kind == "finite"
        np.testing.assert_allclose(model.true_prior.values, [0.5, 0.2, 0.2, 0.1])

    def test_missing_beta_names_the_key(self):
        doc = fixture_document()
        del doc["beta"]
        with pytest.raises(InvalidModelError, match="'beta'"):
            build_model(doc)

    def test_small_row_sum_error_is_renormalized(self):
        doc = fixture_document()
        doc["transition"][0] = [0.50000005, 0.50000005, 0.0, 0.0]
        model = build_model(doc)
        np.testing.assert_allclose(model.kernel.matrix[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_large_row_sum_error_is_rejected(self):
        doc = fixture_document()
        doc["transition"][0] = [0.505, 0.505, 0.0, 0.0]
        with pytest.raises(InvalidModelError, match="transition"):
            build_model(doc)


class TestMalformedDocuments:
    CASES = {
        "nu-string": (fixture_document(), lambda d: d.update(nu=["a", 0, 0, 0]), "'nu'"),
        "gamma-ragged": (fixture_document(),
                         lambda d: d["observation"].update(gamma=[[0.0, 1.0], [1.0], [0.0, 1.0], [1.0, 0.0]]),
                         "'observation.gamma'"),
        "sigma-string": (GAUSSIAN, lambda d: d["observation"].update(sigma="x"), "'observation.sigma'"),
        "means-string": (GAUSSIAN, lambda d: d["observation"].update(means=["a", 1]), "'observation.means'"),
        "states-fraction": (fixture_document(), lambda d: d.update(states=4.7), "'states'"),
        "states-bool": (fixture_document(), lambda d: d.update(states=True), "'states'"),
        "states-string": (fixture_document(), lambda d: d.update(states="4"), "'states'"),
        "transition-null": (fixture_document(), lambda d: d.update(transition=None), "'transition'"),
        "beta-bool": (fixture_document(), lambda d: d.update(beta=[True] * 4), "'beta'"),
        "psi-short": (fixture_document(), lambda d: d.update(psi=[1.0, 1.0]), "'psi'"),
        "nu-mass": (fixture_document(), lambda d: d.update(nu=[0.5, 0.5, 0.5, 0.5]), "'nu'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_one_and_key_named(self, case, tmp_path, capsys):
        document, edit, key = self.CASES[case]
        doc = copy_of(document)
        edit(doc)
        path = write_model(tmp_path, doc)
        assert main(["validate", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err

    def test_integral_float_states_accepted(self):
        doc = fixture_document()
        doc["states"] = 4.0
        model = build_model(doc)
        assert model.space.num_states == 4

    def test_row_error_prints_a_plain_float(self):
        doc = fixture_document()
        doc["transition"][1] = [0.0, 0.1, 0.1, 0.0]
        with pytest.raises(InvalidModelError) as info:
            build_model(doc)
        assert str(info.value) == (
            "invalid kernel: 'transition' row 1 integrates to 0.2, not 1 (tolerance 1e-06)"
        )

    def test_zero_weight_is_a_weight_error(self):
        doc = fixture_document()
        doc["psi"] = [1.0, 0.0, 1.0, 1.0]
        with pytest.raises(InvalidModelError, match="state weights must be finite and strictly positive"):
            build_model(doc)


class TestOneIngestionPath:
    def test_prior_override_does_not_move_bits(self, tmp_path, capsys):
        path = write_model(tmp_path, REPRO)
        assert main(["validate", "--model", str(path)]) == 0
        plain = capsys.readouterr().out
        assert main(["validate", "--model", str(path), "--nu", "0.6,0.3,0.1"]) == 0
        assert capsys.readouterr().out == plain
        expected = build_model(REPRO).kernel.matrix
        np.testing.assert_array_equal(load_model(path).kernel.matrix, expected)
        np.testing.assert_array_equal(load_model(path, [0.6, 0.3, 0.1]).kernel.matrix, expected)
        np.testing.assert_array_equal(json.loads(plain)["min_density"], expected.min())

    def test_rows_are_renormalized_once(self):
        doc = copy_of(REPRO)
        doc["transition"][0] = [x * (1 + 1e-7) for x in doc["transition"][0]]
        m = np.array(doc["transition"])
        w = np.ones(3)
        np.testing.assert_array_equal(build_model(doc).kernel.matrix, m / (m @ w)[:, None])

    def test_prior_override_on_a_file_is_validated(self, tmp_path, capsys):
        path = write_model(tmp_path, REPRO)
        assert main(["validate", "--model", str(path), "--beta", "0.5,0.5,0.0"]) == 1
        assert "beta not bounded below" in capsys.readouterr().err

    def test_overflowing_prior_mass_fails_with_only_its_message(self):
        # `-W error` would turn a warning on the way (an overflowing mass) into a traceback
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "filterstab.cli", "validate",
             "--scenario", "mixing2", "--nu", "1e308,1e308"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert result.returncode == 1
        assert result.stderr == ("error: invalid model document: 'nu': density mass inf "
                                 "deviates from 1 beyond 1e-09\n")


class TestValidateCommand:
    def test_kaijser_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["validate", "--model", str(FIXTURE), "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["min_density"] == 0.0
        assert report["mixing_coefficient"] == 0.0
        assert report["max_density"] == 0.5
        assert report["primitivity_power"] == 3
        np.testing.assert_allclose(report["invariant_density"], 0.25, atol=1e-10)

    def test_stdout_default(self, capsys):
        rc = main(["validate", "--scenario", "mixing2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mixing_coefficient"] == pytest.approx(0.375, abs=1e-12)

    def test_missing_model_and_scenario(self, capsys):
        assert main(["validate"]) == 1

    def test_nonexistent_file(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--model", str(bad)]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = dict(PERIOD_THREE, transition=[
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        assert main(["validate", "--model", str(write_model(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == ("numerical failure: no unique invariant density found: "
                                           "closed classes of states {0, 1} and {2, 3}\n")

    def test_a_chain_out_of_steps_is_solved(self, tmp_path, capsys):
        # the power iteration runs out of steps at eps = 5e-6 (about 1 s), and GTH
        # solves the chain: its off-diagonals eps and 2 eps give the law (2/3, 1/3)
        eps = 5e-6
        doc = copy_of(SLOWMIX)
        doc["transition"] = [[1.0 - eps, eps], [2.0 * eps, 1.0 - 2.0 * eps]]
        out = tmp_path / "report.json"
        assert main(["validate", "--model", str(write_model(tmp_path, doc)),
                     "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        np.testing.assert_allclose(json.loads(out.read_text())["invariant_density"],
                                   [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)

    def test_model_and_scenario_are_exclusive(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["validate", "--scenario", "mixing2", "--model", str(missing)]) == 1
        assert "not allowed with" in capsys.readouterr().err


class TestStabilityCommand:
    def test_kaijser_reference_run(self, tmp_path):
        out = tmp_path / "kaijser.csv"
        rc = main(["stability", "--scenario", "kaijser", "--horizon", "1000",
                   "--seed", "7", "--output", str(out)])
        assert rc == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert abs(summary["slopes"][0]) < 1e-9
        assert summary["kaijser"]["floor"] == pytest.approx(0.2, abs=1e-12)
        assert summary["kaijser"]["passed"] is True
        assert summary["passed"] is True
        header = out.read_text().splitlines()[0]
        assert header == "n,tv,log_tv,bound_log_tv,delta_max,osc_bound_max,likelihood_ratio"

    def test_mixing_scenario_meets_rate_bound(self, tmp_path):
        out = tmp_path / "mixing.csv"
        rc = main(["stability", "--scenario", "mixing2", "--horizon", "500",
                   "--seed", "1", "--output", str(out)])
        assert rc == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        bound = -15.0 / 28.0 + 0.1
        for slope, conv in zip(summary["slopes"], summary["converged"]):
            assert conv or float(slope) <= bound

    # each run has a replicate whose gap falls to 0 inside the trailing window:
    # example11 seed 7 and mixing2 seed 8 with one usable point left there
    # (exit 2 while that raised), mixing2 seed 5 with a slope of +log 4 fitted
    # through two rounding values (exit 3 while that was gated)
    @pytest.mark.parametrize("scenario, horizon, replicates, seed", [
        ("example11", 60, 50, 7), ("mixing2", 40, 5, 5), ("mixing2", 40, 5, 8)])
    def test_gap_collapsed_in_the_window_has_converged(self, tmp_path, scenario, horizon,
                                                       replicates, seed):
        out = tmp_path / "run.csv"
        rc = main(["stability", "--scenario", scenario, "--horizon", str(horizon),
                   "--replicates", str(replicates), "--seed", str(seed), "--output", str(out)])
        assert rc == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["passed"] is True
        assert summary["converged"] == [True] * replicates
        assert summary["slopes"] == ["-inf"] * replicates

    @pytest.mark.parametrize("fmt, table, summary", [("csv", "run.csv", "run.json"),
                                                     ("json", "run.json", "run.summary.json")])
    def test_stdout_prints_the_file_bytes_table_first(self, tmp_path, capsys, fmt, table,
                                                      summary):
        args = ["stability", "--scenario", "kaijser", "--horizon", "60", "--replicates", "2",
                "--format", fmt]
        assert main(args + ["--output", str(tmp_path / table)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        files = (tmp_path / table).read_text() + (tmp_path / summary).read_text()
        assert capsys.readouterr().out == files

    def test_every_replicate_kaijser_report_gates_the_run(self, tmp_path, monkeypatch):
        """The summary shows replicate 0's report; `passed` reads them all."""
        import filterstab.harness as harness

        original, calls = harness._verify_kaijser_on, []

        def second_fails(*args):
            calls.append(None)
            report = original(*args)
            return report._replace(max_drift=1.0) if len(calls) == 2 else report

        monkeypatch.setattr(harness, "_verify_kaijser_on", second_fails)
        out = tmp_path / "run.csv"
        assert main(["stability", "--scenario", "kaijser", "--horizon", "60",
                     "--replicates", "2", "--output", str(out)]) == 3
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["kaijser"]["passed"] is True and summary["passed"] is False
        assert len(calls) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["stability", "--scenario", "mixing2", "--horizon", "300", "--seed", "5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".json").read_text() == b.with_suffix(".json").read_text()


class TestSubnormalPriorAtomsExitTwo:
    """A subnormal atom in the wrong prior makes the envelope scale underflow
    or overflow, or the prior ratio overflow: exit 2 with one line that names
    the cause. Tier-1 turns warnings into errors, so no numpy warning may
    escape."""

    @pytest.mark.parametrize("command, priors, cause", [
        ("stability", ["--nu", "5e-324,1", "--beta", "5e-324,1"],
         "envelope scale underflows: theta_min * mixing coefficient = 5e-324 * 0.375 rounds to 0"),
        ("backward", ["--nu", "5e-324,1", "--beta", "5e-324,1"],
         "envelope scale underflows: theta_min * mixing coefficient = 5e-324 * 0.375 rounds to 0"),
        ("stability", ["--beta", "5e-324,1"], "prior ratio overflows at state 0: nu 0.9 / beta 5e-324"),
        ("backward", ["--beta", "5e-324,1"], "prior ratio overflows at state 0: nu 0.9 / beta 5e-324"),
        ("stability", ["--nu", "1e-323,1", "--beta", "1e-323,1"],
         "envelope scale overflows: max density**2 / (theta_min * mixing coefficient) = "
         "0.7**2 / (1e-323 * 0.375)"),
        ("backward", ["--nu", "1e-323,1", "--beta", "1e-323,1"],
         "envelope scale overflows: max density**2 / (theta_min * mixing coefficient) = "
         "0.7**2 / (1e-323 * 0.375)"),
    ])
    def test_one_line_and_exit_two(self, command, priors, cause, tmp_path, capsys):
        rc = main([command, "--scenario", "mixing2", "--horizon", "20", *priors,
                   "--output", str(tmp_path / "out.csv")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"numerical failure: {cause}"]


# entries from subnormal to 1e300, and zero
ENTRIES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-170, 1e300]),
                    st.floats(min_value=5e-324, max_value=1e300))


@st.composite
def densities(draw, weights):
    """Entries with integral 1 against `weights`, unless they are all 0."""
    raw = draw(st.lists(ENTRIES, min_size=len(weights), max_size=len(weights)))
    if max(raw) == 0.0:
        return raw
    scaled = [x / max(raw) for x in raw]  # so that no product with a weight overflows
    total = math.fsum(x * w for x, w in zip(scaled, weights))
    return [x / total for x in scaled] if total > 0.0 else raw


@st.composite
def fuzz_documents(draw):
    """A model document of d <= 3 states, finite or Gaussian, with extreme
    entries and sigma from 1e-170 to 1e150."""
    d = draw(st.integers(1, 3))
    document = {"states": d}
    weights = [1.0] * d
    if draw(st.booleans()):
        weights = document["psi"] = draw(st.lists(ENTRIES, min_size=d, max_size=d))
    document["transition"] = [draw(densities(weights)) for _ in range(d)]
    if draw(st.booleans()):
        document["observation"] = {
            "type": "gaussian",
            "means": draw(st.lists(st.builds(math.copysign, ENTRIES, st.sampled_from([1, -1])),
                                   min_size=d, max_size=d)),
            "sigma": 10.0 ** draw(st.floats(-170, 150))}
    else:
        ones = [1.0] * draw(st.integers(1, 3))
        document["observation"] = {"type": "finite",
                                   "gamma": [draw(densities(ones)) for _ in range(d)]}
    document["nu"], document["beta"] = draw(densities(weights)), draw(densities(weights))
    return document, weights


def run_in_process(argv):
    """`main(argv)` as under ``python -W error``, but for the documented
    warning on a true prior with a zero atom: its exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "true prior has zero atoms", RuntimeWarning)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn=fuzz_documents(), data=st.data())
def test_every_command_exits_with_its_code_and_one_line(drawn, data):
    """Every subcommand, on extreme model documents and prior flags, exits 0
    or 3 silently, or 1 or 2 with one line that names the failure."""
    document, weights = drawn
    horizon = str(data.draw(st.integers(1, 20), label="horizon"))
    flags = []
    for flag in ("--nu", "--beta"):
        if data.draw(st.booleans(), label=flag):
            size = data.draw(st.sampled_from([len(weights)] * 3 + [1, 4]), label=f"{flag} size")
            prior = data.draw(densities(weights if size == len(weights) else [1.0] * size))
            flags.append(f"{flag}=" + ",".join(map(repr, prior)))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(document))
        source = ["--model", str(model), *flags]
        table = ["--horizon", horizon, "--output", str(Path(tmp) / "out.csv")]
        for argv in (["validate", *source, "--output", str(Path(tmp) / "out.json")],
                     ["simulate", *source, *table],
                     ["stability", *source, *table, "--replicates", "2"],
                     ["ergodicity", *source, *table],
                     ["backward", *source, *table],
                     ["lln", *source, *table, "--wrong-prior"],
                     ["kaijser", *flags, "--horizon", horizon,
                      "--output", str(Path(tmp) / "out.json")]):
            rc, err = run_in_process(argv)
            lines = err.splitlines()
            assert rc in (0, 1, 2, 3), argv
            if rc in (0, 3):
                assert lines == [], argv
            else:
                prefix = {1: "error: ", 2: "numerical failure: "}[rc]
                assert len(lines) == 1 and lines[0].startswith(prefix), (argv, err)


def one_state(psi, density):
    """A 1-state finite model on a state of weight `psi` whose kernel and
    priors all have the density `density`."""
    return {"states": 1, "psi": [psi], "transition": [[density]],
            "observation": {"type": "finite", "gamma": [[1.0]]}, "nu": [density], "beta": [density]}


def weight_scaled(name, scale):
    """The builtin document `name` with every state weight multiplied by
    `scale` and every density against them divided by it: the same model."""
    document = copy_of(BUILTIN_DOCUMENTS[name])
    document["psi"] = [scale] * document["states"]
    document["transition"] = [[x / scale for x in row] for row in document["transition"]]
    document["nu"] = [x / scale for x in document["nu"]]
    document["beta"] = [x / scale for x in document["beta"]]
    return document


# inputs on which a numpy warning or a ZeroDivisionError escaped, and
# documents that no other test reached, each with the exit code and the one
# line it gives now
@pytest.mark.parametrize("command, document, rc, line", [
    ("validate", {"states": 2, "psi": [5e-324, 2e299], "transition": [[0.0, 1e308], [0.0, 1.0]],
                  "observation": {"type": "finite", "gamma": [[1.0], [1.0]]},
                  "nu": [0.0, 5e-300], "beta": [0.0, 5e-300]},
     1, "error: invalid kernel: 'transition' row 0 integrates to inf, not 1 (tolerance 1e-06)"),
    # the envelope scale underflows; it fails before rho, whose first numerator
    # underflows to 0, then 0/0: a numerical failure, not bad input
    ("stability", one_state(7.564873388636578e+299, 1.3218991893534264e-300),
     2, "numerical failure: envelope scale underflows: theta_min * mixing coefficient = "
        "1.3218991893534264e-300 * 1.3218991893534264e-300 rounds to 0"),
    ("backward", one_state(7.564873388636578e+299, 1.3218991893534264e-300),
     2, "numerical failure: envelope scale underflows: theta_min * mixing coefficient = "
        "1.3218991893534264e-300 * 1.3218991893534264e-300 rounds to 0"),
    # the invariant density is weighed first, so the coefficient stays in range
    ("validate", one_state(1e-170, 1e170), 0, None),
    # a transition density times the weight of its source state overflows, but the
    # invariant law steps P = K diag(w), whose entries are 0 and 1
    ("validate", {"states": 3, "psi": [1.0, 4.8552528789402365e+37, 2.7008240643429375e-271],
                  "transition": [[0.0, 0.0, 3.702573644845253e+270]] * 3,
                  "observation": {"type": "finite", "gamma": [[1.0], [1.0], [1.0]]},
                  "nu": [0.0, 0.0, 3.702573644845253e+270], "beta": [2.0596249565857248e-38] * 3},
     0, None),
    # a constant-in-target kernel, found degenerate: no prefactor to overflow
    ("validate", one_state(3.598461781749395e+155, 2.7789651819335127e-156), 0, None),
    ("lln", dict(GAUSSIAN, observation={"type": "gaussian", "means": [0.0, 1e300], "sigma": 1e-18}),
     0, None),
    # the three densities of the constant kernel differ by one ulp: the
    # ordering check is relative to the largest density
    ("validate", weight_scaled("uniformK", 1e-8), 0, None),
    ("validate", weight_scaled("uniformK", 1e-100), 0, None),
    ("validate", weight_scaled("uniformK", 1e-300), 0, None),
    # documents that `build_model` refuses, each with its message
    ("validate", [], 1, "error: invalid model document: expected a JSON object"),
    ("validate", dict(GAUSSIAN, observation={"type": "poisson", "means": [0.0, 1.0]}),
     1, "error: invalid model document: 'observation.type' must be 'finite' or 'gaussian', "
        "got 'poisson'"),
    ("validate", dict(GAUSSIAN, observation={"type": "gaussian", "sigma": 0.5}),
     1, "error: invalid model document: missing key 'observation.means'"),
    ("validate", dict(GAUSSIAN, observation={"type": "gaussian", "means": [0.0, 1.0], "sigma": 0}),
     1, "error: gaussian sigma must be positive, got 0.0"),
    ("validate", dict(GAUSSIAN, observation={"type": "gaussian", "means": [math.nan, 1.0],
                                             "sigma": 0.5}),
     1, "error: gaussian means must be a finite vector"),
    ("validate", dict(BUILTIN_DOCUMENTS["mixing2"], observation={
        "type": "finite", "gamma": [[0.8, 0.2], [0.2, 0.8]], "theta": [1, 0]}),
     1, "error: symbol weights must be finite and strictly positive"),
    ("validate", dict(BUILTIN_DOCUMENTS["mixing2"], nu=[-0.1, 1.1]),
     1, "error: invalid model document: 'nu': density values must be finite and nonnegative"),
    # rho's first column divides by a subnormal prediction of the state of weight 1e-310
    ("stability", RHO_OVERFLOWS_AT_STEP_1, 2, "numerical failure: backward density leaves "
                                             "the float range: an entry is inf or nan (at step 1)"),
    ("backward", RHO_OVERFLOWS_AT_STEP_1, 2, "numerical failure: backward density leaves "
                                            "the float range: an entry is inf or nan (at step 1)"),
])
def test_extreme_documents_exit_with_one_line(command, document, rc, line, tmp_path):
    model = write_model(tmp_path, document)
    horizon = [] if command == "validate" else ["--horizon", "20"]
    assert run_in_process([command, "--model", str(model), *horizon,
                           "--output", str(tmp_path / "out")]) == (rc, f"{line}\n" if line else "")


@pytest.mark.parametrize("flags, line", [
    (["--nu", "abc"], "error: cannot parse prior override 'abc'"),
    (["--replicates", "0"], "error: stability needs at least one replicate"),
    (["--replicates", "-1"], "error: stability needs at least one replicate"),
])
def test_bad_stability_flags_exit_one_with_one_line(flags, line, tmp_path):
    out = tmp_path / "out.csv"
    assert run_in_process(["stability", "--scenario", "mixing2", *flags,
                           "--output", str(out)]) == (1, f"{line}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "stability", "ergodicity", "backward",
                                     "kaijser", "lln"])
def test_zero_horizon_exits_one_naming_the_flag(command, tmp_path):
    out = tmp_path / "out"
    source = [] if command == "kaijser" else ["--scenario", "mixing2"]
    assert run_in_process([command, *source, "--horizon", "0", "--output", str(out)]) == \
        (1, "error: horizon must be at least 1, got 0\n")
    assert not out.exists()


# at 1e200 the raw `avg * (max - avg)` underflows to 0, and at 1e-155 and below
# the raw `max * max` overflows; the prefactor is 4.02 at every scale
@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e20, 1e-20, 1e200, 1e-155, 1e-200])
def test_validate_does_not_depend_on_the_weight_scale(scale, tmp_path):
    """Multiplying `psi` by a scale and each density by its inverse gives the
    same model, so the same probabilities and coefficients as unit weights,
    and `ergodicity` passes as it does at unit weights."""
    model = write_model(tmp_path, weight_scaled("mixing2", scale))
    out = tmp_path / "validate.json"
    assert main(["validate", "--model", str(model), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [m * scale for m in report["invariant_density"]] == pytest.approx([0.375, 0.625],
                                                                             rel=1e-9)
    assert report["decay_rate_bound"] == pytest.approx(15 / 28, rel=1e-9)
    assert report["geo_prefactor"] == pytest.approx(0.49 / (0.375 * 0.325), rel=1e-9)
    assert run_in_process(["ergodicity", "--model", str(model), "--horizon", "5",
                           "--output", str(tmp_path / "ergodicity.csv")]) == (0, "")


def test_a_prefactor_beyond_the_float_range_is_inf(tmp_path):
    """The prefactor is about max / avg = 1e308 / 1e-20: inf, a vacuous bound."""
    model = write_model(tmp_path, {
        "states": 2, "psi": [1.0, 1e-308], "transition": [[1e-20, 1e308]] * 2,
        "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * 2},
        "nu": [0.5, 0.5e308], "beta": [0.5, 0.5e308]})
    out = tmp_path / "validate.json"
    assert run_in_process(["validate", "--model", str(model), "--output", str(out)]) == (0, "")
    assert json.loads(out.read_text())["geo_prefactor"] == "inf"
    assert run_in_process(["ergodicity", "--model", str(model), "--horizon", "5",
                           "--output", str(tmp_path / "ergodicity.csv")]) == (0, "")


# the seed-7 chain first enters state 1, of weight 1e-310, at step 70
@pytest.mark.parametrize("horizon", [70, 200])
def test_an_overflowing_posterior_density_exits_two_naming_its_step(horizon, tmp_path):
    model = write_model(tmp_path, OVERFLOWING_DENSITY)
    assert run_in_process(["validate", "--model", str(model),
                           "--output", str(tmp_path / "validate.json")]) == (0, "")
    built = build_model(OVERFLOWING_DENSITY)
    assert sample_trajectory(built, built.true_prior, horizon, 7).states.tolist().index(1) == 70
    out = tmp_path / "lln.csv"
    assert run_in_process(["lln", "--model", str(model), "--horizon", str(horizon),
                           "--seed", "7", "--output", str(out)]) == (
        2, "numerical failure: posterior density leaves the float range: an entry is inf or nan "
           "(at step 70)\n")
    assert not out.exists()


# kernels with two closed classes: each class has its own invariant density
@pytest.mark.parametrize("document, classes", [
    (dict(GAUSSIAN, transition=[[1.0, 0.0], [0.0, 1.0]]), "{0} and {1}"),
    ({"states": 3, "transition": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
      "observation": {"type": "gaussian", "means": [0.0, 1.0, 2.0], "sigma": 0.5},
      "nu": [0.2, 0.3, 0.5], "beta": [0.2, 0.3, 0.5]}, "{0} and {1, 2}"),
])
@pytest.mark.parametrize("command", ["validate", "ergodicity", "lln", "stability", "backward"])
def test_a_kernel_with_two_closed_classes_exits_two_naming_them(command, document, classes,
                                                                tmp_path):
    model = write_model(tmp_path, document)
    horizon = [] if command == "validate" else ["--horizon", "20"]
    out = tmp_path / "out"
    assert run_in_process([command, "--model", str(model), *horizon, "--output", str(out)]) == (
        2, f"numerical failure: no unique invariant density found: closed classes of states "
           f"{classes}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["validate"], ["stability", "--horizon", "50"],
                                  ["lln", "--horizon", "50"]], ids=["validate", "stability", "lln"])
def test_a_period_three_kernel_is_solved(argv, tmp_path):
    model = write_model(tmp_path, PERIOD_THREE)
    assert run_in_process([*argv, "--model", str(model), "--output", str(tmp_path / "out")]) == (
        0, "")


@pytest.mark.parametrize("psi, density", [(3.598461781749395e+155, 2.7789651819335127e-156),
                                          (1e-170, 1e170)])
def test_extreme_state_weights_keep_the_mixing_coefficient(psi, density, tmp_path):
    """The coefficient of a 1-state model is its one density, whatever the
    state weight: the constant kernel is degenerate with ratio 0."""
    model = write_model(tmp_path, one_state(psi, density))
    out = tmp_path / "validate.json"
    assert main(["validate", "--model", str(model), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mixing_coefficient"] == pytest.approx(density, rel=1e-12)
    assert report["max_density"] == pytest.approx(density, rel=1e-12)
    assert report["degenerate"] is True and report["geo_ratio"] == 0.0


@pytest.mark.parametrize("command", ["stability", "backward", "lln"])
def test_a_vanishing_gaussian_likelihood_is_zero_without_a_warning(command, tmp_path, capsys):
    """At sigma 1e-170 the squared standardized distance overflows to inf; its
    exp is the right density, 0, and no overflow warning escapes."""
    model = write_model(tmp_path, dict(GAUSSIAN, observation={
        "type": "gaussian", "means": [0.0, 1.0], "sigma": 1e-170}))
    assert main([command, "--model", str(model), "--horizon", "20",
                 "--output", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""


class TestOtherCommands:
    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--scenario", "mixing2", "--horizon", "20",
                   "--seed", "3", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,state,observation"
        assert len(lines) == 22
        assert lines[1].endswith(",")  # no observation at n = 0

    def test_ergodicity_csv(self, tmp_path):
        out = tmp_path / "ergo.csv"
        rc = main(["ergodicity", "--scenario", "mixing2", "--horizon", "30",
                   "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,n,gap,bound,ratio"
        assert len(lines) == 1 + 2 * 30

    def test_ergodicity_inapplicable_model_still_reports(self, tmp_path):
        out = tmp_path / "ergo_k.csv"
        rc = main(["ergodicity", "--model", str(FIXTURE), "--horizon", "10",
                   "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[3] == "" for row in rows)

    def test_backward_csv(self, tmp_path):
        out = tmp_path / "back.csv"
        rc = main(["backward", "--scenario", "mixing2", "--horizon", "50",
                   "--seed", "2", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,delta_max,osc_bound_max"
        assert len(lines) == 51

    def test_replicates_is_a_stability_option_only(self, tmp_path, capsys):
        # `backward` samples one record, so it does not accept a replicate count
        assert main(["backward", "--scenario", "mixing2", "--horizon", "20",
                     "--replicates", "2", "--output", str(tmp_path / "back.csv")]) == 1
        assert "--replicates" in capsys.readouterr().err
        out = tmp_path / "tv.csv"
        assert main(["stability", "--scenario", "mixing2", "--horizon", "20",
                     "--replicates", "2", "--output", str(out)]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["replicates"] == 2

    def test_kaijser_command(self, tmp_path):
        out = tmp_path / "kaijser.json"
        rc = main(["kaijser", "--horizon", "2000", "--seed", "11", "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["floor"] == pytest.approx(0.2, abs=1e-12)

    def test_kaijser_with_prior_overrides(self, tmp_path):
        rc = main(["kaijser", "--nu", "0.4,0.3,0.2,0.1", "--horizon", "500",
                   "--seed", "2", "--output", str(tmp_path / "k.json")])
        assert rc == 0
        report = json.loads((tmp_path / "k.json").read_text())
        assert report["floor_ok"] is None

    def test_lln_wrong_prior_flag(self, tmp_path):
        out = tmp_path / "lln_wrong.csv"
        rc = main(["lln", "--scenario", "mixing2", "--horizon", "2000",
                   "--seed", "4", "--wrong-prior", "--output", str(out)])
        assert rc == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[4]) < 0.1  # still converges to the invariant target

    def test_lln_csv(self, tmp_path):
        out = tmp_path / "lln.csv"
        rc = main(["lln", "--scenario", "mixing2", "--horizon", "200",
                   "--seed", "4", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,state,running_average,target,gap"
        assert len(lines) == 1 + 200 * 2
        final_rows = lines[-2:]
        for row in final_rows:
            gap = float(row.split(",")[4])
            assert gap < 0.2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FILTERSTAB_OUTPUT_DIR", str(tmp_path))
        rc = main(["validate", "--scenario", "mixing2", "--output", "report.json"])
        assert rc == 0
        assert (tmp_path / "report.json").exists()

    def test_json_table_format(self, tmp_path):
        out = tmp_path / "traj.json"
        rc = main(["simulate", "--scenario", "mixing2", "--horizon", "5",
                   "--seed", "3", "--format", "json", "--output", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 6
        assert rows[0]["observation"] is None
        assert set(rows[1]) == {"n", "state", "observation"}

    def test_csv_and_json_tables_agree(self, tmp_path):
        common = ["backward", "--scenario", "mixing2", "--horizon", "20", "--seed", "2"]
        csv_out = tmp_path / "b.csv"
        json_out = tmp_path / "b.json"
        assert main(common + ["--output", str(csv_out)]) == 0
        assert main(common + ["--format", "json", "--output", str(json_out)]) == 0
        csv_rows = csv_out.read_text().splitlines()[1:]
        json_rows = json.loads(json_out.read_text())
        assert len(csv_rows) == len(json_rows)
        first_csv = csv_rows[0].split(",")
        assert float(first_csv[1]) == pytest.approx(json_rows[0]["delta_max"], rel=1e-15)


EXAMPLE11_SHAPED = {
    "states": 4,
    "transition": [[0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.25, 0.25],
                   [0.25, 0.0, 0.5, 0.25], [0.25, 0.25, 0.0, 0.5]],
    "observation": {"type": "finite", "gamma": [[0.9, 0.1], [0.6, 0.4], [0.4, 0.6], [0.1, 0.9]]},
    "nu": [0.7, 0.1, 0.1, 0.1],
    "beta": [0.25, 0.25, 0.25, 0.25],
}


class TestKaijserGateFollowsTheModel:
    def run(self, tmp_path, document, file_name):
        model = tmp_path / file_name
        model.write_text(json.dumps(document))
        out = tmp_path / f"{model.stem}-out.csv"
        rc = main(["stability", "--model", str(model), "--horizon", "300", "--replicates", "2",
                   "--seed", "5", "--output", str(out)])
        return rc, out.read_text(), json.loads(out.with_suffix(".json").read_text())

    def test_file_name_does_not_trigger_the_gate(self, tmp_path):
        named, table_named, summary_named = self.run(tmp_path, EXAMPLE11_SHAPED, "kaijser.json")
        other, table_other, summary_other = self.run(tmp_path, EXAMPLE11_SHAPED, "other.json")
        assert named == other == 0
        assert table_named == table_other
        assert "kaijser" not in summary_named and "kaijser" not in summary_other

    def test_counterexample_model_is_gated_under_any_name(self, tmp_path):
        for name in ("kaijser.json", "other.json"):
            rc, _, summary = self.run(tmp_path, fixture_document(), name)
            assert rc == 0
            assert summary["kaijser"]["passed"] is True
            assert summary["kaijser"]["floor"] == pytest.approx(0.2, abs=1e-12)

    def test_scenario_and_fixture_give_the_same_bytes(self, tmp_path):
        from_scenario = tmp_path / "scenario.csv"
        from_file = tmp_path / "file.csv"
        common = ["stability", "--horizon", "400", "--replicates", "3", "--seed", "3"]
        assert main(common + ["--scenario", "kaijser", "--output", str(from_scenario)]) == 0
        assert main(common + ["--model", str(FIXTURE), "--output", str(from_file)]) == 0
        assert from_scenario.read_bytes() == from_file.read_bytes()
        summaries = [json.loads(p.with_suffix(".json").read_text())
                     for p in (from_scenario, from_file)]
        assert summaries[0]["kaijser"] == summaries[1]["kaijser"]


class TestStabilityKeepsItsInput:
    def test_summary_may_not_replace_the_model(self, tmp_path, capsys):
        model = write_model(tmp_path, fixture_document())
        before = model.read_bytes()
        rc = main(["stability", "--model", str(model), "--horizon", "50",
                   "--output", str(tmp_path / "model.csv")])
        assert rc == 1
        assert model.read_bytes() == before
        assert not (tmp_path / "model.csv").exists()
        assert capsys.readouterr().err == (
            f"error: the summary of --output {tmp_path / 'model.csv'} would be written to "
            f"{model}, which is the --model file; choose another output name\n")

    def test_summary_name_of_a_json_table_is_checked_too(self, tmp_path):
        model = tmp_path / "run.summary.json"
        model.write_text(json.dumps(fixture_document()))
        rc = main(["stability", "--model", str(model), "--horizon", "50",
                   "--output", str(tmp_path / "run.json")])
        assert rc == 1
        assert json.loads(model.read_text()) == fixture_document()

    def test_output_dir_resolution_is_checked(self, tmp_path, monkeypatch):
        model = write_model(tmp_path, fixture_document())
        monkeypatch.setenv("FILTERSTAB_OUTPUT_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path.parent)
        assert main(["stability", "--model", str(model), "--horizon", "50",
                     "--output", "model.csv"]) == 1

    def test_other_output_names_still_work(self, tmp_path):
        model = write_model(tmp_path, fixture_document())
        assert main(["stability", "--model", str(model), "--horizon", "50",
                     "--output", str(tmp_path / "run.csv")]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["passed"] is True


# every command that takes --model, in each table format it writes
MODEL_OUTPUTS = [(command, fmt) for command, (_, _, flags, _) in _COMMANDS.items()
                 if "--model" in flags for fmt in ("csv", "json")[:1 + ("--format" in flags)]]


@pytest.mark.parametrize("command, fmt", MODEL_OUTPUTS)
def test_no_command_writes_its_output_over_the_model(command, fmt, tmp_path, monkeypatch):
    """The check runs before any work: the model is not even read."""
    model = write_model(tmp_path, fixture_document())
    before = model.read_bytes()

    def unread(*args, **kwargs):
        raise AssertionError("the model was read")

    monkeypatch.setattr("filterstab.cli.load_model", unread)
    flags = [] if command == "validate" else ["--format", fmt]
    assert run_in_process([command, "--model", str(model), *flags, "--output", str(model)]) == \
        (1, f"error: --output {model} is the --model file; choose another output name\n")
    assert model.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [model]


@pytest.mark.parametrize("command", [command for command, (_, _, flags, _) in _COMMANDS.items()
                                     if "--output" in flags])
def test_an_unwritable_output_exits_one_with_one_line(command, tmp_path):
    out = tmp_path / "taken"
    out.mkdir()
    source = [] if command == "kaijser" else ["--scenario", "mixing2"]
    horizon = [] if command == "validate" else ["--horizon", "20"]
    assert run_in_process([command, *source, *horizon, "--output", str(out)]) == \
        (1, f"error: cannot write {out}: Is a directory\n")
    assert list(out.iterdir()) == []


def test_an_unwritable_stability_summary_exits_one_with_one_line(tmp_path):
    (tmp_path / "run.json").mkdir()
    out = tmp_path / "run.csv"
    assert run_in_process(["stability", "--scenario", "mixing2", "--horizon", "20",
                           "--output", str(out)]) == \
        (1, f"error: cannot write {tmp_path / 'run.json'}: Is a directory\n")


@pytest.mark.parametrize("table", [None, "old table\n"])
def test_an_unwritable_summary_leaves_no_table_behind(table, tmp_path):
    """Every output is opened before any is written: a table file that this
    call would create is not left behind, and one that was there is kept."""
    (tmp_path / "run.json").mkdir()
    out = tmp_path / "run.csv"
    if table is not None:
        out.write_text(table)
    assert run_in_process(["stability", "--scenario", "mixing2", "--horizon", "20",
                           "--output", str(out)])[0] == 1
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / "run.json"]
                                                + ([out] if table is not None else []))
    if table is not None:
        assert out.read_text() == table


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_a_summary_that_fails_to_write_removes_the_table(tmp_path, monkeypatch):
    """A write that fails after every output opened removes the files this
    call created."""
    monkeypatch.setattr("filterstab.cli._summary_path", lambda table: Path("/dev/full"))
    out = tmp_path / "run.csv"
    assert run_in_process(["stability", "--scenario", "mixing2", "--horizon", "20",
                           "--output", str(out)]) == \
        (1, "error: cannot write /dev/full: No space left on device\n")
    assert list(tmp_path.iterdir()) == []


def test_a_part_that_fails_to_render_removes_its_file_and_propagates(tmp_path):
    """An error other than an OSError while a table's parts are written is
    raised again, after the file that the call created is removed."""
    import filterstab.cli as cli

    def parts():
        yield "a,b\n"
        raise ValueError("cell cannot be formatted")

    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="^cell cannot be formatted$"):
        cli._write_texts([path], [parts()])
    assert not path.exists()


@pytest.mark.parametrize("seed", ["7", "3"])
@pytest.mark.parametrize("source", [*SCENARIO_NAMES, "psi-gaussian"])
def test_backward_prints_the_rho_columns_of_stability(source, seed, tmp_path):
    """`backward` and `stability` run ρ along the same wrong-prior filter of
    replicate 0: for n >= 1, their ρ columns are the same text."""
    flags = ["--scenario", source] if source in SCENARIO_NAMES else \
        ["--model", str(write_model(tmp_path, PSI_GAUSSIAN))]
    back, table = tmp_path / "back.csv", tmp_path / "table.csv"
    assert main(["backward", *flags, "--seed", seed, "--output", str(back)]) in (0, 3)
    assert main(["stability", *flags, "--seed", seed, "--replicates", "1",
                 "--output", str(table)]) in (0, 3)
    header, _, *rows = [line.split(",") for line in table.read_text().splitlines()]
    columns = [header.index(name) for name in ("n", "delta_max", "osc_bound_max")]
    expected = [",".join(row[i] for i in columns) for row in rows]
    assert back.read_text().splitlines() == ["n,delta_max,osc_bound_max", *expected]


def table_text(header, columns, fmt):
    """The text of a table, joined from the parts that `_table_text` yields."""
    import filterstab.cli as cli

    return "".join(cli._table_text(header, columns, fmt))


# the slowly mixing Gaussian model of the benchmark's session
SLOWMIX = {
    "states": 2, "transition": [[1.0 - 1e-4, 1e-4], [2e-4, 1.0 - 2e-4]],
    "observation": {"type": "gaussian", "means": [0.0, 1.0], "sigma": 0.5},
    "nu": [0.9, 0.1], "beta": [0.5, 0.5],
}


def test_a_table_is_written_while_it_is_rendered(tmp_path):
    """Rendering and writing the `lln` table of a 20 000-step record rise
    above the memory live when rendering starts by less than the file's size:
    one block's text is alive at a time, and no copy of the whole table."""
    import tracemalloc

    import filterstab.cli as cli

    out = tmp_path / "lln.csv"
    argv = ["lln", "--model", str(write_model(tmp_path, SLOWMIX)), "--horizon", "20000",
            "--output", str(out)]
    rendering, live = cli._table_text.__code__, []

    def at_rendering(frame, event, arg):  # the first frame of `_table_text` to run
        if event == "call" and frame.f_code is rendering and not live:
            tracemalloc.reset_peak()
            live.append(tracemalloc.get_traced_memory()[0])

    previous = sys.getprofile()
    tracemalloc.start()
    sys.setprofile(at_rendering)
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        sys.setprofile(previous)
        tracemalloc.stop()
    assert peak - live[0] < out.stat().st_size


def test_csv_cells_keep_their_format():
    row = (0, None, float("nan"), float("inf"), float("-inf"), -0.0, 0.1,
           np.float64(1.0) / 3.0, np.int64(7), 2**40, 1e-300)
    columns = [[value] for value in row]
    assert table_text(["a"] * len(row), columns, "csv").splitlines()[1] == (
        "0,,nan,inf,-inf,-0,0.10000000000000001,0.33333333333333331,7,1099511627776,1e-300"
    )


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
def test_block_rendering_equals_row_rendering(monkeypatch, block_rows):
    """Blocks of any size render what one writer over all rows renders."""
    import csv
    import io

    import filterstab.cli as cli

    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    header = ["n", "x", "maybe", "mixed"]
    columns = [range(7), np.linspace(-1.0, 1.0, 7) / 3.0,
               [None, 0.5, None, float("inf"), float("nan"), None, 1e-300],
               np.array([1, 2, 3, 4, 5, 6, 7])]
    rows = list(zip(*[list(c) for c in columns]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([["" if v is None else "%d" % v if isinstance(v, (int, np.integer))
                       else "%.17g" % v for v in row] for row in rows])
    assert table_text(header, columns, "csv") == buf.getvalue()
    assert table_text(header, columns, "json") == cli._json_text(
        [dict(zip(header, row)) for row in rows])
    assert table_text(header, [[] for _ in header], "csv") == "n,x,maybe,mixed\n"
    assert table_text(header, [[] for _ in header], "json") == "[]\n"


def per_cell_csv(header, columns):
    """The CSV rule cell by cell: None is empty, `int` and `np.int64` print
    as %d, every other value as %.17g."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join("" if v is None else "%d" % v if type(v) in (int, np.int64)
                              else "%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def assert_same_lines(actual, expected):
    """Equal texts, compared line by line so that a failure names one line
    instead of diffing thousands."""
    assert actual.endswith("\n") and expected.endswith("\n")
    for n, (got, want) in enumerate(zip_longest(actual.split("\n"), expected.split("\n"))):
        assert got == want, f"line {n}"


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# the NaNs differ in their bits: the default one, one with its sign bit set
# and one with a payload
SPECIAL_FLOATS = [float("nan"), float_of_bits(0xFFF8000000000000), float_of_bits(0x7FF8000000000001),
                  float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.2250738585072009e-308, -1e-310,
                  1e308]
CELLS = {
    "none": st.none(),
    "int": st.integers(-2**70, 2**70),
    "int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "float": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True)),
    "float64": st.floats(allow_subnormal=True).map(np.float64),
}


@st.composite
def table_columns(draw, n_rows):
    """Columns of `n_rows` rows, one cell type each or mixed, as lists, ranges
    or arrays; each column cycles through a few drawn cells."""
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3))
        pool = draw(st.lists(st.one_of([CELLS[k] for k in kinds]), min_size=1, max_size=6))
        column = [pool[i % len(pool)] for i in range(n_rows)]
        as_array = draw(st.booleans())
        if as_array and {type(v) for v in pool} == {int} and all(abs(v) < 2**63 for v in pool):
            column = np.array(column, dtype=np.int64)
        elif as_array and {type(v) for v in pool} <= {float, np.float64}:
            column = np.array(column, dtype=float)
        columns.append(column)
    if draw(st.booleans()):
        columns.insert(0, range(n_rows))
    return columns


@pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097])
# no shrinking: a failing table of 4 097 rows takes minutes to shrink, and
# its pools of a few cells already show the case
@settings(max_examples=12, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_table_template_equals_the_per_cell_rule(n_rows, data):
    """The CSV row template, and the JSON blocks mapped column by column, give
    the bytes of the cell-by-cell and record-by-record rules, across the
    `_BLOCK_ROWS` boundary."""
    import filterstab.cli as cli

    columns = data.draw(table_columns(n_rows))
    header = [f"c{i}" for i in range(len(columns))]
    cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    assert_same_lines(table_text(header, columns, "csv"), per_cell_csv(header, cells))
    assert_same_lines(table_text(header, columns, "json"),
                      cli._json_text([dict(zip(header, row)) for row in zip(*cells)]))


def assert_per_cell_rules(header, columns):
    import filterstab.cli as cli

    cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    assert_same_lines(table_text(header, columns, "csv"), per_cell_csv(header, cells))
    assert_same_lines(table_text(header, columns, "json"),
                      cli._json_text([dict(zip(header, row)) for row in zip(*cells)]))


@pytest.mark.parametrize("as_array", [False, True])
def test_signed_zeros_keep_their_sign_across_blocks(as_array):
    """0.0 and -0.0 are equal but print apart: a column of few distinct values
    keeps them apart on both sides of the `_BLOCK_ROWS` boundary."""
    from filterstab.cli import _BLOCK_ROWS

    column = [-0.0 if i % 3 == 0 else 0.0 for i in range(_BLOCK_ROWS + 1)]
    column[_BLOCK_ROWS - 1:] = [-0.0, 0.0]
    nullable = [None if i % 5 == 0 else v for i, v in enumerate(column)]
    assert_per_cell_rules(["zero", "maybe"], [np.array(column) if as_array else column, nullable])


def test_equal_numbers_of_different_types_keep_their_own_text():
    """True, 1, 1.0, np.int64(1) and np.float64(1.0) are equal, but JSON prints
    them as true, 1 and 1.0: a column of them never shares one text."""
    pool = [True, 1, 1.0, np.int64(1), np.float64(1.0)]
    assert_per_cell_rules(["one", "float"], [[pool[i % 5] for i in range(40)],
                                             [pool[2 + i % 2 * 2] for i in range(40)]])


def test_json_records_are_the_dicts_of_their_rows():
    """Keys are sorted and escaped, a `%` in a name is kept, and the last
    column of a repeated name wins, as in the dict of each row."""
    assert_per_cell_rules(["b", "a%d", 'q"\u00e9', "b"],
                          [range(3), [0.5, None, 1.0], [1, 2, 3], np.array([-0.0, 0.0, -0.0])])


class TestInvariantMemoSession:
    COMMANDS = ("validate --model model.json --output validate.json",
                "ergodicity --model model.json --horizon 200 --output ergodicity.csv",
                "lln --model model.json --horizon 2000 --seed 7 --output lln.csv")

    def session(self, directory, monkeypatch, cold):
        """Exit codes and output bytes of the three commands in this process;
        `cold` empties the `invariant_density` memo before each command."""
        directory.mkdir()
        monkeypatch.chdir(directory)
        write_model(directory, SLOWMIX)
        codes = []
        for command in self.COMMANDS:
            if cold:
                model_module._INVARIANT_MEMO.clear()
            codes.append(main(command.split()))
        return codes, {p.name: p.read_bytes() for p in directory.iterdir()}

    def test_warm_session_writes_the_cold_bytes(self, tmp_path, monkeypatch, loop_calls):
        cold = self.session(tmp_path / "cold", monkeypatch, cold=True)
        assert len(loop_calls) == 3
        warm = self.session(tmp_path / "warm", monkeypatch, cold=False)
        assert len(loop_calls) == 3
        assert cold[0] == warm[0]
        assert cold[1].keys() == {"model.json", "validate.json", "ergodicity.csv", "lln.csv"}
        assert cold[1] == warm[1]


class TestErgodicityTableReadsTheReport:
    """The `ergodicity` table prints the report's own envelope, and its exit
    code is the report's gate."""

    HORIZON = 80

    @staticmethod
    def random_document(seed, d):
        return {
            "states": d,
            "transition": random_kernel_matrix(60_000 + seed, d).tolist(),
            "observation": {"type": "finite", "gamma": [[0.7, 0.3]] * d},
            "nu": [1.0 / d] * d,
            "beta": [1.0 / d] * d,
        }

    def check(self, tmp_path, source, model):
        out = tmp_path / "ergodicity.csv"
        rc = main(["ergodicity", *source, "--horizon", str(self.HORIZON), "--output", str(out)])
        invariant = invariant_density(model.kernel, model.space)
        report = geometric_ergodicity_report(
            model, invariant, mixing_coefficients(model, invariant), self.HORIZON)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        d = model.space.num_states
        assert len(rows) == d * self.HORIZON
        if report.envelope is None:
            assert all(row[3] == "" and row[4] == "" for row in rows)
            assert rc == 0
            return
        bounds = np.array([float(row[3]) for row in rows])
        np.testing.assert_array_equal(bounds, np.tile(report.envelope, d))
        assert [row[4] != "" for row in rows] == (bounds >= 1e-10).tolist()
        failed = (report.worst_ratio > 1.0
                  or report.unresolved_max_gap > BOUND_FLOOR + 1e-12)
        assert rc == (3 if failed else 0)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builtin_scenarios(self, tmp_path, name):
        self.check(tmp_path, ["--scenario", name], builtin_model(name))

    def test_gaussian_file(self, tmp_path):
        path = write_model(tmp_path, GAUSSIAN3)
        self.check(tmp_path, ["--model", str(path)], load_model(path))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_positive_kernels(self, tmp_path, seed):
        path = write_model(tmp_path, self.random_document(seed, 2 + seed))
        self.check(tmp_path, ["--model", str(path)], load_model(path))

    @pytest.mark.parametrize("change", [{"worst_ratio": 1.5},
                                        {"unresolved_max_gap": 1e-10 + 2e-12}])
    def test_a_failing_report_exits_three(self, tmp_path, monkeypatch, change):
        import filterstab.cli as cli

        def failing(*args):
            return geometric_ergodicity_report(*args)._replace(**change)

        monkeypatch.setattr(cli, "geometric_ergodicity_report", failing)
        assert main(["ergodicity", "--scenario", "mixing2", "--horizon", "20",
                     "--output", str(tmp_path / "ergodicity.csv")]) == 3


def test_lln_table_is_the_running_average(tmp_path):
    out = tmp_path / "lln.csv"
    assert main(["lln", "--scenario", "mixing2", "--horizon", "300", "--seed", "4",
                 "--output", str(out)]) == 0
    model = builtin_model("mixing2")
    trajectory = sample_trajectory(model, model.true_prior, 300, 4)
    running = _running_averages(run_filter(model.true_prior, trajectory.observations, model))
    column = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    np.testing.assert_array_equal(column, running.ravel())


# a short run of each subcommand, less its model source and output
SHORT_RUNS = {
    "validate": [],
    "simulate": ["--horizon", "5"],
    "stability": ["--horizon", "20"],
    "ergodicity": ["--horizon", "5"],
    "backward": ["--horizon", "5"],
    "kaijser": ["--horizon", "20"],
    "lln": ["--horizon", "5"],
}


class ReadRecorder:
    """A stand-in for parsed arguments that notes each one the handler reads."""

    def __init__(self, namespace):
        self.namespace, self.read = namespace, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.namespace, name)


def registered_flags(command) -> dict:
    """The options of one subcommand, less `--help`, as {dest: flag}."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.option_strings[0] for a in sub.choices[command]._actions
            if not isinstance(a, argparse._HelpAction)}


class TestEachCommandTakesTheFlagsItReads:
    @pytest.mark.parametrize("command", SHORT_RUNS)
    def test_every_registered_flag_is_read(self, command, tmp_path):
        source = [] if command == "kaijser" else ["--model", str(FIXTURE)]
        args = build_parser().parse_args(
            [command, *source, *SHORT_RUNS[command], "--output", str(tmp_path / "out")])
        recorder = ReadRecorder(args)
        args.handler(recorder)
        recorder.read.add("output")  # `main` reads --output to write what the handler returns
        assert recorder.read == set(registered_flags(command))

    def test_option_slot_count(self):
        assert sum(len(registered_flags(command)) for command in SHORT_RUNS) == 52

    @pytest.mark.parametrize("argv", [
        ["validate", "--scenario", "mixing2", "--horizon", "5"],
        ["validate", "--scenario", "mixing2", "--seed", "3"],
        ["validate", "--scenario", "mixing2", "--format", "csv"],
        ["ergodicity", "--scenario", "mixing2", "--seed", "3"],
        ["kaijser", "--horizon", "20", "--format", "json"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_flag_is_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == 1
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()


def parse_failures():
    """Command lines that end in argparse: help, usage and errors."""
    yield ["--help"]
    yield []
    yield ["nosuchcommand"]
    for command in _COMMANDS:
        source = [] if command == "kaijser" else ["--scenario", "mixing2"]
        yield [command, "--help"]
        yield [command, *source, "--no-such-flag"]
        yield [command, *source, "extra"]


@pytest.mark.parametrize("argv", parse_failures(), ids=" ".join)
def test_the_named_subcommand_alone_parses_as_the_full_parser(argv, capsys, monkeypatch):
    """`main` builds only the subcommand that its first argument names, and
    prints the same bytes and exits with the same code as the full parser."""
    import filterstab.cli as cli
    built = []

    def recording(commands=None):
        built.append(commands)
        return build_parser(commands)

    monkeypatch.setattr(cli, "build_parser", recording)
    lean = main(argv), *capsys.readouterr()
    assert built == [argv[:1] if argv and argv[0] in _COMMANDS else None]
    monkeypatch.setattr(cli, "build_parser", lambda commands=None: build_parser())
    assert (main(argv), *capsys.readouterr()) == lean


def test_log_tv_is_the_log_of_each_tv(tmp_path):
    """`log_tv` is `math.log` of each row's TV, and -inf where the TV is 0
    (mixing2 at seed 7 from step 19 on)."""
    out = tmp_path / "run.csv"
    assert main(["stability", "--scenario", "mixing2", "--horizon", "60", "--seed", "7",
                 "--output", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    tv, log_tv = ([float(row[header.index(name)]) for row in rows] for name in ("tv", "log_tv"))
    assert [n for n, value in enumerate(tv) if value == 0.0] == list(range(19, 61))
    assert log_tv == [math.log(value) if value > 0.0 else -math.inf for value in tv]
