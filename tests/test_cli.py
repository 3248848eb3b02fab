import json
from pathlib import Path

import numpy as np
import pytest

from filterstab import build_model
from filterstab.cli import load_model, main, parse_config
from filterstab.errors import InvalidModelError

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "kaijser.json"


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


def copy_of(document):
    return json.loads(json.dumps(document))


def write_model(tmp_path, document):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    return path


class TestParseConfig:
    def test_kaijser_fixture(self):
        model = parse_config(fixture_document())
        assert model.space.num_states == 4
        assert model.observation.kind == "finite"
        np.testing.assert_allclose(model.true_prior.values, [0.5, 0.2, 0.2, 0.1])

    def test_missing_beta_names_the_key(self):
        doc = fixture_document()
        del doc["beta"]
        with pytest.raises(InvalidModelError, match="'beta'"):
            parse_config(doc)

    def test_small_row_sum_error_is_renormalized(self):
        doc = fixture_document()
        doc["transition"][0] = [0.50000005, 0.50000005, 0.0, 0.0]
        model = parse_config(doc)
        np.testing.assert_allclose(model.kernel.matrix[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_large_row_sum_error_is_rejected(self):
        doc = fixture_document()
        doc["transition"][0] = [0.505, 0.505, 0.0, 0.0]
        with pytest.raises(InvalidModelError, match="transition"):
            parse_config(doc)


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
        model = parse_config(doc)
        assert model.space.num_states == 4

    def test_row_error_prints_a_plain_float(self):
        doc = fixture_document()
        doc["transition"][1] = [0.0, 0.1, 0.1, 0.0]
        with pytest.raises(InvalidModelError) as info:
            parse_config(doc)
        assert str(info.value) == (
            "invalid kernel: 'transition' row 1 integrates to 0.2, not 1 (tolerance 1e-06)"
        )

    def test_zero_weight_is_a_weight_error(self):
        doc = fixture_document()
        doc["psi"] = [1.0, 0.0, 1.0, 1.0]
        with pytest.raises(InvalidModelError, match="state weights must be finite and strictly positive"):
            parse_config(doc)


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
        np.testing.assert_array_equal(parse_config(doc).kernel.matrix, m / (m @ w)[:, None])

    def test_prior_override_on_a_file_is_validated(self, tmp_path, capsys):
        path = write_model(tmp_path, REPRO)
        assert main(["validate", "--model", str(path), "--beta", "0.5,0.5,0.0"]) == 1
        assert "beta not bounded below" in capsys.readouterr().err


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

    def test_numerical_failure_exit_code(self, tmp_path):
        doc = {
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
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path)]) == 2


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

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["stability", "--scenario", "mixing2", "--horizon", "300", "--seed", "5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".json").read_text() == b.with_suffix(".json").read_text()


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
        err = capsys.readouterr().err
        assert "--model file" in err and str(model) in err

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


def test_csv_cells_keep_their_format():
    from filterstab.cli import _csv_text

    row = (0, None, float("nan"), float("inf"), float("-inf"), -0.0, 0.1,
           np.float64(1.0) / 3.0, np.int64(7), 2**40, 1e-300)
    assert _csv_text(["a"] * len(row), [row]).splitlines()[1] == (
        "0,,nan,inf,-inf,-0,0.10000000000000001,0.33333333333333331,7,1099511627776,1e-300"
    )
