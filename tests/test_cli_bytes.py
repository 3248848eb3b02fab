"""Byte pins for every CLI table and report.

Each case runs one ``filterstab`` invocation through `cli.main` in an empty
directory and compares its exit code and the sha256 of every file it writes
with ``data/cli_digests.json``. The cases cover every subcommand in CSV and
JSON, the four builtin scenarios and a Gaussian model file, and the edge
cells of the table format: ``-inf`` (``log_tv`` on uniformK), empty cells
(vacuous bounds, ``ergodicity`` ratios below the floor) and float
observations (``simulate`` on the Gaussian file).

A change that alters outputs on purpose records the digests again with

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from filterstab.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"

# three states, a zero-pattern kernel, Gaussian read-out: observations are floats
GAUSSIAN3 = {
    "states": 3,
    "transition": [[0.8, 0.2, 0.0], [0.1, 0.7, 0.2], [0.3, 0.0, 0.7]],
    "observation": {"type": "gaussian", "means": [-1.0, 0.5, 2.5], "sigma": 0.7},
    "nu": [0.6, 0.3, 0.1],
    "beta": [0.2, 0.3, 0.5],
}
MODEL_FILE = "gaussian3.json"

SOURCES = {
    "kaijser": "--scenario kaijser",
    "example11": "--scenario example11",
    "mixing2": "--scenario mixing2",
    "uniformK": "--scenario uniformK",
    "gaussian3": f"--model {MODEL_FILE}",
}


def _cases() -> dict:
    cases = {f"validate-{name}": f"validate {source} --output out.json"
             for name, source in SOURCES.items()}
    cases["kaijser-default"] = "kaijser --horizon 2000 --output out.json"
    cases["kaijser-priors"] = ("kaijser --horizon 500 --seed 3 --nu 0.1,0.4,0.3,0.2 "
                               "--beta 0.25,0.25,0.25,0.25 --output out.json")
    for fmt in ("csv", "json"):
        tail = f"--format {fmt} --output out.{fmt}"
        for name, source in SOURCES.items():
            horizon = 2000 if name == "kaijser" else 400
            cases[f"simulate-{name}-{fmt}"] = f"simulate {source} --horizon 300 {tail}"
            cases[f"stability-{name}-{fmt}"] = f"stability {source} --horizon {horizon} {tail}"
            cases[f"ergodicity-{name}-{fmt}"] = f"ergodicity {source} --horizon 40 {tail}"
            cases[f"backward-{name}-{fmt}"] = f"backward {source} --horizon {horizon} {tail}"
        cases[f"stability-replicates-{fmt}"] = (
            f"stability --scenario mixing2 --horizon 300 --replicates 3 --seed 11 {tail}")
        # a long horizon drives the geometric envelope below its floor
        cases[f"ergodicity-mixing2-long-{fmt}"] = f"ergodicity --scenario mixing2 --horizon 300 {tail}"
        for name in ("mixing2", "gaussian3"):
            cases[f"lln-{name}-{fmt}"] = f"lln {SOURCES[name]} --horizon 1000 {tail}"
        cases[f"lln-gaussian3-wrong-{fmt}"] = (
            f"lln {SOURCES['gaussian3']} --horizon 1000 --wrong-prior {tail}")
    return cases


CASES = _cases()


def run_case(argv: str, directory: Path) -> dict:
    """Exit code and per-file sha256 of one invocation run in `directory`."""
    (directory / MODEL_FILE).write_text(json.dumps(GAUSSIAN3), encoding="utf-8")
    code = main(argv.split())
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(directory.iterdir()) if p.name != MODEL_FILE}
    return {"exit": code, "files": files}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case, recorded, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FILTERSTAB_OUTPUT_DIR", raising=False)
    assert run_case(CASES[case], tmp_path) == recorded[case]


def _record() -> None:
    import os
    import tempfile

    os.environ.pop("FILTERSTAB_OUTPUT_DIR", None)
    digests = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            digests[case] = run_case(argv, Path(directory))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} cases in {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    _record()
