"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of ``filterstab`` CLI invocations. One measured
run executes them in order in a single fresh interpreter, each command sent
only after the previous one returned (a closed loop with one caller), inside
a scratch directory that holds the model document and receives every output
file. Only the CLI ``--seed`` comes from the workload seed; the rest of the
inputs are fixed, so equal seeds give equal inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 7
DIGESTS = Path(__file__).with_name("digests.json")

# 2 states that swap about once every 10^4 steps, read through Gaussian noise.
# Slow mixing makes `invariant_density` iterate ~10^5 times per call.
SLOWMIX_EPS = 1e-4
SLOWMIX_MODEL = {
    "states": 2,
    "transition": [[1.0 - SLOWMIX_EPS, SLOWMIX_EPS], [2.0 * SLOWMIX_EPS, 1.0 - 2.0 * SLOWMIX_EPS]],
    "observation": {"type": "gaussian", "means": [0.0, 1.0], "sigma": 0.5},
    "nu": [0.9, 0.1],
    "beta": [0.5, 0.5],
}

STABILITY_HEADER = ["n", "tv", "log_tv", "bound_log_tv", "delta_max", "osc_bound_max",
                    "likelihood_ratio"]
ERGODICITY_HEADER = ["u", "n", "gap", "bound", "ratio"]
LLN_HEADER = ["n", "state", "running_average", "target", "gap"]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple            # argv templates, filled in with the seed and the sizes
    full: dict                 # sizes of a measured run
    smoke: dict                # sizes of a self-test run
    steps: Callable[[dict], int]
    check_outputs: Callable[[Path, dict], list]
    inputs: dict = field(default_factory=dict)   # file name -> JSON document

    def sizes(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full

    def argv(self, seed: int, smoke: bool) -> list[list[str]]:
        return [c.format(seed=seed, **self.sizes(smoke)).split() for c in self.commands]

    def observation_steps(self, smoke: bool) -> int:
        return self.steps(self.sizes(smoke))

    def prepare(self, directory: Path) -> None:
        """Write the workload's input files into an empty run directory."""
        for name, document in self.inputs.items():
            (directory / name).write_text(json.dumps(document), encoding="utf-8")

    def output_files(self, directory: Path) -> list[Path]:
        skip = {*self.inputs, "spans.csv"}
        return sorted(p for p in directory.iterdir() if p.name not in skip)

    def check(self, directory: Path, seed: int, smoke: bool) -> list[str]:
        """Problems found in a run's outputs; empty when they are correct.

        Structural checks always apply. At the default seed every output
        file must also match, byte for byte, the digest recorded for it.
        """
        try:
            problems = self.check_outputs(directory, self.sizes(smoke))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if seed == DEFAULT_SEED and not smoke:
            expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[self.name]
            found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in self.output_files(directory)}
            for name in sorted(set(expected) | set(found)):
                if expected.get(name) != found.get(name):
                    problems.append(f"{name}: sha256 {found.get(name)} != recorded {expected.get(name)}")
        return problems


def _check_table(path: Path, header: list[str], n_rows: int) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        found, *rows = csv.reader(fh)
    problems = []
    if found != header:
        problems.append(f"{path.name}: header {found} != {header}")
    if len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
    return problems, rows


def _all_finite(rows: list[list[str]], column: int) -> bool:
    return all(math.isfinite(float(r[column])) for r in rows)


def _check_stability(directory: Path, s: dict) -> list[str]:
    problems, rows = _check_table(directory / "tv.csv", STABILITY_HEADER, s["horizon"] + 1)
    tv = STABILITY_HEADER.index("tv")
    if not all(0.0 <= float(r[tv]) <= 2.0 for r in rows):
        problems.append("tv.csv: tv outside [0, 2]")
    if not _all_finite(rows, STABILITY_HEADER.index("likelihood_ratio")):
        problems.append("tv.csv: non-finite likelihood ratio")
    summary = json.loads((directory / "tv.json").read_text(encoding="utf-8"))
    if summary["passed"] is not True:
        problems.append("tv.json: passed is not true")
    if (summary["horizon"], summary["replicates"]) != (s["horizon"], s["replicates"]):
        problems.append("tv.json: horizon or replicates differ from the command")
    if s["scenario"] == "kaijser" and summary.get("kaijser", {}).get("passed") is not True:
        problems.append("tv.json: kaijser.passed is not true")
    return problems


def _check_session(directory: Path, s: dict) -> list[str]:
    report = json.loads((directory / "validate.json").read_text(encoding="utf-8"))
    problems = []
    if report["states"] != SLOWMIX_MODEL["states"] or report["observation_kind"] != "gaussian":
        problems.append("validate.json: wrong states or observation kind")
    invariant = report["invariant_density"]
    if not all(math.isfinite(v) and v > 0.0 for v in invariant) or abs(sum(invariant) - 1.0) > 1e-9:
        problems.append("validate.json: invariant density not a positive probability vector")
    for name, header, column, horizon in (
        ("ergodicity.csv", ERGODICITY_HEADER, "gap", s["ergodicity"]),
        ("lln.csv", LLN_HEADER, "running_average", s["lln"]),
    ):
        found, rows = _check_table(directory / name, header, SLOWMIX_MODEL["states"] * horizon)
        problems += found
        if not _all_finite(rows, header.index(column)):
            problems.append(f"{name}: non-finite {column}")
    return problems


STABILITY = ("stability --scenario {scenario} --horizon {horizon} --replicates {replicates} "
             "--seed {seed} --output tv.csv",)

WORKLOADS = {w.name: w for w in (
    Workload(
        "mixing2-replicates", STABILITY,
        full={"scenario": "mixing2", "horizon": 500, "replicates": 50},
        smoke={"scenario": "mixing2", "horizon": 20, "replicates": 3},
        steps=lambda s: s["replicates"] * s["horizon"],
        check_outputs=_check_stability,
    ),
    Workload(
        "kaijser-long", STABILITY,
        full={"scenario": "kaijser", "horizon": 20_000, "replicates": 1},
        smoke={"scenario": "kaijser", "horizon": 200, "replicates": 1},
        steps=lambda s: s["replicates"] * s["horizon"],
        check_outputs=_check_stability,
    ),
    Workload(
        "slowmix-session",
        (
            "validate --model model.json --output validate.json",
            "ergodicity --model model.json --horizon {ergodicity} --output ergodicity.csv",
            "lln --model model.json --horizon {lln} --seed {seed} --output lln.csv",
        ),
        full={"ergodicity": 5_000, "lln": 20_000},
        smoke={"ergodicity": 50, "lln": 200},
        steps=lambda s: s["lln"],  # only `lln` consumes observations
        check_outputs=_check_session,
        inputs={"model.json": SLOWMIX_MODEL},
    ),
)}
