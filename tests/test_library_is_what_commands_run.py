"""The package ships what its commands run.

Every subcommand runs once in-process under `sys.setprofile`, on two builtin
scenarios and on a Gaussian model file with `psi` weights, in CSV and JSON,
with enough `stability` replicates that the sampler walks its records both
in plain Python and by numpy gathers. The `def` functions and methods of
`src/filterstab/` that no call reached must be exactly those in `KEPT`, each
kept for a reason of its own. A function that only a test calls belongs in
`tests/reference.py` or `tests/helpers.py`, not in the package.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np

import filterstab
from filterstab.cli import main

PACKAGE = Path(filterstab.__file__).resolve().parent

# the functions that no command runs, each with why it stays in the package
KEPT = {
    "model.validated_tuple":
        "builds the bases of the eight validating records at import, before any command runs",
    "filtering._log_domain_update":
        "the filter's log-domain redo of a Gaussian step; only an outlier record reaches it",
    "model._gth":
        "the invariant density where the power iteration stalls or runs out of steps; no "
        "builtin scenario and no model here is such a chain",
    "backward._rho_error":
        "ρ's error at its first failing step; only a record on which ρ fails reaches it",
    "filtering.FilterRun.log_normalizers":
        "the tests' independent route to likelihood ratios",
    "filtering.FilterRun.densities":
        "the posteriors as densities, the library's edge; every command reads the laws",
    "filtering.filter_step_with_likelihood":
        "the one filter step that `BackwardContext` takes; the benchmark's tracer counts it",
    **dict.fromkeys(
        [f"backward.BackwardContext.{name}"
         for name in ("__init__", "rho", "step", "record", "likelihood_ratio")],
        "ρ one step at a time, which tests hold `backward_pass` to; the benchmark's tracer "
        "wraps it"),
}

PSI = np.array([0.5, 1.0, 2.0])
GAUSSIAN_PSI = {
    "states": 3,
    "psi": PSI.tolist(),
    # rows and priors are densities against `psi`
    "transition": (np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]) / PSI).tolist(),
    "observation": {"type": "gaussian", "means": [0.0, 1.0, 2.5], "sigma": 0.7},
    "nu": (np.array([0.5, 0.3, 0.2]) / PSI).tolist(),
    "beta": (np.array([0.2, 0.3, 0.5]) / PSI).tolist(),
}


def package_functions():
    """``{(file, first line): "module.name"}`` of every module-level function
    and method in the package. A function defined inside another is part of
    its body and not listed. The first line is a decorated function's first
    decorator's, as its code object has it."""
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(tree, path.stem)]
        scopes += [(node, f"{path.stem}.{node.name}") for node in tree.body
                   if isinstance(node, ast.ClassDef)]
        for scope, prefix in scopes:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef):
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    functions[(str(path), first)] = f"{prefix}.{node.name}"
    return functions


def every_command(tmp_path):
    """The argument lists of each subcommand on each source and format."""
    model = tmp_path / "gaussian-psi.json"
    model.write_text(json.dumps(GAUSSIAN_PSI))
    sources = [["--scenario", "mixing2"], ["--scenario", "kaijser"], ["--model", str(model)]]
    horizon = ["--horizon", "30"]
    commands = []
    for fmt in ("csv", "json"):
        out = ["--output", str(tmp_path / f"out.{fmt}")]
        table = [*horizon, "--format", fmt, *out]
        for source in sources:
            commands += [
                ["validate", *source, *out],
                ["simulate", *source, *table],
                ["stability", *source, *table, "--replicates", "12"],
                ["ergodicity", *source, *table],
                ["backward", *source, *table],
                ["lln", *source, *table],
            ]
        commands.append(["kaijser", *horizon, *out])
    return commands


def test_every_package_function_but_the_kept_ones_runs_in_a_command(tmp_path):
    functions = package_functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    commands = every_command(tmp_path)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(commands)
    never_run = {name for key, name in functions.items() if key not in reached}
    unkept = sorted(never_run - set(KEPT))
    assert not unkept, f"functions that no command runs: {unkept}"
    run = sorted(set(KEPT) - never_run)
    assert not run, f"kept functions that a command runs: {run}"
