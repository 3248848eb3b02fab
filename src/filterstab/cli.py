"""Command-line interface: model ingestion, experiment dispatch, CSV/JSON output.

Model documents are JSON with keys ``states``, optional ``psi``,
``transition``, ``observation`` ({"type": "finite", "gamma": ..., "theta"
optional} or {"type": "gaussian", "means": ..., "sigma": ...}), ``nu`` and
``beta``. Every model, from a file or a builtin scenario, is validated and
its transition and emission rows renormalized exactly once, by
`model.build_model`: rows may miss 1 by 1e-6, priors by 1e-9.
``--nu``/``--beta`` replace the priors in the document before it is built.
A missing, malformed or non-numeric field exits with code 1 and a message
naming its key. An ``--output`` that cannot be written exits with code 1.

Numbers in CSV output are formatted with 17 significant digits and JSON
uses shortest-round-trip floats, so both serializations are lossless.
Identical invocations produce byte-identical files; there are no timestamps
or environment-dependent fields in any output.

Exit codes: 0 success, 1 invalid input, 2 numerical failure,
3 property-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .backward import backward_pass
from .errors import InvalidModelError, NumericalError
from .ergodicity import BOUND_FLOOR, _running_averages, geometric_ergodicity_report
from .filtering import run_filter
from .harness import (
    SCENARIO_HORIZONS,
    SCENARIO_NAMES,
    Scenario,
    builtin_model,
    kaijser_verify,
    run_scenario,
)
from .model import (
    FiniteModel,
    build_model,
    invariant_density,
    mixing_coefficients,
    primitivity_check,
    with_priors,
)
from .rng import derive_seed
from .simulate import sample_trajectory

OUTPUT_DIR_ENV = "FILTERSTAB_OUTPUT_DIR"


def load_model(path, true_prior=None, wrong_prior=None) -> FiniteModel:
    """Read a model file; given priors replace the document's before it is built."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise InvalidModelError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"model file {path} is not valid JSON: {exc}") from exc
    return build_model(with_priors(document, true_prior, wrong_prior))


# ---------------------------------------------------------------------------
# output helpers

def _jsonable(obj):
    """Recursively replace non-finite floats by strings for strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _resolve_output(path: Optional[str]) -> Optional[Path]:
    if path is None:
        return None
    p = Path(path)
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir and not p.is_absolute() and p.parent == Path("."):
        p = Path(env_dir) / p
    return p


def _write_texts(paths, texts) -> Optional[str]:
    """Write each text, a string or the parts of one, to its path, or to
    stdout for None, and return None; or return the one error line that
    names the output that failed.

    Every file is opened once for writing, without truncating one that
    exists, before any is written. Parts are formatted as they are written,
    so on any exception the files that this call created are removed, and
    one that is not an OSError is raised again."""
    created, path = [], None
    try:
        for path in filter(None, paths):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:
                os.close(os.open(path, os.O_WRONLY))
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
                out.writelines([text] if isinstance(text, str) else text)
    except BaseException as exc:
        for created_path in created:
            created_path.unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise
        return f"error: cannot write {path or 'stdout'}: {exc.strerror or exc}"
    return None


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    """One CSV cell: empty for None, %d for an integer, %.17g for any other
    number, which also spells nan, inf and -inf."""
    return "" if value is None else _CSV_SPECS.get(type(value), "%.17g") % value


def _json_cell(value) -> str:
    """One JSON cell, as `_json_text` prints it: null, true or false, %d for
    an integer, repr for a finite float and "nan", "inf" or "-inf" else."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    x = float(value)
    if math.isfinite(x):
        return float.__repr__(x)
    return '"nan"' if math.isnan(x) else '"inf"' if x > 0 else '"-inf"'


# each format's text of None, the conversion of a column whose cells all
# have one of these exact types (a float's for finite floats only), and the
# text of any one cell
_CSV_SPECS = {int: "%d", np.int64: "%d", float: "%.17g", np.float64: "%.17g"}
_FORMATS = {
    "csv": ("", _CSV_SPECS, _csv_cell),
    "json": ("null", {int: "%d", np.int64: "%d", float: "%r"}, _json_cell),
}
_FLOAT_CELLS = {float, np.float64, type(None)}
_BLOCK_ROWS = 4096


def _column_block(values, fmt: str) -> tuple[str, Optional[list]]:
    """A block of one column as its conversion spec in the row template and
    the cells that spec takes; a None column is a literal and takes none.

    A float column (floats, or floats and None) is split into its distinct
    values by their bits, so that 0.0 and -0.0, or two NaNs, stay apart.
    When they are at most half its cells, each is formatted once and its text
    gathered back into the cells. Otherwise a column whose cells share a type
    with a spec goes straight into the template (a float spec for finite
    floats only), and any other column is formatted cell by cell."""
    none, specs, cell = _FORMATS[fmt]
    floats = None
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            floats = values.astype(float, copy=False)
        values = values.tolist()
    kinds = {float} if floats is not None else set(map(type, values))
    if kinds == {type(None)}:
        return none, None
    spec = specs.get(next(iter(kinds))) if len(kinds) == 1 else None
    if kinds <= _FLOAT_CELLS:
        if floats is None:
            floats = np.array(values, dtype=float)  # None reads as nan
        distinct, inverse = np.unique(floats.view(np.int64), return_inverse=True)
        if 2 * len(distinct) <= len(values):
            texts = list(map(cell, distinct.view(float).tolist()))
            if type(None) in kinds:
                texts.append(none)
                nans = np.flatnonzero(np.isnan(floats)).tolist()
                inverse[[i for i in nans if values[i] is None]] = len(texts) - 1
            return "%s", np.array(texts, dtype=object)[inverse].tolist()
        if spec is not None and not np.isfinite(floats).all():
            spec = None
    if spec is not None:
        return spec, values
    return "%s", list(map(cell, values))


def _table_text(header, columns, fmt: str) -> Iterator[str]:
    """Render a table, given as equal-length columns (arrays, lists or
    ranges), as CSV (default) or a JSON array of records, yielded in parts:
    its opening, each block of `_BLOCK_ROWS` rows after its separator, and
    its tail, so that one block's cells and text are alive at a time.

    Each block is one `%` on a row template over the block's cells, in both
    formats. A CSV row is its cells joined by commas and needs no quoting. A
    JSON row is the record that `_json_text` prints, with sorted keys; when a
    name repeats, its last column wins."""
    if fmt == "csv":
        order, fields, row, sep, joiner = range(len(header)), [""] * len(header), "%s", ",", "\n"
        yield ",".join(header)
    else:
        last = {key: i for i, key in enumerate(header)}
        keys = sorted(last)
        order = [last[key] for key in keys]
        fields = ["    " + json.dumps(key).replace("%", "%%") + ": " for key in keys]
        row, sep, joiner = "  {\n%s\n  }", ",\n", ",\n"
        yield "["
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [columns[i][start:start + _BLOCK_ROWS] for i in order]
        specs, cells = zip(*(_column_block(column, fmt) for column in block))
        cells = [column for column in cells if column is not None]
        flat = [None] * (len(block[0]) * len(cells))
        for i, column in enumerate(cells):
            flat[i::len(cells)] = column
        template = row % sep.join(map(str.__add__, fields, specs))
        yield joiner if start else "\n"
        yield joiner.join([template] * len(block[0])) % tuple(flat)
    yield "\n" if fmt == "csv" else "\n]\n" if len(columns[0]) else "]\n"


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_prior(text: Optional[str]):
    if text is None:
        return None
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidModelError(f"cannot parse prior override {text!r}") from None


def _resolve_model(args) -> tuple[FiniteModel, str]:
    """The model of ``--scenario`` or ``--model`` (argparse requires exactly
    one), with the ``--nu``/``--beta`` overrides, and its source name."""
    true_prior, wrong_prior = _parse_prior(args.nu), _parse_prior(args.beta)
    if args.scenario:
        return builtin_model(args.scenario, true_prior, wrong_prior), args.scenario
    return load_model(args.model, true_prior, wrong_prior), str(args.model)


def _scenario_horizon(args) -> int:
    """``--horizon``, else the builtin scenario's horizon, else 500."""
    return SCENARIO_HORIZONS.get(args.scenario, 500) if args.horizon is None else args.horizon


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code and the texts that `main` writes,
# a table or report and, for `stability`, its summary

def _cmd_validate(args) -> tuple:
    model, name = _resolve_model(args)
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    report = {
        "source": name,
        "states": model.space.num_states,
        "weights": model.space.weights.tolist(),
        "observation_kind": model.observation.kind,
        "min_density": coeffs.min_density,
        "max_density": coeffs.max_density,
        "mixing_coefficient": coeffs.mixing_coefficient,
        "decay_rate_bound": coeffs.tv_decay_rate,
        "geo_prefactor": coeffs.geo_prefactor,
        "geo_ratio": coeffs.geo_ratio,
        "degenerate": coeffs.degenerate,
        "primitivity_power": primitivity_check(model.kernel),
        "invariant_density": invariant.values.tolist(),
    }
    return 0, _json_text(report)


def _cmd_simulate(args) -> tuple:
    model, _ = _resolve_model(args)
    trajectory = sample_trajectory(model, model.true_prior, args.horizon, args.seed)
    columns = [range(len(trajectory.states)), trajectory.states,
               [None, *trajectory.observations.tolist()]]
    return 0, _table_text(["n", "state", "observation"], columns, args.format)


def _summary_path(table: Path) -> Path:
    """Where the JSON summary of `stability` goes, next to its table."""
    return table.with_suffix(".summary.json" if table.suffix == ".json" else ".json")


def _cmd_stability(args) -> tuple:
    model, name = _resolve_model(args)
    scenario = Scenario(model=model, horizon=_scenario_horizon(args),
                        replicates=args.replicates, seed=args.seed)
    records = run_scenario(scenario, window_fraction=args.window_fraction)
    first = records[0]
    coeffs = first.coeffs
    rate = coeffs.tv_decay_rate

    n_steps = len(first.trajectory.observations)
    # ρ along replicate 0 only, after every replicate's filters
    back = backward_pass(model, coeffs, first.pair.run_wrong.probabilities)
    bound_max = [None] * n_steps if back.bounds is None else back.bounds.max(axis=1).tolist()
    # `math.log` once per distinct TV (`np.log` can differ from it in the last bit)
    distinct, inverse = np.unique(first.pair.tv, return_inverse=True)
    log_tv = np.array([math.log(tv) if tv > 0.0 else -math.inf for tv in distinct.tolist()])
    columns = [
        range(n_steps + 1),
        first.pair.tv,
        log_tv[inverse],
        -rate * np.arange(n_steps + 1) + 0.0,
        [None, *back.oscillations.max(axis=1).tolist()],
        [None, *bound_max],
        back.likelihood_ratios,
    ]
    table = _table_text(
        ["n", "tv", "log_tv", "bound_log_tv", "delta_max", "osc_bound_max", "likelihood_ratio"],
        columns,
        args.format,
    )

    slopes = [r.decay.slope for r in records]
    converged = [r.decay.converged for r in records]
    slope_ok = all(
        c or s <= -rate + 0.1 for s, c in zip(slopes, converged)
    )
    tv_max = max(float(r.pair.tv.max()) for r in records)
    summary = {
        "scenario": name,
        "horizon": scenario.horizon,
        "replicates": scenario.replicates,
        "seed": scenario.seed,
        "window_fraction": args.window_fraction,
        "decay_rate_bound": rate,
        "bound_slope": -rate,
        "slopes": slopes,
        "converged": converged,
        "slope_within_bound": slope_ok,
        "tv_max": tv_max,
        "tv_range_ok": tv_max <= 2.0 + 1e-12,
        "bounds_vacuous": back.bounds is None,
    }
    passed = slope_ok and summary["tv_range_ok"]
    if first.kaijser is not None:
        summary["kaijser"] = _kaijser_payload(first.kaijser)
        passed = passed and all(r.kaijser.passed for r in records)
    summary["passed"] = passed
    return 0 if passed else 3, table, _json_text(summary)


def _cmd_ergodicity(args) -> tuple:
    model, name = _resolve_model(args)
    n_max = args.horizon
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    report = geometric_ergodicity_report(model, invariant, coeffs, n_max)
    d = model.space.num_states
    gaps = report.gaps.T.ravel()  # state by state
    bounds = ratios = [None] * len(gaps)
    if coeffs.applicable:
        bounds = np.tile(report.envelope, d)
        with np.errstate(all="ignore"):  # the ratios below the floor are dropped
            ratios = np.where(bounds >= BOUND_FLOOR, gaps / bounds, None)
    columns = [np.repeat(np.arange(d), n_max), np.tile(np.arange(1, n_max + 1), d), gaps,
               bounds, ratios]
    ok = not coeffs.applicable or (
        report.worst_ratio <= 1.0 and report.unresolved_max_gap <= BOUND_FLOOR + 1e-12)
    return 0 if ok else 3, _table_text(["u", "n", "gap", "bound", "ratio"], columns, args.format)


def _cmd_backward(args) -> tuple:
    model, _ = _resolve_model(args)
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    seed = derive_seed(args.seed, 0)
    trajectory = sample_trajectory(model, model.true_prior, _scenario_horizon(args), seed)
    # the filter from the wrong prior, which `FiniteModel` keeps strictly
    # positive, then ρ along it
    run = run_filter(model.wrong_prior, trajectory.observations, model)
    backward = backward_pass(model, coeffs, run.probabilities)
    bounds = backward.bounds
    violation = bounds is not None and bool(np.any(backward.oscillations > bounds + 1e-12))
    bound_max = [None] * len(trajectory.observations) if bounds is None else bounds.max(axis=1)
    columns = [range(1, len(bound_max) + 1), backward.oscillations.max(axis=1), bound_max]
    return 3 if violation else 0, _table_text(["n", "delta_max", "osc_bound_max"], columns,
                                              args.format)


def _cmd_kaijser(args) -> tuple:
    # the default true prior is the registry model's, which `kaijser_verify`
    # renormalizes again through `builtin_model`; kept so that `kaijser`
    # output keeps its bits
    true_prior = _parse_prior(args.nu) or builtin_model("kaijser").true_prior.values
    report = kaijser_verify(true_prior, _parse_prior(args.beta), args.horizon, args.seed)
    payload = _kaijser_payload(report)
    payload.update({"horizon": args.horizon, "seed": args.seed})
    return 0 if report.passed else 3, _json_text(payload)


def _cmd_lln(args) -> tuple:
    model, _ = _resolve_model(args)
    horizon = args.horizon
    invariant = invariant_density(model.kernel, model.space)
    trajectory = sample_trajectory(model, model.true_prior, horizon, args.seed)
    # the time-average limit does not depend on the filter's initial density,
    # so a misspecified start is a legitimate (and interesting) variant
    prior = model.wrong_prior if args.wrong_prior else model.true_prior
    run = run_filter(prior, trajectory.observations, model)
    d = model.space.num_states
    partial = _running_averages(run)
    targets = invariant.values * model.space.weights
    columns = [np.repeat(np.arange(1, horizon + 1), d), np.tile(np.arange(d), horizon),
               partial.ravel(), np.tile(targets, horizon), np.abs(partial - targets).ravel()]
    return 0, _table_text(["n", "state", "running_average", "target", "gap"], columns,
                          args.format)


def _kaijser_payload(report) -> dict:
    """The report's fields and its properties `constant`, `floor` and `passed`."""
    return dict(report._asdict(), constant=report.constant, floor=report.floor,
                passed=report.passed)


# ---------------------------------------------------------------------------
# parser

# every option a subcommand may take, by flag
_OPTIONS = {
    "--model": dict(help="path to a model JSON document"),
    "--scenario": dict(choices=SCENARIO_NAMES, help="builtin scenario name"),
    "--nu": dict(help="comma-separated override of the data-generating prior"),
    "--beta": dict(help="comma-separated override of the filter prior"),
    "--horizon": dict(type=int, help="number of steps"),
    "--seed": dict(type=int, default=7),
    "--output": dict(help="output file path (default: stdout; relative bare names "
                          f"resolve under ${OUTPUT_DIR_ENV} when set)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="table output format"),
    "--replicates": dict(type=int, default=1),
    "--window-fraction": dict(dest="window_fraction", type=float, default=0.5,
                              help="trailing fraction of steps used for the slope fit"),
    "--wrong-prior": dict(dest="wrong_prior", action="store_true",
                          help="start the filter from the misspecified prior instead"),
}
_SOURCE = ("--model", "--scenario")  # exactly one of them is required
_MODEL = (*_SOURCE, "--nu", "--beta")
_TABLE = ("--output", "--format")

# each subcommand: its handler, its help, the flags its handler reads and its
# default horizon (None: the builtin scenario's, or 500)
_COMMANDS = {
    "validate": (_cmd_validate, "model coefficients and invariant density",
                 (*_MODEL, "--output"), None),
    "simulate": (_cmd_simulate, "sample a trajectory to CSV",
                 (*_MODEL, "--horizon", "--seed", *_TABLE), 100),
    "stability": (_cmd_stability, "paired-filter TV trajectory and decay summary",
                  (*_MODEL, "--horizon", "--seed", *_TABLE, "--replicates", "--window-fraction"),
                  None),
    "ergodicity": (_cmd_ergodicity, "n-step convergence against the geometric envelope",
                   (*_MODEL, "--horizon", *_TABLE), 50),
    "backward": (_cmd_backward, "backward-density oscillation and its envelope",
                 (*_MODEL, "--horizon", "--seed", *_TABLE), None),
    "kaijser": (_cmd_kaijser, "counterexample regression gate",
                ("--nu", "--beta", "--horizon", "--seed", "--output"),
                SCENARIO_HORIZONS["kaijser"]),
    "lln": (_cmd_lln, "running averages of posterior expectations",
            (*_MODEL, "--horizon", "--seed", *_TABLE, "--wrong-prior"), 10_000),
}


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The CLI parser, with the subcommands named in `commands` (all by default)."""
    parser = argparse.ArgumentParser(
        prog="filterstab",
        description="Finite-state filter stability experiments: coefficients, "
                    "decay rates, contraction bounds, counterexample checks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command in _COMMANDS if commands is None else commands:
        handler, help_text, flags, horizon = _COMMANDS[command]
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(handler=handler)
        source = p.add_mutually_exclusive_group(required=True) if _SOURCE[0] in flags else p
        for flag in flags:
            options = dict(_OPTIONS[flag], default=horizon) if flag == "--horizon" \
                else _OPTIONS[flag]
            (source if flag in _SOURCE else p).add_argument(flag, **options)
    return parser


def _check_outputs(args, paths) -> None:
    """Refuse to write the table at --output, or the summary of `stability`
    next to it, over the --model file."""
    model = getattr(args, "model", None)
    if paths[0] is None or not model:
        return
    model = Path(model).resolve()
    if paths[0].resolve() == model:
        raise InvalidModelError(
            f"--output {args.output} is the --model file; choose another output name")
    if paths[1:] and paths[1].resolve() == model:
        raise InvalidModelError(
            f"the summary of --output {args.output} would be written to {paths[1]}, "
            f"which is the --model file; choose another output name")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a run that names its subcommand parses with that one alone: the others'
    # parsers print nothing it can reach, and take time to build
    parser = build_parser(argv[:1] if argv[:1] and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    # the first text goes to --output, a second (the summary of `stability`)
    # to its summary path; both go to stdout when --output is not given
    out = _resolve_output(args.output)
    paths = [out, out and _summary_path(out)] if args.command == "stability" else [out]
    try:
        _check_outputs(args, paths)
        code, *texts = args.handler(args)
    except InvalidModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    error = _write_texts(paths, texts)
    if error:
        print(error, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
