"""Command-line interface: model ingestion, experiment dispatch, CSV/JSON output.

Model documents are JSON with keys ``states``, optional ``psi``,
``transition``, ``observation`` ({"type": "finite", "gamma": ..., "theta"
optional} or {"type": "gaussian", "means": ..., "sigma": ...}), ``nu`` and
``beta``. Every model, from a file or a builtin scenario, is validated and
its transition and emission rows renormalized exactly once, by
`model.build_model`: file rows may miss 1 by 1e-6 (library documents by
1e-9), priors by 1e-9. ``--nu``/``--beta`` replace the priors in the document
before it is built. A missing, malformed or non-numeric field exits with
code 1 and a message naming its key.

Numbers in CSV output are formatted with 17 significant digits and JSON
uses shortest-round-trip floats, so both serializations are lossless.
Identical invocations produce byte-identical files; there are no timestamps
or environment-dependent fields in any output.

Exit codes: 0 success, 1 invalid input, 2 numerical failure,
3 property-check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .backward import backward_pass
from .errors import InvalidModelError, NumericalError
from .ergodicity import geometric_ergodicity_report
from .filtering import run_filter
from .harness import (
    SCENARIO_HORIZONS,
    SCENARIO_NAMES,
    Scenario,
    builtin_scenario,
    kaijser_model,
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
ROW_TOL = 1e-6


def parse_config(document: Mapping) -> FiniteModel:
    """Build the model of a parsed document, with the file row tolerance."""
    return build_model(document, row_tol=ROW_TOL)


def load_model(path, true_prior=None, wrong_prior=None) -> FiniteModel:
    """Read a model file; given priors replace the document's before it is built."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise InvalidModelError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"model file {path} is not valid JSON: {exc}") from exc
    return parse_config(with_priors(document, true_prior, wrong_prior))


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    """17-significant-digit text for a float; empty string for None."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


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
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _resolve_output(path: Optional[str]) -> Optional[Path]:
    if path is None:
        return None
    p = Path(path)
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir and not p.is_absolute() and p.parent == Path("."):
        p = Path(env_dir) / p
    return p


def _write_text(path: Optional[Path], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _table_text(header, rows, fmt: str) -> str:
    """Render a result table as CSV (default) or a JSON array of records."""
    if fmt == "csv":
        return _csv_text(header, rows)
    return _json_text([dict(zip(header, row)) for row in rows])


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
    true_prior = _parse_prior(getattr(args, "nu", None))
    wrong_prior = _parse_prior(getattr(args, "beta", None))
    if getattr(args, "scenario", None):
        scenario = builtin_scenario(args.scenario, true_prior=true_prior, wrong_prior=wrong_prior)
        return scenario.model, args.scenario
    if getattr(args, "model", None):
        return load_model(args.model, true_prior, wrong_prior), str(args.model)
    raise InvalidModelError("either --model or --scenario is required")


def _scenario_from_args(args) -> tuple[Scenario, str]:
    model, name = _resolve_model(args)
    replicates = getattr(args, "replicates", None)
    horizon = SCENARIO_HORIZONS.get(args.scenario, 500) if args.horizon is None else args.horizon
    return Scenario(
        name=Path(name).stem,
        model=model,
        horizon=horizon,
        replicates=1 if replicates is None else replicates,
        seed=args.seed,
    ), name


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args) -> int:
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
    _write_text(_resolve_output(args.output), _json_text(report))
    return 0


def _cmd_simulate(args) -> int:
    model, _ = _resolve_model(args)
    horizon = args.horizon if args.horizon is not None else 100
    trajectory = sample_trajectory(model, model.true_prior, horizon, args.seed)
    rows = [(0, int(trajectory.states[0]), None)]
    finite = model.observation.kind == "finite"
    for n in range(1, len(trajectory.states)):
        y = trajectory.observations[n - 1]
        rows.append((n, int(trajectory.states[n]), int(y) if finite else float(y)))
    _write_text(
        _resolve_output(args.output),
        _table_text(["n", "state", "observation"], rows, args.format),
    )
    return 0


def _cmd_stability(args) -> int:
    scenario, name = _scenario_from_args(args)
    if scenario.replicates < 1:
        raise InvalidModelError("stability needs at least one replicate")
    records = run_scenario(scenario, window_fraction=args.window_fraction)
    first = records[0]
    coeffs = first.coeffs
    rate = coeffs.tv_decay_rate

    rows = []
    n_steps = len(first.trajectory.observations)
    for n in range(n_steps + 1):
        tv = float(first.pair.tv[n])
        log_tv = math.log(tv) if tv > 0.0 else -math.inf
        delta_max = None if n == 0 else float(first.oscillations[n - 1].max())
        if n == 0 or first.bounds_vacuous:
            bound_max = None
        else:
            bound_max = float(first.oscillation_bounds[n - 1].max())
        rows.append((
            n, tv, log_tv, -rate * n + 0.0,
            delta_max, bound_max, float(first.likelihood_ratios[n]),
        ))
    table = _table_text(
        ["n", "tv", "log_tv", "bound_log_tv", "delta_max", "osc_bound_max", "likelihood_ratio"],
        rows,
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
        "bounds_vacuous": first.bounds_vacuous,
    }
    passed = slope_ok and summary["tv_range_ok"]
    if first.kaijser is not None:
        summary["kaijser"] = _kaijser_payload(first.kaijser)
        passed = passed and first.kaijser.passed
    summary["passed"] = passed

    out = _resolve_output(args.output)
    if out is None:
        _write_text(None, table)
        _write_text(None, _json_text(summary))
    else:
        _write_text(out, table)
        _write_text(out.with_suffix(".json") if out.suffix != ".json"
                    else out.with_suffix(".summary.json"), _json_text(summary))
    return 0 if passed else 3


def _cmd_ergodicity(args) -> int:
    model, name = _resolve_model(args)
    n_max = args.horizon if args.horizon is not None else 50
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    report = geometric_ergodicity_report(model, invariant, coeffs, n_max)
    rows = []
    for u in range(model.space.num_states):
        for n in range(1, n_max + 1):
            gap = float(report.gaps[n - 1, u])
            if report.applicable:
                bound = report.prefactor * report.ratio**n
                ratio = gap / bound if bound >= report.floor else None
            else:
                bound = None
                ratio = None
            rows.append((u, n, gap, bound, ratio))
    _write_text(
        _resolve_output(args.output),
        _table_text(["u", "n", "gap", "bound", "ratio"], rows, args.format),
    )
    if report.applicable:
        ok = report.worst_ratio <= 1.0 and report.unresolved_max_gap <= report.floor + 1e-12
        return 0 if ok else 3
    return 0


def _cmd_backward(args) -> int:
    scenario, _ = _scenario_from_args(args)
    model = scenario.model
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    seed = derive_seed(scenario.seed, 0)
    trajectory = sample_trajectory(model, model.true_prior, scenario.horizon, seed)
    run = run_filter(model.wrong_prior, trajectory.observations, model, prior_label="wrong")
    prior_ratio = np.divide(model.true_prior.values, model.wrong_prior.values)
    backward = backward_pass(model, model.wrong_prior, coeffs, run.densities, prior_ratio)
    steps = range(1, len(trajectory.observations) + 1)
    delta_max = backward.oscillations.max(axis=1).tolist()
    if backward.bounds is None:
        rows = list(zip(steps, delta_max, [None] * len(delta_max)))
        violation = False
    else:
        rows = list(zip(steps, delta_max, backward.bounds.max(axis=1).tolist()))
        violation = bool(np.any(backward.oscillations > backward.bounds + 1e-12))
    _write_text(
        _resolve_output(args.output),
        _table_text(["n", "delta_max", "osc_bound_max"], rows, args.format),
    )
    return 3 if violation else 0


def _cmd_kaijser(args) -> int:
    horizon = args.horizon if args.horizon is not None else SCENARIO_HORIZONS["kaijser"]
    # the default true prior is the registry model's, which `kaijser_model`
    # renormalizes again; kept so that `kaijser` output keeps its bits
    true_prior = _parse_prior(args.nu) or kaijser_model().true_prior.values
    report = kaijser_verify(true_prior, _parse_prior(args.beta), horizon, args.seed)
    payload = _kaijser_payload(report)
    payload.update({"horizon": horizon, "seed": args.seed})
    _write_text(_resolve_output(args.output), _json_text(payload))
    return 0 if report.passed else 3


def _cmd_lln(args) -> int:
    model, _ = _resolve_model(args)
    horizon = args.horizon if args.horizon is not None else 10_000
    invariant = invariant_density(model.kernel, model.space)
    trajectory = sample_trajectory(model, model.true_prior, horizon, args.seed)
    # the time-average limit does not depend on the filter's initial density,
    # so a misspecified start is a legitimate (and interesting) variant
    if args.wrong_prior:
        run = run_filter(model.wrong_prior, trajectory.observations, model, prior_label="wrong")
    else:
        run = run_filter(model.true_prior, trajectory.observations, model, prior_label="correct")
    space = model.space
    d = space.num_states
    weighted = run.densities[:-1] * space.weights
    partial = np.cumsum(weighted, axis=0) / np.arange(1, horizon + 1)[:, None]
    targets = invariant.values * space.weights
    rows = []
    for n in range(1, horizon + 1):
        for state in range(d):
            avg = float(partial[n - 1, state])
            rows.append((
                n, state, avg, float(targets[state]), abs(avg - float(targets[state])),
            ))
    _write_text(
        _resolve_output(args.output),
        _table_text(["n", "state", "running_average", "target", "gap"], rows, args.format),
    )
    return 0


def _kaijser_payload(report) -> dict:
    return {
        "constant": report.constant,
        "floor": report.floor,
        "max_drift": report.max_drift,
        "agreement_gap": report.agreement_gap,
        "floor_ok": report.floor_ok,
        "tv_first": report.tv_first,
        "gap_obs_one": report.constants.gap_obs_one,
        "gap_obs_zero": report.constants.gap_obs_zero,
        "passed": report.passed,
    }


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filterstab",
        description="Finite-state filter stability experiments: coefficients, "
                    "decay rates, contraction bounds, counterexample checks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p, scenario_ok=True, replicates=False):
        if scenario_ok:
            p.add_argument("--model", help="path to a model JSON document")
            p.add_argument("--scenario", choices=SCENARIO_NAMES,
                           help="builtin scenario name")
        p.add_argument("--nu", help="comma-separated override of the data-generating prior")
        p.add_argument("--beta", help="comma-separated override of the filter prior")
        p.add_argument("--horizon", type=int, default=None, help="number of steps")
        if replicates:
            p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--output", help="output file path (default: stdout; relative bare "
                                        f"names resolve under ${OUTPUT_DIR_ENV} when set)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table output format (reports are always JSON)")

    p = sub.add_parser("validate", help="model coefficients and invariant density")
    add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("simulate", help="sample a trajectory to CSV")
    add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("stability", help="paired-filter TV trajectory and decay summary")
    add_common(p, replicates=True)
    p.add_argument("--window-fraction", dest="window_fraction", type=float, default=0.5,
                   help="trailing fraction of steps used for the slope fit")
    p.set_defaults(handler=_cmd_stability)

    p = sub.add_parser("ergodicity", help="n-step convergence against the geometric envelope")
    add_common(p)
    p.set_defaults(handler=_cmd_ergodicity)

    p = sub.add_parser("backward", help="backward-density oscillation and its envelope")
    add_common(p, replicates=True)
    p.set_defaults(handler=_cmd_backward)

    p = sub.add_parser("kaijser", help="counterexample regression gate")
    add_common(p, scenario_ok=False)
    p.set_defaults(handler=_cmd_kaijser)

    p = sub.add_parser("lln", help="running averages of posterior expectations")
    add_common(p)
    p.add_argument("--wrong-prior", dest="wrong_prior", action="store_true",
                   help="start the filter from the misspecified prior instead")
    p.set_defaults(handler=_cmd_lln)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except InvalidModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
