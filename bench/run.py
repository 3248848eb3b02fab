"""filterstab benchmark: time the CLI on fixed workloads and check every output.

    python3 bench/run.py --workload mixing2-replicates --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40 --trace 1
    python3 bench/run.py --smoke

A benchmark run measures one workload for --seconds seconds. It runs the
workload again and again, each time in a fresh process (`child.py`), and
checks every run's outputs. With --trace 1 the runs alternate between
untraced and traced processes; the traced ones wrap the package's functions
from outside and give the per-layer figures. Between the runs a reference
loop gauges how fast the shared machine is at the moment, and every time is
corrected by that factor.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the workload runs, and ``metrics`` holds
the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1), each
the median over the runs. The lines before it give the same figures with
their spread and the times before correction, for people. See README.md
next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "runs"

MIN_RUNS = 3            # of each kind (untraced, traced) in a measured run
CAP_S = 150             # stop starting runs after this; a run may take 180 s in all

# The reference loop: interpreter-bound Python around tiny numpy operations,
# like the workloads, and none of the package's code. It takes about
# REFERENCE_S on the calibration machine when nothing else loads it.
REFERENCE_ITERATIONS = 25_000
REFERENCE_S = 0.09

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "simulate.sample_us_per_step": "us/step",
    "simulate.calls": "count",
    "filtering.pair_us_per_step": "us/step",
    "filtering.run_filter_us_per_step": "us/step",
    "filtering.filter_steps_per_obs": "count",
    "backward.step_us_per_step": "us/step",
    "backward.steps": "count",
    "harness.run_scenario_self_s": "s",
    "harness.kaijser_check_s": "s",
    "model.invariant_s": "s",
    "model.invariant_calls": "count",
    "model.load_s": "s",
    "model.coefficients_s": "s",
    "ergodicity.report_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
# Times of layers that some workload never enters: they read exactly 0 on
# every run of that workload, so they are printed but left out of the JSON.
PRINTED_ONLY = {
    "filtering.pair_us_per_step",
    "backward.step_us_per_step",
    "harness.run_scenario_self_s",
    "harness.kaijser_check_s",
    "ergodicity.report_s",
}
# Counts that must repeat exactly between runs of the same code.
DETERMINISTIC = ("simulate.calls", "filtering.filter_steps_per_obs", "backward.steps",
                 "model.invariant_calls")
STABILITY_WORKLOADS = ("mixing2-replicates", "kaijser-long")


def start_child(args: list[str], cwd: Path, timeout: float):
    """Run child.py to completion; return (start clock, duration, process)."""
    env = {k: v for k, v in os.environ.items() if k != "FILTERSTAB_OUTPUT_DIR"}
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    return started, time.clock_gettime(time.CLOCK_MONOTONIC) - started, proc


def last_json_line(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_once(workload, seed: int, traced: bool, smoke: bool, timeout: float) -> dict:
    """One workload run in a fresh process, its outputs checked."""
    directory = OUT / workload.name / ("traced" if traced else "plain")
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    workload.prepare(directory)
    args = [workload.name, str(seed), str(int(traced)), str(int(smoke))]
    try:
        started, duration, proc = start_child(args, directory, timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "duration": timeout, "problems": [f"timed out after {timeout:.0f} s"]}
    record = last_json_line(proc.stdout) if proc.returncode == 0 else None
    if record is None:
        return {"traced": traced, "duration": duration,
                "problems": [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    problems = []
    if any(code != 0 for code in record["exit_codes"]):
        problems.append(f"command exit codes {record['exit_codes']}")
    problems += workload.check(directory, seed, smoke)
    problems += [f"trace point not found: {name}" for name in record.get("missing", ())]
    record.update(
        traced=traced, duration=duration, problems=problems,
        setup_s=record["imported_at"] - started,
        output_bytes=sum(p.stat().st_size for p in workload.output_files(directory)),
    )
    return record


def check_counts(runs: list[dict]) -> None:
    """Fail every run whose deterministic counts differ from the first run's."""
    first = {}
    for run in runs:
        if "output_bytes" not in run:
            continue
        counts = {"cli.output_bytes": run["output_bytes"]}
        if run["traced"]:
            counts.update((name, run["layers"][name]) for name in DETERMINISTIC)
        for name, value in counts.items():
            expected = first.setdefault(name, value)
            if value != expected:
                run["problems"].append(f"{name} = {value}, first run had {expected}")


def reference_s() -> float:
    """Time one pass of the reference loop.

    It runs in this process, which never imports filterstab, so the program
    under test cannot change it; it only tells how fast the machine is now.
    """
    matrix = np.array([[0.9, 0.1], [0.2, 0.8]])
    v = np.array([0.5, 0.5])
    x = 1
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        v = matrix.T @ v
        v = v / v.sum()
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return time.perf_counter() - start


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool,
            min_runs: int = MIN_RUNS) -> dict:
    """Measure one workload for `seconds`; return its runs and metrics.

    The reference loop runs before the first run and after each one. A
    run's slowdown is the mean of the two passes around it over REFERENCE_S,
    and its times are divided by it, so that a machine shared with other
    work reports the speed it would have if it were not.
    """
    start = time.monotonic()
    kinds = (False, True) if trace else (False,)
    runs: list[dict] = []
    reference = [reference_s()]
    while True:
        for traced in kinds:
            timeout = max(10.0, CAP_S + 20 - (time.monotonic() - start))
            run = run_once(workload, seed, traced, smoke, timeout)
            reference.append(reference_s())
            run["slowdown"] = (reference[-2] + reference[-1]) / (2 * REFERENCE_S)
            runs.append(run)
        elapsed = time.monotonic() - start
        next_round = sum(statistics.median(r["duration"] for r in runs if r["traced"] == k)
                         for k in kinds)
        if elapsed + next_round > CAP_S or (
                len(runs) >= min_runs * len(kinds) and elapsed + next_round > seconds):
            break
    check_counts(runs)
    measured = [r for r in runs if "wall_s" in r]
    for r in measured:
        r["wall_ref_s"] = r["wall_s"] / r["slowdown"]
        r["setup_ref_s"] = r["setup_s"] / r["slowdown"]
    plain = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    steps = workload.observation_steps(smoke)
    metrics = {}
    if plain:
        wall = statistics.median(r["wall_ref_s"] for r in plain)
        metrics.update(
            wall_s=wall,
            steps_per_s=steps / wall,
            setup_s=statistics.median(r["setup_ref_s"] for r in measured),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in plain),
        )
    if traced:
        for name in traced[0]["layers"]:
            is_time = LAYER_UNITS[name] in ("s", "us/step")
            metrics[name] = statistics.median(
                r["layers"][name] / (r["slowdown"] if is_time else 1.0) for r in traced)
        metrics["cli.output_bytes"] = statistics.median(r["output_bytes"] for r in traced)
        if plain:
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_ref_s"] for r in traced) - metrics["wall_s"])
    return {"runs": runs, "steps": steps, "metrics": metrics}


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


def report(name: str, result: dict, trace: bool) -> None:
    runs, metrics = result["runs"], result["metrics"]
    failed = [r for r in runs if r["problems"]]
    print(f"== {name}: {len(runs)} runs, {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(runs):.6g}")
    for run in failed:
        print(f"   failed ({'traced' if run['traced'] else 'untraced'}): {'; '.join(run['problems'])}")
    measured = [r for r in runs if "wall_s" in r]
    plain = [r for r in measured if not r["traced"]]
    samples = {
        "wall_s": [r["wall_ref_s"] for r in plain],
        "steps_per_s": [result["steps"] / r["wall_ref_s"] for r in plain],
        "setup_s": [r["setup_ref_s"] for r in measured],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    raw = {"wall_s": [r["wall_s"] for r in plain], "setup_s": [r["setup_s"] for r in measured]}
    for metric, unit in END_TO_END_UNITS.items():
        if metric in metrics:
            print(f"   {metric:<34} {metrics[metric]:>14.6g} {unit:<8} {spread(samples[metric])}")
            if metric in raw:
                print(f"   {'  as timed, before correction':<34} "
                      f"{statistics.median(raw[metric]):>14.6g} {unit:<8} {spread(raw[metric])}")
    if measured:
        slowdowns = [r["slowdown"] for r in runs]
        print(f"   {'machine slowdown':<34} {statistics.median(slowdowns):>14.6g} {'x':<8} "
              f"{spread(slowdowns)}")
    if trace:
        for metric, unit in LAYER_UNITS.items():
            if metric in metrics:
                print(f"   {metric:<34} {metrics[metric]:>14.6g} {unit}")


def roadmap_table(results: dict) -> None:
    """Microseconds per step of sampling, the filter pair and the backward
    context on each stability workload."""
    rows = [
        ("sample_trajectory", "simulate.sample_us_per_step"),
        ("run_filter_pair", "filtering.pair_us_per_step"),
        ("BackwardContext.step + record + likelihood_ratio", "backward.step_us_per_step"),
    ]
    names = [n for n in STABILITY_WORKLOADS if n in results]
    if not names:
        return
    print("   us per step (traced) | " + " | ".join(names))
    for label, metric in rows:
        print(f"   {label} | " + " | ".join(f"{results[n]['metrics'][metric]:.4g}" for n in names))


def json_metrics(metrics: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        chosen = {k: u for k, u in LAYER_UNITS.items() if k not in PRINTED_ONLY}
    else:
        chosen = END_TO_END_UNITS
    return {prefix + k: {"value": metrics[k], "unit": u} for k, u in chosen.items() if k in metrics}


def smoke_test() -> int:
    """Run every workload at tiny sizes, traced and untraced, and check that
    every run passes and every metric of BENCHMARK.json comes out with its unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name, workload in WORKLOADS.items():
        result = measure(workload, DEFAULT_SEED, 0, trace=True, smoke=True, min_runs=1)
        report(name, result, trace=True)
        problems += [f"{name}: {p}" for r in result["runs"] for p in r["problems"]]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            emitted = {k: v["unit"] for k, v in json_metrics(result["metrics"], trace).items()}
            wanted = {m["name"]: m["unit"] for m in declared[key]}
            if emitted != wanted:
                problems.append(f"{name}: {key} metrics {emitted} != BENCHMARK.json {wanted}")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test at tiny sizes instead of a measurement")
    args = parser.parse_args()
    if not (ROOT / "src" / "filterstab" / "cli.py").is_file():
        print(f"error: no filterstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process, its runs and the reference loop, so that the
    # loop sees the load that the runs see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.smoke:
        return smoke_test()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    for name in names:
        results[name] = measure(WORKLOADS[name], args.seed, args.seconds, trace, smoke=False)
        report(name, results[name], trace)
    if trace:
        roadmap_table(results)

    runs = [r for res in results.values() for r in res["runs"]]
    failed = sum(1 for r in runs if r["problems"])
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(json_metrics(res["metrics"], trace, prefix))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
