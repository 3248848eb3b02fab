"""Outside-in tracing of the filterstab layers.

`Tracer.install` replaces library functions by timing wrappers on the names
as bound in the calling module (``filterstab.harness.run_filter_pair`` is the
name `run_scenario` calls), so no file of the package changes. Each call
becomes a span (name, start, end, parent, work units) kept in memory; the
per-step filter updates are only counted, to keep the overhead small. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


def _observations(result) -> int:
    return len(result.observations)


def _pair_steps(result) -> int:
    return len(result.tv) - 1


def _filter_steps(result) -> int:
    return len(result.log_normalizers)


# (module, class or None, attribute, span name, work units of one call)
SPAN_POINTS = (
    ("filterstab.cli", None, "main", "cli.main", None),
    ("filterstab.cli", None, "load_model", "model.load", None),
    ("filterstab.harness", None, "build_model", "model.build", None),
    ("filterstab.cli", None, "invariant_density", "model.invariant_density", None),
    ("filterstab.harness", None, "invariant_density", "model.invariant_density", None),
    ("filterstab.cli", None, "mixing_coefficients", "model.mixing_coefficients", None),
    ("filterstab.harness", None, "mixing_coefficients", "model.mixing_coefficients", None),
    ("filterstab.cli", None, "primitivity_check", "model.primitivity_check", None),
    ("filterstab.cli", None, "geometric_ergodicity_report", "ergodicity.report", None),
    ("filterstab.cli", None, "sample_trajectory", "simulate.sample_trajectory", _observations),
    ("filterstab.harness", None, "sample_trajectory", "simulate.sample_trajectory", _observations),
    ("filterstab.cli", None, "run_scenario", "harness.run_scenario", None),
    # the only entry to the Kaijser check that `run_scenario` makes
    ("filterstab.harness", None, "_verify_kaijser_on", "harness.kaijser_check", None),
    ("filterstab.harness", None, "run_filter_pair", "filtering.run_filter_pair", _pair_steps),
    ("filterstab.cli", None, "run_filter", "filtering.run_filter", _filter_steps),
    ("filterstab.filtering", None, "run_filter", "filtering.run_filter", _filter_steps),
    ("filterstab.backward", "BackwardContext", "step", "backward.step", None),
    ("filterstab.backward", "BackwardContext", "record", "backward.record", None),
    ("filterstab.backward", "BackwardContext", "likelihood_ratio", "backward.likelihood_ratio", None),
)

# (module, attribute, counter name): one filter update, inside `run_filter`
# and inside `BackwardContext.step`
COUNT_POINTS = (
    ("filterstab.filtering", "filter_step_with_likelihood", "filtering.filter_step"),
    ("filterstab.backward", "filter_step_with_likelihood", "filtering.filter_step"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every span and count point that exists; note the ones that do not."""
        for module, cls, attr, name, units in SPAN_POINTS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            elif isinstance(original, property):
                setattr(owner, attr, property(self._span(name, original.fget, units)))
            else:
                setattr(owner, attr, self._span(name, original, units))
        for module, attr, name in COUNT_POINTS:
            owner = importlib.import_module(module)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module}.{attr}")
            else:
                setattr(owner, attr, self._counter(name, original))

    def _span(self, name, fn, units):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            work = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                work = units(result) if units else 1
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, work)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict:
        """Per span name: calls, work units, inclusive and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, work) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["units"] += work
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[index]
        return out

    def layer_metrics(self) -> dict:
        """The per-layer figures of one traced run."""
        t = self.totals()

        def per_step(*names, steps):
            seconds = sum(t[n]["total_s"] for n in names)
            return 1e6 * seconds / steps if steps else 0.0

        observations = t["simulate.sample_trajectory"]["units"]
        backward_steps = t["backward.step"]["calls"]
        return {
            "simulate.sample_us_per_step": per_step("simulate.sample_trajectory", steps=observations),
            "simulate.calls": t["simulate.sample_trajectory"]["calls"],
            "filtering.pair_us_per_step": per_step(
                "filtering.run_filter_pair", steps=t["filtering.run_filter_pair"]["units"]),
            "filtering.run_filter_us_per_step": per_step(
                "filtering.run_filter", steps=t["filtering.run_filter"]["units"]),
            "filtering.filter_steps_per_obs":
                self.counts["filtering.filter_step"] / observations if observations else 0.0,
            "backward.step_us_per_step": per_step(
                "backward.step", "backward.record", "backward.likelihood_ratio", steps=backward_steps),
            "backward.steps": backward_steps,
            "harness.run_scenario_self_s": t["harness.run_scenario"]["self_s"],
            "harness.kaijser_check_s": t["harness.kaijser_check"]["total_s"],
            "model.invariant_s": t["model.invariant_density"]["total_s"],
            "model.invariant_calls": t["model.invariant_density"]["calls"],
            "model.load_s": t["model.load"]["total_s"] + t["model.build"]["total_s"],
            "model.coefficients_s": t["model.mixing_coefficients"]["total_s"],
            "ergodicity.report_s": t["ergodicity.report"]["total_s"],
            "cli.self_s": t["cli.main"]["self_s"],
        }

    def write(self, path) -> None:
        """Write the spans as CSV: index, name, start, end, parent, units."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,units\n")
            for index, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{end!r},{parent},{work}\n")
