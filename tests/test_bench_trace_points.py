"""Every name the benchmark's tracer wraps must still exist in the package.

`bench/spans.py` wraps library functions by name from outside the package;
a traced benchmark run counts as failed when one of them is gone. This test
loads that file as it is and resolves each of its trace points.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
POINTS = [(module, cls, attr) for module, cls, attr, *_ in SPANS.SPAN_POINTS]
POINTS += [(module, None, attr) for module, attr, _ in SPANS.COUNT_POINTS]


@pytest.mark.parametrize("module,cls,attr", POINTS,
                         ids=[f"{m}.{c + '.' if c else ''}{a}" for m, c, a in POINTS])
def test_trace_point_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = vars(owner).get(cls)
        assert owner is not None, f"{module}.{cls} is gone"
    assert vars(owner).get(attr) is not None, f"{module}.{cls or ''}.{attr} is gone"


def test_tracer_installs_without_missing_points():
    tracer = SPANS.Tracer()
    saved = {}
    for module, cls, attr in POINTS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = vars(owner)[cls]
        saved[(owner, attr)] = vars(owner)[attr]
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)
