"""Every benchmark workload, run in process at its default seed, writes the
bytes recorded in `bench/digests.json`.

This test loads `bench/workloads.py` as it is, the way
`test_bench_trace_points.py` loads `spans.py`, and runs each workload's
commands through `cli.main` in an empty directory. The workload's own
`check` compares every output file with its recorded digest.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from filterstab.cli import main

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations through it
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_outputs_match_their_recorded_digests(name, tmp_path, monkeypatch):
    workload = WORKLOADS.WORKLOADS[name]
    seed = WORKLOADS.DEFAULT_SEED
    monkeypatch.delenv("FILTERSTAB_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    workload.prepare(tmp_path)
    for argv in workload.argv(seed, False):
        assert main(argv) == 0, argv
    assert workload.check(tmp_path, seed, False) == []
