"""The benchmark's own self-test passes.

`python3 bench/run.py --smoke` runs every workload at tiny sizes, traced and
untraced, each in a fresh process. It fails when a run's outputs or a trace
point are wrong, or when `BENCHMARK.json` and `bench/workloads.py` name
different workloads or metrics. It takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    assert lines and lines[-1] == "smoke: ok", done.stdout[-2000:] + done.stderr[-2000:]
    assert done.returncode == 0
