"""One measured run of a workload, in a fresh interpreter.

Usage: child.py WORKLOAD SEED TRACE SMOKE, run with the run directory as
working directory.

The first line that matters is the import of `filterstab.cli`: the parent
notes the monotonic clock before it starts this process, and the clock
reading right after the import gives the set-up time. The workload's
commands then run through `filterstab.cli.main`, one after another, and the
last line of standard output is a JSON record of the run.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import filterstab.cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402


def main(argv: list[str]) -> int:
    if not filterstab.cli.__file__.startswith(SRC + os.sep):
        print(f"filterstab imported from {filterstab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    name, seed, trace, smoke = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    commands = WORKLOADS[name].argv(seed, smoke)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    exit_codes = []
    start = time.perf_counter()
    for command in commands:
        exit_codes.append(filterstab.cli.main(command))
    wall = time.perf_counter() - start
    record = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["missing"] = tracer.missing
        tracer.write("spans.csv")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
