"""Set-up probe: import coopa, build one workload's inputs, print the time.

    python3 bench/probe.py <workload> <seed>

run.py starts this in a fresh interpreter and reads `setup_s` from the
"ready <seconds>" line. The clock starts once numpy is imported: the
interpreter's start and numpy's import are most of a fresh process's
set-up, cost the same for every version of coopa, and vary with the host.
"""

import sys
from time import perf_counter

import numpy  # noqa: F401  imported before the clock starts

if __name__ == "__main__":
    t0 = perf_counter()
    from inputs import build_inputs

    build_inputs(sys.argv[1], int(sys.argv[2]))
    print(f"ready {perf_counter() - t0!r}", flush=True)
