"""One set-up measurement in a fresh interpreter.

Prints the ``time.perf_counter`` readings at the start of ``import
roundsim`` and at the end of parsing, validating and expanding every
cell's config: what a user pays before round 0. The interpreter's own
start-up is not included. On Linux that clock is the system-wide
monotonic clock, so the parent reads the window on its own clock.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import copy
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs no roundsim)


def main() -> int:
    cells = copy.deepcopy(workloads.cells(sys.argv[1], int(sys.argv[2])))
    start = time.perf_counter()
    import roundsim.config
    for obj in cells:
        roundsim.config.parse_obj(obj)
    print(repr(start), repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
