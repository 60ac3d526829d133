"""Set-up probe: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.

Imports gch from the checkout's ``src``, generates the workload's inputs
and builds its tasks, then prints its ``perf_counter`` reading: the moment
the first op could start.  ``run.py`` subtracts its own reading taken just
before it started this process; on Linux both read CLOCK_MONOTONIC, so
the difference runs from process start to the first op.
"""

import os
import sys
from time import perf_counter

import entry
import ops
import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    g = entry.Gch(root)
    ops.build(workload, g, workloads.generate(workload, seed), None, root, os.devnull)
    print(repr(perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
