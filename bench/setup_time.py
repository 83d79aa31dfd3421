"""Set-up time of one workload, measured inside a fresh process.

    python3 bench/setup_time.py lang-decide 1

Prints the seconds from just before ``epplan`` is first imported until
every instance of the workload (second argument: the seed) is built, at
nominal host speed (see ``speed.py``).  That covers importing
``epplan``, the ``cli`` demo builders, random generation and formula
parsing, and no planning.  ``run.py`` starts this process several times
per run and reports the median as ``setup_s``.  Timing inside the
process leaves out the interpreter's own start and exit, which no change
to the program moves and which the host-speed samples could not cover.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    with speed.HostSpeed() as host:
        mark = host.mark()
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads  # first import of epplan

        workloads.build(workload, seed)
        elapsed = time.perf_counter() - start
    print(host.scaled(elapsed, mark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
