"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <test|frozen> <workload> <seed> <workdir> <smoke 0|1>

Set-up is the import of the package (``test``: dynbatch from ``src/``;
``frozen``: the frozen copy) plus the workload's input generation.  Prints
the seconds it took.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (benchmark code: not timed)


def main() -> int:
    which, workload, seed, workdir, smoke = sys.argv[1:]
    t0 = time.perf_counter()
    if which == "test":
        sys.path.insert(0, str(HERE.parent / "src"))
        import dynbatch as pkg
    else:
        sys.path.insert(0, str(HERE / "frozen"))
        import dynbatch_frozen as pkg
    WORKLOADS[workload](pkg, int(seed), Path(workdir), smoke == "1").setup()
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
